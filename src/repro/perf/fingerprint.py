"""Environment fingerprints for trajectory files.

Wall-clock numbers only mean something relative to the machine, boot
and interpreter that produced them, so every ``BENCH_*.json`` embeds a
fingerprint and :mod:`repro.perf.compare` gates wall-time regressions
on fingerprint *equality*: a committed baseline from another machine
or another boot still gates the deterministic counters, while a
same-job baseline (the CI self-test) gates seconds too.

``node`` is deliberately included — two CI runners with identical
platform strings can still differ wildly in sustained clock speed, and
a false wall-time alarm is worse than a skipped one.  ``node`` alone
is not enough: virtual machines often share a generic host name, so
``boot_id`` (the kernel's per-boot random id, ``""`` where the platform
has none) pins the comparison to the boot that recorded the baseline.
"""

from __future__ import annotations

import platform

__all__ = ["environment_fingerprint"]

_BOOT_ID_PATH = "/proc/sys/kernel/random/boot_id"


def _boot_id() -> str:
    """The kernel's id of the current boot, or ``""`` if unreadable."""
    try:
        with open(_BOOT_ID_PATH, encoding="ascii") as handle:
            return handle.read().strip()
    except (OSError, ValueError):
        return ""


def environment_fingerprint() -> dict[str, str]:
    """The identity under which wall-clock comparisons are valid."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "node": platform.node(),
        "boot_id": _boot_id(),
    }
