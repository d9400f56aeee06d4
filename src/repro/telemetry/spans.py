"""Hierarchical tracing spans.

``span("chase.round", round=3)`` is a context manager carrying a name,
structured attributes, wall-clock duration, and children; nesting is
tracked per thread.  When span recording is disabled, :func:`span`
returns a shared no-op object — no allocation, no timing calls.

A span is reported to the registered sinks when it closes, children
before parents (so a JSONL trace is a postorder event stream, while an
in-memory sink can hang on to the ``depth == 0`` roots and get whole
trees for free).
"""

from __future__ import annotations

import time
from typing import Any

from .core import TELEMETRY

__all__ = ["Span", "span"]

# Wall-clock anchor for span start times.  A span's start is stamped
# from the same perf_counter reading that its duration starts from, so
# a child's [start, start + duration] interval always lies within its
# parent's; a separate time.time() reading could land on either side.
_WALL0 = time.time()
_PERF0 = time.perf_counter()


class Span:
    """One timed, attributed region of work."""

    __slots__ = ("name", "attributes", "children", "start_ts", "_t0",
                 "duration", "status", "error", "depth")

    def __init__(self, name: str, attributes: dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.children: list["Span"] = []
        self.start_ts = 0.0
        self._t0 = 0.0
        self.duration = 0.0
        self.status = "ok"
        self.error: str | None = None
        self.depth = 0

    def set(self, **attributes: Any) -> "Span":
        """Attach or overwrite attributes mid-flight."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        stack = TELEMETRY.stack
        if stack:
            parent = stack[-1]
            parent.children.append(self)
            self.depth = parent.depth + 1
        stack.append(self)
        self._t0 = time.perf_counter()
        self.start_ts = _WALL0 + (self._t0 - _PERF0)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        stack = TELEMETRY.stack
        if stack and stack[-1] is self:
            stack.pop()
        TELEMETRY.emit_span(self)
        return False

    def to_event(self) -> dict[str, Any]:
        """The flat JSONL representation of a closed span."""
        event: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "ts": self.start_ts,
            "duration": self.duration,
            "depth": self.depth,
            "status": self.status,
        }
        if self.error is not None:
            event["error"] = self.error
        if self.attributes:
            event["attrs"] = dict(self.attributes)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.2f}ms, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """Shared do-nothing span used when recording is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attributes: Any):
    """Open a tracing span (context manager).

    No-op (a shared singleton, not a fresh object) unless span recording
    is enabled via ``TELEMETRY.enable(...)``.
    """
    if not TELEMETRY.spans:
        return _NOOP
    return Span(name, attributes)
