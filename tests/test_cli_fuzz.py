"""Fuzzing the command line: rule files from a token alphabet, and flag
combinations.

Every run must end with exit code 0, 1 or 2 and no other exception.
A rules file the loader rejects must give exit 2 with a ``cannot
load`` message on stderr, and exit 2 from ``lint`` or ``chase`` must
mean exactly that, or, from ``chase``, a ``budget exhausted`` status
line: a chase a budget stopped is undecided.  A flag value out of range, an invalid choice or
the retired ``--backend`` flag is an argparse usage error: exit 2 with
an ``error:`` line and no traceback.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _load_dependencies, main

RELATIONS = st.sampled_from(("R", "P", "T"))
VARIABLES = st.sampled_from(("x", "y", "z"))
TOKENS = (
    "R", "P", "T", "(", ")", ",", "->", "exists", ".", "=", "false",
    "x", "y", "z", "\n", "#",
)

# Token soup: almost never a rule, so it drives the loader's rejections.
NOISE = st.lists(
    st.tuples(st.sampled_from(TOKENS), st.sampled_from(("", " "))),
    max_size=16,
).map(lambda pairs: "".join(token + gap for token, gap in pairs))

# Rules assembled from the same tokens: relations at arities 0-3, so a
# file often uses one relation at two arities.
ATOM = st.builds(
    lambda rel, args: f"{rel}({', '.join(args)})",
    RELATIONS, st.lists(VARIABLES, max_size=3),
)
CONJUNCTION = st.lists(ATOM, min_size=1, max_size=3).map(", ".join)
HEAD = st.one_of(
    CONJUNCTION,
    st.just("false"),
    st.builds(lambda a, b: f"{a} = {b}", VARIABLES, VARIABLES),
    st.builds(lambda c: f"exists z . {c}", CONJUNCTION),
)
RULE = st.builds(
    lambda body, head: f"{', '.join(body)} -> {head}",
    st.lists(ATOM, max_size=2), HEAD,
)

RULE_TEXTS = st.lists(
    st.one_of(RULE, RULE, RULE, NOISE, st.just("# a comment")), max_size=3
).map("\n".join)


def _run(argv):
    """``main(argv)`` with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _rejected(path: Path) -> bool:
    try:
        _load_dependencies(str(path))
    except (OSError, ValueError):
        return True
    return False


@given(text=RULE_TEXTS)
@settings(max_examples=250, deadline=None, derandomize=True)
def test_fuzzed_rule_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        rules = Path(tmp) / "fuzz.rules"
        rules.write_text(text)
        data = Path(tmp) / "one.facts"
        data.write_text("R(a)\n")
        rejected = _rejected(rules)
        for argv in (
            ["lint", str(rules)],
            ["chase", str(rules), str(data), "--max-rounds", "3"],
        ):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err
            if rejected:
                assert code == 2, (text, argv)
                assert f"cannot load {rules}: " in err, err
            if code == 2:
                assert (
                    "cannot load" in err or "budget exhausted" in out
                ), (text, argv, err)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    rules = root / "e9.rules"
    rules.write_text("R(x) -> P(x)\nR(x), P(x) -> T(x)\n")
    data = root / "d.facts"
    data.write_text("R(a). R(b)")
    return str(rules), str(data)


INTS = st.integers(min_value=-2, max_value=3)

CHASE_FLAGS = st.fixed_dictionaries({}, optional={
    "--max-rounds": INTS,
    "--delta-chunk": INTS,
    "--max-facts": INTS,
    "--max-memory-mb": st.sampled_from([-1, 0, 1, 1 << 20]),
    "--certificate": st.sampled_from(["off", "auto", "always"]),
    "--backend": st.sampled_from(["object", "columnar"]),
    "--order": st.sampled_from(["static", "adaptive"]),
})

REWRITE_FLAGS = st.fixed_dictionaries({}, optional={
    "--jobs": INTS,
    "--max-candidates": INTS,
    "--max-seconds": st.sampled_from([-1.0, 0.0, 30.0]),
    "--target": st.sampled_from(["linear", "full", "sticky"]),
    "--backend": st.sampled_from(["object", "columnar"]),
    "--order": st.sampled_from(["static", "adaptive"]),
})

MINIMUMS = {
    "--max-rounds": 0, "--max-facts": 0,
    "--max-candidates": 0, "--max-seconds": 0,
}
CHOICES = {
    "--certificate": ("off", "auto"),
    "--target": ("linear", "guarded", "full"),
}


# Flags the CLI no longer has; any value is an unknown argument.
REMOVED = (
    "--backend", "--order", "--max-memory-mb", "--delta-chunk", "--jobs",
)


def _usage_error(flags) -> bool:
    return any(flag in flags for flag in REMOVED) or any(
        value < MINIMUMS[flag] if flag in MINIMUMS
        else value not in CHOICES[flag]
        for flag, value in flags.items()
        if flag not in REMOVED
    )


def _argv(flags):
    return [part for flag, value in flags.items()
            for part in (flag, str(value))]


@given(flags=CHASE_FLAGS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzzed_chase_flags(small_files, flags):
    rules, data = small_files
    code, out, err = _run(["chase", rules, data, *_argv(flags)])
    assert "Traceback" not in err
    if _usage_error(flags):
        assert code == 2 and "error:" in err, (flags, code, err)
    elif "budget exhausted" in out:
        assert code == 2, (flags, code, out)
    else:
        assert code == 0 and "chase terminated" in out, (flags, code, err)


@given(flags=REWRITE_FLAGS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzzed_rewrite_flags(small_files, flags):
    rules, _ = small_files
    # A candidate budget keeps each search short; the fuzzed value, if
    # any, replaces it.
    code, _out, err = _run(
        ["rewrite", rules, *_argv({"--max-candidates": 0, **flags})]
    )
    assert "Traceback" not in err
    if _usage_error(flags):
        assert code == 2 and "error:" in err, (flags, code, err)
    else:
        assert code in (0, 1), (flags, code, err)
