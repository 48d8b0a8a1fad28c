"""Ops, in-process execution and output checks shared by every workload."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

_SEVERITY_RE = re.compile(r"^(warning|error)\b", re.MULTILINE)


@dataclass
class Op:
    """One ``leril`` command line and the generator's answer for it.

    ``stdout`` is either the exact expected text or a function that returns
    a failure reason (or None) for the text produced. ``warnings`` and
    ``errors`` count the diagnostics expected on stderr; info lines are not
    counted, so their wording may change freely.
    """

    kind: str
    argv: list[str]
    stdout: str | Callable[[str], str | None]
    code: int = 0
    warnings: int = 0
    errors: int = 0


def check(op: Op, code: int, out: str, err: str) -> str | None:
    """Failure reason for one op's result, or None when it is correct."""
    if code != op.code:
        return f"exit {code}, expected {op.code}"
    counts = {"warning": 0, "error": 0}
    for m in _SEVERITY_RE.finditer(err):
        counts[m.group(1)] += 1
    if (counts["warning"], counts["error"]) != (op.warnings, op.errors):
        return (
            f"{counts['warning']} warnings and {counts['error']} errors on stderr, "
            f"expected {op.warnings} and {op.errors}"
        )
    if callable(op.stdout):
        return op.stdout(out)
    if out != op.stdout:
        return f"stdout differs ({len(out)} chars, expected {len(op.stdout)})"
    return None


def execute(run: Callable[[list[str]], int], op: Op) -> tuple[float, str | None]:
    """Run one op in-process; returns its wall time and failure reason.

    Any exception escaping ``run`` is a failed op, reported by type.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(op.argv)
    except Exception as exc:  # the op's failure is the measurement
        return perf_counter() - start, f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = perf_counter() - start
    return elapsed, check(op, code, out.getvalue(), err.getvalue())


# The calibration loop's time on a 2-core x86-64 VM under CPython 3.11 at
# that machine's full speed: the speed that reference times are quoted at.
REF_CALIBRATION_S = 0.010


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, the benchmark's yardstick.

    The shared machines this benchmark runs on change speed by up to 1.9x
    for tens of seconds at a time, and a pure-Python loop slows with leril
    itself (process CPU time slows as much as wall time). Dividing an op's
    time by the mean of this loop's times just before and just after it
    cancels most of that; see ``reference``.
    """
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return perf_counter() - start


def reference(elapsed: float, calibration: float) -> float:
    """``elapsed`` seconds at the reference speed: the time the same work
    takes when the calibration loop takes ``REF_CALIBRATION_S``."""
    return elapsed * REF_CALIBRATION_S / calibration


def lines(rows: list[str]) -> str:
    """Text as the CLI prints a list of lines: newline-terminated, or empty."""
    return "\n".join(rows) + "\n" if rows else ""


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Workload:
    """Generated inputs: ops run once during set-up, then one timed pass.

    ``reset`` runs untimed before every pass, so that every pass sees the
    same program state and does the same work.
    """

    prepare: list[Op]
    ops: list[Op]
    reset: Callable[[], None] = lambda: None
