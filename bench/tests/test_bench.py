"""Tests of the benchmark itself: seeded inputs and output checks.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import convert_long  # noqa: E402
import lexicon  # noqa: E402
import treebank  # noqa: E402
from harness import check, execute  # noqa: E402
from leril import cli  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
SMALL = {
    "treebank": {"base_sentences": 60, "batch_size": 10},
    "convert_long": {"n": 40, "chunks": 2},
    "lexicon": {
        "records": 40, "known_transfers": 3, "unmatched_transfers": 1,
        "formulas": 20, "deep_formulas": 1, "deep_depth": 30,
    },
}
MODULES = {"treebank": treebank, "convert_long": convert_long, "lexicon": lexicon}


@pytest.fixture
def workdir(request):
    path = ROOT / ".bench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def _setup(name: str, directory: Path, seed: int):
    sizes = dict(SPEC["workloads"][name]["sizes"], **SMALL[name])
    directory.mkdir()
    return MODULES[name].setup(directory, random.Random(f"{name}:{seed}"), sizes)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_same_seed_gives_identical_inputs(name, workdir):
    _setup(name, workdir / "a", 7)
    _setup(name, workdir / "b", 7)
    _setup(name, workdir / "c", 8)
    assert _files(workdir / "a") == _files(workdir / "b")
    assert _files(workdir / "a") != _files(workdir / "c")


def _corrupt(out: str) -> str:
    """Change one visible character in the middle of the output, or add one."""
    if not out:
        return "x\n"
    i = len(out) // 2
    while out[i].isspace():
        i += 1
    return out[:i] + ("Q" if out[i] != "Q" else "R") + out[i + 1 :]


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_checker_passes_real_output_and_flags_corrupted_output(name, workdir):
    workload = _setup(name, workdir / "w", 3)
    for op in workload.prepare:
        assert check(op, *_capture(op.argv)) is None, op.kind
    workload.reset()
    for op in workload.ops:
        code, out, err = _capture(op.argv)
        assert check(op, code, out, err) is None, op.kind
        assert check(op, code, _corrupt(out), err) is not None, op.kind
        assert check(op, code + 1, out, err) is not None, op.kind
        assert check(op, code, out, err + "warning: extra\n") is not None, op.kind


def test_failing_op_counts_as_failed(workdir):
    probe = lexicon.deep_formula_probe(workdir, random.Random(1), 5)
    assert execute(cli.run, probe)[1] is None

    def broken(argv):
        raise RecursionError("maximum recursion depth exceeded")

    assert execute(broken, probe)[1].startswith("RecursionError")
