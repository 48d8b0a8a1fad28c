#!/usr/bin/env python3
"""leril benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload treebank --seed 1 --seconds 30 --trace 0

Every op is one in-process ``leril.cli.run([...])`` call from a single
client, closed loop, with stdout and stderr captured and checked against
the answer the input generator gives. Set-up generates the inputs (and, for
``treebank``, builds the store) several times and reports the median, in
reference seconds like every end-to-end timing (its unit reads ``s``). An
untimed warm-up runs the first op of each kind; the timed passes then
repeat until ``--seconds`` have passed, and the pass in progress finishes.

Each op is timed between two runs of a fixed pure-Python calibration loop,
and its latency is reported at the reference speed (see
``harness.calibrate``): the machines this runs on change speed by up to
1.9x for tens of seconds, and raw wall times of the same code spread by a
third from run to run. Raw medians are printed in the summary lines.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, including a
subprocess ``python -m leril.cli`` cold start, the median of launches made
between passes. ``--trace 1`` spends half the time untraced and half with
spans around every layer call (see tracing.py) and reports the per-layer
metrics, per traced pass. The summary lines above the JSON also give
fail_ratio, the tail's percentile and sample count, and the known-defect
probe. Inputs and stores live in ``.bench_work/`` and are removed at exit;
the spans of the last traced run stay in ``.bench_work/trace-<workload>/``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Without leril sources under ``src/`` the benchmark exits 1 without
printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import lexicon
from harness import Op, calibrate, check, execute, reference, tail
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Per-layer metric suffix -> Tracer.totals() field.
STATS = {
    "calls": "calls", "busy_s": "busy", "self_s": "self", "records": "size", "rejected": "raised",
}


def load_leril():
    """Import leril from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "leril" / "cli.py").is_file():
        raise SystemExit(f"error: no leril sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leril
    import leril.cli

    if Path(leril.__file__).resolve().parent != SRC / "leril":
        raise SystemExit(f"error: imported leril from {leril.__file__}, not {SRC}")
    return leril


class Tally:
    """Counts every checked op and keeps each failure reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, op: Op, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op.kind}: {reason}")


def run_passes(workload, seconds: float, run, tally: Tally, tracer=None, between=None):
    """Whole passes until ``seconds`` have elapsed; each pass's op latencies
    as (raw seconds, reference seconds).

    ``between`` runs after every pass, outside the timed ops.
    """
    passes: list[list[tuple[float, float]]] = []
    deadline = perf_counter() + seconds
    while True:
        workload.reset()
        latencies = []
        before = calibrate()
        for op in workload.ops:
            if tracer is not None:
                tracer.op_id += 1
            elapsed, reason = execute(run, op)
            after = calibrate()  # also the next op's "before"
            tally(op, reason)
            latencies.append((elapsed, reference(elapsed, (before + after) / 2)))
            before = after
        passes.append(latencies)
        if between is not None:
            between()
        if perf_counter() >= deadline:
            return passes


def pass_time(passes: list[list[tuple[float, float]]], field: int = 1) -> float:
    """One pass's time with every op at its median over ``passes``."""
    return sum(median(p[i][field] for p in passes) for i in range(len(passes[0])))


def cold_start(op: Op, tally: Tally) -> tuple[float, float]:
    """Raw and reference wall time of ``python -m leril.cli`` running one
    small op; the only subprocess."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = calibrate()
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "leril.cli", *op.argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - start
    unit = (before + calibrate()) / 2
    tally(op, check(op, proc.returncode, proc.stdout, proc.stderr))
    return elapsed, reference(elapsed, unit)


def layer_metrics(
    names, tracer: Tracer, passes: int, ops: int, overhead: float, probe_failed: bool, n: int
) -> dict[str, float]:
    """Per-layer values, per traced pass unless the name says otherwise.

    ``n`` is the convert_long base length that the us_per_token buckets use.
    """
    totals = tracer.totals()
    zero = {"calls": 0, "busy": 0.0, "self": 0.0, "size": 0, "raised": 0}
    self_times = tracer.self_times()
    sentences = tracer.spans("anncorra.parse_sentence")

    def per_token(lo: int, hi: float) -> float:
        spans = [i for i in sentences if lo <= tracer.size[i] < hi]
        tokens = sum(tracer.size[i] for i in spans)
        return sum(self_times[i] for i in spans) * 1e6 / tokens if tokens else 0.0

    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name == "probe.deep_formula.failed":
            value = float(probe_failed)
        elif name == "transfer.match_ratio":
            t = totals.get("transfer.match_frame", zero)
            value = t["size"] / t["calls"] if t["calls"] else 0.0
        elif name == "corpus_store.sentences_parsed_per_op":
            value = len(tracer.under("anncorra.parse_sentence", "corpus_store.")) / ops
        elif name == "anncorra.parse_sentence.us_per_token":
            value = per_token(0, float("inf"))
        elif name.startswith("anncorra.parse_sentence.us_per_token.n"):
            k = int(name[-1])
            value = per_token(n * k, n * 2 * k if k < 4 else float("inf"))
        else:
            span, _, stat = name.rpartition(".")
            t = totals.get(span, zero)
            value = t[STATS[stat]] / passes
        values[name] = value
    return values


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the whole run, subprocesses included, so that every op
    # runs on the CPU whose speed the calibration loop just measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    leril = load_leril()
    module = importlib.import_module(args.workload)

    def run(argv: list[str]) -> int:
        return leril.cli.run(argv)  # looked up per call, so tracing applies

    sizes = spec["workloads"][args.workload]["sizes"]
    work = WORK / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    setup_times = []
    try:
        for k in range(spec["setup_repeats"]):
            directory = work / f"setup{k}"
            workload = None
            shutil.rmtree(work, ignore_errors=True)
            directory.mkdir(parents=True)
            gc.collect()  # each set-up starts from the same heap
            unit = calibrate()
            start = perf_counter()
            workload = module.setup(directory, random.Random(f"{args.workload}:{args.seed}"), sizes)
            for op in workload.prepare:
                tally(op, execute(run, op)[1])
            elapsed = perf_counter() - start
            setup_times.append((elapsed, reference(elapsed, unit)))

        # Warm-up, untimed: the first op of each kind.
        first: dict[str, Op] = {}
        for op in workload.ops:
            first.setdefault(op.kind, op)
        workload.reset()
        for op in first.values():
            tally(op, execute(run, op)[1])
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2, run, tally)
            tracer = Tracer()
            uninstall = tracer.install(leril)
            try:
                passes = run_passes(workload, args.seconds / 2, run, tally, tracer)
            finally:
                uninstall()
        else:
            # Cold starts run between passes, paced to sample the whole run.
            cold_op = lexicon.literal_frame_op(random.Random(f"cold:{args.seed}"))
            cold: list[float] = []
            began = perf_counter()

            def between() -> None:
                share = min(1.0, (perf_counter() - began) / args.seconds)
                while len(cold) < math.ceil(spec["cold_start_runs"] * share):
                    cold.append(cold_start(cold_op, tally))

            passes = run_passes(workload, args.seconds, run, tally, between=between)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            between()

        probe_rng = random.Random(f"probe:{args.seed}")
        probe = lexicon.deep_formula_probe(work, probe_rng, spec["probe_depth"])
        _elapsed, probe_reason = execute(run, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    latencies = [ref for p in passes for _raw, ref in p]
    value, pct, count = tail(latencies)
    if args.trace:
        metrics = layer_metrics(
            [m["name"] for m in bench["per_layer"]], tracer,
            len(passes), len(passes) * len(workload.ops),
            pass_time(passes) / pass_time(untraced),
            probe_reason is not None, spec["workloads"]["convert_long"]["sizes"]["n"],
        )
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        tracer.dump(WORK / f"trace-{args.workload}")
    else:
        wall = pass_time(passes)
        metrics = {
            "setup_s": median(ref for _raw, ref in setup_times),
            "wall_s": wall,
            "ops_per_s": len(workload.ops) / wall,
            "op_p50_ms": median(latencies) * 1e3,
            "op_tail_ms": value * 1e3,
            "cold_start_ms": median(ref for _raw, ref in cold) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    by_kind: dict[str, list[tuple[float, float]]] = {}
    for p in passes:
        for op, times in zip(workload.ops, p):
            by_kind.setdefault(op.kind, []).append(times)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for kind, times in by_kind.items():
        raw, ref = (median(t[k] for t in times) * 1e3 for k in (0, 1))
        print(f"  op {kind:<34} n={len(times):<4} p50 {ref:9.2f} ref_ms {raw:9.2f} raw ms")
    for name, val in metrics.items():
        print(f"  {name:<45} {val:14.6f} {units[name]}")
    if not args.trace:
        print(f"  raw setup_s {median(raw for raw, _ref in setup_times):.6f} s, raw wall_s "
              f"{pass_time(passes, 0):.6f} s, raw cold_start_ms "
              f"{median(raw for raw, _ref in cold) * 1e3:.3f} ms")
    print(f"  op_tail_ms is p{pct:.1f} of n={count} op latencies")
    print(f"  fail_ratio {failed / tally.attempted:.6f} ({failed} of {tally.attempted} ops)")
    for reason in tally.failures[:5]:
        print(f"  FAILED {reason}")
    depth = spec["probe_depth"]
    print(f"  known defect probe, {probe.kind} at depth {depth}: {probe_reason or 'passes'}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
