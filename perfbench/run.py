"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload resultant_symbolic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: binres is imported from its `src/`.  The
workload's operations run in whole rounds, one after another in this single
process, until their summed time reaches --seconds and at least MIN_ROUNDS
rounds have run.  A set-up runs from the first line of this file to the start
of the first operation; setup_s is the median of SETUP_RUNS of them, each in
its own interpreter.  With --trace 0 the
last line of stdout holds the end-to-end metrics; with --trace 1 every
binres layer is timed from outside (tracer.py) and the last line holds the
per-layer metrics, per completed round, while a self-time report goes to
stderr.  Inputs, per-operation latencies and trace spans are written under
perfbench/out/.
"""
import time

START = time.perf_counter()  # set-up is timed from here, before binres is imported

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is the median of this many cold set-ups: this process's own and
# those of fresh interpreters that set up the same workload and seed
SETUP_RUNS = 5


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """The set-up time of `workload` at `seed` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time in seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "binres" / "__init__.py").is_file():
        print(f"run.py: no binres sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("BINRES_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import binres

    if not Path(binres.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"run.py: binres was imported from {binres.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # imported after the tracer so that workloads call the traced functions
    from workloads import MIN_ROUNDS, OUT, WORKLOADS, tail_quantile

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    first = workload.round_ops(0)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(setup_s)
        return 0

    latencies: list[float] = []
    kinds: list[str] = []
    failed = 0
    timed = 0.0
    rounds = 0
    per_round = None
    while timed < args.seconds or rounds < MIN_ROUNDS:
        ops = first if rounds == 0 else workload.round_ops(rounds)
        if per_round is None:
            per_round = len(ops)
        elif len(ops) != per_round:
            raise RuntimeError("rounds differ in make-up")
        results = []
        for op in ops:
            if tracer:
                before = tracer.cache_snapshot()
                tracer.active = True
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.active = False
                tracer.add_cache_delta(before, tracer.cache_snapshot())
            timed += elapsed
            latencies.append(elapsed)
            kinds.append(op.kind)
            results.append(result)
        good = [not isinstance(r, Exception) for r in results]
        checked = [op for op, g in zip(ops, good) if g]
        try:
            verdicts = iter(workload.check_round(checked, [r for r, g in zip(results, good) if g]))
        except Exception as exc:  # a result the checks cannot read fails them all
            verdicts = iter([f"check raised {exc!r}"] * len(checked))
        for op, result, g in zip(ops, results, good):
            problem = next(verdicts) if g else "".join(
                traceback.format_exception_only(type(result), result)).strip()
            if problem:
                failed += 1
                if failed <= 5:
                    print(f"run.py: {op.kind} failed: {problem}", file=sys.stderr)
        rounds += 1

    attempted = len(latencies)
    ops_per_s = attempted / timed
    tail_q = tail_quantile(per_round)
    name = f"{args.workload}-{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"ops-{name}.json").write_text(json.dumps(
        {"rounds": rounds, "tail_quantile": tail_q,
         "ops": [[k, v] for k, v in zip(kinds, latencies)]}), encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"trace-{name}.jsonl")
        print(f"{args.workload}: {rounds} rounds, {attempted} ops, seed {args.seed}, traced\n"
              + tracer.report(rounds), file=sys.stderr)
        metrics = tracer.metrics(rounds, ops_per_s)
    else:
        setup_s = statistics.median([setup_s] + [fresh_setup_seconds(args.workload, args.seed)
                                                 for _ in range(SETUP_RUNS - 1)])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_p50_ms": {"value": 1000.0 * quantile(latencies, 0.5), "unit": "ms"},
            "op_tail_ms": {"value": 1000.0 * quantile(latencies, tail_q), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
