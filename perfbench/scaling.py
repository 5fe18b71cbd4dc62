"""Per-layer scaling table for `binres resultant` on cyclic_system(n, (2, 3)).

    python3 perfbench/scaling.py

For each n the resultant runs through `binres.cli.main` in this process,
first untraced (median of REPEATS runs) and then once under the tracer,
which gives the self time of each layer.  Prints a markdown table; the
ROADMAP north-star figures are n = 7: 1.2 s and n = 8: 7.4 s.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLUMNS = ["frames", "polynomials.monomials", "coeff_matrix.build_c", "det_factor.decompose",
           "det_factor.factor", "resultant.gcd"]
SIZES = range(3, 9)
REPEATS = 3


def main() -> int:
    os.environ.pop("BINRES_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from binres.systems import cyclic_system
    from tracer import Tracer

    import workloads

    out = workloads.OUT / "scaling"
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for n in SIZES:
        paths[n] = out / f"cyclic23_n{n}.json"
        paths[n].write_text(json.dumps(cyclic_system(n, (2, 3)).to_json_dict()), encoding="utf-8")

    def timed(n: int) -> float:
        start = time.perf_counter()
        code, _ = workloads.run_cli(["resultant", "--json", str(paths[n])])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"binres resultant failed at n={n}")
        return elapsed

    plain = {n: statistics.median(timed(n) for _ in range(REPEATS)) for n in SIZES}
    tracer = Tracer()
    tracer.install()
    rows = []
    for n in SIZES:
        tracer.spans.clear()
        tracer.active = True
        traced = timed(n)
        tracer.active = False
        selfs = tracer.self_times()
        other = traced - sum(selfs.get(c, 0.0) for c in COLUMNS)
        rows.append([str(n), str(comb(2 * n, n - 1)), f"{plain[n]:.3f}", f"{traced:.3f}",
                     f"{traced / plain[n] - 1:+.0%}"]
                    + [f"{selfs.get(c, 0.0):.3f}" for c in COLUMNS] + [f"{other:.3f}"])
    header = (["n", "C size", "resultant s", "traced s", "overhead"]
              + [f"{c} s" for c in COLUMNS] + ["other s"])
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
