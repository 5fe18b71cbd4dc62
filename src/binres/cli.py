"""Command-line front end.

Subcommands: resultant, delta, matrix, frames, normal-form, rewrite, hilbert,
dual, dual-hilbert, ann-gens, hessian, hess2-order, selftest.  Every
subcommand but normal-form (always JSON) and selftest takes --json;
normal-form, hess2-order and selftest take --seed.  Exit codes: 0 success,
1 validation error, 2 internal check failure.  Identical input and seed give
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .coeff_matrix import build_c, build_cprime
from .errors import BinresError, InternalCheckError, ValidationError, clip
from .frames import build_frame, cyclic_orders
from .inverse_system import (
    ann_generator_counts,
    builtin_dual,
    catalecticant_hilbert,
    hess2_vanishing_order,
    hess_det_eval,
    hessian,
)
from .normal_form import QuadraticSpace, to_normal_form
from .oracle import run_selftest
from .polynomials import mono_str
from .resultant import delta as delta_of
from .resultant import resultant, resultant_eval
from .rewrite import hilbert_function, reduce as reduce_poly
from .systems import BinomialSystem, parse, parse_assignment, parse_x_polynomial


def _read_input(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {clip(path)}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {clip(path)}: not UTF-8") from None
    return parse(text)


def _load_system(path: str) -> BinomialSystem:
    obj = _read_input(path)
    if not isinstance(obj, BinomialSystem):
        raise ValidationError(f"{path} does not describe a binomial system")
    return obj


def _load_specialized(system: BinomialSystem, spec: str | None) -> BinomialSystem:
    if spec:
        return system.symbolic_twin().specialize(parse_assignment(spec))
    if system.mode != "rational":
        raise ValidationError("system is symbolic; pass --spec a1=...,b1=...")
    return system


def _parse_order(raw: str | None, n: int):
    if raw is None:
        return None
    try:
        values = [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"--order needs a cyclic shift index or a permutation "
                              f"of 1..{n}, got {clip(repr(raw))}") from None
    if len(values) == 1:
        k = values[0]
        if not 1 <= k <= n:
            raise ValidationError(f"cyclic order index {clip(str(k))} out of range 1..{n}")
        return cyclic_orders(n)[k - 1]
    return tuple(values)


def _fractions(raw: str, count: int, what: str) -> list[Fraction]:
    try:
        vals = [Fraction(p.strip()) for p in raw.split(",") if p.strip()]
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad rational list for {what}: {clip(repr(raw))}") from None
    if len(vals) != count:
        raise ValidationError(f"{what} needs {count} comma-separated rationals")
    return vals


def _load_dual(args):
    return builtin_dual(args.which, _fractions(args.p, 5, "--p"))


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_resultant(args) -> int:
    system = _load_system(args.system)
    if system.mode == "rational":
        value = resultant_eval(system)
        _emit(args, {"resultant_value": str(value)}, str(value))
        return 0
    res = resultant(system)
    text = res.to_text(alias=system.alias)
    _emit(args, {"resultant": res.to_json_dict(), "text": text,
                 "total_degree": res.total_degree()}, text)
    return 0


def _cmd_delta(args) -> int:
    system = _load_system(args.system)
    order = _parse_order(args.order, system.n)
    fp = delta_of(system, args.lam, order)
    text = fp.to_text(alias=system.alias)
    _emit(args, {"delta": fp.to_json_dict(), "lambda": args.lam, "text": text}, text)
    return 0


def _cmd_matrix(args) -> int:
    system = _load_system(args.system)
    order = _parse_order(args.order, system.n)
    build = build_cprime if args.cprime else build_c
    matrix = build(system, args.lam, order)
    rows = matrix.row_labels()
    cols = matrix.col_labels()
    entries = [
        {"row": e.row, "col": e.col, "entry":
            (f"{e.kind}{e.index}" if e.value is None else str(e.value))}
        for e in matrix.entries
    ]
    payload = {"rows": rows, "columns": cols, "shape": [matrix.nrows, matrix.ncols],
               "entries": entries}
    name = "C'" if args.cprime else "C"
    lines = [f"{name}({args.lam})  shape {matrix.nrows} x {matrix.ncols}"]
    if args.dense:
        grid = [["." for _ in cols] for _ in rows]
        for e in entries:
            grid[e["row"]][e["col"]] = e["entry"]
        width = max(len(c) for row in grid for c in row) + 1
        lines.append(" " * 14 + "".join(c.rjust(width + 2) for c in cols))
        for label, row in zip(rows, grid):
            lines.append(label.rjust(12) + "  " + "".join(c.rjust(width + 2) for c in row))
    else:
        lines += [f"{rows[e['row']]} , {cols[e['col']]} : {e['entry']}" for e in entries]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_frames(args) -> int:
    frame = build_frame(args.n, args.lam, _parse_order(args.order, args.n))
    sizes = [len(s) for s in frame.sets]
    payload = {"n": args.n, "lambda": args.lam, "order": list(frame.order), "sizes": sizes}
    lines = [f"M_j({args.lam}) sizes for n={args.n}, order {list(frame.order)}: {sizes}"]
    if args.full:
        payload["sets"] = [[mono_str(m) for m in s] for s in frame.sets]
        lines += [f"M_{j}: " + ", ".join(s) for j, s in enumerate(payload["sets"], start=1)]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_normal_form(args) -> int:
    space = _read_input(args.space)
    if not isinstance(space, QuadraticSpace):
        raise ValidationError(f"{args.space} does not describe a quadratic space")
    result = to_normal_form(space, seed=args.seed)
    payload = {
        "forms": [str(f) for f in result.forms],
        "change_of_variables": [[str(v) for v in row] for row in result.change_of_variables],
        "basis_change": [[str(v) for v in row] for row in result.basis_change],
        "xi_log": [{"level": lvl, "stage": stage, "xi": [str(v) for v in xi]}
                   for lvl, stage, xi in result.substitution_params],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_rewrite(args) -> int:
    system = _load_specialized(_load_system(args.system), args.spec)
    poly = parse_x_polynomial(args.poly, system.n)
    reduced = reduce_poly(system, poly)
    _emit(args, {"input": str(poly), "reduced": str(reduced)}, str(reduced))
    return 0


def _cmd_hilbert(args) -> int:
    system = _load_specialized(_load_system(args.system), args.spec)
    hf = hilbert_function(system)
    _emit(args, {"hilbert_function": list(hf)}, "(" + ", ".join(map(str, hf)) + ")")
    return 0


def _cmd_dual(args) -> int:
    form = _load_dual(args)
    _emit(args, {"which": args.which, "form": str(form)}, str(form))
    return 0


def _cmd_dual_hilbert(args) -> int:
    form = _load_dual(args)
    hf = catalecticant_hilbert(form)
    _emit(args, {"hilbert_function": list(hf)}, "(" + ", ".join(map(str, hf)) + ")")
    return 0


def _cmd_ann_gens(args) -> int:
    form = _load_dual(args)
    counts = ann_generator_counts(form)
    text = "(" + ", ".join(map(str, counts)) + f")  total {sum(counts)}"
    _emit(args, {"generator_counts": list(counts), "total": sum(counts)}, text)
    return 0


def _cmd_hessian(args) -> int:
    form = _load_dual(args)
    if args.point is not None:
        value = hess_det_eval(form, args.k, _fractions(args.point, 5, "--point"))
        _emit(args, {"hessian_determinant": str(value)}, str(value))
        return 0
    h = hessian(form, args.k)
    labels = [mono_str(m) for m in h.basis]
    payload = {"k": args.k, "basis": labels,
               "entries": [[str(e) for e in row] for row in h.entries]}
    lines = [f"H^{args.k} over basis {labels}"]
    lines += [f"{label}: " + " | ".join(row) for label, row in zip(labels, payload["entries"])]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_hess2_order(args) -> int:
    p14 = _fractions(args.p, 4, "--p")
    if args.point is not None:
        point = _fractions(args.point, 5, "--point")
    else:
        rng = random.Random(args.seed)
        point = [Fraction(rng.randint(1, 19), rng.randint(1, 7)) for _ in range(5)]
    order = hess2_vanishing_order(args.which, p14, point)
    text = f"vanishing order at t=0: {order}"
    _emit(args, {"order": order, "point": [str(v) for v in point]}, text)
    return 0


def _cmd_selftest(args) -> int:
    rows = run_selftest(seed=args.seed, n_max=args.n_max)
    width = max(len(r.name) for r in rows)
    failed = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{r.name.ljust(width)}  {status}{detail}")
        failed += not r.passed
    print(f"{len(rows) - failed}/{len(rows)} checks passed (seed {args.seed})")
    return 0 if failed == 0 else 2


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable output")
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument("--seed", type=int, default=0, help="session seed")
    dual_opt = argparse.ArgumentParser(add_help=False)
    dual_opt.add_argument("--which", choices=("F", "G"), required=True)
    dual_opt.add_argument("--p", required=True, help="five rationals, comma separated")

    parser = _Parser(prog="binres", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"binres {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_, *parents):
        p = sub.add_parser(name, parents=list(parents), help=help_)
        p.set_defaults(func=func)
        return p

    p = add("resultant", _cmd_resultant, "factored resultant of a binomial system", json_opt)
    p.add_argument("system", help="system file (JSON or line grammar)")

    p = add("delta", _cmd_delta, "one factored determinant Delta_lambda", json_opt)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--order", help="cyclic shift index k, or a permutation 2,3,...,1")
    p.add_argument("system")

    p = add("matrix", _cmd_matrix, "emit C(lambda) (or C' with --cprime)", json_opt)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--order")
    p.add_argument("--cprime", action="store_true", help="include the square-free columns")
    p.add_argument("--dense", action="store_true", help="print a grid, not an entry list")
    p.add_argument("system")

    p = add("frames", _cmd_frames, "sizes (and contents) of the monomial sets M_j", json_opt)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--order")
    p.add_argument("--full", action="store_true", help="print the monomial lists")

    p = add("normal-form", _cmd_normal_form, "normalize a quadratic space (JSON output)",
            seed_opt)
    p.add_argument("space", help="quadratic-space file")

    p = add("rewrite", _cmd_rewrite, "reduce a polynomial to square-free monomials", json_opt)
    p.add_argument("--spec", help="assignments a1=...,b1=... for a symbolic system")
    p.add_argument("--poly", required=True, help="homogeneous polynomial in x1..xn")
    p.add_argument("system")

    p = add("hilbert", _cmd_hilbert, "Hilbert function of R/I for a specialization", json_opt)
    p.add_argument("--spec")
    p.add_argument("system")

    add("dual", _cmd_dual, "print a built-in Macaulay dual generator", json_opt, dual_opt)
    add("dual-hilbert", _cmd_dual_hilbert, "catalecticant Hilbert function", json_opt, dual_opt)
    add("ann-gens", _cmd_ann_gens, "annihilator minimal generator counts", json_opt, dual_opt)

    p = add("hessian", _cmd_hessian, "k-th Hessian matrix or its value at a point",
            json_opt, dual_opt)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--point", help="five rationals, comma separated")

    p = add("hess2-order", _cmd_hess2_order, "vanishing order of hess^2 along the t-line",
            json_opt, seed_opt)
    p.add_argument("--which", choices=("F", "G"), default="G")
    p.add_argument("--p", required=True, help="four nonzero rationals p1..p4")
    p.add_argument("--point", help="five rationals; sampled from --seed if omitted")

    p = add("selftest", _cmd_selftest, "run the oracle cross-check suite", seed_opt)
    p.add_argument("--n-max", type=int, default=5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"binres: internal check failed: {exc}", file=sys.stderr)
        return 2
    except BinresError as exc:
        print(f"binres: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to devnull, so
        # that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
