"""The benchmark's own test: every check accepts a correct result and rejects
a corrupted one, and one round of each workload passes its checks.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from binres.coeff_matrix import build_c  # noqa: E402
from binres.det_factor import BinomialFactor, FactoredPoly, factor_determinant  # noqa: E402
from binres.frames import cyclic_orders  # noqa: E402
from binres.inverse_system import (  # noqa: E402
    ann_generator_counts,
    builtin_dual,
    catalecticant_hilbert,
    hess2_vanishing_order,
    hess_det_eval,
)
from binres.normal_form import QuadraticSpace, to_normal_form  # noqa: E402
from binres.oracle import ModularContext, ideal_dim, membership_batch, quotient_dim  # noqa: E402
from binres.polynomials import RATIONAL, XPoly  # noqa: E402
from binres.resultant import resultant, resultant_eval  # noqa: E402
from binres.rewrite import hilbert_function, reduce  # noqa: E402
from binres.systems import cyclic_system, make_system, parse_x_polynomial  # noqa: E402

CI = make_system(3, [(2, 3), (1, 3), (1, 2)]).specialize(
    {"a1": Fraction(2, 3), "b1": Fraction(-5, 7), "a2": Fraction(11, 13), "b2": Fraction(17, 19),
     "a3": Fraction(23, 29), "b3": Fraction(-31, 37)})
DEGENERATE = CI.symbolic_twin().specialize(dict(CI.assignment(), a1=Fraction(0)))


def _flip(fp: FactoredPoly) -> FactoredPoly:
    """The same factorization with its first binomial factor's sign flipped."""
    (first, mult), *rest = fp.factors
    flipped = BinomialFactor(fp.n, first.a_part, first.b_part, -first.sign)
    return FactoredPoly(fp.n, fp.sign, fp.monomial, [(flipped, mult)] + rest)


def _payload(fp: FactoredPoly) -> dict:
    return json.loads(json.dumps({"resultant": fp.to_json_dict(),
                                  "total_degree": fp.total_degree()}))


def test_resultant_checks():
    system = cyclic_system(4, (2, 3))
    res = resultant(system)
    assert checks.check_resultant_json(4, _payload(res)) is None
    assert checks.factored_from_json(4, _payload(res)["resultant"]) == res
    negated = FactoredPoly(4, -res.sign, res.monomial, res.factors)
    assert checks.check_resultant_json(4, _payload(negated)) is not None
    (fac, mult), *rest = res.factors
    squared = FactoredPoly(4, res.sign, res.monomial, [(fac, mult + 1)] + rest)
    assert checks.check_resultant_json(4, _payload(squared)) is not None

    order = cyclic_orders(4)[1]
    matrix = build_c(system, 5, order)
    delta = factor_determinant(matrix)
    ctx = ModularContext.random(4, 7)
    assert checks.check_det_mod(delta, matrix, ctx) is None
    assert checks.check_det_mod(_flip(delta), matrix, ctx) is not None
    assert checks.check_divides(res, delta) is None
    assert checks.check_divides(_flip(res), delta) is not None
    assert checks.check_divides(squared, delta) is not None


def test_hilbert_and_ci_checks():
    hf = hilbert_function(CI)
    assert checks.check_hilbert(CI, hf, generic=True, against_oracle=True) is None
    off = (hf[0], hf[1] + 1) + hf[2:]
    assert checks.check_hilbert(CI, off, generic=True, against_oracle=False) is not None
    degenerate = hilbert_function(DEGENERATE)
    assert checks.check_hilbert(DEGENERATE, degenerate, generic=False, against_oracle=True) is None
    wrong = degenerate[:-1] + (degenerate[-1] + 1,)
    assert checks.check_hilbert(DEGENERATE, wrong, generic=False, against_oracle=True) is not None

    assert checks.check_ci_equivalence(3, resultant_eval(CI), quotient_dim(CI)) is None
    assert checks.check_ci_equivalence(3, resultant_eval(DEGENERATE), quotient_dim(DEGENERATE)) is None
    assert checks.check_ci_equivalence(3, Fraction(0), quotient_dim(CI)) is not None
    assert checks.check_ci_equivalence(3, Fraction(1), quotient_dim(DEGENERATE)) is not None


def test_reduce_checks():
    f = parse_x_polynomial("2 x1^2 x2 + 3/4 x3^3", 3)
    reduced = reduce(CI, f)
    assert checks.check_squarefree(reduced) is None
    assert checks.check_reductions(CI, 3, [(f, reduced)]) == [None]
    assert checks.check_squarefree(reduced + XPoly(3, RATIONAL, {(0, 0, 3): Fraction(1)})) is not None
    scaled = reduced.scale(Fraction(2))
    assert checks.check_reductions(CI, 3, [(f, scaled)]) != [None]


def test_normal_form_check():
    forms = [parse_x_polynomial(t, 3) for t in
             ("x1^2 + 2 x1 x2 - x3^2", "3 x2^2 + x1 x3", "x1 x2 + x2 x3 + 5 x3^2")]
    space = QuadraticSpace.from_forms(forms)
    result = to_normal_form(space, seed=1)
    assert checks.check_normal_form(space, result) is None
    bumped = list(result.forms)
    bumped[0] = bumped[0] + XPoly(3, RATIONAL, {(1, 1, 0): Fraction(1)})
    assert checks.check_normal_form(space, dataclasses.replace(result, forms=tuple(bumped))) is not None
    squared = list(result.forms)
    squared[1] = squared[1] + XPoly(3, RATIONAL, {(0, 0, 2): Fraction(1)})
    assert checks.check_normal_form(space, dataclasses.replace(result, forms=tuple(squared))) is not None


def test_dual_checks():
    off = [Fraction(2), Fraction(3, 2), Fraction(1), Fraction(5, 3), Fraction(4)]
    on = off[:4] + [-1 / (off[0] * off[1] * off[2] * off[3])]
    point = [Fraction(3), Fraction(5, 2), Fraction(7), Fraction(11, 3), Fraction(2)]
    g_on = catalecticant_hilbert(builtin_dual("G", on))
    assert checks.check_dual_hilbert("G", True, g_on) is None
    assert checks.check_dual_hilbert("G", False, g_on) is not None
    assert checks.check_dual_hilbert("F", False, (1, 5, 10, 10, 6, 1)) is not None
    counts = ann_generator_counts(builtin_dual("F", on))
    assert checks.check_ann_gens(True, counts) is None
    assert checks.check_ann_gens(False, counts) is not None
    assert checks.check_hess_det(True, hess_det_eval(builtin_dual("G", on), 2, point)) is None
    assert checks.check_hess_det(False, hess_det_eval(builtin_dual("G", off), 2, point)) is None
    assert checks.check_hess_det(True, Fraction(1)) is not None
    assert checks.check_hess2_order("G", hess2_vanishing_order("G", off[:4], point)) is None
    assert checks.check_hess2_order("F", hess2_vanishing_order("F", off[:4], point)) is None
    assert checks.check_hess2_order("G", 4) is not None
    assert checks.check_hess2_order("F", 1) is not None


def test_oracle_checks():
    table_diffs = [XPoly(3, RATIONAL, {(2, 0, 0): Fraction(1)}) - reduce(
        CI, XPoly(3, RATIONAL, {(2, 0, 0): Fraction(1)}))]
    flags = membership_batch(CI, 2, table_diffs)
    assert checks.check_membership(flags) is None
    assert checks.check_membership(flags + [False]) is not None
    assert checks.check_quotient(3, True, quotient_dim(CI)) is None
    assert checks.check_quotient(3, False, quotient_dim(DEGENERATE)) is None
    assert checks.check_quotient(3, True, 7) is not None
    assert checks.check_quotient(3, False, 8) is not None
    dim = ideal_dim(CI, 3)
    assert checks.check_ideal_dim(CI, 3, dim, ci=True, exact=True) is None
    assert checks.check_ideal_dim(CI, 3, dim + 1, ci=True, exact=False) is not None
    ddim = ideal_dim(DEGENERATE, 3)
    assert checks.check_ideal_dim(DEGENERATE, 3, ddim, ci=False, exact=True) is None
    assert checks.check_ideal_dim(DEGENERATE, 3, ddim - 1, ci=False, exact=True) is not None


@pytest.mark.parametrize("workload", ["resultant_symbolic", "specialized_queries", "oracle_verify"])
def test_one_round_passes(workload, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_ROUNDS", 1)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.001"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                      "peak_rss_mb"}


def test_traced_run_prints_every_per_layer_metric():
    import subprocess

    from tracer import per_layer_metric_names

    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "oracle_verify",
                           "--seed", "3", "--seconds", "0.001", "--trace", "1"],
                          capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == per_layer_metric_names()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == per_layer_metric_names()
    assert result["metrics"]["oracle.det_mod.calls"]["value"] > 0
