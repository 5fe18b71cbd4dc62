from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import pytest

from binres.errors import (
    BinresError,
    DegreeRangeError,
    ModeMismatchError,
    SingularCoeffMatrixError,
    ValidationError,
)
from binres.oracle import membership, quotient_dim
from binres.polynomials import RATIONAL, XPoly, monomials
from binres.resultant import delta_chain, resultant_eval
from binres.rewrite import _cached_table, hilbert_function, reduce, rewrite_table
from binres.systems import cyclic_system, make_system

from conftest import random_specialization, random_system


def spec2(a1=1, a2=1, b1=1, b2=2):
    return make_system(2, [(1, 2), (1, 2)],
                       values=[(Fraction(a1), Fraction(b1)), (Fraction(a2), Fraction(b2))])


def test_lambda2_tails_are_scaled_cofactors(rng):
    for n in (2, 3, 4):
        system = random_specialization(random_system(n, rng), rng)
        if resultant_eval(system) == 0:
            continue
        table = rewrite_table(system, 2)
        for i in range(1, n + 1):
            gen = system.generator(i)
            sq = tuple(2 * int(t == i - 1) for t in range(n))
            expected = XPoly(n, RATIONAL, {gen.cofactor_mono(n): -gen.b / gen.a})
            assert table.tail(sq) == expected


def test_monomial_ci_all_tails_zero():
    system = make_system(3, [(2, 3), (1, 3), (1, 2)],
                         values=[(Fraction(2), Fraction(0))] * 3)
    for lam in (2, 3, 4):
        table = rewrite_table(system, lam)
        assert all(t.is_zero() for t in table.tails.values())


def test_n2_tails_membership_verified():
    system = spec2()
    for lam in (2, 3):
        table = rewrite_table(system, lam)
        for w, tail in table.tails.items():
            diff = XPoly(2, RATIONAL, {w: Fraction(1)}) - tail
            assert membership(diff, system, lam)


def test_n2_lam3_everything_reduces_to_zero():
    # lam = n+1 = 3 has no square-free monomials: I_3 = R_3
    system = spec2()
    for w in monomials(2, 3):
        f = XPoly(2, RATIONAL, {w: Fraction(1)})
        assert reduce(system, f).is_zero()
        assert membership(f, system, 3)


def test_reduce_fixes_squarefree_and_is_linear(rng):
    system = random_specialization(random_system(3, rng), rng)
    while resultant_eval(system) == 0:
        system = random_specialization(random_system(3, rng), rng)
    sf = XPoly(3, RATIONAL, {(1, 1, 0): Fraction(2), (0, 1, 1): Fraction(-1, 3)})
    assert reduce(system, sf) == sf
    f = XPoly(3, RATIONAL, {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(1)})
    g = XPoly(3, RATIONAL, {(0, 2, 0): Fraction(3)})
    assert reduce(system, f + g) == reduce(system, f) + reduce(system, g)


def test_reduce_of_ideal_element_is_zero(rng):
    system = random_specialization(random_system(3, rng), rng)
    while resultant_eval(system) == 0:
        system = random_specialization(random_system(3, rng), rng)
    # x_i * f_j lies in I_3
    for j in (1, 2, 3):
        fj = system.form(j)
        for i in (1, 2, 3):
            xi = XPoly.variable(3, i)
            assert reduce(system, xi * fj).is_zero()


def test_reduce_rejects_high_degree():
    system = spec2()
    f = XPoly(2, RATIONAL, {(4, 0): Fraction(1)})
    with pytest.raises(DegreeRangeError):
        reduce(system, f)


@pytest.mark.parametrize("m", [(2, 0, 0), (1, 1, 0), (0, 0, 0)])
def test_reduce_rejects_other_variable_count(m):
    # an n = 2 system against polynomials in 3 variables
    with pytest.raises(ModeMismatchError):
        reduce(spec2(), XPoly(3, RATIONAL, {m: Fraction(1)}))


def test_rewrite_table_rejects_symbolic():
    with pytest.raises(ValidationError):
        rewrite_table(make_system(2, [(1, 2), (1, 2)]), 2)


def test_singular_specialization_raises_with_degree():
    system = spec2(b1=1, b2=1)  # a1 a2 - b1 b2 = 0 kills C(3)
    with pytest.raises(SingularCoeffMatrixError) as info:
        rewrite_table(system, 3)
    assert info.value.lam == 3
    # a_i = 0 kills every C(lambda)
    zero_a = make_system(2, [(1, 2), (1, 2)],
                         values=[(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))])
    with pytest.raises(SingularCoeffMatrixError):
        rewrite_table(zero_a, 2)


def test_hilbert_function_ci_cases():
    five = cyclic_system(5, (2, 3)).specialize(
        {f"a{i}": 1 for i in range(1, 6)} | {f"b{i}": 1 for i in range(1, 6)})
    assert hilbert_function(five) == (1, 5, 10, 10, 5, 1)
    three = make_system(3, [(2, 3), (1, 3), (1, 2)],
                        values=[(Fraction(1), Fraction(0))] * 3)
    assert hilbert_function(three) == (1, 3, 3, 1)


def test_hilbert_function_degenerate_fallback():
    family = cyclic_system(5, (2, 3))
    spec = family.specialize(
        {f"a{i}": 1 for i in range(1, 6)}
        | {"b1": 1, "b2": 1, "b3": 1, "b4": 1, "b5": -1})
    assert resultant_eval(spec) == 0
    hf = hilbert_function(spec)
    assert len(hf) == 11  # degrees 0..2n from the oracle
    assert hf[:2] == (1, 5)
    assert sum(hf) != 2 ** 5 or quotient_dim(spec) != 32


def _direct_tails(system, lam):
    """Tails from solving C(lam) @ tails = square-free block of C'(lam) directly,
    or None when C(lam) is singular."""
    from binres.coeff_matrix import build_cprime
    from binres.linalg import frac_solve

    mp = build_cprime(system, lam)
    size = mp.row_frame.size
    cols = mp.column_frame.columns
    c_block = [[Fraction(0)] * size for _ in range(size)]
    d_block = [[Fraction(0)] * (len(cols) - size) for _ in range(size)]
    for e in mp.entries:
        if e.col < size:
            c_block[e.row][e.col] += e.value
        else:
            d_block[e.row][e.col - size] += e.value
    try:
        solved = frac_solve(c_block, d_block)
    except ValidationError:
        return None
    return {cols[k]: XPoly(system.n, RATIONAL,
                           {cols[size + s]: -solved[k][s] for s in range(len(cols) - size)})
            for k in range(size)}


def test_rewrite_table_matches_direct_solve(rng):
    # independent oracle: solve C(lam) @ tails = squarefree block directly
    # a1 a2 a3 + b1 b2 b3 = 0 makes C(3) singular
    specs = [spec2(), cyclic_system(3, (2, 3)).specialize(
        {f"a{i}": 1 for i in range(1, 4)} | {f"b{i}": -1 for i in range(1, 4)})]
    for n in (3, 4):
        for k in range(4):
            spec = random_specialization(random_system(n, rng), rng)
            if k % 2:  # some b_j = 0
                values = spec.assignment()
                values["b1"] = values[f"b{n}"] = Fraction(0)
                spec = spec.specialize(values)
            specs.append(spec)
    for system in specs:
        for lam in range(2, system.n + 2):
            expected = _direct_tails(system, lam)
            if expected is None:
                with pytest.raises(SingularCoeffMatrixError):
                    rewrite_table(system, lam)
                continue
            assert rewrite_table(system, lam).tails == expected, (system, lam)


def test_singularity_equivalence_200_specializations(rng):
    # a singular C(lambda), lambda <= n+1, occurs only when the resultant
    # vanishes (and conversely some C(lambda) degenerates when it does)
    from binres.resultant import delta_chain

    checked = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        system = random_system(n, rng)
        spec = random_specialization(system, rng, lo=-3, hi=3)
        chain = delta_chain(system)
        assignment = spec.assignment()
        singular = any(chain.delta(lam).specialize(assignment) == 0
                       for lam in range(2, n + 2))
        assert singular == (resultant_eval(spec) == 0)
        checked += 1
    assert checked == 200


def _table_reduce(system, f):
    """reduce through the rewrite table: the tails summed over f's terms."""
    table = rewrite_table(system, f.degree())
    out = XPoly(system.n, RATIONAL)
    for m, c in f.terms.items():
        out = out + (XPoly(system.n, RATIONAL, {m: c}) if max(m) < 2 else table.tail(m).scale(c))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BinresError as exc:
        return type(exc), getattr(exc, "lam", None), str(exc)


def _four_kinds_of_specialization(rng, per_kind):
    """Seeded specializations for n = 2..6 with random orders: generic points,
    singular ones (b_i = +-a_i), one a_j = 0 and one b_j = 0."""
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for kind in ("generic", "plus_minus", "a_zero", "b_zero"):
            for _ in range(per_kind):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                system = make_system(n, [rng.choice(pairs) for _ in range(n)], order=tuple(order))
                values = {}
                for i in range(1, n + 1):
                    a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                    b = (rng.choice((-1, 1)) * a if kind == "plus_minus"
                         else Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    values |= {f"a{i}": a, f"b{i}": b}
                if kind in ("a_zero", "b_zero"):
                    values[f"{kind[0]}{rng.randint(1, n)}"] = Fraction(0)
                yield system.specialize(values)


def test_reduce_equals_the_table_path(rng):
    # every degree 2..n+1; errors match in type, degree and message
    outcomes = {"ok": 0, "error": 0}
    for spec in _four_kinds_of_specialization(rng, 3):
        n = spec.n
        for lam in range(2, n + 2):
            monos = monomials(n, lam)
            f = XPoly(n, RATIONAL, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                    for m in rng.sample(monos, min(len(monos), 4))})
            got = _outcome(reduce, spec, f)
            assert got == _outcome(_table_reduce, spec, f), (spec, f)
            outcomes["ok" if isinstance(got, XPoly) else "error"] += 1
    assert outcomes["ok"] > 100 and outcomes["error"] > 50, outcomes


class _Fallback(Exception):
    pass


def test_hilbert_fast_path_reads_the_top_delta_alone(rng, monkeypatch):
    # some Delta_lambda, lambda = 2..n+1, vanishes exactly when Delta_{n+1}
    # does; hilbert_function gives the binomial row exactly when it does not,
    # and otherwise reaches the oracle fallback (stubbed out here)
    def no_oracle(*args):
        raise _Fallback

    monkeypatch.setattr("binres.oracle.ideal_dim", no_oracle)
    outcomes = {"fast": 0, "fallback": 0}
    for spec in _four_kinds_of_specialization(rng, 10):
        n, assignment = spec.n, spec.assignment()
        chain = delta_chain(spec.symbolic_twin())
        top = chain.delta(n + 1).vanishes_at(assignment)
        assert top == any(chain.delta(lam).vanishes_at(assignment) for lam in range(2, n + 2))
        if top:
            with pytest.raises(_Fallback):
                hilbert_function(spec)
        else:
            assert hilbert_function(spec) == tuple(comb(n, k) for k in range(n + 1))
        outcomes["fallback" if top else "fast"] += 1
    assert outcomes["fast"] > 50 and outcomes["fallback"] > 50, outcomes


def test_reduce_in_top_degree_is_zero(rng):
    # degree n+1 has no square-free monomial: every f reduces to 0
    for n in (2, 3, 4, 5):
        system = random_specialization(random_system(n, rng), rng)
        while resultant_eval(system) == 0:
            system = random_specialization(random_system(n, rng), rng)
        f = XPoly(n, RATIONAL, {m: Fraction(k + 1) for k, m in enumerate(monomials(n, n + 1))})
        assert reduce(system, f) == XPoly(n, RATIONAL)


def test_reduce_builds_no_table(rng):
    system = random_specialization(random_system(4, rng), rng)
    while resultant_eval(system) == 0:
        system = random_specialization(random_system(4, rng), rng)
    before = _cached_table.cache_info()
    for lam in range(2, 6):
        reduce(system, XPoly(4, RATIONAL, {m: Fraction(1) for m in monomials(4, lam)}))
    assert _cached_table.cache_info() == before
