from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from binres.det_factor import BinomialFactor, FactoredPoly
from binres.errors import InternalCheckError, ValidationError
from binres.frames import cyclic_orders
from binres.oracle import sylvester_resultant_2
from binres.polynomials import ParamPoly
from binres.resultant import (
    delta_chain,
    divides,
    factored_gcd,
    radical,
    resultant,
    resultant_eval,
)
from binres.systems import cyclic_system, make_system

from conftest import random_specialization, random_system


def a_mono(n, exps):
    return tuple(exps) + (0,) * n


def test_delta_2_is_a_monomial(rng):
    for n in (2, 3, 5):
        system = random_system(n, rng)
        chain = delta_chain(system)
        d2 = chain.delta(2)
        assert d2.factors == ()
        assert d2.monomial == (1,) * n + (0,) * n
        assert d2.sign == 1


def test_n2_chain_closed_form():
    system = make_system(2, [(1, 2), (1, 2)])
    chain = delta_chain(system)
    a = lambda i: ParamPoly.param("a", i, 2)
    b = lambda i: ParamPoly.param("b", i, 2)
    assert chain.delta(2).expand() == a(1) * a(2)
    assert chain.delta(3).expand() == a(1) * a(2) * (a(1) * a(2) - b(1) * b(2))


def test_pure_square_system_has_monomial_deltas(rng):
    # dropping the b-entries structurally: determinant is a pure a-monomial
    import dataclasses

    from binres.coeff_matrix import build_c
    from binres.det_factor import factor_determinant

    system = random_system(3, rng)
    for lam in (2, 3, 4):
        m = build_c(system, lam)
        only_a = tuple(e for e in m.entries if e.kind == "a")
        fp = factor_determinant(dataclasses.replace(m, entries=only_a))
        assert fp.factors == () and sum(fp.monomial) == m.nrows
        assert not any(fp.monomial[3:])


def test_radical_clamps_everything():
    n = 2
    factor = BinomialFactor(n, a_mono(n, (1, 1)), (0, 0, 1, 1), -1)
    f = FactoredPoly(n, -1, (3, 3, 0, 0), {factor: 2})
    r = radical(f)
    assert r.sign == 1
    assert r.monomial == (1, 1, 0, 0)
    assert r.factor_multiplicities() == {factor: 1}
    assert radical(r) == r  # idempotent
    d2 = FactoredPoly(n, 1, (1, 1, 0, 0), {})
    assert radical(d2) == d2


def test_divides_basics():
    n = 2
    amon = FactoredPoly(n, 1, (1, 1, 0, 0), {})
    minus = BinomialFactor(n, a_mono(n, (1, 1)), (0, 0, 1, 1), -1)
    plus = BinomialFactor(n, a_mono(n, (1, 1)), (0, 0, 1, 1), 1)
    f_minus = FactoredPoly(n, 1, (0,) * 4, {minus: 1})
    f_plus = FactoredPoly(n, 1, (0,) * 4, {plus: 1})
    assert divides(amon, FactoredPoly(n, 1, (2, 1, 0, 0), {minus: 3}))
    assert not divides(f_minus, f_plus)  # distinct irreducible factors are coprime
    assert divides(f_minus, f_minus)


def test_a_monomial_divides_all_deltas(rng):
    for n in (2, 3, 4):
        system = random_system(n, rng)
        amon = FactoredPoly(n, 1, (1,) * n + (0,) * n, {})
        chain = delta_chain(system)
        for lam in range(2, n + 2):
            assert divides(amon, chain.delta(lam))


def test_radical_chain_divisibility(rng):
    for n in (2, 3, 4, 5):
        system = random_system(n, rng)
        for order in cyclic_orders(n):
            chain = delta_chain(system, order)
            for lam in range(2, n + 1):
                assert divides(radical(chain.delta(lam)), radical(chain.delta(lam + 1)))


def test_resultant_table_row_x2x3():
    res = resultant(cyclic_system(5, (2, 3)))
    assert res.monomial == (5,) * 5 + (0,) * 5
    (factor, mult), = res.factors
    assert mult == 11
    assert factor.sign == 1
    assert factor.a_part == (1,) * 5 + (0,) * 5
    assert factor.b_part == (0,) * 5 + (1,) * 5
    assert res.sign == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic23_resultant_jacobsthal_closed_form(n):
    # (prod a)^J(n-1) * (prod a + (-1)^(n-1) prod b)^J(n), J the Jacobsthal numbers
    def jacobsthal(k):
        return (2 ** k - (-1) ** k) // 3

    loop = BinomialFactor(n, (1,) * n + (0,) * n, (0,) * n + (1,) * n, (-1) ** (n - 1))
    expected = FactoredPoly(n, 1, (jacobsthal(n - 1),) * n + (0,) * n, {loop: jacobsthal(n)})
    assert resultant(cyclic_system(n, (2, 3))) == expected


def test_resultant_refuses_a_broken_pair_degree_law(monkeypatch):
    # a GCD that keeps too much breaks deg_(a_i, b_i) = 2^(n-1)
    module = importlib.import_module("binres.resultant")  # the package re-exports a function of that name
    monkeypatch.setattr(module, "factored_gcd", lambda polys: polys[0])
    with pytest.raises(InternalCheckError, match="pairs"):
        resultant(cyclic_system(3, (2, 3)))


def test_resultant_random_cofactor_example():
    system = make_system(5, [(2, 3), (3, 5), (4, 5), (1, 3), (1, 2)], alias="p")
    res = resultant(system)
    assert res.monomial == (9, 8, 6, 11, 7) + (0,) * 5
    (factor, mult), = res.factors
    assert mult == 1
    assert factor.a_part == (7, 8, 10, 5, 9) + (0,) * 5
    assert factor.b_part == (0,) * 5 + (7, 8, 10, 5, 9)
    assert factor.sign == 1
    assert res.to_text(alias="p") == (
        "a1^9*a2^8*a3^6*a4^11*a5^7 * "
        "(a1^7*a2^8*a3^10*a4^5*a5^9 + p1^7*p2^8*p3^10*p4^5*p5^9)")


def test_n2_resultant_matches_sylvester():
    system = make_system(2, [(1, 2), (1, 2)])
    res = resultant(system)
    syl = sylvester_resultant_2(system.form(1), system.form(2))
    assert res.expand() in (syl, -1 * syl)


def test_resultant_properties(rng):
    for n in (2, 3, 4):
        system = random_system(n, rng)
        res = resultant(system)
        assert res.total_degree() == n * 2 ** (n - 1)
        assert res.pair_degrees() == (2 ** (n - 1),) * n
        chain = delta_chain(system)
        assert divides(res, chain.delta(n + 1))
        assert radical(res) == radical(chain.delta(n + 1))
        amon = FactoredPoly(n, 1, (1,) * n + (0,) * n, {})
        assert divides(amon, res)


def test_gcd_is_order_independent_fold(rng):
    system = random_system(4, rng)
    from binres.resultant import delta

    deltas = [delta(system, 5, o) for o in cyclic_orders(4)]
    g1 = factored_gcd(deltas)
    g2 = factored_gcd(list(reversed(deltas)))
    assert g1 == g2


def test_resultant_eval_cases():
    # monomial complete intersection: a = 1, b = 0
    system = make_system(3, [(2, 3), (1, 3), (1, 2)],
                         values=[(Fraction(1), Fraction(0))] * 3)
    assert resultant_eval(system) == 1

    # quintic cyclic family at a = 1 with prod p = -1 vanishes
    family = cyclic_system(5, (2, 3))
    spec = family.specialize(
        {f"a{i}": 1 for i in range(1, 6)}
        | {"b1": 1, "b2": 1, "b3": 1, "b4": 1, "b5": -1})
    assert resultant_eval(spec) == 0

    # n=2 with a=(1,1), b=(1,1): a1 a2 - b1 b2 = 0
    sys2 = make_system(2, [(1, 2), (1, 2)],
                       values=[(Fraction(1), Fraction(1))] * 2)
    assert resultant_eval(sys2) == 0


def test_resultant_eval_matches_symbolic_specialization(rng):
    for _ in range(5):
        n = rng.randint(2, 4)
        system = random_system(n, rng)
        spec = random_specialization(system, rng)
        res = resultant(system)
        assert resultant_eval(spec) == res.specialize(spec.assignment())


def test_resultant_requires_symbolic():
    spec = make_system(2, [(1, 2), (1, 2)], values=[(1, 1), (1, 1)])
    with pytest.raises(ValidationError):
        resultant(spec)
    with pytest.raises(ValidationError):
        resultant_eval(make_system(2, [(1, 2), (1, 2)]))
