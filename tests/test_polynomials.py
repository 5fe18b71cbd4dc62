from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binres.errors import MissingParameterError, ModeMismatchError, ValidationError
from binres.polynomials import (
    RATIONAL,
    SYMBOLIC,
    ParamPoly,
    XPoly,
    is_squarefree,
    mono_mul,
    monomials,
    poly_mul,
    specialize,
)


def x(n, *indices, coeff=1, mode=RATIONAL):
    exps = [0] * n
    for i in indices:
        exps[i - 1] += 1
    return XPoly.monomial(n, tuple(exps), coeff, mode)


def test_monomials_count_and_order():
    ms = monomials(2, 3)
    assert ms == [(3, 0), (2, 1), (1, 2), (0, 3)]  # descending lex
    assert len(monomials(5, 3)) == 35
    assert monomials(3, 0) == [(0, 0, 0)]


def test_squarefree_predicate():
    assert is_squarefree((1, 0, 1))
    assert not is_squarefree((2, 0, 0))


def test_poly_mul_exponent_addition():
    f = x(2, 1)
    assert (f * f).terms == {(2, 0): Fraction(1)}


def test_poly_mul_identity():
    n = 3
    f = XPoly(n, SYMBOLIC, {
        (2, 0, 0): ParamPoly.param("a", 1, n),
        (0, 1, 1): ParamPoly.param("b", 1, n),
    })
    one = XPoly.monomial(n, (0, 0, 0), 1, SYMBOLIC)
    assert poly_mul(f, one) == f


def test_poly_mul_distributes_over_generator_row():
    # x2 * (a1 x1^2 + b1 x1 x2) = a1 x1^2 x2 + b1 x1 x2^2
    n = 2
    f = XPoly(n, SYMBOLIC, {
        (2, 0): ParamPoly.param("a", 1, n),
        (1, 1): ParamPoly.param("b", 1, n),
    })
    x2 = XPoly.monomial(n, (0, 1), 1, SYMBOLIC)
    prod = poly_mul(x2, f)
    assert prod.terms == {
        (2, 1): ParamPoly.param("a", 1, n),
        (1, 2): ParamPoly.param("b", 1, n),
    }


def test_poly_mul_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        poly_mul(x(2, 1), x(2, 1, mode=SYMBOLIC))


def test_scalars_scale_and_add_as_constants():
    n = 2
    a1, b2 = ParamPoly.param("a", 1, n), ParamPoly.param("b", 2, n)
    p = a1 + b2
    assert 2 * p == p * 2 == p + p
    with pytest.raises(ValidationError, match="must be an integer"):
        p * Fraction(1, 3)
    assert p + 1 == 1 + p == p + ParamPoly.const(n, 1)
    assert (p + 1).constant_value() is None and (p - p + 1).constant_value() == 1
    assert p + 0 == p and (p * 0).is_zero()

    q = x(2, 1) + x(2, 2, 2)
    assert 2 * q == q * 2 == q + q
    assert (q * Fraction(1, 3)).terms == {(1, 0): Fraction(1, 3), (0, 2): Fraction(1, 3)}
    assert q + 1 == 1 + q == q + XPoly.monomial(2, (0, 0), 1)
    assert (q + Fraction(1, 2)).coefficient((0, 0)) == Fraction(1, 2)

    s = x(2, 1, mode=SYMBOLIC)
    assert s + 1 == s + XPoly.monomial(2, (0, 0), 1, SYMBOLIC)


def test_symbolic_coefficients_must_be_integers():
    # ParamPoly coefficients are ints; a fraction is refused, not truncated
    assert x(2, 1, coeff=Fraction(6, 2), mode=SYMBOLIC) == 3 * x(2, 1, mode=SYMBOLIC)
    assert ParamPoly.const(2, Fraction(-4, 2)).constant_value() == -2
    s = x(2, 1, mode=SYMBOLIC)
    for bad in (Fraction(1, 2), Fraction(3, 2)):
        with pytest.raises(ValidationError, match="must be an integer"):
            x(2, 1, coeff=bad, mode=SYMBOLIC)
        with pytest.raises(ValidationError, match="must be an integer"):
            s + bad
        with pytest.raises(ValidationError, match="must be an integer"):
            bad + s
    assert s + Fraction(2, 1) == s + 2


def test_param_poly_scalars_are_integers():
    # a scalar sum or product follows ParamPoly.const: an integral Fraction
    # becomes an int, a non-integral one is refused
    a1 = ParamPoly.param("a", 1, 2)
    for bad in (Fraction(1, 2), Fraction(-5, 3)):
        for op in (lambda: a1 * bad, lambda: bad * a1, lambda: a1 + bad, lambda: bad + a1,
                   lambda: a1 - bad, lambda: x(2, 1, mode=SYMBOLIC) * bad,
                   lambda: x(2, 1, mode=SYMBOLIC).scale(bad)):
            with pytest.raises(ValidationError, match="must be an integer"):
                op()
    for scaled in (a1 * Fraction(4, 2), Fraction(4, 2) * a1, a1 + Fraction(4, 2)):
        assert all(type(c) is int for c in scaled.terms.values())
    assert (a1 * Fraction(6, 2)).eval_mod([3, 1], [1, 1], 7) == 2
    assert type((a1 + Fraction(4, 2)).eval_mod([3, 1], [1, 1], 7)) is int
    assert x(2, 1, mode=SYMBOLIC) * Fraction(4, 2) == 2 * x(2, 1, mode=SYMBOLIC)


def test_polynomials_of_different_rings_do_not_mix():
    with pytest.raises(ModeMismatchError):
        x(2, 1) + ParamPoly.param("a", 1, 2)
    with pytest.raises(ModeMismatchError):
        x(2, 1) * x(3, 1)


def test_specialize_all_ones():
    n = 2
    p = ParamPoly.param("a", 1, n) * ParamPoly.param("a", 2, n) \
        - ParamPoly.param("b", 1, n) * ParamPoly.param("b", 2, n)
    ones = {"a1": Fraction(1), "a2": Fraction(1), "b1": Fraction(1), "b2": Fraction(1)}
    assert specialize(p, ones) == 0
    assert specialize(p, {"a1": 2, "a2": 3, "b1": 1, "b2": 1}) == 5


def test_specialize_zero_factor():
    n = 3
    prod = ParamPoly.const(n, 1)
    for i in range(1, n + 1):
        prod = prod * ParamPoly.param("a", i, n)
    assignment = {"a1": Fraction(0), "a2": 7, "a3": 5}
    assert specialize(prod, assignment) == 0


def test_specialize_missing_parameter():
    p = ParamPoly.param("b", 2, 2)
    with pytest.raises(MissingParameterError):
        specialize(p, {"a1": 1, "a2": 1, "b1": 1})


def test_specialize_p_alias():
    p = ParamPoly.param("b", 1, 1)
    assert specialize(p, {"p1": Fraction(3, 2)}) == Fraction(3, 2)


def test_canonical_serialization_stable():
    n = 2
    p = ParamPoly.param("a", 1, n) * ParamPoly.param("b", 2, n) * 2 \
        - ParamPoly.param("b", 1, n)
    assert str(p) == "2*a1*b2 + -b1"
    f = XPoly(n, SYMBOLIC, {(2, 0): ParamPoly.param("a", 1, n),
                            (1, 1): ParamPoly.param("b", 1, n)})
    assert str(f) == "a1*x1^2 + b1*x1*x2"
    # rational: a constant term, +-1 and fractional coefficients
    r = XPoly(n, RATIONAL, {(2, 0): Fraction(1), (1, 1): Fraction(-1), (0, 2): Fraction(3, 2),
                            (0, 0): Fraction(-5, 3), (1, 0): Fraction(-2)})
    assert str(r) == "x1^2 + -x1*x2 + -2*x1 + 3/2*x2^2 + -5/3"
    # symbolic: a sum is bracketed, -1 keeps only its sign, and a coefficient
    # on the constant monomial keeps its '*1'
    a1, a2 = ParamPoly.param("a", 1, n), ParamPoly.param("a", 2, n)
    b1, b2 = ParamPoly.param("b", 1, n), ParamPoly.param("b", 2, n)
    one = ParamPoly.const(n, 1)
    s = XPoly(n, SYMBOLIC, {(2, 0): a1 * a2 - b1 * b2 * 3, (1, 1): -one, (0, 2): one,
                            (1, 0): a2 * -2, (0, 0): a1})
    assert str(s) == "(a1*a2 + -3*b1*b2)*x1^2 + -x1*x2 + -2*a2*x1 + x2^2 + a1*1"
    assert str(XPoly(n, SYMBOLIC, {(0, 0): a1 + one * 4})) == "(a1 + 4)*1"
    # a parameter polynomial with a constant term
    assert str(a1 * a1 - b2 + one * 7) == "a1^2 + -b2 + 7"
    assert str(ParamPoly.const(n, -3)) == "-3" and str(ParamPoly.const(n, 0)) == "0"
    # mode is part of equality; equal polynomials hash alike however built
    assert XPoly.zero(n, RATIONAL) != XPoly.zero(n, SYMBOLIC)
    x1, x2 = XPoly.variable(n, 1), XPoly.variable(n, 2)
    u, v = (x1 + x2) * (x1 - x2), x1 * x1 - x2 * x2
    assert u == v and hash(u) == hash(v)
    su = XPoly.monomial(n, (1, 1), a1) + XPoly.monomial(n, (1, 1), b1)
    sv = XPoly(n, SYMBOLIC, {(1, 1): b1 + a1})
    assert su == sv and hash(su) == hash(sv)
    assert hash(a1 * b1 + one) == hash(one + b1 * a1)


# -- property tests -----------------------------------------------------

def param_polys(n=2, max_terms=4):
    mono = st.tuples(*([st.integers(0, 2)] * (2 * n)))
    return st.dictionaries(mono, st.integers(-9, 9), max_size=max_terms).map(
        lambda d: ParamPoly(n, d))


@settings(max_examples=60, deadline=None)
@given(param_polys(), param_polys(), param_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(param_polys(), param_polys(),
       st.lists(st.fractions(min_value=-4, max_value=4), min_size=4, max_size=4))
def test_specialize_is_ring_homomorphism(p, q, vals):
    assignment = {"a1": vals[0], "a2": vals[1], "b1": vals[2], "b2": vals[3]}
    assert specialize(p * q, assignment) == specialize(p, assignment) * specialize(q, assignment)
    assert specialize(p + q, assignment) == specialize(p, assignment) + specialize(q, assignment)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.fractions(min_value=-4, max_value=4)),
                max_size=5))
def test_xpoly_mul_degree_additive_on_homogeneous(_terms):
    n = 2
    f = XPoly(n, RATIONAL, {(2, 0): Fraction(1), (1, 1): Fraction(2)})
    g = XPoly(n, RATIONAL, {(0, 3): Fraction(1), (2, 1): Fraction(-1)})
    prod = f * g
    assert prod.is_homogeneous() and prod.degree() == 5


def test_mono_mul():
    assert mono_mul((1, 2), (0, 1)) == (1, 3)


def test_symbolic_xpoly_lifts_a_scalar_coefficient():
    # an int is lifted through ParamPoly.const, so the result is the one that
    # arithmetic builds and it specializes like any symbolic polynomial
    lifted = XPoly(2, SYMBOLIC, {(1, 0): 3})
    assert lifted == 3 * XPoly.variable(2, 1, SYMBOLIC)
    assert lifted.specialize({}) == XPoly(2, RATIONAL, {(1, 0): Fraction(3)})
    with pytest.raises(ValidationError):
        XPoly(2, SYMBOLIC, {(1, 0): Fraction(1, 2)})


@pytest.mark.parametrize("mode, coeff", [
    (RATIONAL, 0.5), (RATIONAL, 0.0), (RATIONAL, ParamPoly.param("a", 1, 5)),
    (SYMBOLIC, 1.0), (SYMBOLIC, ParamPoly.param("a", 1, 2)), (SYMBOLIC, "1"),
], ids=["float", "float-zero", "parampoly", "symbolic-float", "other-n", "str"])
def test_xpoly_refuses_a_coefficient_of_another_type(mode, coeff):
    # a float dual form would otherwise have its catalecticant ranks taken in
    # floating point
    with pytest.raises(ValidationError, match="cannot take the coefficient"):
        XPoly(5, mode, {(5, 0, 0, 0, 0): coeff, (0, 5, 0, 0, 0): 1})
