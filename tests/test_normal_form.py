from __future__ import annotations

import random
from fractions import Fraction

import pytest

from binres import normal_form
from binres.errors import DependentFormsError, InternalCheckError, ValidationError
from binres.linalg import frac_rref
from binres.normal_form import QuadraticSpace, is_normal_form, to_normal_form
from binres.polynomials import RATIONAL, SYMBOLIC, ParamPoly, XPoly, monomials
from binres.systems import parse_x_polynomial


def space(*exprs):
    n = len(exprs)
    return QuadraticSpace.from_forms([parse_x_polynomial(s, n) for s in exprs])


def test_already_normal_untouched():
    sp = space("x1^2", "x2^2", "x3^2")
    res = to_normal_form(sp, seed=1)
    assert res.forms == sp.forms
    assert res.change_of_variables == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert res.substitution_params == ()


def test_three_variable_worked_example_unit_xi():
    sp = space("x1^2", "x2^2", "x1 x2")
    res = to_normal_form(sp, xi_override=[(1, 1)])
    f, g, h = res.forms
    assert f == parse_x_polynomial("x1^2 - x1 x2 + x1 x3 - x2 x3", 3)
    assert g == parse_x_polynomial("x2^2 - x1 x2 - x1 x3 + x2 x3", 3)
    assert h == parse_x_polynomial("x3^2 + x1 x2 + x1 x3 + x2 x3", 3)


def test_row_reduction_only_case():
    sp = space("x1^2 + x1 x2", "x2^2")
    res = to_normal_form(sp, seed=0)
    assert res.forms[0] == parse_x_polynomial("x1^2 + x1 x2", 2)
    assert res.forms[1] == parse_x_polynomial("x2^2", 2)


def test_dependent_forms_rejected():
    with pytest.raises(DependentFormsError):
        space("x1^2", "x2^2", "x1^2 + x2^2")


def test_symbolic_coefficients_rejected():
    n = 2
    f = XPoly(n, SYMBOLIC, {(2, 0): ParamPoly.param("a", 1, n)})
    g = XPoly(n, SYMBOLIC, {(0, 2): ParamPoly.param("a", 2, n)})
    with pytest.raises(ValidationError):
        QuadraticSpace.from_forms([f, g])


def test_is_normal_form_cases():
    n = 3
    symbolic = []
    for i in range(1, n + 1):
        sq = tuple(2 * int(t == i - 1) for t in range(n))
        cof = tuple(int(t != i - 1) for t in range(n))[:n]
        symbolic.append(XPoly(n, SYMBOLIC, {
            sq: ParamPoly.const(n, 1),
            (0, 1, 1) if i == 1 else ((1, 0, 1) if i == 2 else (1, 1, 0)):
                ParamPoly.param("b", i, n),
        }))
    assert is_normal_form(symbolic)
    assert not is_normal_form([parse_x_polynomial("x1^2 + x2^2", 2),
                               parse_x_polynomial("x2^2", 2)])
    out = to_normal_form(space("x1^2", "x2^2", "x1 x2"), seed=5)
    assert is_normal_form(list(out.forms))


def coeff_rows(forms):
    n = forms[0].n
    basis = monomials(n, 2)
    return [[Fraction(f.coefficient(m)) for m in basis] for f in forms]


@pytest.mark.parametrize("seed", range(6))
def test_random_spaces_certified(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    while True:
        forms = [XPoly(n, RATIONAL,
                       {m: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for m in monomials(n, 2)})
                 for _ in range(n)]
        try:
            sp = QuadraticSpace.from_forms(forms)
            break
        except (DependentFormsError, ValidationError):
            continue
    res = to_normal_form(sp, seed=seed)
    assert is_normal_form(list(res.forms))
    # both certificate matrices are invertible
    for mat in (res.change_of_variables, res.basis_change):
        rref, pivots = frac_rref([list(r) for r in mat])
        assert len(pivots) == n
    # round trip: normal forms substituted back span the original space
    inv = _inverse(res.change_of_variables)
    back = [_substitute(f, inv) for f in res.forms]
    original, _ = frac_rref(coeff_rows(list(sp.forms)))
    recovered, _ = frac_rref(coeff_rows(back))
    assert original == recovered


def test_basis_change_certifies_sparse_spaces():
    # sparse spaces take both substitution stages, unlike the dense ones above
    rng = random.Random(1)
    stages = set()
    for n in range(2, 7):
        made = 0
        while made < 4:
            forms = [XPoly(n, RATIONAL, {m: Fraction(rng.choice([-2, -1, 1, 2, 3]))
                                         for m in monomials(n, 2) if rng.random() < 0.25})
                     for _ in range(n)]
            try:
                sp = QuadraticSpace.from_forms(forms)
            except (DependentFormsError, ValidationError):
                continue
            made += 1
            res = to_normal_form(sp, seed=made)
            stages.update(stage for _, stage, _ in res.substitution_params)
            substituted = [_substitute(f, res.change_of_variables) for f in sp.forms]
            for row, form in zip(res.basis_change, res.forms):
                combined = XPoly(n, RATIONAL)
                for c, g in zip(row, substituted):
                    combined = combined + g.scale(c)
                assert combined == form
    assert stages == {"independence", "square"}


def test_unrecorded_substitution_fails_the_certificate(monkeypatch):
    sp = space("x1^2", "x2^2", "x1 x2")
    assert [level for level, _, _ in to_normal_form(sp, seed=5).substitution_params] == [3]

    def substitute_unrecorded(self, mat, level, stage, xi):
        self.forms = [normal_form._substitute_linear(f, mat) for f in self.forms]
        self.xi_log.append((level, stage, xi))

    monkeypatch.setattr(normal_form._State, "substitute", substitute_unrecorded)
    with pytest.raises(InternalCheckError, match="certificate"):
        to_normal_form(sp, seed=5)


def test_hard_degenerate_space():
    # restriction to x3 = 0 kills two of the three forms: forces a generic move
    sp = space("x1 x3", "x2 x3", "x3^2")
    res = to_normal_form(sp, seed=11)
    assert is_normal_form(list(res.forms))


def _substitute(f, mat):
    from binres.normal_form import _substitute_linear

    return _substitute_linear(f, [list(r) for r in mat])


def _inverse(mat):
    n = len(mat)
    from binres.linalg import frac_solve

    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return frac_solve([list(r) for r in mat], identity)
