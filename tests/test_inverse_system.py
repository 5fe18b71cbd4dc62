from __future__ import annotations

from fractions import Fraction

import pytest

from binres.errors import DegenerateSampleError, DegreeRangeError, ValidationError
from binres.inverse_system import (
    ann_generator_counts,
    annihilator_forms,
    annihilator_system,
    apply_diff,
    builtin_dual,
    catalecticant_hilbert,
    catalecticant_matrix,
    hess2_vanishing_order,
    hess_det_eval,
    hessian,
)
from binres.polynomials import RATIONAL, XPoly
from binres.resultant import resultant_eval

ONES = [Fraction(1)] * 5
LOCUS = [Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(-1)]


def rand_p(rng, on_locus=False):
    p = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(4)]
    if on_locus:
        prod = p[0] * p[1] * p[2] * p[3]
        p.append(Fraction(-1) / prod)
    else:
        while True:
            last = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if last != 0 and p[0] * p[1] * p[2] * p[3] * last != -1:
                p.append(last)
                break
    return p


def rand_point(rng):
    return [Fraction(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(5)]


def test_builtin_f_at_zero():
    form = builtin_dual("F", [0] * 5)
    assert form.term_dict() == {(1, 1, 1, 1, 1): Fraction(12)}


def test_builtin_g_at_zero():
    form = builtin_dual("G", [0] * 5)
    assert form.term_dict() == {(1, 1, 1, 1, 1): Fraction(120)}


def test_builtin_f_coefficient_spot_checks():
    form = builtin_dual("F", ONES)
    terms = form.term_dict()
    assert terms[(3, 0, 0, 1, 1)] == -2   # v^3 y z from t1
    assert terms[(3, 0, 2, 0, 0)] == 1    # v^3 x^2 from t2
    assert form.degree == 5


def test_builtin_rejects_bad_input():
    with pytest.raises(ValidationError):
        builtin_dual("H", ONES)
    with pytest.raises(ValidationError):
        builtin_dual("F", [1, 2, 3])


def test_apply_diff_identity_and_power():
    form = builtin_dual("F", ONES)
    one = XPoly(5, RATIONAL, {(0, 0, 0, 0, 0): Fraction(1)})
    assert apply_diff(one, form) == form.as_xpoly()
    from binres.inverse_system import DualForm

    xd = DualForm.from_terms(5, {(4, 0, 0, 0, 0): Fraction(1)})
    x1 = XPoly.variable(5, 1)
    assert apply_diff(x1, xd) == XPoly(5, RATIONAL, {(3, 0, 0, 0, 0): Fraction(4)})


def test_annihilator_generators_annihilate(rng):
    for which in ("F", "G"):
        for on_locus in (False, True):
            for _ in range(3):
                p = rand_p(rng, on_locus)
                form = builtin_dual(which, p)
                for f in annihilator_forms(which, p):
                    assert apply_diff(f, form).is_zero()


def test_annihilator_patterns_are_cyclic_families():
    f_sys = annihilator_system("F")
    assert f_sys.pattern() == ((2, 3), (3, 4), (4, 5), (1, 5), (1, 2))
    g_sys = annihilator_system("G")
    assert g_sys.pattern() == ((3, 4), (4, 5), (1, 5), (1, 2), (2, 3))


def test_g_resultant_is_unit_plus_product_to_the_fifth(rng):
    # resultant of G's annihilator family at a=1 equals (1 + prod p)^5
    family = annihilator_system("G")
    for _ in range(4):
        p = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(5)]
        spec = family.specialize({f"a{i}": 1 for i in range(1, 6)}
                                 | {f"b{i}": p[i - 1] for i in range(1, 6)})
        prod = p[0] * p[1] * p[2] * p[3] * p[4]
        assert resultant_eval(spec) == (1 + prod) ** 5


def test_catalecticant_hilbert_f(rng):
    for on_locus in (False, True):
        p = rand_p(rng, on_locus)
        assert catalecticant_hilbert(builtin_dual("F", p)) == (1, 5, 10, 10, 5, 1)


def test_catalecticant_hilbert_g(rng):
    assert catalecticant_hilbert(builtin_dual("G", rand_p(rng))) == (1, 5, 10, 10, 5, 1)
    assert catalecticant_hilbert(builtin_dual("G", rand_p(rng, on_locus=True))) == \
        (1, 5, 5, 5, 5, 1)
    assert catalecticant_hilbert(builtin_dual("G", LOCUS)) == (1, 5, 5, 5, 5, 1)


def test_catalecticant_rank_one_power():
    from binres.inverse_system import DualForm

    xd = DualForm.from_terms(5, {(4, 0, 0, 0, 0): Fraction(1)})
    assert catalecticant_hilbert(xd) == (1, 1, 1, 1, 1)


def test_hilbert_symmetry(rng):
    for which in ("F", "G"):
        hf = catalecticant_hilbert(builtin_dual(which, rand_p(rng)))
        assert hf == tuple(reversed(hf))


def test_ann_generator_counts_f(rng):
    p = rand_p(rng)
    assert sum(ann_generator_counts(builtin_dual("F", p))) == 5
    p = rand_p(rng, on_locus=True)
    counts = ann_generator_counts(builtin_dual("F", p))
    assert sum(counts) == 7
    assert counts[2] == 5


def test_ann_generator_counts_monomial_dual():
    form = builtin_dual("F", [0] * 5)  # 12 v w x y z
    counts = ann_generator_counts(form)
    assert counts == (0, 0, 5, 0, 0, 0)


def test_catalecticant_matrix_shape():
    rows, cols, matrix = catalecticant_matrix(builtin_dual("F", ONES), 2)
    assert len(rows) == 15 and len(cols) == 35
    assert len(matrix) == 15 and len(matrix[0]) == 35


def test_hessian_matrix_structure():
    h = hessian(builtin_dual("G", ONES), 2)
    assert len(h.basis) == 10
    for i in range(10):
        for j in range(10):
            assert h.entries[i][j] == h.entries[j][i]
            assert h.entries[i][j].is_zero() or h.entries[i][j].degree() == 1


def test_hessian_rejects_bad_order():
    with pytest.raises(DegreeRangeError):
        hessian(builtin_dual("F", ONES), 3)


def test_hessian_rejects_negative_order():
    form = builtin_dual("G", ONES)
    with pytest.raises(ValidationError):
        hessian(form, -1)
    with pytest.raises(ValidationError):
        hess_det_eval(form, -1, [1, 2, 3, 1, 1])


def test_hess2_g_vanishes_on_locus(rng):
    p = rand_p(rng, on_locus=True)
    form = builtin_dual("G", p)
    for _ in range(3):
        assert hess_det_eval(form, 2, rand_point(rng)) == 0


def test_hess2_g_nonzero_off_locus(rng):
    assert hess_det_eval(builtin_dual("G", rand_p(rng)), 2, rand_point(rng)) != 0


def test_hess2_f_nonzero_on_locus(rng):
    assert hess_det_eval(builtin_dual("F", rand_p(rng, on_locus=True)), 2,
                         rand_point(rng)) != 0


def test_vanishing_order_g_at_least_five(rng):
    p14 = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(4)]
    assert hess2_vanishing_order("G", p14, rand_point(rng)) >= 5


def test_vanishing_order_f_is_zero(rng):
    p14 = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(4)]
    assert hess2_vanishing_order("F", p14, rand_point(rng)) == 0


def test_vanishing_order_validates_input():
    with pytest.raises(ValidationError):
        hess2_vanishing_order("G", [1, 0, 1, 1], ONES)


def test_t_substitution_identity():
    # with p5 = -(1+t)/(p1 p2 p3 p4), 1 + prod p equals -t exactly
    from binres.linalg import TPoly

    p14 = [Fraction(2), Fraction(1), Fraction(3, 2), Fraction(5)]
    prod14 = Fraction(1)
    for v in p14:
        prod14 *= v
    p5 = TPoly([Fraction(-1) / prod14, Fraction(-1) / prod14])
    prod = TPoly.const(prod14) * p5
    assert TPoly.const(1) + prod == TPoly([0, -1])


def test_hilbert_depends_only_on_locus(rng):
    # a few samples here; the acceptance suite runs many more per side
    for _ in range(3):
        assert catalecticant_hilbert(builtin_dual("G", rand_p(rng))) == \
            (1, 5, 10, 10, 5, 1)
        assert catalecticant_hilbert(builtin_dual("G", rand_p(rng, True))) == \
            (1, 5, 5, 5, 5, 1)


def test_vanishing_order_degenerate_sample_raises():
    # at the origin every Hessian entry evaluates to 0, so the determinant
    # vanishes identically in t
    with pytest.raises(DegenerateSampleError):
        hess2_vanishing_order("G", [1, 1, 1, 1], [0, 0, 0, 0, 0])
