from __future__ import annotations

import random
from fractions import Fraction

import pytest

from binres.errors import (
    DegenerateSampleError,
    DegreeRangeError,
    InternalCheckError,
    ValidationError,
)
from binres.inverse_system import (
    ann_basis,
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
from binres.linalg import bareiss_det_tpoly, frac_det, frac_kernel, frac_rank, sparse_eliminate
from binres.polynomials import RATIONAL, SYMBOLIC, ParamPoly, XPoly, mono_mul, monomials
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
    assert form.terms == {(1, 1, 1, 1, 1): Fraction(12)}


def test_builtin_g_at_zero():
    form = builtin_dual("G", [0] * 5)
    assert form.terms == {(1, 1, 1, 1, 1): Fraction(120)}


def test_builtin_f_coefficient_spot_checks():
    form = builtin_dual("F", ONES)
    terms = form.terms
    assert terms[(3, 0, 0, 1, 1)] == -2   # v^3 y z from t1
    assert terms[(3, 0, 2, 0, 0)] == 1    # v^3 x^2 from t2
    assert form.degree() == 5


def test_builtin_rejects_bad_input():
    with pytest.raises(ValidationError):
        builtin_dual("H", ONES)
    with pytest.raises(ValidationError):
        builtin_dual("F", [1, 2, 3])


def test_builtin_dual_is_a_rational_xpoly_with_fraction_coefficients(rng):
    for which in ("F", "G"):
        for p in ([0] * 5, ONES, rand_p(rng), rand_p(rng, on_locus=True)):
            form = builtin_dual(which, p)
            assert isinstance(form, XPoly) and form.mode == RATIONAL and form.n == 5
            assert form.is_homogeneous() and form.degree() == 5
            assert all(type(c) is Fraction for c in form.terms.values())


@pytest.mark.parametrize("bad", [
    XPoly(5, SYMBOLIC, {(4, 0, 0, 0, 0): ParamPoly.param("a", 1, 5)}),
    XPoly(5, RATIONAL),
    XPoly(5, RATIONAL, {(4, 0, 0, 0, 0): Fraction(1), (1, 0, 0, 0, 0): Fraction(1)}),
], ids=["symbolic", "zero", "inhomogeneous"])
def test_dual_functions_refuse_a_form_that_is_not_a_dual(bad):
    one = XPoly(5, RATIONAL, {(0, 0, 0, 0, 0): Fraction(1)})
    calls = [lambda: apply_diff(one, bad), lambda: catalecticant_hilbert(bad),
             lambda: catalecticant_matrix(bad, 1), lambda: ann_generator_counts(bad),
             lambda: hessian(bad, 1), lambda: hess_det_eval(bad, 1, ONES)]
    for call in calls:
        with pytest.raises(ValidationError, match="dual form"):
            call()


def test_apply_diff_identity_and_power():
    form = builtin_dual("F", ONES)
    one = XPoly(5, RATIONAL, {(0, 0, 0, 0, 0): Fraction(1)})
    assert apply_diff(one, form) == form
    xd = XPoly(5, RATIONAL, {(4, 0, 0, 0, 0): Fraction(1)})
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
    xd = XPoly(5, RATIONAL, {(4, 0, 0, 0, 0): Fraction(1)})
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
    assert counts == (0, 0, 5, 0, 0, 0, 0)


def test_ann_generator_counts_reach_degree_d_plus_one():
    # Ann(x1^4) = (x2, ..., x5, x1^5): its last generator lies in degree d+1
    form = XPoly(5, RATIONAL, {(4, 0, 0, 0, 0): Fraction(1)})
    assert ann_generator_counts(form) == (0, 4, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_ann_generator_counts_of_a_constant_form(n):
    # Ann(c) = (x_1, ..., x_n), all in degree d+1 = 1
    form = XPoly(n, RATIONAL, {(0,) * n: Fraction(-7, 2)})
    assert ann_generator_counts(form) == (0, n)


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


@pytest.mark.parametrize("k", [1, 2])
def test_hessian_at_a_point_matches_hess_det_eval(rng, k):
    # hessian's polynomial entries and hess_det_eval's point values are built
    # separately from _diff_terms; both must give one determinant
    for on_locus in (False, True):
        form = builtin_dual("G", rand_p(rng, on_locus))
        entries = hessian(form, k).entries
        for _ in range(3):
            point = rand_point(rng)
            values = [[e.eval_at(point) for e in row] for row in entries]
            assert frac_det(values) == hess_det_eval(form, k, point)


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
    # with p5 = -(1+t)/(p1 p2 p3 p4), 1 + prod p equals -t exactly in Q[t]
    p14 = [Fraction(2), Fraction(1), Fraction(3, 2), Fraction(5)]
    prod14 = p14[0] * p14[1] * p14[2] * p14[3]
    c = Fraction(-1) / prod14
    p5 = XPoly(1, RATIONAL, {(0,): c, (1,): c})
    assert 1 + prod14 * p5 == XPoly(1, RATIONAL, {(1,): Fraction(-1)})


def t_poly(*coeffs):
    """The element sum c_i t^i of Q[t], as a one-variable rational XPoly."""
    return XPoly(1, RATIONAL, {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def test_bareiss_matches_frac_det_at_rational_t(rng):
    for size in (1, 2, 3, 4):
        rows = [[t_poly(*(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
                 for _ in range(size)] for _ in range(size)]
        det = bareiss_det_tpoly(rows)
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(-5, 2)):
            assert det.eval_at([t]) == frac_det([[e.eval_at([t]) for e in row] for row in rows])


def test_bareiss_pivots_past_a_zero_and_returns_zero_when_singular():
    t = t_poly(0, 1)
    swapped = [[t_poly(), t_poly(1)], [t, t_poly(2)]]
    assert bareiss_det_tpoly(swapped) == -t
    singular = [[t, t * t, 1 + t], [t_poly(), t_poly(), t_poly(1)], [1 + t, t + t * t, t_poly(2)]]
    assert bareiss_det_tpoly(singular).is_zero()


def test_bareiss_inexact_division_raises():
    # (t^2 + 1) / t leaves the remainder 1; Bareiss only divides exactly
    from binres.linalg import _exact_div

    t = t_poly(0, 1)
    assert _exact_div(t * t + t, t) == 1 + t
    with pytest.raises(InternalCheckError):
        _exact_div(t * t + 1, t)


def test_sparse_eliminate_rank_and_left_kernel(rng):
    for _ in range(40):
        ncols = rng.randint(1, 6)
        dense = [[rng.choice([0, 0, 0, 1, -2, Fraction(3, 2)]) for _ in range(ncols)]
                 for _ in range(rng.randint(0, 7))]
        if dense:  # an equal and a proportional row
            dense += [list(dense[0]), [Fraction(-2, 3) * v for v in dense[0]]]
        rank, kernel = sparse_eliminate([{j: v for j, v in enumerate(row) if v} for row in dense])
        assert rank == frac_rank(dense) and len(kernel) == len(dense) - rank
        assert frac_rank([[vec.get(i, 0) for i in range(len(dense))] for vec in kernel]) == \
            len(kernel)
        for vec in kernel:
            assert all(sum(c * dense[i][j] for i, c in vec.items()) == 0 for j in range(ncols))


def test_sparse_eliminate_without_kernel_tracks_nothing(rng):
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = [{j: v for j in range(ncols)
                 if (v := rng.choice([0, 0, 1, -2, Fraction(3, 2)]))}
                for _ in range(rng.randint(0, 7))]
        rows += rows[:2]
        rank = sparse_eliminate(rows)[0]
        assert sparse_eliminate(rows, kernel=False) == (rank, [])


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


# -- the sparse catalecticants against a dense reference built from the definition

def reference_catalecticant(form, k):
    """Entry (u, m) is the constant d^(u+m) form, read through apply_diff."""
    n, d = form.n, form.degree()
    const = (0,) * n
    return [[apply_diff(XPoly.monomial(n, mono_mul(u, m)), form).coefficient(const)
             for m in monomials(n, d - k)] for u in monomials(n, k)]


def reference_ann_counts(form, catalecticants):
    """Generator counts by degree 0..d+1 from dense frac_kernel and frac_rank
    over the reference catalecticants."""
    n, d = form.n, form.degree()
    counts = []
    prev: list = []
    prev_monos: list = []
    for k in range(d + 2):
        monos = monomials(n, k)
        if k <= d:
            basis = frac_kernel([list(col) for col in zip(*catalecticants[k])])
        else:
            basis = [[Fraction(int(i == j)) for j in range(len(monos))] for i in range(len(monos))]
        index = {m: i for i, m in enumerate(monos)}
        lifted = []
        for vec in prev:
            for var in range(n):
                row = [Fraction(0)] * len(monos)
                for c, m in zip(vec, prev_monos):
                    if c:
                        row[index[m[:var] + (m[var] + 1,) + m[var + 1:]]] += c
                lifted.append(row)
        counts.append(len(basis) - frac_rank(lifted))
        prev, prev_monos = basis, monos
    return tuple(counts)


def reference_forms():
    rng = random.Random(2111)
    forms = {}
    for which in ("F", "G"):
        forms[f"{which}_off"] = builtin_dual(which, rand_p(rng))
        forms[f"{which}_on"] = builtin_dual(which, rand_p(rng, on_locus=True))
        forms[f"{which}_zero"] = builtin_dual(which, [0] * 5)
        forms[f"{which}_locus"] = builtin_dual(which, LOCUS)
    forms["x1^4"] = XPoly(5, RATIONAL, {(4, 0, 0, 0, 0): Fraction(1)})
    forms["constant"] = XPoly(3, RATIONAL, {(0, 0, 0): Fraction(5, 3)})
    for i in range(30):
        n, d = rng.randint(2, 5), rng.randint(2, 5)
        support = rng.sample(monomials(n, d), min(rng.randint(1, 6), len(monomials(n, d))))
        forms[f"sparse{i}_n{n}_d{d}"] = XPoly(n, RATIONAL, {
            m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for m in support})
    return forms


REFERENCE_FORMS = reference_forms()


@pytest.mark.parametrize("name", list(REFERENCE_FORMS))
def test_sparse_catalecticants_match_the_dense_reference(name):
    form = REFERENCE_FORMS[name]
    d = form.degree()
    references = [reference_catalecticant(form, k) for k in range(d + 1)]
    for k, reference in enumerate(references):
        rows, cols, matrix = catalecticant_matrix(form, k)
        assert (rows, cols, matrix) == (monomials(form.n, k), monomials(form.n, d - k), reference)
        monos, basis = ann_basis(form, k)
        assert monos == rows and len(basis) == len(rows) - frac_rank(reference)
        assert frac_rank(basis) == len(basis)
        for vec in basis:
            assert all(sum(v * row[j] for v, row in zip(vec, reference) if v) == 0
                       for j in range(len(cols)))
    # every rank is eliminated here, with no mirroring
    assert catalecticant_hilbert(form) == tuple(map(frac_rank, references))
    assert ann_generator_counts(form) == reference_ann_counts(form, references)
