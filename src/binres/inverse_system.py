"""Macaulay duals: the two built-in quintic dual generators, catalecticant
Hilbert functions, annihilator generator counts, and higher Hessians.

The duality action is differentiation: a degree-k operator u acts on a form F
as u(d/dx_1, ..., d/dx_n)F.  The catalecticant pairing of F in degree k is
the matrix of constants d^(u+v)F over u in R_k, v in R_{d-k}; its rank is the
k-th Hilbert-function value of R/Ann(F).

A dual form is a nonzero homogeneous rational-mode XPoly (`_check_form`).
`_diff_terms` is the one differentiation routine: `apply_diff`, the Hessian
entries, their values at a point and the hess^2 vanishing order all read
d^e F from it, over Fraction or over Q[t] (one-variable rational XPoly) alike.

The built-in duals F and G live in 5 variables v, w, x, y, z (= x_1..x_5) and
depend on parameters p_1..p_5.  Both degenerate along the locus
1 + p_1 p_2 p_3 p_4 p_5 = 0.  The annihilator generator lists bound here are
the cyclic binomial families verified (exactly, in the test suite) to
annihilate these forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, perm, prod

from .errors import DegenerateSampleError, DegreeRangeError, ValidationError
from .linalg import bareiss_det_tpoly, frac_det, frac_kernel, frac_rank
from .polynomials import RATIONAL, Mono, XPoly, is_squarefree, mono_mul, monomials, sum_terms
from .systems import BinomialSystem, make_system

# term tables: (integer coefficient, p-exponents, x-exponents)
_F_TERMS = (
    (12, (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)),
    # t1
    (-2, (1, 0, 0, 0, 0), (3, 0, 0, 1, 1)),
    (-2, (0, 1, 0, 0, 0), (1, 3, 0, 0, 1)),
    (-2, (0, 0, 1, 0, 0), (1, 1, 3, 0, 0)),
    (-2, (0, 0, 0, 1, 0), (0, 1, 1, 3, 0)),
    (-2, (0, 0, 0, 0, 1), (0, 0, 1, 1, 3)),
    # t2
    (1, (1, 0, 1, 0, 0), (3, 0, 2, 0, 0)),
    (1, (0, 1, 0, 1, 0), (0, 3, 0, 2, 0)),
    (1, (0, 0, 1, 0, 1), (0, 0, 3, 0, 2)),
    (1, (1, 0, 0, 1, 0), (2, 0, 0, 3, 0)),
    (1, (0, 1, 0, 0, 1), (0, 2, 0, 0, 3)),
)

_G_TERMS = (
    (120, (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)),
    # s1
    (-1, (3, 0, 1, 1, 0), (5, 0, 0, 0, 0)),
    (-1, (0, 3, 0, 1, 1), (0, 5, 0, 0, 0)),
    (-1, (1, 0, 3, 0, 1), (0, 0, 5, 0, 0)),
    (-1, (1, 1, 0, 3, 0), (0, 0, 0, 5, 0)),
    (-1, (0, 1, 1, 0, 3), (0, 0, 0, 0, 5)),
    # s2
    (-20, (1, 0, 0, 0, 0), (3, 1, 0, 0, 1)),
    (-20, (0, 1, 0, 0, 0), (1, 3, 1, 0, 0)),
    (-20, (0, 0, 1, 0, 0), (0, 1, 3, 1, 0)),
    (-20, (0, 0, 0, 1, 0), (0, 0, 1, 3, 1)),
    (-20, (0, 0, 0, 0, 1), (1, 0, 0, 1, 3)),
    # s3
    (20, (2, 0, 1, 1, 0), (3, 0, 1, 1, 0)),
    (20, (0, 2, 0, 1, 1), (0, 3, 0, 1, 1)),
    (20, (1, 0, 2, 0, 1), (1, 0, 3, 0, 1)),
    (20, (1, 1, 0, 2, 0), (1, 1, 0, 3, 0)),
    (20, (0, 1, 1, 0, 2), (0, 1, 1, 0, 3)),
    # s4
    (30, (1, 0, 1, 0, 0), (2, 1, 2, 0, 0)),
    (30, (0, 1, 0, 1, 0), (0, 2, 1, 2, 0)),
    (30, (0, 0, 1, 0, 1), (0, 0, 2, 1, 2)),
    (30, (1, 0, 0, 1, 0), (2, 0, 0, 2, 1)),
    (30, (0, 1, 0, 0, 1), (1, 2, 0, 0, 2)),
    # s5
    (-30, (1, 1, 0, 1, 0), (2, 2, 0, 1, 0)),
    (-30, (0, 1, 1, 0, 1), (0, 2, 2, 0, 1)),
    (-30, (1, 0, 1, 1, 0), (1, 0, 2, 2, 0)),
    (-30, (0, 1, 0, 1, 1), (0, 1, 0, 2, 2)),
    (-30, (1, 0, 1, 0, 1), (2, 0, 1, 0, 2)),
)

# cofactor patterns of the binomial systems annihilating F and G
# (f_i = x_i^2 + p_i * m_i; both are cyclic families)
_F_PATTERN = ((2, 3), (3, 4), (4, 5), (1, 5), (1, 2))
_G_PATTERN = ((3, 4), (4, 5), (1, 5), (1, 2), (2, 3))


def _term_table(which: str):
    if which not in ("F", "G"):
        raise ValidationError("which must be 'F' or 'G'")
    return _F_TERMS if which == "F" else _G_TERMS


def _dual_terms(which: str, p) -> dict:
    """Term dict of F or G with p-values from any commutative coefficient ring."""
    return sum_terms(
        (x_exps, prod((pv for pv, e in zip(p, p_exps) for _ in range(e)), start=coeff))
        for coeff, p_exps, x_exps in _term_table(which))


def builtin_dual(which: str, p) -> XPoly:
    """The quintic dual generator F or G at p_1..p_5; its coefficients are Fractions."""
    p = [Fraction(v) for v in p]
    if len(p) != 5:
        raise ValidationError("need exactly 5 parameter values")
    return XPoly(5, RATIONAL, {m: Fraction(c) for m, c in _dual_terms(which, p).items()})


def _check_form(form) -> None:
    if (not isinstance(form, XPoly) or form.mode != RATIONAL or form.is_zero()
            or not form.is_homogeneous()):
        raise ValidationError("a dual form is a nonzero homogeneous rational-mode XPoly")


def annihilator_system(which: str) -> BinomialSystem:
    """The symbolic binomial system annihilating the dual (a_i = 1, b_i = p_i)."""
    pattern = _F_PATTERN if _term_table(which) is _F_TERMS else _G_PATTERN
    return make_system(5, pattern, alias="p")


def annihilator_forms(which: str, p) -> list[XPoly]:
    """Specialized annihilator generators x_i^2 + p_i * m_i."""
    p = [Fraction(v) for v in p]
    system = annihilator_system(which)
    values = {f"a{i}": Fraction(1) for i in range(1, 6)}
    values |= {f"b{i}": p[i - 1] for i in range(1, 6)}
    return system.specialize(values).forms()


# --------------------------------------------------------------------------
# differentiation action
# --------------------------------------------------------------------------

def _diff_terms(terms: dict, e: Mono) -> dict:
    """Apply d^e to a term dict over any coefficient ring."""
    return sum_terms(
        (tuple(me - ee for me, ee in zip(m, e)), c * prod(map(perm, m, e)))
        for m, c in terms.items() if all(me >= ee for me, ee in zip(m, e)))


def apply_diff(op: XPoly, form: XPoly) -> XPoly:
    """op(d/dx_1, ..., d/dx_n) applied to the dual form; bilinear and exact."""
    _check_form(form)
    if not isinstance(op, XPoly) or op.mode != RATIONAL:
        raise ValidationError("differential operators are rational-mode XPoly")
    if op.n != form.n:
        raise ValidationError("variable counts differ")
    return XPoly(form.n, RATIONAL, sum_terms(
        (m, c * v) for e, c in op.terms.items() for m, v in _diff_terms(form.terms, e).items()))


# --------------------------------------------------------------------------
# catalecticants and annihilators
# --------------------------------------------------------------------------

def catalecticant_matrix(form: XPoly, k: int) -> tuple[list[Mono], list[Mono], list[list[Fraction]]]:
    """Pairing matrix R_k x R_{d-k}: entry (u, m) = value of d^(u+m) on the form."""
    _check_form(form)
    d = form.degree()
    if not 0 <= k <= d:
        raise DegreeRangeError(f"k must lie in 0..{d}")
    rows = monomials(form.n, k)
    cols = monomials(form.n, d - k)

    def entry(total: Mono) -> Fraction:
        c = form.terms.get(total)  # most products are absent: skip their factorials
        return Fraction(0) if c is None else c * prod(map(factorial, total))

    return rows, cols, [[entry(mono_mul(u, m)) for m in cols] for u in rows]


def catalecticant_hilbert(form: XPoly) -> tuple[int, ...]:
    """Hilbert function (h_0, ..., h_d) of R/Ann(form) via catalecticant ranks."""
    _check_form(form)
    return tuple(frac_rank(catalecticant_matrix(form, k)[2])
                 for k in range(form.degree() + 1))


def ann_basis(form: XPoly, k: int) -> tuple[list[Mono], list[list[Fraction]]]:
    """Basis (coefficient vectors over the degree-k monomials) of Ann_k."""
    rows, _, matrix = catalecticant_matrix(form, k)
    transpose = [[matrix[i][j] for i in range(len(rows))] for j in range(len(matrix[0]))] \
        if matrix else []
    return rows, frac_kernel(transpose)


def ann_generator_counts(form: XPoly) -> tuple[int, ...]:
    """Minimal generator counts of Ann(form) by degree 0..d.

    count_k = dim Ann_k - dim(R_1 * Ann_{k-1}); for these Gorenstein ideals
    all generators live in degrees <= d.
    """
    from .oracle import int_rank

    _check_form(form)
    n, d = form.n, form.degree()
    counts = []
    prev_basis: list[list[Fraction]] = []
    prev_monos: list[Mono] = []
    for k in range(d + 1):
        monos, basis = ann_basis(form, k)
        if k == 0:
            counts.append(len(basis))
        else:
            index = {m: i for i, m in enumerate(monos)}
            lifted: list[list[int]] = []
            for vec in prev_basis:
                denom = lcm(*(c.denominator for c in vec)) if vec else 1
                ints = [int(c * denom) for c in vec]
                for var in range(n):
                    row = [0] * len(monos)
                    for c, m in zip(ints, prev_monos):
                        if c:
                            mm = list(m)
                            mm[var] += 1
                            row[index[tuple(mm)]] += c
                    lifted.append(row)
            counts.append(len(basis) - int_rank(lifted))
        prev_basis, prev_monos = basis, monos
    return tuple(counts)


# --------------------------------------------------------------------------
# higher Hessians
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HessianMatrix:
    order: int
    basis: tuple[Mono, ...]
    entries: tuple[tuple[XPoly, ...], ...]  # degree d - 2k each


def _hessian_basis(n: int, degree: int, k: int) -> list[Mono]:
    """Square-free degree-k monomials in n variables, after checking that the
    k-th Hessian of a degree-`degree` form is supported (0 <= k <= 2)."""
    if k < 0:
        raise ValidationError(f"the Hessian order k must be >= 0, got {k}")
    if 2 * k > degree:
        raise DegreeRangeError(f"2k = {2 * k} exceeds the form degree {degree}")
    if k > 2:
        raise ValidationError("the square-free default basis is provided for k <= 2")
    return [m for m in monomials(n, k) if is_squarefree(m)]


def _hessian_at(terms: dict, basis: list[Mono], point, zero) -> list[list]:
    """Hessian of the form with these terms over the basis, each entry
    d^(u+v) of the form evaluated at the point and summed from `zero`."""
    return [[sum((c * prod(x ** e for x, e in zip(point, m) if e)
                  for m, c in _diff_terms(terms, mono_mul(u, v)).items()), zero)
             for v in basis] for u in basis]


def hessian(form: XPoly, k: int) -> HessianMatrix:
    """k-th Hessian over the square-free degree-k monomial basis (0 <= k <= 2)."""
    _check_form(form)
    basis = _hessian_basis(form.n, form.degree(), k)
    rows = tuple(tuple(XPoly(form.n, RATIONAL, _diff_terms(form.terms, mono_mul(u, v)))
                       for v in basis) for u in basis)
    return HessianMatrix(k, tuple(basis), rows)


def hess_det_eval(form: XPoly, k: int, point) -> Fraction:
    """Determinant of the k-th Hessian evaluated exactly at a rational point."""
    _check_form(form)
    point = [Fraction(v) for v in point]
    if len(point) != form.n:
        raise ValidationError(f"point needs {form.n} coordinates")
    basis = _hessian_basis(form.n, form.degree(), k)
    return frac_det(_hessian_at(form.terms, basis, point, Fraction(0)))


def hess2_vanishing_order(which: str, p14, point) -> int:
    """Vanishing order at t=0 of hess^2 along p_5 = -(1+t)/(p_1 p_2 p_3 p_4).

    With this substitution 1 + p_1...p_5 equals -t exactly, so the order
    counts how many times (1 + prod p) divides the second Hessian there.
    """
    p14 = [Fraction(v) for v in p14]
    if len(p14) != 4 or any(v == 0 for v in p14):
        raise ValidationError("need four nonzero rationals p_1..p_4")
    point = [Fraction(v) for v in point]
    if len(point) != 5:
        raise ValidationError("need a 5-coordinate evaluation point")
    c = -1 / prod(p14)
    p5 = XPoly(1, RATIONAL, {(0,): c, (1,): c})  # -(1+t)/(p1 p2 p3 p4)
    terms = _dual_terms(which, p14 + [p5])
    det = bareiss_det_tpoly(_hessian_at(terms, _hessian_basis(5, 5, 2), point,
                                        XPoly.zero(1)))
    if det.is_zero():
        raise DegenerateSampleError("hess^2 vanished identically for this sample; "
                                    "pick a different point")
    return min(det.terms)[0]
