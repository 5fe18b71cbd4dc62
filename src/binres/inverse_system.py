"""Macaulay duals: the two built-in quintic dual generators, catalecticant
Hilbert functions, annihilator generator counts, and higher Hessians.

The duality action is differentiation: a degree-k operator u acts on a form F
as u(d/dx_1, ..., d/dx_n)F.  The catalecticant pairing of F in degree k is
the matrix of constants d^(u+v)F over u in R_k, v in R_{d-k}; its rank is the
k-th Hilbert-function value of R/Ann(F).

Catalecticants are built from the form's own terms: a term t with coefficient
c gives the entry c * prod(t_i!) at (u, t - u) for each u <= t of degree k, so
only the few entries the form fills are made.  Every rank and kernel here is
one sparse exact elimination (`linalg.sparse_eliminate`), which tracks row
combinations only for `ann_basis`'s kernel.  Cat_{d-k} is the
transpose of Cat_k, so the Hilbert function is eliminated for k <= d/2 and
mirrored.  A monomial whose row is zero annihilates F as it stands, and the
rest of Ann_k is the left kernel of the nonzero rows.  Ann_k = R_k for every
k > d, so the minimal generators are counted over degrees 0..d+1.

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
from itertools import product
from math import factorial, perm, prod

from .errors import DegenerateSampleError, DegreeRangeError, ValidationError
from .linalg import bareiss_det_tpoly, frac_det, sparse_eliminate
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

def _catalecticant_rows(form: XPoly, k: int) -> dict[Mono, dict[Mono, Fraction]]:
    """The nonzero rows of Cat_k, sparse: a term t with coefficient c puts
    c * prod(t_i!) at (u, t - u) for every u <= t of degree k."""
    rows: dict[Mono, dict[Mono, Fraction]] = {}
    for t, c in form.terms.items():
        value = c * prod(map(factorial, t))
        for u in product(*(range(e + 1) for e in t)):
            if sum(u) == k:
                rows.setdefault(u, {})[tuple(a - b for a, b in zip(t, u))] = value
    return rows


def _check_degree(form: XPoly, k: int) -> None:
    _check_form(form)
    if not 0 <= k <= form.degree():
        raise DegreeRangeError(f"k must lie in 0..{form.degree()}")


def catalecticant_matrix(form: XPoly, k: int) -> tuple[list[Mono], list[Mono], list[list[Fraction]]]:
    """Pairing matrix R_k x R_{d-k}: entry (u, m) = value of d^(u+m) on the form.

    The dense view of the sparse rows that the ranks and kernels below use.
    """
    _check_degree(form, k)
    rows = monomials(form.n, k)
    cols = monomials(form.n, form.degree() - k)
    sparse = _catalecticant_rows(form, k)
    empty: dict = {}
    return rows, cols, [[sparse.get(u, empty).get(m, Fraction(0)) for m in cols] for u in rows]


def catalecticant_hilbert(form: XPoly) -> tuple[int, ...]:
    """Hilbert function (h_0, ..., h_d) of R/Ann(form) via catalecticant ranks.

    Cat_{d-k} is the transpose of Cat_k, so only k <= d/2 is eliminated and
    the other half mirrors it.
    """
    _check_form(form)
    d = form.degree()
    half = [sparse_eliminate(list(_catalecticant_rows(form, k).values()), kernel=False)[0]
            for k in range(d // 2 + 1)]
    return tuple(half[min(k, d - k)] for k in range(d + 1))


def _ann_vectors(form: XPoly, k: int) -> list[dict[Mono, Fraction]]:
    """Sparse basis of Ann_k: each monomial whose catalecticant row is zero,
    then the left kernel of the nonzero rows."""
    sparse = _catalecticant_rows(form, k)
    basis = [{u: Fraction(1)} for u in monomials(form.n, k) if u not in sparse]
    # the row order picks which kernel basis comes out; in reverse monomial
    # order its lifts reduce faster (G's generator counts take about 3/4 of
    # the time they take in term order)
    keys = sorted(sparse, reverse=True)
    kernel = sparse_eliminate([sparse[u] for u in keys])[1]
    return basis + [{keys[i]: c for i, c in vec.items()} for vec in kernel]


def ann_basis(form: XPoly, k: int) -> tuple[list[Mono], list[list[Fraction]]]:
    """Basis (coefficient vectors over the degree-k monomials) of Ann_k."""
    _check_degree(form, k)
    rows = monomials(form.n, k)
    return rows, [[vec.get(u, Fraction(0)) for u in rows] for vec in _ann_vectors(form, k)]


def ann_generator_counts(form: XPoly) -> tuple[int, ...]:
    """Minimal generator counts of Ann(form) by degree 0..d+1.

    count_k = dim Ann_k - dim(R_1 * Ann_{k-1}), the rank of Ann_{k-1} lifted
    by every x_i.  Ann_k = R_k for every k > d (no catalecticant row is left
    there), so no minimal generator lies past degree d+1.
    """
    _check_form(form)
    n = form.n
    counts = []
    prev: list[dict[Mono, Fraction]] = []
    for k in range(form.degree() + 2):
        basis = _ann_vectors(form, k)
        # keyed by their terms: the equal lifts x_i u = x_j v of two monomial
        # annihilators add nothing to the rank
        lifted = {tuple(row.items()): row for row in (
            {m[:i] + (m[i] + 1,) + m[i + 1:]: c for m, c in vec.items()}
            for vec in prev for i in range(n))}
        counts.append(len(basis) - sparse_eliminate(list(lifted.values()), kernel=False)[0])
        prev = basis
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
