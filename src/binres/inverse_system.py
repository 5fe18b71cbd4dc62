"""Macaulay duals: the two built-in quintic dual generators, catalecticant
Hilbert functions, annihilator generator counts, and higher Hessians.

The duality action is differentiation: a degree-k operator u acts on a form F
as u(d/dx_1, ..., d/dx_n)F.  The catalecticant pairing of F in degree k is
the matrix of constants d^(u+v)F over u in R_k, v in R_{d-k}; its rank is the
k-th Hilbert-function value of R/Ann(F).

The built-in duals F and G live in 5 variables v, w, x, y, z (= x_1..x_5) and
depend on parameters p_1..p_5.  Both degenerate along the locus
1 + p_1 p_2 p_3 p_4 p_5 = 0.  The annihilator generator lists bound here are
the cyclic binomial families verified (exactly, in the test suite) to
annihilate these forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import DegenerateSampleError, DegreeRangeError, ValidationError
from .linalg import TPoly, bareiss_det_tpoly, frac_det, frac_kernel, frac_rank
from .polynomials import RATIONAL, Mono, XPoly, is_squarefree, mono_mul, monomials
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
    out: dict[Mono, object] = {}
    for coeff, p_exps, x_exps in _term_table(which):
        value = coeff
        for pv, e in zip(p, p_exps):
            for _ in range(e):
                value = value * pv
        if x_exps in out:
            out[x_exps] = out[x_exps] + value
        else:
            out[x_exps] = value
    return {m: c for m, c in out.items() if c != 0}


@dataclass(frozen=True)
class DualForm:
    """Homogeneous rational form acted on by differentiation."""

    n: int
    degree: int
    terms: tuple[tuple[Mono, Fraction], ...]

    @classmethod
    def from_terms(cls, n: int, terms: dict) -> "DualForm":
        items = tuple(sorted((m, Fraction(c)) for m, c in terms.items() if c != 0))
        if not items:
            raise ValidationError("dual form must be nonzero")
        degs = {sum(m) for m, _ in items}
        if len(degs) != 1:
            raise ValidationError("dual form must be homogeneous")
        return cls(n, degs.pop(), items)

    def term_dict(self) -> dict[Mono, Fraction]:
        return dict(self.terms)

    def as_xpoly(self) -> XPoly:
        return XPoly(self.n, RATIONAL, self.term_dict())

    def __str__(self) -> str:
        return str(self.as_xpoly())


def builtin_dual(which: str, p) -> DualForm:
    """The quintic dual generator F or G at the given p_1..p_5."""
    p = [Fraction(v) for v in p]
    if len(p) != 5:
        raise ValidationError("need exactly 5 parameter values")
    return DualForm.from_terms(5, _dual_terms(which, p))


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

def _falling(m: int, e: int) -> int:
    out = 1
    for t in range(e):
        out *= m - t
    return out


def _diff_terms(terms: dict, e: Mono) -> dict:
    """Apply d^e to a term dict over any coefficient ring."""
    out = {}
    for m, c in terms.items():
        if any(me < ee for me, ee in zip(m, e)):
            continue
        scale = 1
        for me, ee in zip(m, e):
            if ee:
                scale *= _falling(me, ee)
        target = tuple(me - ee for me, ee in zip(m, e))
        value = c * scale
        if target in out:
            out[target] = out[target] + value
        else:
            out[target] = value
    return {m: c for m, c in out.items() if c != 0}


def apply_diff(op: XPoly, form: DualForm) -> XPoly:
    """op(d/dx_1, ..., d/dx_n) applied to the dual form; bilinear and exact."""
    if op.mode != RATIONAL:
        raise ValidationError("differential operators are rational-mode XPoly")
    if op.n != form.n:
        raise ValidationError("variable counts differ")
    out: dict[Mono, Fraction] = {}
    base = form.term_dict()
    for e, c in op.terms.items():
        for m, v in _diff_terms(base, e).items():
            out[m] = out.get(m, Fraction(0)) + c * v
    return XPoly(form.n, RATIONAL, out)


# --------------------------------------------------------------------------
# catalecticants and annihilators
# --------------------------------------------------------------------------

def catalecticant_matrix(form: DualForm, k: int) -> tuple[list[Mono], list[Mono], list[list[Fraction]]]:
    """Pairing matrix R_k x R_{d-k}: entry (u, m) = value of d^(u+m) on the form."""
    if not 0 <= k <= form.degree:
        raise DegreeRangeError(f"k must lie in 0..{form.degree}")
    rows = monomials(form.n, k)
    cols = monomials(form.n, form.degree - k)
    coeffs = form.term_dict()
    matrix = []
    for u in rows:
        row = []
        for m in cols:
            total = mono_mul(u, m)
            c = coeffs.get(total)
            if c is None:
                row.append(Fraction(0))
            else:
                scale = 1
                for e in total:
                    scale *= factorial(e)
                row.append(c * scale)
        matrix.append(row)
    return rows, cols, matrix


def catalecticant_hilbert(form: DualForm) -> tuple[int, ...]:
    """Hilbert function (h_0, ..., h_d) of R/Ann(form) via catalecticant ranks."""
    return tuple(frac_rank(catalecticant_matrix(form, k)[2])
                 for k in range(form.degree + 1))


def ann_basis(form: DualForm, k: int) -> tuple[list[Mono], list[list[Fraction]]]:
    """Basis (coefficient vectors over the degree-k monomials) of Ann_k."""
    rows, _, matrix = catalecticant_matrix(form, k)
    transpose = [[matrix[i][j] for i in range(len(rows))] for j in range(len(matrix[0]))] \
        if matrix else []
    return rows, frac_kernel(transpose)


def ann_generator_counts(form: DualForm) -> tuple[int, ...]:
    """Minimal generator counts of Ann(form) by degree 0..d.

    count_k = dim Ann_k - dim(R_1 * Ann_{k-1}); for these Gorenstein ideals
    all generators live in degrees <= d.
    """
    from .oracle import int_rank

    n, d = form.n, form.degree
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


def _squarefree_basis(n: int, k: int) -> list[Mono]:
    return [m for m in monomials(n, k) if is_squarefree(m)]


def hessian(form: DualForm, k: int) -> HessianMatrix:
    """k-th Hessian over the square-free degree-k monomial basis (0 <= k <= 2)."""
    if k < 0:
        raise ValidationError(f"the Hessian order k must be >= 0, got {k}")
    if 2 * k > form.degree:
        raise DegreeRangeError(f"2k = {2 * k} exceeds the form degree {form.degree}")
    if k > 2:
        raise ValidationError("the square-free default basis is provided for k <= 2")
    basis = _squarefree_basis(form.n, k)
    rows = []
    for u in basis:
        row = []
        for v in basis:
            op = XPoly(form.n, RATIONAL, {mono_mul(u, v): Fraction(1)})
            row.append(apply_diff(op, form))
        rows.append(tuple(row))
    return HessianMatrix(k, tuple(basis), tuple(rows))


def hess_det_eval(form: DualForm, k: int, point) -> Fraction:
    """Determinant of the k-th Hessian evaluated exactly at a rational point."""
    point = [Fraction(v) for v in point]
    if len(point) != form.n:
        raise ValidationError(f"point needs {form.n} coordinates")
    h = hessian(form, k)
    numeric = [[entry.eval_at(point) for entry in row] for row in h.entries]
    return frac_det(numeric)


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
    prod = Fraction(1)
    for v in p14:
        prod *= v
    p5 = TPoly([-1 / prod, -1 / prod])  # -(1+t)/(p1 p2 p3 p4)
    p_ring = [TPoly.const(v) for v in p14] + [p5]
    terms = _dual_terms(which, p_ring)

    basis = _squarefree_basis(5, 2)
    matrix: list[list[TPoly]] = []
    for u in basis:
        row = []
        for v in basis:
            diffed = _diff_terms(terms, mono_mul(u, v))
            total = TPoly()
            for m, coeff in diffed.items():
                scalar = Fraction(1)
                for pv, e in zip(point, m):
                    if e:
                        scalar *= pv ** e
                if scalar:
                    total = total + coeff * scalar
            row.append(total)
        matrix.append(row)
    det = bareiss_det_tpoly(matrix)
    order = det.vanishing_order()
    if order is None:
        raise DegenerateSampleError("hess^2 vanished identically for this sample; "
                                    "pick a different point")
    return order
