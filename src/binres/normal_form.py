"""Normal form of an n-dimensional quadratic vector space over Q.

Reduces a basis f_1..f_n of quadrics to f_i = x_i^2 + (square-free part) by
row operations and generic linear changes of variables, following the
inductive construction: at level k the first k-1 forms are made independent
modulo x_k (reordering, or a generic substitution x_k -> x_k + sum xi_i x_i
when no reordering works), the window below is normalized recursively, the
k-th row of the square-coefficient matrix is cleared, a substitution
x_i -> x_i + xi_i x_k manufactures a nonzero x_k^2 coefficient if the form
lost all squares, and finally the k-th column is cleared.

Row operations act on the forms in place and only the change of variables is
recorded.  The basis change is solved from it exactly, once, on every run:

    output forms == basis_change @ (input forms substituted by change_of_variables)

That solve is the certificate; it fails unless the output lies in the span of
the substituted input forms, where the solution is unique.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DependentFormsError,
    GenericityExhaustedError,
    InternalCheckError,
    ValidationError,
)
from .linalg import frac_rank, frac_rref
from .polynomials import RATIONAL, Mono, XPoly, monomials

_MAX_RETRIES = 64


@dataclass(frozen=True)
class QuadraticSpace:
    """n linearly independent rational quadrics in n variables."""

    n: int
    forms: tuple[XPoly, ...]

    @classmethod
    def from_forms(cls, forms) -> "QuadraticSpace":
        forms = tuple(forms)
        if not forms:
            raise ValidationError("empty quadratic space")
        n = forms[0].n
        if len(forms) != n:
            raise ValidationError(f"need exactly {n} forms in {n} variables, got {len(forms)}")
        for f in forms:
            if f.mode != RATIONAL:
                raise ValidationError("normal form is a numeric preprocessing step; "
                                      "symbolic coefficients are rejected")
            if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
                raise ValidationError("every form must be homogeneous of degree 2")
        if frac_rank(_coeff_rows(forms, monomials(n, 2))) != n:
            raise DependentFormsError("input forms are linearly dependent")
        return cls(n, forms)


@dataclass
class NormalFormResult:
    forms: tuple[XPoly, ...]
    change_of_variables: tuple[tuple[Fraction, ...], ...]  # row i: image of x_i
    basis_change: tuple[tuple[Fraction, ...], ...]         # acts on the form list
    substitution_params: tuple[tuple[int, str, tuple[Fraction, ...]], ...]


def _mat_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mat_mul(a, b) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
            for i in range(n)]


def _substitute_linear(f: XPoly, mat) -> XPoly:
    """f with x_i replaced by sum_j mat[i][j] * x_j."""
    n = f.n

    def unit(j: int) -> Mono:
        return tuple(int(t == j) for t in range(n))

    images = [XPoly(n, RATIONAL, {unit(j): mat[i][j] for j in range(n)}) for i in range(n)]
    out = XPoly(n, RATIONAL)
    for m, c in f.terms.items():
        term = XPoly(n, RATIONAL, {(0,) * n: Fraction(c)})
        for i, e in enumerate(m):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out


def _sq_coeff(f: XPoly, j: int) -> Fraction:
    m = tuple(2 if t == j - 1 else 0 for t in range(f.n))
    return Fraction(f.coefficient(m))


def _coeff_rows(forms, basis) -> list[list[Fraction]]:
    return [[Fraction(f.coefficient(m)) for m in basis] for f in forms]


def _window_rows(forms, count, window) -> list[list[Fraction]]:
    """Coefficient rows of the first `count` forms over degree-2 monomials of
    x_1..x_window (monomials touching higher variables dropped)."""
    basis = [m for m in monomials(forms[0].n, 2) if not any(m[window:])]
    return _coeff_rows(forms[:count], basis)


class _State:
    def __init__(self, space: QuadraticSpace, rng: random.Random, xi_override):
        self.n = space.n
        self.forms = list(space.forms)
        self.var_matrix = _mat_identity(space.n)
        self.xi_log: list[tuple[int, str, tuple[Fraction, ...]]] = []
        self.rng = rng
        self.xi_override = list(xi_override or [])

    def substitute(self, mat, level: int, stage: str, xi: tuple[Fraction, ...]) -> None:
        self.forms = [_substitute_linear(f, mat) for f in self.forms]
        self.var_matrix = _mat_mul(self.var_matrix, mat)
        self.xi_log.append((level, stage, xi))

    def sample_xi(self, count: int, attempt: int) -> tuple[Fraction, ...]:
        if self.xi_override:
            return tuple(Fraction(v) for v in self.xi_override.pop(0))
        bound = self.n * (2 ** attempt)
        vals = []
        for _ in range(count):
            v = 0
            while v == 0:
                v = self.rng.randint(-bound, bound)
            vals.append(Fraction(v))
        return tuple(vals)


def _stage_a(state: _State, k: int) -> None:
    """Reorder f_1..f_k (or substitute generically) so the first k-1 forms
    stay independent with x_k..x_n suppressed."""
    if k == 1:
        return
    for attempt in range(_MAX_RETRIES):
        rows = _window_rows(state.forms, k, k - 1)
        # pivot columns of the transpose: the first k-1 rows independent in order
        _, chosen = frac_rref(list(zip(*rows)))
        if len(chosen) >= k - 1:
            keep = chosen[: k - 1]
            rest = [i for i in range(k) if i not in keep]
            state.forms[:k] = [state.forms[i] for i in keep + rest]
            return
        # no reordering works: generic x_k -> x_k + sum_{i<k} xi_i x_i
        xi = state.sample_xi(k - 1, attempt)
        mat = _mat_identity(state.n)
        for i in range(k - 1):
            mat[k - 1][i] = xi[i]
        state.substitute(mat, k, "independence", xi)
    raise GenericityExhaustedError(f"no generic substitution found at level {k}")


def _stage_cde(state: _State, k: int) -> None:
    # (c) clear the square coefficients x_j^2, j < k, of f_k
    coeffs = [_sq_coeff(state.forms[k - 1], j) for j in range(1, k)]
    for j, c in enumerate(coeffs):
        if c:
            state.forms[k - 1] -= state.forms[j].scale(c)
    # (d) if x_k^2 vanished, substitute x_i -> x_i + xi_i x_k to create it
    if _sq_coeff(state.forms[k - 1], k) == 0:
        if k == 1:
            raise InternalCheckError("pi_1(f_1) vanished despite independence")
        for attempt in range(_MAX_RETRIES):
            xi = state.sample_xi(k - 1, attempt)
            mat = _mat_identity(state.n)
            for i in range(k - 1):
                mat[i][k - 1] = xi[i]
            trial = _substitute_linear(state.forms[k - 1], mat)
            if _sq_coeff(trial, k) != 0:
                state.substitute(mat, k, "square", xi)
                break
        else:
            raise GenericityExhaustedError(f"no generic xi at level {k}")
    # (e) scale f_k monic in x_k^2 and clear the column above the diagonal
    f_k = state.forms[k - 1].scale(1 / _sq_coeff(state.forms[k - 1], k))
    state.forms[k - 1] = f_k
    for i in range(k - 1):
        c = _sq_coeff(state.forms[i], k)
        if c:
            state.forms[i] -= f_k.scale(c)


def to_normal_form(space: QuadraticSpace, seed: int = 0, xi_override=None) -> NormalFormResult:
    """Normal-form a quadratic space; deterministic for a fixed seed.

    xi_override feeds explicit xi tuples to the substitution steps in order
    (used to reproduce worked examples); normally leave it None.
    """
    state = _State(space, random.Random(seed), xi_override)
    for k in range(space.n, 0, -1):
        _stage_a(state, k)
    for k in range(1, space.n + 1):
        _stage_cde(state, k)

    if not is_normal_form(state.forms):
        raise InternalCheckError("normalization finished without reaching normal form")
    # certification: one row per monomial, the substituted inputs' coefficients
    # then the outputs'.  Pivots exactly 0..n-1 put the outputs in the span of
    # independent inputs, and the reduced rows read [I | basis_change^T].
    n = space.n
    substituted = [_substitute_linear(f, state.var_matrix) for f in space.forms]
    rref, pivots = frac_rref(list(zip(*_coeff_rows(substituted + state.forms, monomials(n, 2)))))
    if pivots != list(range(n)):
        raise InternalCheckError("transformation certificate failed")
    return NormalFormResult(
        forms=tuple(state.forms),
        change_of_variables=tuple(tuple(r) for r in state.var_matrix),
        basis_change=tuple(zip(*(row[n:] for row in rref[:n]))),
        substitution_params=tuple(state.xi_log),
    )


def is_normal_form(forms: list[XPoly]) -> bool:
    """True iff f_i = x_i^2 + (square-free part) for every i."""
    if not forms:
        return False
    n = forms[0].n
    if len(forms) != n:
        return False
    for i, f in enumerate(forms, start=1):
        if f.is_zero() or not f.is_homogeneous() or f.degree() != 2:
            return False
        for j in range(1, n + 1):
            m: Mono = tuple(2 if t == j - 1 else 0 for t in range(n))
            c = f.coefficient(m)
            want = 1 if j == i else 0
            if isinstance(c, Fraction):
                if c != want:
                    return False
            else:
                if c.constant_value() != want:
                    return False
    return True
