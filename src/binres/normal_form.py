"""Normal form of an n-dimensional quadratic vector space over Q.

Reduces a basis f_1..f_n of quadrics to f_i = x_i^2 + (square-free part) by
row operations and generic linear changes of variables, following the
inductive construction: at level k the first k-1 forms are made independent
modulo x_k (reordering, or a generic substitution x_k -> x_k + sum xi_i x_i
when no reordering works), the window below is normalized recursively, the
k-th row of the square-coefficient matrix is cleared, a substitution
x_i -> x_i + xi_i x_k manufactures a nonzero x_k^2 coefficient if the form
lost all squares, and finally the k-th column is cleared.

Both transformations are recorded and the certification identity

    output forms == basis_change @ (input forms substituted by change_of_variables)

is re-checked exactly on every run.
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
        basis = monomials(n, 2)
        rows = [[Fraction(f.coefficient(m)) for m in basis] for f in forms]
        if frac_rank(rows) != n:
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


def _window_rows(forms, count, window) -> list[list[Fraction]]:
    """Coefficient rows of the first `count` forms over degree-2 monomials of
    x_1..x_window (monomials touching higher variables dropped)."""
    n = forms[0].n
    basis = [m for m in monomials(n, 2) if all(e == 0 for e in m[window:])]
    return [[Fraction(forms[i].coefficient(m)) for m in basis] for i in range(count)], basis


class _State:
    def __init__(self, space: QuadraticSpace, rng: random.Random, xi_override):
        self.n = space.n
        self.forms = list(space.forms)
        self.var_matrix = _mat_identity(space.n)
        self.basis_matrix = _mat_identity(space.n)
        self.xi_log: list[tuple[int, str, tuple[Fraction, ...]]] = []
        self.rng = rng
        self.xi_override = list(xi_override or [])

    def substitute(self, mat, level: int, stage: str, xi: tuple[Fraction, ...]) -> None:
        self.forms = [_substitute_linear(f, mat) for f in self.forms]
        self.var_matrix = _mat_mul(self.var_matrix, mat)
        self.xi_log.append((level, stage, xi))

    def row_op(self, elementary) -> None:
        self.basis_matrix = _mat_mul(elementary, self.basis_matrix)
        new_forms = []
        for i in range(self.n):
            acc = XPoly(self.n, RATIONAL)
            for j in range(self.n):
                if elementary[i][j] != 0:
                    acc = acc + self.forms[j].scale(elementary[i][j])
            new_forms.append(acc)
        self.forms = new_forms

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
        rows, _ = _window_rows(state.forms, k, k - 1)
        # pivot columns of the transpose: the first k-1 rows independent in order
        _, chosen = frac_rref(list(zip(*rows)))
        if len(chosen) >= k - 1:
            keep = chosen[: k - 1]
            rest = [i for i in range(k) if i not in keep]
            perm = keep + rest + list(range(k, state.n))
            if perm != list(range(state.n)):
                p = [[Fraction(int(perm[i] == j)) for j in range(state.n)]
                     for i in range(state.n)]
                state.row_op(p)
            return
        # no reordering works: generic x_k -> x_k + sum_{i<k} xi_i x_i
        xi = state.sample_xi(k - 1, attempt)
        mat = _mat_identity(state.n)
        for i in range(k - 1):
            mat[k - 1][i] = xi[i]
        state.substitute(mat, k, "independence", xi)
    raise GenericityExhaustedError(f"no generic substitution found at level {k}")


def _stage_cde(state: _State, k: int) -> None:
    n = state.n
    # (c) clear the square coefficients x_j^2, j < k, of f_k
    coeffs = [_sq_coeff(state.forms[k - 1], j) for j in range(1, k)]
    if any(coeffs):
        e = _mat_identity(n)
        for j, c in enumerate(coeffs):
            e[k - 1][j] = -c
        state.row_op(e)
    # (d) if x_k^2 vanished, substitute x_i -> x_i + xi_i x_k to create it
    if _sq_coeff(state.forms[k - 1], k) == 0:
        if k == 1:
            raise InternalCheckError("pi_1(f_1) vanished despite independence")
        for attempt in range(_MAX_RETRIES):
            xi = state.sample_xi(k - 1, attempt)
            mat = _mat_identity(n)
            for i in range(k - 1):
                mat[i][k - 1] = xi[i]
            trial = _substitute_linear(state.forms[k - 1], mat)
            if _sq_coeff(trial, k) != 0:
                state.substitute(mat, k, "square", xi)
                break
        else:
            raise GenericityExhaustedError(f"no generic xi at level {k}")
    # (e) scale f_k monic in x_k^2 and clear the column above the diagonal
    pivot = _sq_coeff(state.forms[k - 1], k)
    e = _mat_identity(n)
    e[k - 1][k - 1] = 1 / pivot
    state.row_op(e)
    uppers = [_sq_coeff(state.forms[i], k) for i in range(k - 1)]
    if any(uppers):
        e = _mat_identity(n)
        for i, c in enumerate(uppers):
            e[i][k - 1] = -c
        state.row_op(e)


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

    forms = tuple(state.forms)
    if not is_normal_form(list(forms)):
        raise InternalCheckError("normalization finished without reaching normal form")
    # certification: basis_change @ (input ∘ change_of_variables) == forms
    substituted = [_substitute_linear(f, state.var_matrix) for f in space.forms]
    for i in range(space.n):
        acc = XPoly(space.n, RATIONAL)
        for j in range(space.n):
            c = state.basis_matrix[i][j]
            if c != 0:
                acc = acc + substituted[j].scale(c)
        if acc != forms[i]:
            raise InternalCheckError("transformation certificate failed")
    return NormalFormResult(
        forms=forms,
        change_of_variables=tuple(tuple(r) for r in state.var_matrix),
        basis_change=tuple(tuple(r) for r in state.basis_matrix),
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
