"""Exact dense linear algebra over Fraction, plus determinants over Q[t].

Sizes here stay small (catalecticants, rewrite solves, Hessians), so plain
rational Gaussian elimination is fine.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError, ValidationError
from .polynomials import XPoly


def frac_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def frac_rank(rows: list[list[Fraction]]) -> int:
    return len(frac_rref(rows)[1])


def frac_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel {v : rows @ v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def frac_solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve a @ x = b for square invertible a; raises ValidationError if singular."""
    n = len(a)
    rref, pivots = frac_rref([list(a[i]) + list(b[i]) for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ValidationError("singular matrix in frac_solve")
    return [row[n:] for row in rref]


def frac_det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# --------------------------------------------------------------------------
# determinants over Q[t], the one-variable rational XPoly
# --------------------------------------------------------------------------

def _exact_div(num: XPoly, den: XPoly) -> XPoly:
    """Exact quotient in Q[t]; InternalCheckError on a nonzero remainder."""
    (d,), lead = max(den.terms.items())
    inv = 1 / Fraction(lead)
    rem = dict(num.terms)
    quot = {}
    while rem:
        (e,) = max(rem)
        if e < d:
            raise InternalCheckError("inexact division in Q[t]")
        c = rem[(e,)] * inv
        quot[(e - d,)] = c
        for (k,), v in den.terms.items():
            m = (e - d + k,)
            r = rem.get(m, 0) - c * v
            if r:
                rem[m] = r
            else:
                del rem[m]
    return num._with(quot)


def bareiss_det_tpoly(rows: list[list[XPoly]]) -> XPoly:
    """Fraction-free Bareiss determinant over Q[t]; divisions are exact."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if piv is None:
                return m[k][k]
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                cross = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = cross if prev is None else _exact_div(cross, prev)
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result
