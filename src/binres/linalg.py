"""Exact dense linear algebra over Fraction, plus univariate Q[t] support.

Sizes here stay small (catalecticants, rewrite solves, Hessians), so plain
rational Gaussian elimination is fine.  TPoly carries the one-parameter
deformations used for Hessian vanishing orders; its ring is Q[t], where the
Bareiss divisions are exact.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError, ValidationError


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
# univariate polynomials over Q, ascending coefficients
# --------------------------------------------------------------------------

class TPoly:
    """Element of Q[t]; coefficient list ascending, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):  # ints, Fractions, or TPoly copy
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls([Fraction(c)])

    @classmethod
    def t(cls) -> "TPoly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        return len(self.coeffs) <= 1 and (self.coeffs[0] if self.coeffs else 0) == other

    def __hash__(self):
        return hash(self.coeffs)

    def _coerce(self, other) -> "TPoly":
        return other if isinstance(other, TPoly) else TPoly.const(other)

    def __add__(self, other) -> "TPoly":
        o = self._coerce(other)
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "TPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "TPoly":
        o = self._coerce(other)
        if not self.coeffs or not o.coeffs:
            return TPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other: "TPoly") -> "TPoly":
        """Exact quotient in Q[t]; InternalCheckError on nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("TPoly division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        lead = d[-1]
        for i in range(len(rem) - len(d), -1, -1):
            c = rem[i + len(d) - 1] / lead
            if c:
                q[i] = c
                for j, dc in enumerate(d):
                    rem[i + j] -= c * dc
        if any(rem):
            raise InternalCheckError("inexact TPoly division")
        return TPoly(q)

    def vanishing_order(self) -> "int | None":
        """Multiplicity of the root t=0; None for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else ("-" + t if c == -1 else f"{c}*{t}"))
        return " + ".join(parts)

    __repr__ = __str__


def bareiss_det_tpoly(rows: list[list[TPoly]]) -> TPoly:
    """Fraction-free Bareiss determinant over Q[t]; divisions are exact."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = TPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if piv is None:
                return TPoly()
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = TPoly()
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result
