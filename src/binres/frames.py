"""Monomial frames: the nested sets M_j(lambda) and the row/column index
frames of the coefficient matrices.

An index order sigma is given as the image list (1', 2', ..., n').  M_j(lambda)
collects the degree-lambda monomials whose exponent of x_{i'} is < 2 for every
i' among the first j-1 indices of the order, so M_1 ⊇ M_2 ⊇ ... ⊇ M_n.

Rows of the degree-lambda coefficient matrix are the pairs (m, j') with
m ∈ M_g(lambda-2) for group g and j' the g-th index of the order; the column
paired with a row is m·x_{j'}^2, and the map (m, j') -> m·x_{j'}^2 is a
bijection onto the non-square-free monomials of degree lambda.  The trailing
columns are the square-free monomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InternalCheckError, ValidationError
from .polynomials import Mono, is_squarefree, mono_mul, monomials


def identity_order(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def cyclic_orders(n: int) -> list[tuple[int, ...]]:
    """The n cyclic shifts (k, k+1, ..., k-1), k = 1..n."""
    return [tuple((k + i - 1) % n + 1 for i in range(n)) for k in range(1, n + 1)]


def check_order(n: int, order) -> tuple[int, ...]:
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValidationError(f"{order} is not a permutation of 1..{n}")
    return order


@dataclass(frozen=True)
class MonomialFrame:
    n: int
    lam: int
    order: tuple[int, ...]
    sets: tuple[tuple[Mono, ...], ...]  # M_1 .. M_n


@dataclass(frozen=True)
class RowFrame:
    n: int
    lam: int
    order: tuple[int, ...]
    rows: tuple[tuple[Mono, int], ...]  # (monomial of degree lam-2, generator index)

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ColumnFrame:
    n: int
    lam: int
    columns: tuple[Mono, ...]  # first `split` non-square-free, then square-free
    split: int


def build_frame(n: int, lam: int, order=None) -> MonomialFrame:
    """The sets M_1(lambda) ⊇ ... ⊇ M_n(lambda) under the given order."""
    if n < 1:
        raise ValidationError("frames need n >= 1")
    if lam < 0:
        raise ValidationError("frames need lambda >= 0")
    order = check_order(n, order or identity_order(n))
    all_monos = monomials(n, lam)
    sets = []
    current = all_monos
    for j in range(1, n + 1):
        if j > 1:
            i = order[j - 2]  # newly constrained index
            current = [m for m in current if m[i - 1] < 2]
        sets.append(tuple(current))
    return MonomialFrame(n, lam, order, tuple(sets))


def build_row_frame(n: int, lam: int, order=None) -> RowFrame:
    """Rows (m, j') of the degree-lambda matrix, grouped in sigma order."""
    if lam < 2:
        raise ValidationError("row frames need lambda >= 2")
    frame = build_frame(n, lam - 2, order)
    rows = []
    for g in range(n):
        j = frame.order[g]
        for m in frame.sets[g]:
            rows.append((m, j))
    rf = RowFrame(n, lam, frame.order, tuple(rows))
    expected = comb(n + lam - 1, lam) - comb(n, lam)
    if rf.size != expected:
        raise InternalCheckError(
            f"row count {rf.size} != dim R_{lam} - C({n},{lam}) = {expected}"
        )
    return rf


def build_column_frame(row_frame: RowFrame) -> ColumnFrame:
    """Columns paired with the rows, then the square-free tail."""
    n, lam = row_frame.n, row_frame.lam
    cols = []
    for m, j in row_frame.rows:
        sq = [0] * n
        sq[j - 1] = 2
        cols.append(mono_mul(m, tuple(sq)))
    if len(set(cols)) != len(cols):
        raise InternalCheckError("row/column pairing is not injective")
    tail = [m for m in monomials(n, lam) if is_squarefree(m)]
    if set(cols) & set(tail):
        raise InternalCheckError("paired column claims to be square-free")
    return ColumnFrame(n, lam, tuple(cols) + tuple(tail), len(cols))
