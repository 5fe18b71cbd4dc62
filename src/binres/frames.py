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

Read backwards, the pairing sends a non-square-free w to the row (w/x_j^2, j)
with j the first index of the order whose exponent in w is >= 2; that row's
b_j entry sits in the column (w/x_j^2)*m_j, dropped from C(lambda) when it is
square-free.  The map w -> (w/x_j^2)*m_j is a functional graph on the
non-square-free monomials, and `successor_walks` is its one traversal.

Both results of the method read that graph.  A permutation in the expansion of
det C(lambda) picks b-entries exactly on a union of the graph's cycles, so a
node off every cycle contributes its a_j and a cycle of length r contributes
prod a + (-1)^(r-1) prod b (the sign of an r-cycle): `resultant.delta`.
Modulo the ideal a node w rewrites to -(b_j/a_j) times its successor, so every
node collapses onto the square-free monomial its walk ends in, or onto 0 when
it feeds a cycle: `rewrite.reduce` and `rewrite.rewrite_table`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InternalCheckError, ValidationError, clip
from .polynomials import Mono, monomials


def identity_order(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def cyclic_orders(n: int) -> list[tuple[int, ...]]:
    """The n cyclic shifts (k, k+1, ..., k-1), k = 1..n."""
    return [tuple((k + i - 1) % n + 1 for i in range(n)) for k in range(1, n + 1)]


def check_order(n: int, order) -> tuple[int, ...]:
    """The order as a tuple, once it is a list or tuple of ints permuting 1..n."""
    # JSON true/false load as bool, which is an int subclass
    if not isinstance(order, (list, tuple)) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in order):
        raise ValidationError(f"an order must be a list of integers, got {clip(repr(order))}")
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValidationError(f"{clip(str(order))} is not a permutation of 1..{n}")
    return order


def pairing_step(w: Mono, order: tuple[int, ...],
                 cofactors: tuple[tuple[int, int], ...]) -> tuple[int, Mono]:
    """(j, w/x_j^2 * m_j) for a non-square-free w, j its frame pairing index.

    cofactors[j-1] holds the 1-based variable indices of m_j.
    """
    for j in order:
        if w[j - 1] >= 2:
            k, l = cofactors[j - 1]
            nxt = list(w)
            nxt[j - 1] -= 2
            nxt[k - 1] += 1
            nxt[l - 1] += 1
            return j, tuple(nxt)
    raise ValueError(f"{w} is square-free")


def node_count(n: int, lam: int) -> int:
    """The non-square-free monomials of degree lam: the size of C(lambda)."""
    return comb(n + lam - 1, lam) - comb(n, lam)


def paired_count(n: int, lam: int, g: int) -> int:
    """Nodes whose pairing index is the (g+1)-th of the order: |M_{g+1}(lam-2)|.

    i of the g earlier indices carry exponent 1 and the other lam-2-i degrees
    go to the remaining n-g variables.
    """
    d = lam - 2
    return sum(comb(g, i) * comb(n - g + d - i - 1, d - i) for i in range(min(g, d) + 1))


def _check_node_count(what: str, count: int, n: int, lam: int) -> None:
    expected = node_count(n, lam)
    if count != expected:
        raise InternalCheckError(
            f"{what} count {count} != dim R_{lam} - C({n},{lam}) = {expected}")


def successor_walks(n: int, lam: int, order: tuple[int, ...],
                    cofactors: tuple[tuple[int, int], ...]):
    """One coloured pass over the successor map on degree-lam monomials.

    Yields (path, gens, end, loop) per walk: path holds the nodes first
    reached on this walk, gens[i] the pairing index of path[i], end the
    successor of the last node (square-free, or on an earlier walk, or on
    this one), and loop the position in path where the walk closed on
    itself, else None.  Every non-square-free monomial lies on one path.
    """
    walk_of: dict[Mono, int] = {}  # node -> the walk that reached it first
    for walk, start in enumerate(monomials(n, lam)):
        if start in walk_of or max(start) < 2:
            continue
        path: list[Mono] = []
        gens: list[int] = []
        w = start
        loop = None
        while True:
            walk_of[w] = walk
            path.append(w)
            j, w = pairing_step(w, order, cofactors)
            gens.append(j)
            if max(w) < 2:
                break
            seen = walk_of.get(w)
            if seen is None:
                continue
            if seen == walk:
                loop = path.index(w)
            break
        yield path, gens, w, loop
    _check_node_count("node", len(walk_of), n, lam)


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
    _check_node_count("row", rf.size, n, lam)
    return rf


def build_column_frame(row_frame: RowFrame) -> ColumnFrame:
    """Columns paired with the rows, then the square-free tail."""
    n, lam = row_frame.n, row_frame.lam
    cols = []
    for m, j in row_frame.rows:
        w = list(m)
        w[j - 1] += 2
        cols.append(tuple(w))
    if len(set(cols)) != len(cols):
        raise InternalCheckError("row/column pairing is not injective")
    # combinations in lex order give the square-free monomials in descending lex
    tail = [tuple(1 if i in c else 0 for i in range(n)) for c in combinations(range(n), lam)]
    if set(cols) & set(tail):
        raise InternalCheckError("paired column claims to be square-free")
    return ColumnFrame(n, lam, tuple(cols) + tuple(tail), len(cols))
