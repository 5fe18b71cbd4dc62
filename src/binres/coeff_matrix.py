"""Sparse coefficient matrices C'(lambda) and C(lambda) of a binomial system.

Row k of C'(lambda) holds the coefficients of m*f_j for the k-th row-frame
pair (m, j): parameter a_j lands in the column m*x_j^2 (the paired column, so
a-parameters fill the diagonal of C) and b_j in the column m*m_j.  C(lambda)
is the square block over the non-square-free columns; b-entries whose column
is square-free are dropped with it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .frames import ColumnFrame, RowFrame, build_column_frame, build_row_frame, check_order
from .polynomials import RATIONAL
from .systems import BinomialSystem


@dataclass(frozen=True)
class MatrixEntry:
    row: int
    col: int
    kind: str            # 'a' or 'b'
    index: int           # generator index, 1-based
    sign: int = 1        # integer coefficient of the parameter (always +1 here)
    value: Fraction | None = None  # set in specialized mode


@dataclass(frozen=True)
class CoeffMatrix:
    system: BinomialSystem
    lam: int
    order: tuple[int, ...]
    row_frame: RowFrame
    column_frame: ColumnFrame
    entries: tuple[MatrixEntry, ...]
    square: bool  # True for C(lambda), False for C'(lambda)

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def nrows(self) -> int:
        return self.row_frame.size

    @property
    def ncols(self) -> int:
        return self.row_frame.size if self.square else len(self.column_frame.columns)

    @property
    def mode(self) -> str:
        return self.system.mode

    def row_labels(self) -> list[str]:
        from .polynomials import mono_str

        return [f"{mono_str(m)}*f{j}" for m, j in self.row_frame.rows]

    def col_labels(self) -> list[str]:
        from .polynomials import mono_str

        return [mono_str(m) for m in self.column_frame.columns[: self.ncols]]


def _build(system: BinomialSystem, lam: int, order, square: bool) -> CoeffMatrix:
    if lam < 2:
        raise ValidationError("coefficient matrices need lambda >= 2")
    order = check_order(system.n, system.order if order is None else order)
    row_frame = build_row_frame(system.n, lam, order)
    column_frame = build_column_frame(row_frame)
    col_index = {m: k for k, m in enumerate(column_frame.columns)}
    ncols = column_frame.split if square else len(column_frame.columns)
    specialized = system.mode == RATIONAL

    # row r's a-entry sits in its paired column r; entries are emitted in
    # (row, col) order
    entries = []
    for r, (m, j) in enumerate(row_frame.rows):
        gen = system.generator(j)
        k, l = gen.cofactor
        w = list(m)
        w[k - 1] += 1
        w[l - 1] += 1
        cb = col_index[tuple(w)]
        row = []
        if specialized:
            if gen.a != 0:
                row.append(MatrixEntry(r, r, "a", j, 1, gen.a))
            if gen.b != 0 and cb < ncols:
                row.append(MatrixEntry(r, cb, "b", j, 1, gen.b))
        else:
            row.append(MatrixEntry(r, r, "a", j))
            if cb < ncols:
                row.append(MatrixEntry(r, cb, "b", j))
        if len(row) == 2 and cb < r:
            row.reverse()
        entries.extend(row)
    return CoeffMatrix(system, lam, order, row_frame, column_frame, tuple(entries), square)


def build_cprime(system: BinomialSystem, lam: int, order=None) -> CoeffMatrix:
    """C'(lambda): all columns, including the square-free tail."""
    return _build(system, lam, order, square=False)


def build_c(system: BinomialSystem, lam: int, order=None) -> CoeffMatrix:
    """C(lambda): the square submatrix over the non-square-free columns."""
    return _build(system, lam, order, square=True)
