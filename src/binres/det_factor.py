"""Determinant factorization for matrices with at most two entries per row.

The determinant of such a matrix splits combinatorially:

  1. every column or row with a single nonzero entry forces that entry into
     each perfect matching — peel it into the monomial part (tracking the
     permutation sign at the end);
  2. after peeling to closure, every residual row AND column carries exactly
     two entries, so the residual decomposes into disjoint alternating cycles;
  3. each cycle admits exactly two matchings, contributing one binomial
     factor;
  4. a row or column running out of entries first means the determinant is 0.

`resultant.delta` computes Delta_lambda = det C(lambda) from the successor map
without building C (see `frames`); `factor_determinant` on a built C(lambda)
is its cross-check, together with the modular oracle `det_mod`.

Signs: the reference matching (forced entries plus the first matching of
every cycle) is a permutation of the frame order, and its parity is computed
once per determinant.  A cycle of length r (r rows, r columns) has its second
matching send row i to the column the first matching gives row i+1 mod r, so
the two differ by an r-cycle on the cycle's columns.  An r-cycle is a product
of r-1 transpositions, so the second matching's sign relative to the first is
(-1)^(r-1), whatever the other cycles do.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .coeff_matrix import CoeffMatrix, MatrixEntry
from .errors import ModeMismatchError, NonSquareMatrixError, RowOccupancyError, ValidationError
from .polynomials import Mono, ParamPoly, mono_str, param_names

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SparseMatrix:
    """Free-standing sparse matrix over the parameters a_1..a_n, b_1..b_n.

    Same entry conventions as CoeffMatrix; lets the engine factor matrices
    that are not coefficient matrices of a system (e.g. the binomial-type
    matrices P with two entries per row and column).
    """

    n: int
    nrows: int
    ncols: int
    entries: tuple[MatrixEntry, ...]
    mode: str = "symbolic"

    @classmethod
    def from_triples(cls, n: int, size: int, triples) -> "SparseMatrix":
        """triples: (row, col, kind, index) or (row, col, kind, index, sign)."""
        entries = tuple(MatrixEntry(*t) for t in triples)
        return cls(n, size, size, entries)


# --------------------------------------------------------------------------
# factored polynomials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BinomialFactor:
    """Circuit factor a_part + sign * b_part over parameter monomials.

    Canonical form keeps the lexicographically larger monomial first (for
    circuits of a binomial system that is the pure-a side).
    """

    n: int
    a_part: Mono  # 2n exponents
    b_part: Mono
    sign: int

    def degree(self) -> int:
        return max(sum(self.a_part), sum(self.b_part))

    def as_parampoly(self) -> ParamPoly:
        # two ParamPolys: a_part == b_part must add up, not overwrite
        return ParamPoly(self.n, {self.a_part: 1}) + ParamPoly(self.n, {self.b_part: self.sign})

    def to_text(self, alias: str = "b") -> str:
        names = param_names(self.n, alias)
        op = "+" if self.sign > 0 else "-"
        return f"({mono_str(self.a_part, names)} {op} {mono_str(self.b_part, names)})"

    __str__ = to_text


def _canonical_factor(n: int, m1: Mono, m2: Mono, rel: int) -> tuple[BinomialFactor, int]:
    """Order the two matching monomials; returns (factor, extracted sign)."""
    if m1 >= m2:
        return BinomialFactor(n, m1, m2, rel), 1
    # m1 + rel*m2 == rel * (m2 + rel*m1)
    return BinomialFactor(n, m2, m1, rel), rel


class FactoredPoly:
    """sign * parameter monomial * product of binomial factors (or zero).

    The expansion equals the source determinant exactly; `factors` is a
    canonically sorted tuple of (BinomialFactor, multiplicity).
    """

    __slots__ = ("n", "sign", "monomial", "factors", "zero")

    def __init__(self, n: int, sign: int = 1, monomial: Mono | None = None,
                 factors: "Iterable[tuple[BinomialFactor, int]] | Mapping[BinomialFactor, int]" = (),
                 zero: bool = False):
        self.n = n
        self.zero = zero
        if isinstance(factors, Mapping):
            factors = factors.items()
        if zero:
            sign, monomial, factors = 1, (0,) * (2 * n), ()
        self.sign = sign
        self.monomial: Mono = tuple(monomial) if monomial is not None else (0,) * (2 * n)
        self.factors: tuple[tuple[BinomialFactor, int], ...] = tuple(
            sorted(((f, m) for f, m in factors if m),
                   key=lambda fm: (fm[0].a_part, fm[0].b_part, fm[0].sign),
                   reverse=True)
        )

    @classmethod
    def zero_poly(cls, n: int) -> "FactoredPoly":
        return cls(n, zero=True)

    @classmethod
    def one(cls, n: int) -> "FactoredPoly":
        return cls(n)

    def is_zero(self) -> bool:
        return self.zero

    def factor_multiplicities(self) -> dict[BinomialFactor, int]:
        return dict(self.factors)

    def total_degree(self) -> int:
        if self.zero:
            return 0
        return sum(self.monomial) + sum(m * f.degree() for f, m in self.factors)

    def expand(self) -> ParamPoly:
        """Multiply everything out (use on small factorizations only)."""
        if self.zero:
            return ParamPoly(self.n)
        out = ParamPoly(self.n, {self.monomial: self.sign})
        for f, mult in self.factors:
            base = f.as_parampoly()
            for _ in range(mult):
                out = out * base
        return out

    def specialize(self, assignment) -> Fraction:
        if self.zero:
            return Fraction(0)
        v = ParamPoly(self.n, {self.monomial: self.sign}).specialize(assignment)
        for f, mult in self.factors:
            v *= f.as_parampoly().specialize(assignment) ** mult
        return v

    def eval_mod(self, avals: list[int], bvals: list[int], p: int) -> int:
        if self.zero:
            return 0
        v = ParamPoly(self.n, {self.monomial: self.sign}).eval_mod(avals, bvals, p)
        for f, mult in self.factors:
            v = v * pow(f.as_parampoly().eval_mod(avals, bvals, p), mult, p) % p
        return v

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactoredPoly)
                and (self.n, self.sign, self.monomial, self.factors, self.zero)
                == (other.n, other.sign, other.monomial, other.factors, other.zero))

    def __hash__(self):
        return hash((self.n, self.sign, self.monomial, self.factors, self.zero))

    def __str__(self) -> str:
        return self.to_text()

    __repr__ = __str__

    def to_text(self, alias: str = "b") -> str:
        if self.zero:
            return "0"
        parts = []
        if any(self.monomial):
            parts.append(mono_str(self.monomial, param_names(self.n, alias)))
        for f, mult in self.factors:
            s = f.to_text(alias)
            parts.append(s if mult == 1 else f"{s}^{mult}")
        if not parts:
            parts = ["1"]
        return ("-" if self.sign < 0 else "") + " * ".join(parts)

    def to_json_dict(self) -> dict:
        def split(mono: Mono) -> dict:
            return {"a": list(mono[: self.n]), "b": list(mono[self.n:])}

        return {
            "zero": self.zero,
            "sign": self.sign,
            "monomial": split(self.monomial),
            "factors": [
                {
                    "first": split(f.a_part),
                    "second": split(f.b_part),
                    "sign": f.sign,
                    "multiplicity": m,
                }
                for f, m in self.factors
            ],
        }


# --------------------------------------------------------------------------
# digraph decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """An alternating cycle: rows/cols in traversal order with both matchings."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    match_a: tuple[MatrixEntry, ...]  # entry of row i in cols[i]
    match_b: tuple[MatrixEntry, ...]  # entry of row i in cols[i+1 mod r]

    @property
    def row_set(self) -> frozenset:
        return frozenset(self.rows)

    @property
    def col_set(self) -> frozenset:
        return frozenset(self.cols)

    @property
    def hops(self) -> tuple[MatrixEntry, ...]:
        """Entries in cyclic order: consecutive hops share a row, then a
        column, closing back to the first entry."""
        out = []
        for ea, eb in zip(self.match_a, self.match_b):
            out.extend((ea, eb))
        return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    zero: bool
    forced: tuple[MatrixEntry, ...]       # peeled entries, peel order
    circuits: tuple[Circuit, ...]


def _check_matrix(m: "CoeffMatrix | SparseMatrix") -> None:
    if m.mode != "symbolic":
        raise ModeMismatchError("factor_determinant works on symbolic matrices; "
                                "specialize the factored result instead")
    if m.nrows != m.ncols:
        raise NonSquareMatrixError(f"matrix is {m.nrows}x{m.ncols}")


def decompose(m: "CoeffMatrix | SparseMatrix") -> Decomposition:
    """Peel forced entries and extract the residual alternating cycles."""
    _check_matrix(m)
    size = m.nrows
    entries = m.entries
    # entries are referred to by their position in m.entries
    row_entries: list[list[int]] = [[] for _ in range(size)]
    col_entries: list[list[int]] = [[] for _ in range(size)]
    for k, e in enumerate(entries):
        row_entries[e.row].append(k)
        col_entries[e.col].append(k)
    for r in range(size):
        if len(row_entries[r]) > 2:
            raise RowOccupancyError(f"row {r} has {len(row_entries[r])} entries")
        if len({entries[k].col for k in row_entries[r]}) != len(row_entries[r]):
            raise ValidationError("duplicate cell entries")

    alive_row = [True] * size
    alive_col = [True] * size
    rcount = [len(row_entries[r]) for r in range(size)]
    ccount = [len(col_entries[c]) for c in range(size)]
    dead = [False] * len(entries)
    forced: list[MatrixEntry] = []
    stack = [("row", r) for r in range(size) if rcount[r] == 1]
    stack += [("col", c) for c in range(size) if ccount[c] == 1]
    zero = any(v == 0 for v in rcount) or any(v == 0 for v in ccount)

    def retire(k: int) -> None:
        nonlocal zero
        if dead[k]:
            return
        dead[k] = True
        e = entries[k]
        rcount[e.row] -= 1
        ccount[e.col] -= 1
        if alive_row[e.row]:
            if rcount[e.row] == 0:
                zero = True
            elif rcount[e.row] == 1:
                stack.append(("row", e.row))
        if alive_col[e.col]:
            if ccount[e.col] == 0:
                zero = True
            elif ccount[e.col] == 1:
                stack.append(("col", e.col))

    while stack and not zero:
        axis, i = stack.pop()
        if axis == "row":
            if not alive_row[i] or rcount[i] != 1:
                continue
            k = next(x for x in row_entries[i] if not dead[x])
        else:
            if not alive_col[i] or ccount[i] != 1:
                continue
            k = next(x for x in col_entries[i] if not dead[x])
        e = entries[k]
        forced.append(e)
        alive_row[e.row] = False
        alive_col[e.col] = False
        retire(k)
        for other in row_entries[e.row]:
            retire(other)
        for other in col_entries[e.col]:
            retire(other)

    if zero:
        return Decomposition(True, tuple(forced), ())

    # peeling closure: a surviving row and column each hold exactly two entries
    live_row_entries = {r: [k for k in row_entries[r] if not dead[k]]
                        for r in range(size) if alive_row[r]}
    live_col_entries = {c: [k for k in col_entries[c] if not dead[k]]
                        for c in range(size) if alive_col[c]}

    circuits = []
    seen_rows: set[int] = set()
    for r0 in live_row_entries:
        if r0 in seen_rows:
            continue
        rows, cols, match_a, match_b = [], [], [], []
        r, ka = r0, live_row_entries[r0][0]
        while r not in seen_rows:
            seen_rows.add(r)
            kb = next(x for x in live_row_entries[r] if x != ka)
            ea, eb = entries[ka], entries[kb]
            rows.append(r)
            cols.append(ea.col)
            match_a.append(ea)
            match_b.append(eb)
            ka = next(x for x in live_col_entries[eb.col] if x != kb)
            r = entries[ka].row
        circuits.append(Circuit(tuple(rows), tuple(cols), tuple(match_a), tuple(match_b)))
    return Decomposition(False, tuple(forced), tuple(circuits))


def _matching_parity(cols: list[int]) -> int:
    """Sign of the full matching that puts row i in column cols[i]."""
    seen = [False] * len(cols)
    sign = 1
    for i in range(len(cols)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = cols[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _signed_monomial(n: int, entries: Iterable[MatrixEntry]) -> tuple[int, Mono]:
    """Product of the entries: its integer sign and its parameter monomial."""
    sign = 1
    mono = [0] * (2 * n)
    for e in entries:
        sign *= e.sign
        mono[(0 if e.kind == "a" else n) + e.index - 1] += 1
    return sign, tuple(mono)


def factor_determinant(m: "CoeffMatrix | SparseMatrix") -> FactoredPoly:
    """Exact factored determinant of a symbolic coefficient matrix."""
    n = m.n
    if m.nrows == 0:
        return FactoredPoly.one(n)
    dec = decompose(m)
    if dec.zero:
        return FactoredPoly.zero_poly(n)

    sign, monomial = _signed_monomial(n, dec.forced)
    reference = [0] * m.nrows
    for e in dec.forced:
        reference[e.row] = e.col
    for c in dec.circuits:
        for e in c.match_a:
            reference[e.row] = e.col
    sign *= _matching_parity(reference)

    factors: dict[BinomialFactor, int] = {}
    for circuit in dec.circuits:
        sign_a, mono_a = _signed_monomial(n, circuit.match_a)
        sign_b, mono_b = _signed_monomial(n, circuit.match_b)
        rel = -1 if len(circuit.rows) % 2 == 0 else 1  # (-1)^(r-1), see module docstring
        # det contribution: sign_a*mono_a + rel*sign_b*mono_b
        #                 = sign_a * (mono_a + coef*mono_b)
        coef = rel * sign_a * sign_b
        if mono_a == mono_b and coef < 0:
            return FactoredPoly.zero_poly(n)  # the circuit's two matchings cancel
        sign *= sign_a
        factor, extracted = _canonical_factor(n, mono_a, mono_b, coef)
        sign *= extracted
        if any(e > 1 for e in factor.a_part) or any(e > 1 for e in factor.b_part):
            logger.debug("circuit with repeated generator indices: %s", factor)
        factors[factor] = factors.get(factor, 0) + 1

    return FactoredPoly(n, sign, monomial, factors)


def circuits_of(m: "CoeffMatrix | SparseMatrix") -> list[Circuit]:
    """The residual cycles of the matrix digraph, one per binomial factor."""
    return list(decompose(m).circuits)
