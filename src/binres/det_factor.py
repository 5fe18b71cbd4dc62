"""Factored determinants of the coefficient matrices C(lambda).

Row r of C(lambda) holds its generator's a_j on the diagonal and at most one
b_j.  Column c holds the a of row c, so the b-entries define the *row graph*
r -> c, with c the column of row r's b-entry: a functional graph on the rows,
the successor map of `frames` in frame indices.  A permutation in
the expansion of det C(lambda) picks b-entries exactly on a union of the
graph's cycles, so a row off every cycle contributes its a_j and a cycle of
length r, whose permutation is an r-cycle of sign (-1)^(r-1), contributes
prod a + (-1)^(r-1) prod b (`circuit_factor`).

`resultant.delta` reads the same graph from the successor map without
building C(lambda); `factor_determinant` reads it from the built matrix's row
and column indices and is the walk's cross-check, together with the modular
oracle `det_mod`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coeff_matrix import CoeffMatrix
from .errors import ModeMismatchError, NonSquareMatrixError, ValidationError
from .polynomials import Mono, ParamPoly, mono_str, param_names


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


def circuit_factor(n: int, gens: Sequence[int]) -> BinomialFactor:
    """prod a_j + (-1)^(r-1) prod b_j over a cycle of r = len(gens) nodes,
    gens holding each node's generator index.

    The pure-a side is the lexicographically larger, so it leads.
    """
    a_part, b_part = [0] * (2 * n), [0] * (2 * n)
    for j in gens:
        a_part[j - 1] += 1
        b_part[n + j - 1] += 1
    return BinomialFactor(n, tuple(a_part), tuple(b_part), -1 if len(gens) % 2 == 0 else 1)


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
# the row graph
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    forced: tuple[int, ...]                # rows off every cycle, ascending
    circuits: tuple[tuple[int, ...], ...]  # each cycle's rows in successor order


def decompose(m: CoeffMatrix) -> Decomposition:
    """The cycles of the row graph of a symbolic C(lambda)."""
    if m.mode != "symbolic":
        raise ModeMismatchError("factor_determinant works on symbolic matrices; "
                                "specialize the factored result instead")
    if m.nrows != m.ncols:
        raise NonSquareMatrixError(f"matrix is {m.nrows}x{m.ncols}")
    size = m.nrows
    gens = [j for _, j in m.row_frame.rows]
    has_a = [False] * size
    succ: list[int | None] = [None] * size
    for e in m.entries:
        r = e.row
        if e.index == gens[r] and e.sign == 1:
            if e.kind == "a" and e.col == r and not has_a[r]:
                has_a[r] = True
                continue
            if e.kind == "b" and e.col != r and succ[r] is None:
                succ[r] = e.col
                continue
        raise ValidationError(f"row {r} is not a diagonal a plus at most one b")
    if not all(has_a):
        raise ValidationError(f"row {has_a.index(False)} lacks its diagonal a")

    walk_of = [-1] * size  # row -> the walk that reached it first
    circuits = []
    for start in range(size):
        path = []
        r = start
        while r is not None and walk_of[r] < 0:
            walk_of[r] = start
            path.append(r)
            r = succ[r]
        if r is not None and walk_of[r] == start:
            circuits.append(tuple(path[path.index(r):]))
    on_cycle = {r for c in circuits for r in c}
    forced = tuple(r for r in range(size) if r not in on_cycle)
    return Decomposition(forced, tuple(circuits))


def factor_determinant(m: CoeffMatrix) -> FactoredPoly:
    """Exact factored det C(lambda), read from the cycles of its row graph."""
    dec = decompose(m)
    n = m.n
    gens = [j for _, j in m.row_frame.rows]
    monomial = [0] * (2 * n)
    for r in dec.forced:
        monomial[gens[r] - 1] += 1
    factors = Counter(circuit_factor(n, [gens[r] for r in c]) for c in dec.circuits)
    return FactoredPoly(n, 1, tuple(monomial), factors)
