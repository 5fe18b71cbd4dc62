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
from math import gcd
from typing import Iterable, Mapping, Sequence

from .coeff_matrix import CoeffMatrix
from .errors import (InternalCheckError, MissingParameterError, ModeMismatchError,
                     NonSquareMatrixError, ValidationError)
from .polynomials import Mono, ParamPoly, mono_str, param_names


# --------------------------------------------------------------------------
# factored polynomials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BinomialFactor:
    """Circuit factor a_part + sign * b_part over parameter monomials.

    Canonical form keeps the lexicographically larger monomial first (for
    circuits of a binomial system that is the pure-a side).  Every factor is
    also irreducible over Q: x^u + s * x^v with u, v of disjoint support is
    irreducible when the entries of u - v have gcd 1, as u - v is then
    primitive; with gcd >= 2 it can split, as A^2 - B^2 = (A - B)(A + B)
    does.  A factor that is not canonical, whose monomials share a variable
    or whose exponents have a gcd other than 1 raises InternalCheckError
    when it is built.  Distinct factors are thus coprime, and a
    FactoredPoly is the unique factorization into the a_j, the b_j and its
    factors; `resultant.divides` and `resultant.factored_gcd` rely on that
    when they compare atom by atom.
    """

    n: int
    a_part: Mono  # 2n exponents
    b_part: Mono
    sign: int

    def __post_init__(self):
        if any(x and y for x, y in zip(self.a_part, self.b_part)):
            raise InternalCheckError(f"factor {self} has a monomial factor")
        if self.a_part <= self.b_part:
            raise InternalCheckError(f"factor {self} is not canonical: its first "
                                     f"monomial must be the lexicographically larger")
        g = gcd(*self.a_part, *self.b_part)
        if g != 1:
            raise InternalCheckError(f"factor {self} has exponents with gcd {g}; "
                                     f"it may be reducible")

    def degree(self) -> int:
        return max(sum(self.a_part), sum(self.b_part))

    def to_text(self, alias: str = "b") -> str:
        names = param_names(self.n, alias)
        op = "+" if self.sign > 0 else "-"
        return f"({mono_str(self.a_part, names)} {op} {mono_str(self.b_part, names)})"

    __str__ = to_text


def circuit_factor(n: int, gens: Sequence[int]) -> BinomialFactor:
    """prod a_j + (-1)^(r-1) prod b_j over a cycle of r = len(gens) nodes,
    gens holding each node's generator index.

    The pure-a side is the lexicographically larger, so it leads.  With c_j
    the count of generator j in the cycle, the factor is
    prod a_j^c_j + s * prod b_j^c_j, and BinomialFactor raises
    InternalCheckError unless gcd(c) = 1, the condition for it to be
    irreducible.
    """
    a_part, b_part = [0] * (2 * n), [0] * (2 * n)
    for j in gens:
        a_part[j - 1] += 1
        b_part[n + j - 1] += 1
    return BinomialFactor(n, tuple(a_part), tuple(b_part), -1 if len(gens) % 2 == 0 else 1)


class FactoredPoly:
    """sign * parameter monomial * product of binomial factors.

    The expansion equals the source determinant exactly; `factors` is a
    canonically sorted tuple of (BinomialFactor, multiplicity).  It is never
    the zero polynomial: every row of C(lambda) holds its a_j on the diagonal
    with coefficient +1 and its b_j off it, so the identity permutation, the
    only one that picks no b_j, gives the term prod a_j with coefficient +1.
    """

    __slots__ = ("n", "sign", "monomial", "factors")

    def __init__(self, n: int, sign: int = 1, monomial: Mono | None = None,
                 factors: "Iterable[tuple[BinomialFactor, int]] | Mapping[BinomialFactor, int]" = ()):
        self.n = n
        if isinstance(factors, Mapping):
            factors = factors.items()
        self.sign = sign
        self.monomial: Mono = tuple(monomial) if monomial is not None else (0,) * (2 * n)
        self.factors: tuple[tuple[BinomialFactor, int], ...] = tuple(
            sorted(((f, m) for f, m in factors if m),
                   key=lambda fm: (fm[0].a_part, fm[0].b_part, fm[0].sign),
                   reverse=True)
        )

    def factor_multiplicities(self) -> dict[BinomialFactor, int]:
        return dict(self.factors)

    def total_degree(self) -> int:
        return sum(self.monomial) + sum(m * f.degree() for f, m in self.factors)

    def pair_degrees(self) -> tuple[int, ...]:
        """Degree in each generator's coefficient pair (a_i, b_i)."""
        n = self.n
        degrees = [self.monomial[i] + self.monomial[n + i] for i in range(n)]
        for f, m in self.factors:
            for i in range(n):
                degrees[i] += m * max(f.a_part[i] + f.a_part[n + i], f.b_part[i] + f.b_part[n + i])
        return tuple(degrees)

    def expand(self) -> ParamPoly:
        """Multiply everything out (use on small factorizations only)."""
        out = ParamPoly(self.n, {self.monomial: self.sign})
        for f, mult in self.factors:
            base = ParamPoly(self.n, {f.a_part: 1, f.b_part: f.sign})
            for _ in range(mult):
                out = out * base
        return out

    def _values(self, assignment) -> list:
        """The values of a1..an, b1..bn; None for a parameter that the
        assignment lacks, which raises MissingParameterError if used."""
        names = param_names(self.n)
        values = [assignment.get(name) for name in names]
        for i, v in enumerate(values):
            if v is None and (self.monomial[i]
                              or any(f.a_part[i] or f.b_part[i] for f, _ in self.factors)):
                raise MissingParameterError(f"assignment lacks {names[i]}")
        return values

    def _atoms(self, values: list, p: int | None = None):
        """(value, exponent) of every atom at the parameter values: each a_j
        or b_j with a positive exponent in the monomial, then each factor,
        whose value is reduced mod p when p is given."""
        def power_product(mono: Mono):
            v = 1
            for x, e in zip(values, mono):
                if e:
                    v *= pow(x, e, p)
            return v

        for x, e in zip(values, self.monomial):
            if e:
                yield x, e
        for f, mult in self.factors:
            v = power_product(f.a_part) + f.sign * power_product(f.b_part)
            yield (v if p is None else v % p), mult

    def specialize(self, assignment) -> Fraction:
        v = Fraction(self.sign)
        for x, e in self._atoms(self._values(assignment)):
            v *= x ** e
        return v

    def vanishes_at(self, assignment) -> bool:
        """Whether specialize(assignment) == 0, read atom by atom: some a_j,
        b_j or circuit factor with a positive exponent evaluates to 0.  No
        power is expanded."""
        return any(x == 0 for x, _ in self._atoms(self._values(assignment)))

    def eval_mod(self, avals: list[int], bvals: list[int], p: int) -> int:
        v = self.sign % p
        for x, e in self._atoms(list(avals) + list(bvals), p):
            v = v * pow(x, e, p) % p
        return v

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactoredPoly)
                and (self.n, self.sign, self.monomial, self.factors)
                == (other.n, other.sign, other.monomial, other.factors))

    def __hash__(self):
        return hash((self.n, self.sign, self.monomial, self.factors))

    def __str__(self) -> str:
        return self.to_text()

    __repr__ = __str__

    def to_text(self, alias: str = "b") -> str:
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

        # "zero" stays, always false, so the --json layout is unchanged
        return {
            "zero": False,
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
        if e.index == gens[r]:
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
