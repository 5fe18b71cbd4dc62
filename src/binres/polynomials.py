"""Exact sparse polynomial arithmetic for coefficient parameters and x-variables.

Two polynomial flavours are used throughout the library:

  ParamPoly — integer-coefficient polynomial in the 2n coefficient parameters
              a_1..a_n, b_1..b_n.  A parameter monomial is a single tuple of
              2n exponents (a-exponents first, then b-exponents).
  XPoly     — polynomial in x_1..x_n whose coefficients are either ParamPoly
              (symbolic mode) or Fraction (rational mode).

x-monomials are plain exponent tuples of length n; the degree is their sum and
a monomial is square-free iff every exponent is <= 1.  The canonical term
order everywhere is descending lexicographic on the exponent tuple.  It is
used only for deterministic serialization, never semantically.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import MissingParameterError, ModeMismatchError, ValidationError

Mono = tuple  # exponent tuple; length n for x-monomials, 2n for parameters

SYMBOLIC = "symbolic"
RATIONAL = "rational"


# --------------------------------------------------------------------------
# monomial helpers
# --------------------------------------------------------------------------

def monomials(n: int, deg: int) -> list[Mono]:
    """All exponent tuples of length n with entry sum deg, descending lex."""
    if n == 0:
        return [()] if deg == 0 else []
    out: list[Mono] = []

    def rec(prefix: list[int], rem: int, k: int) -> None:
        if k == 1:
            out.append(tuple(prefix) + (rem,))
            return
        for e in range(rem, -1, -1):
            prefix.append(e)
            rec(prefix, rem - e, k - 1)
            prefix.pop()

    rec([], deg, n)
    return out


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    return tuple(a + b for a, b in zip(m1, m2))


def mono_degree(m: Mono) -> int:
    return sum(m)


def is_squarefree(m: Mono) -> bool:
    return all(e <= 1 for e in m)


def mono_from_indices(n: int, indices: Iterable[int]) -> Mono:
    """Monomial from 1-based variable indices, e.g. (2, 3) -> x2*x3."""
    exps = [0] * n
    for i in indices:
        exps[i - 1] += 1
    return tuple(exps)


def mono_str(m: Mono, names: "list[str] | None" = None) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        name = names[i] if names else f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def param_name(kind: str, index: int) -> str:
    return f"{kind}{index}"


def param_names(n: int, alias: str = "b") -> list[str]:
    """Display names of the 2n parameter positions: a1..an, <alias>1..<alias>n."""
    return [f"a{i}" for i in range(1, n + 1)] + [f"{alias}{i}" for i in range(1, n + 1)]


def normalize_assignment(assignment: Mapping[str, object]) -> dict[str, Fraction]:
    """Copy an assignment, accepting p_i as an alias of b_i."""
    out: dict[str, Fraction] = {}
    for key, value in assignment.items():
        name = key.strip()
        if name.startswith("p"):
            name = "b" + name[1:]
        out[name] = Fraction(value)  # type: ignore[arg-type]
    return out


# --------------------------------------------------------------------------
# ParamPoly
# --------------------------------------------------------------------------

class ParamPoly:
    """Sparse integer-coefficient polynomial in a_1..a_n, b_1..b_n.

    Terms map a 2n-exponent tuple to a nonzero int.  Instances are treated as
    immutable; all operations return fresh objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: "Mapping[Mono, int] | None" = None):
        self.n = n
        self.terms: dict[Mono, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    # -- constructors
    @classmethod
    def const(cls, n: int, value: int) -> "ParamPoly":
        return cls(n, {(0,) * (2 * n): int(value)} if value else {})

    @classmethod
    def param(cls, kind: str, index: int, n: int) -> "ParamPoly":
        """The single parameter a_index or b_index."""
        if kind not in ("a", "b") or not 1 <= index <= n:
            raise ValidationError(f"no parameter {kind}{index} for n={n}")
        exps = [0] * (2 * n)
        exps[(0 if kind == "a" else n) + index - 1] = 1
        return cls(n, {tuple(exps): 1})

    # -- predicates
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> "int | None":
        """The int value if this polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not any(m):
                return c
        return None

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    # -- arithmetic
    def _check(self, other: "ParamPoly") -> None:
        if self.n != other.n:
            raise ModeMismatchError("ParamPoly variable counts differ")

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ParamPoly(self.n, out)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly | int") -> "ParamPoly":
        if isinstance(other, int):
            return ParamPoly(self.n, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        out: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return ParamPoly(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ParamPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    # -- evaluation
    def specialize(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation; raises MissingParameterError on gaps."""
        total = Fraction(0)
        n = self.n
        for m, c in self.terms.items():
            term = Fraction(c)
            for pos, e in enumerate(m):
                if e == 0:
                    continue
                name = param_name("a", pos + 1) if pos < n else param_name("b", pos - n + 1)
                if name not in assignment:
                    raise MissingParameterError(f"assignment lacks {name}")
                term *= assignment[name] ** e
            total += term
        return total

    def eval_mod(self, avals: list[int], bvals: list[int], p: int) -> int:
        """Evaluate modulo p with residue vectors for a and b."""
        n = self.n
        total = 0
        for m, c in self.terms.items():
            term = c % p
            for pos, e in enumerate(m):
                if e:
                    base = avals[pos] if pos < n else bvals[pos - n]
                    term = term * pow(base, e, p) % p
            total = (total + term) % p
        return total

    # -- serialization
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = param_names(self.n)
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = mono_str(m, names)
            if body == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


Coefficient = Union[ParamPoly, Fraction]


# --------------------------------------------------------------------------
# XPoly
# --------------------------------------------------------------------------

class XPoly:
    """Sparse polynomial in x_1..x_n.

    mode is "symbolic" (ParamPoly coefficients) or "rational" (Fraction).
    Zero coefficients are never stored; operations are exact and pure.
    """

    __slots__ = ("n", "mode", "terms")

    def __init__(self, n: int, mode: str, terms: "Mapping[Mono, Coefficient] | None" = None):
        if mode not in (SYMBOLIC, RATIONAL):
            raise ValidationError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.terms: dict[Mono, Coefficient] = {}
        for m, c in (terms or {}).items():
            if (isinstance(c, ParamPoly) and c.is_zero()) or c == 0:
                continue
            self.terms[m] = c

    # -- constructors
    @classmethod
    def zero(cls, n: int, mode: str = RATIONAL) -> "XPoly":
        return cls(n, mode)

    @classmethod
    def monomial(cls, n: int, m: Mono, coeff: "Coefficient | int" = 1, mode: str = RATIONAL) -> "XPoly":
        if isinstance(coeff, ParamPoly):
            return cls(n, SYMBOLIC, {m: coeff})
        if mode == SYMBOLIC:
            return cls(n, SYMBOLIC, {m: ParamPoly.const(n, int(coeff))})
        return cls(n, RATIONAL, {m: Fraction(coeff)})

    @classmethod
    def variable(cls, n: int, index: int, mode: str = RATIONAL) -> "XPoly":
        """x_index (1-based)."""
        return cls.monomial(n, mono_from_indices(n, [index]), 1, mode)

    # -- structure queries
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, m: Mono) -> Coefficient:
        if m in self.terms:
            return self.terms[m]
        return ParamPoly.const(self.n, 0) if self.mode == SYMBOLIC else Fraction(0)

    def _check(self, other: "XPoly") -> None:
        if self.n != other.n:
            raise ModeMismatchError("XPoly variable counts differ")
        if self.mode != other.mode:
            raise ModeMismatchError(f"mode mismatch: {self.mode} vs {other.mode}")

    # -- arithmetic
    def __add__(self, other: "XPoly") -> "XPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = out[m] + c  # type: ignore[operator]
            else:
                out[m] = c
        return XPoly(self.n, self.mode, out)

    def __neg__(self) -> "XPoly":
        return XPoly(self.n, self.mode, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __mul__(self, other: "XPoly") -> "XPoly":
        self._check(other)
        out: dict[Mono, Coefficient] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = c1 * c2  # type: ignore[operator]
                if m in out:
                    out[m] = out[m] + prod  # type: ignore[operator]
                else:
                    out[m] = prod
        return XPoly(self.n, self.mode, out)

    def scale(self, c: "Coefficient | int") -> "XPoly":
        if c == 0:
            return XPoly(self.n, self.mode)
        return XPoly(self.n, self.mode, {m: v * c for m, v in self.terms.items()})  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XPoly)
            and self.n == other.n
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.mode, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- evaluation
    def specialize(self, assignment: Mapping[str, Fraction]) -> "XPoly":
        """Substitute rationals for every parameter; result is rational mode."""
        if self.mode == RATIONAL:
            return self
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            val = c.specialize(assignment)  # type: ignore[union-attr]
            if val:
                out[m] = val
        return XPoly(self.n, RATIONAL, out)

    def eval_at(self, point: list[Fraction]) -> Fraction:
        """Evaluate a rational-mode polynomial at a rational point."""
        if self.mode != RATIONAL:
            raise ModeMismatchError("eval_at needs a rational-mode polynomial")
        total = Fraction(0)
        for m, c in self.terms.items():
            term = Fraction(c)
            for v, e in zip(point, m):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total

    # -- serialization
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = mono_str(m)
            if isinstance(c, ParamPoly):
                cs = str(c)
                if len(c.terms) > 1:
                    cs = f"({cs})"
                parts.append(body if cs == "1" else ("-" + body if cs == "-1" else f"{cs}*{body}"))
            else:
                if body == "1":
                    parts.append(str(c))
                elif c == 1:
                    parts.append(body)
                elif c == -1:
                    parts.append("-" + body)
                else:
                    parts.append(f"{c}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


# --------------------------------------------------------------------------
# module-level operation names from the library contract
# --------------------------------------------------------------------------

def poly_mul(p: XPoly, q: XPoly) -> XPoly:
    """Exact product of two XPoly values (same n, same mode)."""
    return p * q


def specialize(obj: "XPoly | ParamPoly", assignment: Mapping[str, Fraction]):
    """Evaluate parameters to rationals: XPoly -> XPoly, ParamPoly -> Fraction."""
    assignment = normalize_assignment(assignment)
    if isinstance(obj, ParamPoly):
        return obj.specialize(assignment)
    return obj.specialize(assignment)
