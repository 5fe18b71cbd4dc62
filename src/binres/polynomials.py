"""Exact sparse polynomials in the coefficient parameters and in the x-variables.

One sparse core holds a polynomial as a dict from exponent tuples to nonzero
coefficients, and implements the zero filter, arithmetic, equality, hashing
and term printing once for both rings of the method.  A coefficient is zero
iff it is falsy, which holds for int, Fraction and ParamPoly alike.

  ParamPoly — integer-coefficient polynomial in the 2n coefficient parameters
              a_1..a_n, b_1..b_n, where the resultant and every Delta_lambda
              live.  A parameter monomial is a single tuple of 2n exponents
              (a-exponents first, then b-exponents).
  XPoly     — polynomial in x_1..x_n, where the square-free basis rewriting
              lives, with coefficients in ParamPoly (symbolic mode) or in
              Fraction (rational mode).  With n = 1 and rational mode it is
              also Q[t], the ring of the one-parameter deformation along which
              the hess^2 vanishing order is read.

An int or Fraction operand is a scalar: it multiplies every coefficient, and
it is added as a constant term.  A ParamPoly scalar must be integral.

x-monomials are plain exponent tuples of length n; the degree is their sum and
a monomial is square-free iff every exponent is <= 1.  The canonical term
order everywhere is descending lexicographic on the exponent tuple.  It is
used only for deterministic serialization, never semantically.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import MissingParameterError, ModeMismatchError, ValidationError, clip

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


def is_squarefree(m: Mono) -> bool:
    return all(e <= 1 for e in m)


def sum_terms(pairs: Iterable[tuple[Mono, object]]) -> dict:
    """Sum (monomial, coefficient) pairs over any coefficient ring into a term
    dict; a monomial whose coefficients sum to zero (a falsy value) is dropped."""
    out: dict = {}
    for m, c in pairs:
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


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
    """Copy an assignment, accepting p_i as an alias of b_i; two keys that
    name one parameter (p1 and b1) raise ValidationError."""
    out: dict[str, Fraction] = {}
    typed: dict[str, str] = {}  # normalized name -> the key as given
    for key, value in assignment.items():
        name = key.strip()
        if name.startswith("p"):
            name = "b" + name[1:]
        if name in typed:
            raise ValidationError(f"{clip(repr(typed[name]))} and {clip(repr(key))} "
                                  f"both set {clip(name)}")
        typed[name] = key
        out[name] = Fraction(value)  # type: ignore[arg-type]
    return out


# --------------------------------------------------------------------------
# the shared sparse core
# --------------------------------------------------------------------------

class _SparsePoly:
    """Terms map exponent tuples to nonzero coefficients.  Instances are
    treated as immutable; every operation returns a fresh polynomial of the
    same ring (`_ring`: n, and for XPoly the mode)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: "Mapping[Mono, object] | None" = None):
        self.n = n
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def _ring(self) -> tuple:
        return (self.n,)

    def _with(self, terms: Mapping):
        """A polynomial of this one's ring with the given terms."""
        return type(self)(*self._ring(), terms)

    def _check(self, other: "_SparsePoly") -> None:
        if type(other) is not type(self) or other._ring() != self._ring():
            raise ModeMismatchError(f"{type(self).__name__} rings differ: "
                                    f"{self._ring()} vs {other._ring()}")

    def _const_mono(self) -> Mono:
        return (0,) * self.n

    @staticmethod
    def _scalar(value):
        """A scalar operand as a coefficient of this ring."""
        return value

    def _constant(self, value):
        """A scalar as a constant polynomial of this ring."""
        return self._with({self._const_mono(): self._scalar(value)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, _SparsePoly):
            other = self._constant(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _SparsePoly):
            other = self._scalar(other)
            return self._with({m: c * other for m, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = c1 * c2
                out[m] = out[m] + prod if m in out else prod
        return self._with(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, type(self)) and self._ring() == other._ring()
                and self.terms == other.terms)

    def __hash__(self):
        # monomials are distinct, so sorting never compares coefficients
        return hash((self._ring(), tuple(sorted(self.terms.items()))))

    def _names(self) -> "list[str] | None":
        return None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self._names()
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = mono_str(m, names)
            cs = str(c)
            # a symbolic coefficient is bracketed when it is a sum, and it
            # keeps its '*1' on the constant monomial ("a1*1")
            symbolic = isinstance(c, ParamPoly)
            if symbolic and len(c.terms) > 1:
                cs = f"({cs})"
            if body == "1" and not symbolic:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            else:
                parts.append(f"{cs}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


# --------------------------------------------------------------------------
# ParamPoly
# --------------------------------------------------------------------------

class ParamPoly(_SparsePoly):
    """Sparse polynomial in a_1..a_n, b_1..b_n; terms map 2n exponents to an int."""

    __slots__ = ()

    def _names(self) -> list[str]:
        return param_names(self.n)

    def _const_mono(self) -> Mono:
        return (0,) * (2 * self.n)

    @staticmethod
    def _scalar(value) -> int:
        """ParamPoly coefficients are ints: so must a scalar be (or an integral Fraction)."""
        if type(value) is int:
            return value
        q = Fraction(value)
        if q.denominator != 1:
            raise ValidationError(f"a symbolic coefficient must be an integer, "
                                  f"got {clip(str(value))}")
        return q.numerator

    # -- constructors
    @classmethod
    def const(cls, n: int, value: "int | Fraction") -> "ParamPoly":
        """The constant value, which must be an integer (`_scalar`)."""
        return cls(n, {(0,) * (2 * n): cls._scalar(value)})

    @classmethod
    def param(cls, kind: str, index: int, n: int) -> "ParamPoly":
        """The single parameter a_index or b_index."""
        if kind not in ("a", "b") or not 1 <= index <= n:
            raise ValidationError(f"no parameter {kind}{index} for n={n}")
        exps = [0] * (2 * n)
        exps[(0 if kind == "a" else n) + index - 1] = 1
        return cls(n, {tuple(exps): 1})

    # -- predicates
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


Coefficient = Union[ParamPoly, Fraction]


# --------------------------------------------------------------------------
# XPoly
# --------------------------------------------------------------------------

class XPoly(_SparsePoly):
    """Sparse polynomial in x_1..x_n.

    mode is "symbolic" (ParamPoly coefficients) or "rational" (Fraction), and
    it is part of equality: the symbolic and rational zeros differ.
    """

    __slots__ = ("mode",)

    def __init__(self, n: int, mode: str, terms: "Mapping[Mono, Coefficient] | None" = None):
        if mode not in (SYMBOLIC, RATIONAL):
            raise ValidationError(f"unknown mode {mode!r}")
        self.mode = mode
        _SparsePoly.__init__(self, n, terms)

    def _ring(self) -> tuple:
        return (self.n, self.mode)

    def _constant(self, value) -> "XPoly":
        return XPoly.monomial(self.n, self._const_mono(), value, self.mode)

    # -- constructors
    @classmethod
    def zero(cls, n: int, mode: str = RATIONAL) -> "XPoly":
        return cls(n, mode)

    @classmethod
    def monomial(cls, n: int, m: Mono, coeff: "Coefficient | int" = 1, mode: str = RATIONAL) -> "XPoly":
        if isinstance(coeff, ParamPoly):
            return cls(n, SYMBOLIC, {m: coeff})
        if mode == SYMBOLIC:
            return cls(n, SYMBOLIC, {m: ParamPoly.const(n, coeff)})
        return cls(n, RATIONAL, {m: Fraction(coeff)})

    @classmethod
    def variable(cls, n: int, index: int, mode: str = RATIONAL) -> "XPoly":
        """x_index (1-based)."""
        return cls.monomial(n, mono_from_indices(n, [index]), 1, mode)

    # -- structure queries
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def coefficient(self, m: Mono) -> Coefficient:
        if m in self.terms:
            return self.terms[m]
        return ParamPoly.const(self.n, 0) if self.mode == SYMBOLIC else Fraction(0)

    def scale(self, c: "Coefficient | int") -> "XPoly":
        return XPoly(self.n, self.mode, {m: v * c for m, v in self.terms.items()})  # type: ignore[operator]

    # -- evaluation
    def specialize(self, assignment: Mapping[str, Fraction]) -> "XPoly":
        """Substitute rationals for every parameter; result is rational mode."""
        if self.mode == RATIONAL:
            return self
        return XPoly(self.n, RATIONAL, {m: c.specialize(assignment)  # type: ignore[union-attr]
                                         for m, c in self.terms.items()})

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


# --------------------------------------------------------------------------
# module-level operation names from the library contract
# --------------------------------------------------------------------------

def poly_mul(p: XPoly, q: XPoly) -> XPoly:
    """Exact product of two XPoly values (same n, same mode)."""
    return p * q


def specialize(obj: "XPoly | ParamPoly", assignment: Mapping[str, Fraction]):
    """Evaluate parameters to rationals: XPoly -> XPoly, ParamPoly -> Fraction."""
    return obj.specialize(normalize_assignment(assignment))
