"""Binomial systems f_i = a_i*x_i^2 + b_i*m_i and their file formats.

A system is symbolic (a_i, b_i indeterminate) or specialized (rational values
for every a_i, b_i).  The canonical machine format is JSON with schema 1:

    {"schema": 1, "n": 5,
     "forms": [{"square": 1, "cofactor": [2, 3]}, ...],
     "order": [1, 2, 3, 4, 5],          # optional
     "alias": "p"}                       # optional display alias for b_i

Specialized files add "a" and "b" (rational strings) to every form.  A line
grammar is accepted for convenience:

    f1 = a1 x1^2 + p1 x2 x3

Quadratic-space files (for normal-form preprocessing) carry instead a
"quadratic_space" list of degree-2 forms with rational coefficients, under
the same schema 1, or lines ``g1 = x1^2 + 2 x1 x2``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ParseError, ValidationError, clip
from .frames import check_order, identity_order
from .polynomials import (
    RATIONAL,
    SYMBOLIC,
    Mono,
    ParamPoly,
    XPoly,
    mono_from_indices,
    normalize_assignment,
    sum_terms,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Generator:
    square: int                 # 1-based index i of the square term x_i^2
    cofactor: tuple[int, int]   # 1-based variable indices of m_i, ascending
    a: Fraction | None = None
    b: Fraction | None = None

    def cofactor_mono(self, n: int) -> Mono:
        return mono_from_indices(n, self.cofactor)


@dataclass(frozen=True)
class BinomialSystem:
    n: int
    generators: tuple[Generator, ...]
    order: tuple[int, ...]
    alias: str = "b"

    @property
    def mode(self) -> str:
        return RATIONAL if self.generators[0].a is not None else SYMBOLIC

    def generator(self, i: int) -> Generator:
        return self.generators[i - 1]

    def pattern(self) -> tuple[tuple[int, int], ...]:
        return tuple(g.cofactor for g in self.generators)

    def form(self, i: int) -> XPoly:
        """The generator f_i as an XPoly."""
        g = self.generator(i)
        sq = mono_from_indices(self.n, [i, i])
        cof = g.cofactor_mono(self.n)
        if self.mode == SYMBOLIC:
            return XPoly(self.n, SYMBOLIC, {
                sq: ParamPoly.param("a", i, self.n),
                cof: ParamPoly.param("b", i, self.n),
            })
        return XPoly(self.n, RATIONAL, {sq: g.a, cof: g.b})

    def forms(self) -> list[XPoly]:
        return [self.form(i) for i in range(1, self.n + 1)]

    def assignment(self) -> dict[str, Fraction]:
        """Parameter assignment of a specialized system."""
        if self.mode != RATIONAL:
            raise ValidationError("symbolic system has no assignment")
        out: dict[str, Fraction] = {}
        for g in self.generators:
            out[f"a{g.square}"] = g.a
            out[f"b{g.square}"] = g.b
        return out

    def symbolic_twin(self) -> "BinomialSystem":
        """Same cofactor pattern with indeterminate coefficients."""
        gens = tuple(replace(g, a=None, b=None) for g in self.generators)
        return BinomialSystem(self.n, gens, self.order, self.alias)

    def specialize(self, assignment) -> "BinomialSystem":
        # names are checked as given, so an error quotes the name the user typed
        known = {f"{kind}{i}" for kind in "abp" for i in range(1, self.n + 1)}
        unknown = next((name for name in assignment if name.strip() not in known), None)
        if unknown is not None:
            raise ValidationError(f"{clip(repr(unknown))} is not a parameter of this "
                                  f"{self.n}-variable system")
        assignment = normalize_assignment(assignment)
        gens = []
        for g in self.generators:
            try:
                gens.append(replace(g, a=assignment[f"a{g.square}"], b=assignment[f"b{g.square}"]))
            except KeyError as exc:
                raise ValidationError(f"assignment lacks {exc.args[0]}") from None
        return BinomialSystem(self.n, tuple(gens), self.order, self.alias)

    def to_json_dict(self) -> dict:
        forms = []
        for g in self.generators:
            entry: dict = {"square": g.square, "cofactor": list(g.cofactor)}
            if g.a is not None:
                entry["a"] = str(g.a)
                entry["b"] = str(g.b)
            forms.append(entry)
        out = {"schema": SCHEMA_VERSION, "n": self.n, "forms": forms}
        if self.order != identity_order(self.n):
            out["order"] = list(self.order)
        if self.alias != "b":
            out["alias"] = self.alias
        return out

    def __str__(self) -> str:
        lines = []
        for g in self.generators:
            i = g.square
            j, k = g.cofactor
            if self.mode == SYMBOLIC:
                lines.append(f"f{i} = a{i} x{i}^2 + {self.alias}{i} x{j} x{k}")
            else:
                lines.append(f"f{i} = {g.a} x{i}^2 + {g.b} x{j} x{k}")
        return "\n".join(lines)


def make_system(n, cofactors, values=None, order=None, alias="b") -> BinomialSystem:
    """Build and validate a system from cofactor index pairs.

    cofactors: sequence of n pairs (j, k); entry i belongs to f_{i+1}.
    values: None for symbolic, else a sequence of n (a_i, b_i) rationals.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    cofactors = [tuple(sorted(int(v) for v in c)) for c in cofactors]
    if len(cofactors) != n:
        raise ValidationError(f"expected {n} generators, got {len(cofactors)}")
    gens = []
    for i, (j, k) in enumerate(cofactors, start=1):
        if not (1 <= j <= n and 1 <= k <= n):
            raise ValidationError(f"cofactor indices of f{i} out of range 1..{n}")
        if j == k:
            raise ValidationError(f"cofactor of f{i} must be square-free (indices distinct)")
        a = b = None
        if values is not None:
            a, b = Fraction(values[i - 1][0]), Fraction(values[i - 1][1])
        gens.append(Generator(i, (j, k), a, b))
    order = check_order(n, identity_order(n) if order is None else order)
    if alias not in ("b", "p"):
        raise ValidationError("alias must be 'b' or 'p'")
    return BinomialSystem(n, tuple(gens), order, alias)


def cyclic_system(n, first_cofactor, values=None, alias="p") -> BinomialSystem:
    """The cyclic family: f_1 has the given cofactor, f_{i+1} = f_i shifted."""
    j, k = first_cofactor
    cofs = [(((j - 1 + i) % n) + 1, ((k - 1 + i) % n) + 1) for i in range(n)]
    return make_system(n, cofs, values=values, alias=alias)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"(?P<num>-?\d+(?:/\d+)?)|(?P<name>[abpxfg])(?P<index>\d+)"
                    r"(?:\^(?P<exp>\d+))?|(?P<op>[+=*-])")


def _too_long(token: str, line: int, column: int) -> ParseError:
    """Python refuses int strings past its digit limit (4,300 by default)."""
    return ParseError(f"integer too long in {clip(token, 12)}", line, column)


def _tokenize(line: str, line_no: int):
    """(kind, value, 1-based column of the token's first character) triples;
    a name's value is (letter, index, exponent)."""
    out = []
    pos = _SPACE.match(line).end()
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if not m:
            raise ParseError(f"unexpected input {line[pos:].strip()[:10]!r}", line_no, pos + 1)
        try:
            if m.group("num") is not None:
                out.append(("num", Fraction(m.group("num")), pos + 1))
            elif m.group("name") is not None:
                out.append(("name", (m.group("name"), int(m.group("index")),
                                     int(m.group("exp") or 1)), pos + 1))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {m.group('num')!r}", line_no, pos + 1) from None
        except ValueError:
            raise _too_long(m.group(), line_no, pos + 1) from None
        if m.group("op") not in (None, "*"):  # multiplication is juxtaposition
            out.append(("op", m.group("op"), pos + 1))
        pos = _SPACE.match(line, m.end()).end()
    return out


def _parse_form_line(line: str, line_no: int, n: int, allow_params: bool):
    """Parse `f<i> = term + term ...` into (i, [term...])."""
    tokens = _tokenize(line, line_no)
    if len(tokens) < 3 or tokens[0][0] != "name" or tokens[1][1] != "=":
        raise ParseError("expected 'f<i> = ...'", line_no, 1)
    return tokens[0][1][1], _parse_terms(tokens[2:], len(line), line_no, n, allow_params)


def _parse_terms(tokens, end: int, line_no: int, n: int, allow_params: bool):
    """Terms of a sum: (coefficient Fraction, param (kind, index) or None, exps).

    end is the column reported for an empty last term.
    """
    terms = []
    coeff, param, exps, sign, started = Fraction(1), None, [0] * n, 1, False

    def flush(col):
        nonlocal coeff, param, exps, sign, started
        if not started:
            raise ParseError("empty term", line_no, col)
        terms.append((coeff * sign, param, tuple(exps)))
        coeff, param, exps, sign, started = Fraction(1), None, [0] * n, 1, False

    for kind, value, col in tokens:
        if kind == "op":
            if value == "+":
                flush(col)
            elif value == "-":
                if started:
                    flush(col)
                sign = -sign
                started = True
            else:
                raise ParseError(f"unexpected {value!r}", line_no, col)
        elif kind == "num":
            coeff *= value
            started = True
        else:
            letter, index, exp = value
            if letter == "x":
                if not 1 <= index <= n:
                    raise ParseError(f"variable x{index} out of range 1..{n}", line_no, col)
                exps[index - 1] += exp
            elif letter in ("a", "b", "p"):
                if not allow_params:
                    raise ParseError("parameters not allowed in a quadratic-space form",
                                     line_no, col)
                if exp != 1 or param is not None:
                    raise ParseError("at most one plain parameter per term", line_no, col)
                param = ("a" if letter == "a" else "b", index)
            else:
                raise ParseError(f"unexpected name '{letter}{index}'", line_no, col)
            started = True
    flush(end)
    return terms


def _system_from_lines(text: str) -> BinomialSystem:
    lines = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        raise ParseError("empty system file")
    n = len(lines)
    cofactors: list = [None] * n
    values: list = [None] * n
    symbolic = None
    for line_no, line in lines:
        idx, terms = _parse_form_line(line, line_no, n, allow_params=True)
        if not 1 <= idx <= n:
            raise ParseError(f"form index f{idx} out of range 1..{n}", line_no)
        if len(terms) != 2:
            raise ParseError("a binomial generator needs exactly two terms", line_no)
        sq = next((t for t in terms if t[2] == mono_from_indices(n, [idx, idx])), None)
        if sq is None:
            raise ParseError(f"f{idx} lacks its square term x{idx}^2", line_no)
        cof = next(t for t in terms if t is not sq)
        support = [i + 1 for i, e in enumerate(cof[2]) for _ in range(e)]
        if len(support) != 2 or support[0] == support[1]:
            raise ParseError(f"cofactor of f{idx} must be square-free of degree 2", line_no)
        term_symbolic = sq[1] is not None or cof[1] is not None
        if symbolic is None:
            symbolic = term_symbolic
        elif symbolic != term_symbolic:
            raise ParseError("mixed symbolic and specialized generators", line_no)
        if term_symbolic:
            if sq[1] != ("a", idx) or cof[1] != ("b", idx) or sq[0] != 1 or cof[0] != 1:
                raise ParseError(f"symbolic f{idx} must read a{idx} x{idx}^2 + "
                                 f"b{idx}/p{idx} <cofactor>", line_no)
        else:
            values[idx - 1] = (sq[0], cof[0])
        if cofactors[idx - 1] is not None:
            raise ParseError(f"duplicate definition of f{idx}", line_no)
        cofactors[idx - 1] = (support[0], support[1])
    if any(c is None for c in cofactors):
        missing = cofactors.index(None) + 1
        raise ParseError(f"no definition for f{missing}")
    alias = "p" if "p" in text else "b"
    return make_system(n, cofactors, None if symbolic else values, alias=alias)


def _rational_poly(n: int, terms) -> XPoly:
    """Sum of parsed (coefficient, parameter, exponents) terms as an XPoly."""
    return XPoly(n, RATIONAL, sum_terms((exps, coeff) for coeff, _, exps in terms))


def _space_from_lines(text: str):
    from .normal_form import QuadraticSpace

    lines = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    n = len(lines)
    forms: list = [None] * n
    for line_no, line in lines:
        idx, terms = _parse_form_line(line, line_no, n, allow_params=False)
        if not 1 <= idx <= n or forms[idx - 1] is not None:
            raise ParseError(f"bad form index g{idx}", line_no)
        forms[idx - 1] = _rational_poly(n, terms)
    return QuadraticSpace.from_forms(forms)


def parse_x_polynomial(text: str, n: int) -> XPoly:
    """Rational-coefficient polynomial in x_1..x_n from an expression like
    'x1^2 + 2 x1 x2' (any degree)."""
    if not text.strip():
        raise ParseError("empty polynomial", 1, 1)
    return _rational_poly(n, _parse_terms(_tokenize(text, 1), len(text), 1, n, allow_params=False))


def _field(obj, key: str, where: str):
    """obj[key] of a JSON object, or a ValidationError naming what is missing."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where} needs a {key!r} field")
    return obj[key]


def _json_int(value, what: str) -> int:
    # JSON true/false load as bool, which is an int subclass
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{what} must be a positive integer, got {clip(repr(value))}")
    return value


def _json_rational(value, what: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{what} must be a rational, got {clip(repr(value))}") from None


def _system_from_json(doc: dict) -> "BinomialSystem":
    n = _json_int(_field(doc, "n", "system"), "n")
    forms = _field(doc, "forms", "system")
    if not isinstance(forms, list) or len(forms) != n:
        raise ValidationError(f"expected {n} forms")
    by_square = {}
    for entry in forms:
        by_square[_json_int(_field(entry, "square", "form"), "square")] = entry
    if sorted(by_square) != list(range(1, n + 1)):
        raise ValidationError("need exactly one form per square index 1..n")
    cofactors = []
    for i in range(1, n + 1):
        cof = _field(by_square[i], "cofactor", f"form {i}")
        if not isinstance(cof, list) or len(cof) != 2:
            raise ValidationError(f"cofactor of form {i} must be a pair of indices")
        cofactors.append(tuple(_json_int(v, f"cofactor index of form {i}") for v in cof))
    has_values = ["a" in by_square[i] for i in range(1, n + 1)]
    if any(has_values) and not all(has_values):
        raise ValidationError("mixed symbolic and specialized forms")
    values = None
    if all(has_values):
        values = [tuple(_json_rational(_field(by_square[i], k, f"form {i}"), f"{k} of form {i}")
                        for k in ("a", "b"))
                  for i in range(1, n + 1)]
    return make_system(n, cofactors, values, doc.get("order"), doc.get("alias", "b"))


_JSON_SCALAR = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def _json_too_long(text: str, exc: ValueError) -> ParseError:
    """The error at the first JSON integer literal that int() refuses."""
    for m in _JSON_SCALAR.finditer(text):
        token = m.group()
        if token.lstrip("-").isdigit():
            try:
                int(token)
            except ValueError:
                start = m.start()
                return _too_long(token, text.count("\n", 0, start) + 1,
                                 start - text.rfind("\n", 0, start))
    return ParseError(f"invalid JSON: {exc}")


def parse(text: str):
    """Parse a system or quadratic-space description (JSON or line grammar).

    Returns a BinomialSystem or a QuadraticSpace.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
        except ValueError as exc:
            raise _json_too_long(text, exc) from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema {clip(repr(doc.get('schema')))}")
        if "quadratic_space" in doc:
            from .normal_form import QuadraticSpace

            n = _json_int(_field(doc, "n", "quadratic space"), "n")
            space = doc["quadratic_space"]
            if not isinstance(space, list) or not all(isinstance(s, str) for s in space):
                raise ValidationError("quadratic_space must be a list of form strings")
            if space and len(space) != n:  # before parsing: each term allocates n exponents
                raise ValidationError(f"need exactly {n} forms in {n} variables, got {len(space)}")
            forms = [parse_x_polynomial(s, n) for s in space]
            return QuadraticSpace.from_forms(forms)
        return _system_from_json(doc)
    if re.match(r"\s*g\d+\s*=", stripped):
        return _space_from_lines(text)
    return _system_from_lines(text)


def parse_assignment(spec: str) -> dict[str, Fraction]:
    """Parse 'a1=1,a2=2/3,p1=-1' into a parameter assignment, names as given
    (`normalize_assignment` reads p_i as b_i); a name given twice is an error."""
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValidationError(f"bad assignment chunk {clip(repr(chunk))}")
        name, _, value = chunk.partition("=")
        name = name.strip()
        if name in out:
            raise ValidationError(f"{clip(repr(name))} is given twice")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"bad rational {clip(repr(value))} "
                                  f"for {clip(repr(name))}") from None
    return out
