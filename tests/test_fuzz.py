"""Fuzzing the parsers and the CLI on short texts over the input grammar.

Whatever the text, only BinresError subclasses may escape `parse` and
`parse_x_polynomial`, and `binres resultant` exits 0, 1 or 2.  The texts are
short and name only f1..f4, so every system that parses has n <= 4 and its
resultant takes milliseconds.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from binres.cli import main
from binres.errors import BinresError
from binres.systems import parse, parse_x_polynomial

ALPHABET = "0123456789/^+-=*xabpfg{}\":,[] \n"

# pieces of both grammars, so that a fair share of the texts parse
PIECES = [
    "f1 =", "f2 =", "f3 =", "f4 =", "g1 =", "g2 =", " + ", " - ", "*", "\n",
    "x1", "x2", "x3", "x4", "x1^2", "x2^2", "x3^2", "x4^2", "x1^3",
    "a1", "a2", "a3", "b1", "b2", "b3", "p1", "p2", "p3",
    "1", "2", "-1", "1/2", "1/0", "0", " ",
    '{"schema": 1, ', '"n": 2, ', '"n": 3, ', '"alias": "p", ',
    '"forms": [', '"quadratic_space": [', "]", "}", ", ",
    '{"square": 1, "cofactor": [1, 2]}', '{"square": 2, "cofactor": [1, 2]}',
    '{"square": 3, "cofactor": [1, 2]}', '{"square": 1, "cofactor": [2, 3]}',
    '"a": "1/2", "b": "1/0"', '"x1^2"', '"x2^2 + x1 x2"', '"1/0 x1^2"',
]

COEFFICIENTS = st.sampled_from(["1", "2", "-1", "1/2", "-3/4", "0", "1/0"])


@st.composite
def systems(draw):
    """A line-grammar or JSON system with n = 2..4, sometimes with one small edit."""
    n = draw(st.integers(min_value=2, max_value=4))
    index = st.integers(min_value=1, max_value=n)
    symbolic = draw(st.booleans())
    rows = []
    for i in draw(st.permutations(range(1, n + 1))):
        j, k = draw(index), draw(index)
        a, b = (f"a{i}", f"p{i}") if symbolic else (draw(COEFFICIENTS), draw(COEFFICIENTS))
        rows.append((i, j, k, a, b))
    if draw(st.booleans()):
        text = "\n".join(f"f{i} = {a} x{i}^2 + {b} x{j} x{k}" for i, j, k, a, b in rows)
    else:
        forms = [{"square": i, "cofactor": [j, k]} | ({} if symbolic else {"a": a, "b": b})
                 for i, j, k, a, b in rows]
        text = json.dumps({"schema": 1, "n": n, "forms": forms})
    if draw(st.booleans()):
        pos = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=3))
        text = text[:pos] + draw(st.text(alphabet=ALPHABET, max_size=3)) + text[pos + cut:]
    return text


TEXTS = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
    systems(),
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@FUZZ
@given(text=TEXTS, n=st.integers(min_value=1, max_value=4))
def test_parse_x_polynomial_raises_only_binres_errors(text, n):
    try:
        parse_x_polynomial(text, n)
    except BinresError:
        pass


@FUZZ
@given(text=TEXTS)
def test_parse_and_resultant_raise_only_binres_errors(tmp_path_factory, text):
    try:
        parse(text)
    except BinresError:
        return
    path = tmp_path_factory.getbasetemp() / "fuzz_input.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["resultant", str(path)])
    assert code in (0, 1, 2), err.getvalue()


def test_deeply_nested_json_exits_one(tmp_path):
    # json.loads raises RecursionError long before the nesting ends
    path = tmp_path / "nested.json"
    path.write_text('{"forms": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["resultant", str(path)])
    assert code == 1
    assert err.getvalue().startswith("binres: error: invalid JSON")
    assert "Traceback" not in err.getvalue()
