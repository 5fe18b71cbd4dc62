from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from binres.cli import build_parser, main, run
from binres.errors import ParseError, ValidationError
from binres.normal_form import QuadraticSpace
from binres.polynomials import normalize_assignment
from binres.systems import (
    BinomialSystem,
    make_system,
    parse,
    parse_assignment,
    parse_x_polynomial,
)

from conftest import SYSTEMS


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- parsing -------------------------------------------------------------

def test_parse_cyclic23_json():
    system = parse((SYSTEMS / "cyclic23.json").read_text())
    assert isinstance(system, BinomialSystem)
    assert system.n == 5
    assert system.pattern() == ((2, 3), (3, 4), (4, 5), (1, 5), (1, 2))
    assert system.mode == "symbolic"
    assert system.alias == "p"


def test_parse_line_grammar_matches_json():
    a = parse((SYSTEMS / "cyclic23.json").read_text())
    b = parse((SYSTEMS / "cyclic23.txt").read_text())
    assert a == b


def test_parse_rejects_non_binomial():
    with pytest.raises(ParseError):
        parse("f1 = x1^2\nf2 = a2 x2^2 + b2 x1 x2\n")


def test_parse_rejects_square_cofactor():
    with pytest.raises((ParseError, ValidationError)):
        parse("f1 = a1 x1^2 + b1 x2^2\nf2 = a2 x2^2 + b2 x1 x2\n")


def test_parse_diagnostics_carry_position():
    with pytest.raises(ParseError) as info:
        parse("f1 = a1 x1^2 + p1 x2 x3 @@\nf2 = a2 x2^2 + p2 x1 x3\nf3 = a3 x3^2 + p3 x1 x2\n")
    assert info.value.line == 1


def test_parse_column_is_the_token_start():
    # the whitespace before x9 is not part of the token
    with pytest.raises(ParseError) as info:
        parse("f1 = a1 x1^2 + p1 x9 x2\nf2 = a2 x2^2 + p2 x1 x3\nf3 = a3 x3^2 + p3 x1 x2\n")
    assert (info.value.line, info.value.column) == (1, 19)
    with pytest.raises(ParseError) as info:
        parse("f1 = a1 x1^2 + p1 x2 x3   @@\nf2 = a2 x2^2 + p2 x1 x3\nf3 = a3 x3^2 + p3 x1 x2\n")
    assert info.value.column == 27


def test_rewrite_poly_column_counts_in_the_users_text():
    with pytest.raises(ParseError) as info:
        parse_x_polynomial("x3^2", 2)
    assert (info.value.line, info.value.column) == (1, 1)
    code, out, err = run_cli("rewrite", "--poly", "x1^2 + x3^2",
                             str(SYSTEMS / "binomial2_spec.json"))
    assert code == 1
    assert "column 8" in err


def test_rewrite_empty_poly_is_reported_as_such():
    code, out, err = run_cli("rewrite", "--poly", "", str(SYSTEMS / "binomial2_spec.json"))
    assert code == 1
    assert "empty polynomial" in err and "f<i>" not in err


def test_parse_roundtrip_json():
    system = make_system(3, [(2, 3), (1, 3), (1, 2)],
                         values=[(Fraction(1), Fraction(1, 2))] * 3)
    text = json.dumps(system.to_json_dict())
    assert parse(text) == system


def test_parse_quadratic_space():
    obj = parse((SYSTEMS / "space3.json").read_text())
    assert isinstance(obj, QuadraticSpace)
    assert obj.n == 3


def test_parse_assignment_with_alias():
    # names are kept as typed; p_i is read as b_i when the assignment is used
    a = parse_assignment("a1=1, a2=2/3, p1=-1, p2=4")
    assert a == {"a1": 1, "a2": Fraction(2, 3), "p1": -1, "p2": 4}
    assert normalize_assignment(a) == {"a1": 1, "a2": Fraction(2, 3), "b1": -1, "b2": 4}
    system = parse((SYSTEMS / "binomial2.json").read_text())
    assert system.specialize(a) == system.specialize(normalize_assignment(a))


def test_parse_bad_schema():
    with pytest.raises(ValidationError):
        parse(json.dumps({"schema": 99, "n": 2, "forms": []}))


# -- golden outputs ------------------------------------------------------

def golden_cases():
    # manifest order, so a case appended at the end leaves every other test
    # id (which carries the case's index) as it was
    manifest = json.loads((SYSTEMS / "golden" / "manifest.json").read_text())
    return list(manifest.items())


@pytest.mark.parametrize("name,argv", golden_cases())
def test_golden_outputs(name, argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    expected = (SYSTEMS / "golden" / f"{name}.txt").read_text()
    assert out == expected


def test_output_determinism():
    argv = ["resultant", str(SYSTEMS / "random_mixed.json")]
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second
    nf = ["normal-form", str(SYSTEMS / "space3.json"), "--seed", "5"]
    assert run_cli(*nf) == run_cli(*nf)


# -- subcommands and exit codes -------------------------------------------

def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as info:
        run_cli("definitely-not-a-command")
    assert info.value.code == 1


def test_missing_file_exits_one():
    code, out, err = run_cli("resultant", "no-such-file.json")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("doc", [
    {"schema": 2, "n": 2, "quadratic_space": ["x1^2", "x2^2"]},
    {"n": 2, "quadratic_space": ["x1^2", "x2^2"]},
], ids=["schema-2", "no-schema"])
def test_quadratic_space_schema_is_checked(tmp_path, doc):
    bad = tmp_path / "space.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli("normal-form", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("binres: error: unsupported schema")


def test_invalid_system_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "n": 2, "forms": [
        {"square": 1, "cofactor": [1, 1]},
        {"square": 2, "cofactor": [1, 2]},
    ]}))
    code, out, err = run_cli("resultant", str(bad))
    assert code == 1


_FORMS = [{"square": 1, "cofactor": [1, 2]}, {"square": 2, "cofactor": [1, 2]}]
_VALUED = [dict(f, a="1", b="2") for f in _FORMS]


@pytest.mark.parametrize("doc", [
    {"schema": 1, "forms": _FORMS},
    {"schema": 1, "n": 2},
    {"schema": 1, "n": 2, "forms": [{"cofactor": [1, 2]}, _FORMS[1]]},
    {"schema": 1, "n": 2, "forms": [{"square": 1}, _FORMS[1]]},
    {"schema": 1, "n": 0, "forms": []},
    {"schema": 1, "n": "2", "forms": _FORMS},
    {"schema": 1, "n": 2.0, "forms": _FORMS},
    {"schema": 1, "n": True, "forms": _FORMS[:1]},
    {"schema": 1, "n": 2, "forms": [dict(_VALUED[0], a="x"), _VALUED[1]]},
    {"schema": 1, "n": 2, "forms": [dict(_VALUED[0], b="1/0"), _VALUED[1]]},
    {"schema": 1, "n": 2, "forms": [dict(_VALUED[0], a=None), _VALUED[1]]},
    {"schema": 1, "quadratic_space": ["x1^2", "x2^2"]},
    {"schema": 1, "n": -1, "quadratic_space": ["x1^2", "x2^2"]},
    {"schema": 1, "n": 10 ** 30, "quadratic_space": ["x1^2"]},
    {"schema": 1, "n": 2, "forms": _FORMS, "order": 5},
    {"schema": 1, "n": 2, "forms": _FORMS, "order": [1, "a"]},
    {"schema": 1, "n": 2, "forms": _FORMS, "order": [1.0, 2.0]},
    {"schema": 1, "n": 2, "forms": _FORMS, "order": [True, 2]},
    {"schema": 1, "n": 2, "forms": _FORMS, "order": []},
], ids=["no-n", "no-forms", "no-square", "no-cofactor", "n-zero", "n-string", "n-float",
        "n-bool", "a-not-rational", "b-zero-denominator", "a-null", "space-no-n",
        "space-negative-n", "space-huge-n", "order-int", "order-mixed", "order-float", "order-bool",
        "order-empty"])
def test_malformed_json_exits_one(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli("resultant", str(bad))
    assert code == 1
    assert err.startswith("binres: error:")


_LONG = "7" * 5000
_NESTED: list = []
for _ in range(600):  # deep, yet within the JSON decoder's recursion limit
    _NESTED = [_NESTED]


@pytest.mark.parametrize("doc, field", [
    ({"schema": 1, "n": 2, "forms": _FORMS, "order": _NESTED}, "an order"),
    ({"schema": 1, "n": 2, "forms": _FORMS, "order": list(range(2, 1000))}, "permutation"),
    ({"schema": 1, "n": _LONG, "forms": _FORMS}, "n must"),
    ({"schema": 1, "n": 2, "forms": [dict(_VALUED[0], a=_LONG + "x"), _VALUED[1]]},
     "a of form 1"),
    ({"schema": _LONG, "n": 2, "forms": _FORMS}, "schema"),
], ids=["order-nested", "order-long", "n-long-string", "a-long-string", "schema-long-string"])
def test_malformed_value_is_quoted_short(tmp_path, doc, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli("resultant", str(bad))
    assert code == 1
    assert err.startswith("binres: error:") and field in err
    assert len(err.encode()) < 200


def test_bad_spec_rational_is_quoted_short():
    code, out, err = run_cli("rewrite", "--spec", f"a1=1/{_LONG}x", "--poly", "x1^2",
                             str(SYSTEMS / "binomial2.json"))
    assert code == 1
    assert err.startswith("binres: error: bad rational") and "'a1'" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv, option", [
    (["delta", "--lambda", "3", "--order", "x" * 5000, str(SYSTEMS / "cyclic23.json")],
     "--order"),
    (["delta", "--lambda", "3", "--order", "9" * 4000, str(SYSTEMS / "cyclic23.json")],
     "cyclic order index"),
    (["hessian", "--which", "G", "--p", ",".join(["1"] * 3000) + "q"], "--p"),
    (["hessian", "--which", "G", "--p", "1,1,1,1,1", "--point", ",".join(["1/0"] * 3000)],
     "--point"),
    (["resultant", "x" * 5000], "cannot read"),
], ids=["order-long", "order-index-long", "p-long", "point-long", "path-long"])
def test_bad_cli_value_is_quoted_short(argv, option):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert err.startswith("binres: error:") and option in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("extra", ["c1=3", "a7=3", "p3=1"])
def test_spec_rejects_unknown_parameter(extra):
    system = parse((SYSTEMS / "binomial2.json").read_text())
    assignment = parse_assignment(f"a1=1,a2=1,b1=1,b2=1,{extra}")
    name = next(iter(set(assignment) - {"a1", "a2", "b1", "b2"}))
    with pytest.raises(ValidationError, match=f"'{name}' is not a parameter"):
        system.specialize(assignment)
    code, out, err = run_cli("rewrite", "--spec", f"a1=1,a2=1,b1=1,b2=1,{extra}",
                             "--poly", "x1^2", str(SYSTEMS / "binomial2.json"))
    assert code == 1
    assert out == ""
    assert err == f"binres: error: '{name}' is not a parameter of this 2-variable system\n"


def test_spec_names_the_parameter_as_typed():
    # p7 is read as b7 only after the name check, so the error quotes p7
    code, out, err = run_cli("rewrite", "--spec", "a1=1,a2=1,p1=1,p2=2,p7=3",
                             "--poly", "x1^2", str(SYSTEMS / "binomial2.json"))
    assert code == 1
    assert out == ""
    assert err == "binres: error: 'p7' is not a parameter of this 2-variable system\n"


def test_spec_giving_p_and_b_of_one_generator_is_an_error():
    # p1 is an alias of b1, so giving both would silently let one win
    code, out, err = run_cli("rewrite", "--spec", "a1=1,a2=1,b1=1,p1=5,b2=2",
                             "--poly", "x1^2", str(SYSTEMS / "binomial2.json"))
    assert code == 1
    assert out == ""
    assert err == "binres: error: 'b1' and 'p1' both set b1\n"
    with pytest.raises(ValidationError, match="'p2' and ' b2' both set b2"):
        normalize_assignment({"p2": 1, " b2": 2})
    with pytest.raises(ValidationError) as info:
        normalize_assignment({"b1": 1, "p1" + "0" * 5000: 2, "b1" + "0" * 5000: 3})
    assert len(str(info.value)) < 200


def test_spec_giving_one_name_twice_is_an_error():
    # a dict would keep only the later value, here the answer for a1 = 2
    code, out, err = run_cli("rewrite", "--spec", "a1=1,a1=2,a2=1,b1=1,b2=2",
                             "--poly", "x1^2", str(SYSTEMS / "binomial2.json"))
    assert code == 1
    assert out == ""
    assert err == "binres: error: 'a1' is given twice\n"
    with pytest.raises(ValidationError, match="'b2' is given twice"):
        parse_assignment("b2=1, b2 =1")
    with pytest.raises(ValidationError) as info:
        parse_assignment(",".join(["a" * 5000 + "=1"] * 2))
    assert len(str(info.value)) < 200


def test_non_utf8_input_file_is_a_validation_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 2}'.encode("utf-16-le"))
    code, out, err = run_cli("resultant", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("binres: error: cannot read") and err.endswith("not UTF-8\n")
    assert "Traceback" not in err
    assert len(err.encode()) < 200


def test_specialize_quotes_a_long_unknown_name_short():
    system = parse((SYSTEMS / "binomial2.json").read_text())
    with pytest.raises(ValidationError) as info:
        system.specialize({"a1": 1, "a2": 1, "b1": 1, "b2": 1, "a" + _LONG: 1})
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("argv, message", [
    (["rewrite", "--spec", "a1=0,a2=1,b1=1,b2=2", "--poly", "x1^2",
      str(SYSTEMS / "binomial2.json")], "C(2) is singular"),
    (["hess2-order", "--p", "1,1,1,1", "--point", "0,0,0,0,0"], "vanished identically"),
], ids=["singular-spec", "degenerate-sample"])
def test_non_validation_errors_exit_one(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("binres: error:") and message in err
    assert "Traceback" not in err


def test_quadratic_space_line_grammar_matches_golden(tmp_path):
    space = tmp_path / "space3.txt"
    space.write_text("g1 = x1^2\ng2 = x2^2\ng3 = x1 x2\n")
    code, out, err = run_cli("normal-form", "--seed", "5", str(space))
    assert code == 0, err
    assert out == (SYSTEMS / "golden" / "space3.normal_form.txt").read_text()


def test_closed_stdout_exits_one_without_traceback(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "out", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        monkeypatch.setattr(sys, "argv", ["binres", "dual", "--which", "G", "--p", "1,2,3/2,1,-1"])
        with pytest.raises(SystemExit) as info:
            run()
        # what is left of the output now goes to devnull
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
    assert info.value.code == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, order", [
    ("delta", "x"), ("delta", "1,x"), ("delta", "1,1"), ("delta", "9"), ("matrix", "2,x"),
])
def test_bad_order_flag_exits_one(command, order):
    code, out, err = run_cli(command, "--lambda", "3", "--order", order,
                             str(SYSTEMS / "cyclic23.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("binres: error:")


def test_json_flag_structured_output():
    code, out, _ = run_cli("resultant", str(SYSTEMS / "cyclic23.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_degree"] == 80
    assert doc["resultant"]["factors"][0]["multiplicity"] == 11


def test_delta_json():
    code, out, _ = run_cli("delta", "--lambda", "2",
                           str(SYSTEMS / "cyclic23.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 2
    assert doc["delta"]["monomial"]["a"] == [1, 1, 1, 1, 1]


def test_frames_full_listing():
    code, out, _ = run_cli("frames", "--n", "2", "--lambda", "1", "--full")
    assert code == 0
    assert "M_1: x1, x2" in out and "M_2: x1, x2" in out


@pytest.mark.parametrize("n, lam", [(0, 2), (-1, 2), (3, -1)])
def test_frames_rejects_bad_sizes(n, lam):
    code, out, err = run_cli("frames", "--n", str(n), "--lambda", str(lam))
    assert code == 1
    assert out == ""
    assert err.startswith("binres: error:")


def test_matrix_dense_mode():
    code, out, _ = run_cli("matrix", "--lambda", "2", "--dense",
                           str(SYSTEMS / "binomial2.json"))
    assert code == 0
    assert "C(2)" in out and "a1" in out


def test_rewrite_subcommand():
    code, out, _ = run_cli("rewrite", "--poly", "x1^2",
                           "--spec", "a1=1,a2=1,b1=1,b2=2",
                           str(SYSTEMS / "binomial2.json"))
    assert code == 0
    assert out.strip() == "-x1*x2"


def test_rewrite_symbolic_without_spec_fails():
    code, out, err = run_cli("rewrite", "--poly", "x1^2",
                             str(SYSTEMS / "binomial2.json"))
    assert code == 1


def test_hilbert_subcommand_specialized_file():
    code, out, _ = run_cli("hilbert", str(SYSTEMS / "binomial2_spec.json"))
    assert code == 0
    assert out.strip() == "(1, 2, 1)"


def test_dual_commands():
    code, out, _ = run_cli("dual", "--which", "F", "--p", "0,0,0,0,0")
    assert code == 0
    assert out.strip() == "12*x1*x2*x3*x4*x5"
    code, out, _ = run_cli("dual-hilbert", "--which", "G", "--p", "1,1,1,1,-1")
    assert out.strip() == "(1, 5, 5, 5, 5, 1)"
    code, out, _ = run_cli("ann-gens", "--which", "F", "--p", "1,1,1,1,1", "--json")
    assert json.loads(out)["total"] == 5


def test_hessian_point_eval():
    code, out, _ = run_cli("hessian", "--which", "G", "--p", "1,1,1,1,-1",
                           "--point", "1,2,3,1,1")
    assert code == 0
    assert out.strip() == "0"


def test_hess2_order_seeded():
    code, out, _ = run_cli("hess2-order", "--which", "G", "--p", "2,1,3/2,1",
                           "--seed", "3")
    assert code == 0
    assert "vanishing order at t=0: 5" in out


def test_selftest_small():
    code, out, _ = run_cli("selftest", "--n-max", "3", "--seed", "2")
    assert code == 0
    assert "checks passed" in out


@pytest.mark.parametrize("n_max", ["1", "-3"])
def test_selftest_rejects_small_n_max(n_max):
    code, out, err = run_cli("selftest", "--n-max", n_max)
    assert code == 1
    assert "checks passed" not in out
    assert "n_max >= 2" in err


@pytest.mark.parametrize("extra", [[], ["--point", "1,2,3,1,1"]])
def test_hessian_rejects_negative_k(extra):
    code, out, err = run_cli("hessian", "--which", "G", "--p", "1,1,1,1,1", "--k", "-1", *extra)
    assert code == 1
    assert out == ""
    assert "k must be >= 0" in err


def test_internal_check_failure_exits_two(monkeypatch):
    from binres import cli
    from binres.errors import InternalCheckError

    def boom(args):
        raise InternalCheckError("forced failure")

    monkeypatch.setitem(cli.build_parser.__globals__, "_cmd_frames", boom)
    # rebuild the parser so the patched handler is bound
    code, out, err = run_cli("frames", "--n", "2", "--lambda", "1")
    assert code == 2
    assert "internal check failed" in err


# -- zero denominators ----------------------------------------------------

@pytest.mark.parametrize("name, text, argv, column", [
    ("sys.txt", "f1 = 1/0 x1^2 + 1 x1 x2\nf2 = 1 x2^2 + 1 x1 x2\n", ["resultant"], 6),
    ("space.txt", "g1 = 1/0 x1^2\n", ["normal-form"], 6),
    ("space.json", json.dumps({"schema": 1, "n": 1, "quadratic_space": ["1/0 x1^2"]}),
     ["normal-form"], 1),
], ids=["line-system", "line-space", "json-space"])
def test_zero_denominator_in_a_file_exits_one(tmp_path, name, text, argv, column):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(*argv, str(path))
    assert code == 1
    assert out == ""
    assert err == f"binres: error: zero denominator in '1/0' (line 1, column {column})\n"


def test_zero_denominator_in_rewrite_poly_exits_one():
    code, out, err = run_cli("rewrite", "--poly", "1/0", str(SYSTEMS / "binomial2_spec.json"))
    assert code == 1
    assert out == ""
    assert err == "binres: error: zero denominator in '1/0' (line 1, column 1)\n"


_HUGE = "1" * 5000  # past Python's default limit of 4,300 digits for int strings


@pytest.mark.parametrize("name, text, argv, message", [
    ("sys.json", '{"schema": 1,\n "n": %s, "forms": []}' % _HUGE, ["resultant"],
     f"integer too long in {_HUGE[:12]}... (5000 characters) (line 2, column 7)"),
    ("sys.txt", f"f1 = 1 x1^2 + 1 x1 x2\nf2 = {_HUGE} x2^2 + 1 x1 x2\n", ["resultant"],
     f"integer too long in {_HUGE[:12]}... (5000 characters) (line 2, column 6)"),
    (None, None, ["rewrite", "--poly", f"x1^2 + {_HUGE} x2^2"],
     f"integer too long in {_HUGE[:12]}... (5000 characters) (line 1, column 8)"),
    (None, None, ["rewrite", "--poly", f"x1^{_HUGE}"],
     f"integer too long in x1^{_HUGE[:9]}... (5003 characters) (line 1, column 1)"),
], ids=["json", "line-grammar", "rewrite-poly", "rewrite-poly-exponent"])
def test_huge_integer_exits_one(tmp_path, name, text, argv, message):
    if name is not None:
        (tmp_path / name).write_text(text)
    path = tmp_path / name if name else SYSTEMS / "binomial2_spec.json"
    code, out, err = run_cli(*argv, str(path))
    assert code == 1
    assert out == ""
    assert err == f"binres: error: {message}\n"


# -- every option is read --------------------------------------------------

class _RecordingNamespace(argparse.Namespace):
    """Namespace that records which attributes are read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


_SPEC2 = str(SYSTEMS / "binomial2_spec.json")
_REPRESENTATIVE_ARGV = [
    ["resultant", "--json", str(SYSTEMS / "cyclic12.json")],
    ["delta", "--json", "--lambda", "2", "--order", "1", str(SYSTEMS / "binomial2.json")],
    ["matrix", "--lambda", "2", "--order", "1", "--cprime", "--dense",
     str(SYSTEMS / "binomial2.json")],
    ["frames", "--json", "--n", "2", "--lambda", "1", "--order", "1", "--full"],
    ["normal-form", "--seed", "1", str(SYSTEMS / "space3.json")],
    ["rewrite", "--json", "--spec", "a1=1,a2=1,b1=1,b2=2", "--poly", "x1^2",
     str(SYSTEMS / "binomial2.json")],
    ["hilbert", "--json", "--spec", "a1=1,a2=1,b1=1,b2=2", str(SYSTEMS / "binomial2.json")],
    ["dual", "--json", "--which", "F", "--p", "1,1,1,1,1"],
    ["dual-hilbert", "--json", "--which", "G", "--p", "1,1,1,1,-1"],
    ["ann-gens", "--json", "--which", "F", "--p", "1,1,1,1,1"],
    ["hessian", "--json", "--which", "G", "--p", "1,1,1,1,-1", "--k", "1",
     "--point", "1,2,3,1,1"],
    ["hess2-order", "--json", "--seed", "3", "--which", "G", "--p", "2,1,3/2,1"],
    ["selftest", "--seed", "2", "--n-max", "2"],
]


def test_representative_argv_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in _REPRESENTATIVE_ARGV) == sorted(sub.choices)


@pytest.mark.parametrize("argv", _REPRESENTATIVE_ARGV, ids=lambda argv: argv[0])
def test_every_option_is_read(argv):
    args = build_parser().parse_args(argv)
    recording = _RecordingNamespace(**vars(args))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert args.func(recording) == 0
    unread = set(vars(args)) - object.__getattribute__(recording, "_read") - {"func", "command"}
    assert not unread, f"{argv[0]} never reads {sorted(unread)}"


@pytest.mark.parametrize("argv", [
    ["resultant", "--seed", "1", str(SYSTEMS / "cyclic12.json")],
    ["matrix", "--sparse", "--lambda", "2", str(SYSTEMS / "binomial2.json")],
    ["normal-form", "--json", str(SYSTEMS / "space3.json")],
    ["selftest", "--json"],
], ids=["resultant-seed", "matrix-sparse", "normal-form-json", "selftest-json"])
def test_options_nothing_reads_are_usage_errors(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "unrecognized arguments" in err.getvalue()
