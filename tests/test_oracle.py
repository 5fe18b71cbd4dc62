from __future__ import annotations

import gc
import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import importlib

import numpy as np
import pytest

from binres import oracle
from binres.coeff_matrix import MatrixEntry, build_c
from binres.errors import ModeMismatchError, ValidationError
from binres.frames import cyclic_orders
from binres.linalg import frac_det, frac_rank
from binres.oracle import (
    DEFAULT_PRIME,
    RANK_PRIMES,
    ModularContext,
    det_mod,
    ideal_dim,
    int_rank,
    membership,
    membership_batch,
    quotient_dim,
    run_selftest,
    span_rows,
    sylvester_resultant_2,
)
from binres.polynomials import RATIONAL, ParamPoly, XPoly, monomials
from binres.resultant import resultant_eval
from binres.systems import cyclic_system, make_system

from conftest import random_specialization, random_system

# the module itself: the package re-exports a function of that name
resultant_module = importlib.import_module("binres.resultant")


def ctx_with(values: dict, prime=DEFAULT_PRIME) -> ModularContext:
    return ModularContext(prime, 0, {k: v % prime for k, v in values.items()})


@dataclass(frozen=True)
class Square:
    """A square symbolic matrix of any shape: the fields det_mod reads."""

    n: int
    nrows: int
    entries: tuple[MatrixEntry, ...]
    mode: str = "symbolic"

    @property
    def ncols(self) -> int:
        return self.nrows

    @classmethod
    def from_triples(cls, n: int, size: int, triples) -> "Square":
        """triples: (row, col, kind, index)."""
        return cls(n, size, tuple(MatrixEntry(*t) for t in triples))


def test_det_mod_diag_ones():
    m = Square.from_triples(3, 3, [(i, i, "a", i + 1) for i in range(3)])
    ctx = ctx_with({"a1": 1, "a2": 1, "a3": 1, "b1": 0, "b2": 0, "b3": 0})
    assert det_mod(m, ctx) == 1


def test_det_mod_vanishes_on_cycle_degeneracy():
    # a3 a4 - b3 b4 = 0 at a = 1, b3 = b4 = 1
    m = Square.from_triples(4, 4, [
        (0, 0, "a", 1), (0, 3, "b", 1),
        (1, 1, "a", 2), (1, 3, "b", 2),
        (2, 2, "a", 3), (2, 3, "b", 3),
        (3, 2, "b", 4), (3, 3, "a", 4),
    ])
    ctx = ctx_with({"a1": 1, "a2": 1, "a3": 1, "a4": 1,
                    "b1": 5, "b2": 9, "b3": 1, "b4": 1})
    assert det_mod(m, ctx) == 0


def test_det_mod_zero_row_gives_zero():
    ctx = ctx_with({"a1": 2, "a2": 3, "b1": 5, "b2": 7})
    assert det_mod(Square(2, 2, ()), ctx) == 0
    assert det_mod(Square.from_triples(2, 2, [(0, 0, "a", 1), (0, 1, "b", 1)]), ctx) == 0


def test_det_mod_n2_lam3_hand_value():
    system = make_system(2, [(1, 2), (1, 2)])
    m = build_c(system, 3)
    ctx = ctx_with({"a1": 2, "a2": 3, "b1": 1, "b2": 1})
    assert det_mod(m, ctx) == 2 * 3 * (6 - 1)


def test_det_mod_true_sign():
    # determinant with a negative true value must come out as p - |det|
    system = make_system(2, [(1, 2), (1, 2)])
    m = build_c(system, 3)
    ctx = ctx_with({"a1": 1, "a2": 1, "b1": 2, "b2": 1})  # 1*1*(1-2) = -1
    assert det_mod(m, ctx) == DEFAULT_PRIME - 1


def test_ideal_dim_monomial_ci():
    system = make_system(3, [(2, 3), (1, 3), (1, 2)],
                         values=[(Fraction(1), Fraction(0))] * 3)
    assert ideal_dim(system, 2) == 3


def test_ideal_dim_matches_formula_for_ci(rng):
    for n in (2, 3, 4):
        system = random_specialization(random_system(n, rng), rng)
        while resultant_eval(system) == 0:
            system = random_specialization(random_system(n, rng), rng)
        for lam in range(2, n + 2):
            assert ideal_dim(system, lam) == comb(n + lam - 1, lam) - comb(n, lam)


def test_ideal_dim_degenerate_is_smaller():
    family = cyclic_system(5, (2, 3))
    spec = family.specialize(
        {f"a{i}": 1 for i in range(1, 6)}
        | {"b1": 1, "b2": 1, "b3": 1, "b4": 1, "b5": -1})
    deficits = [comb(4 + lam, lam) - comb(5, lam) - ideal_dim(spec, lam)
                for lam in range(2, 7)]
    assert any(d > 0 for d in deficits)
    assert all(d >= 0 for d in deficits)


def test_quotient_dim_cases(rng):
    system = make_system(3, [(2, 3), (1, 3), (1, 2)],
                         values=[(Fraction(1), Fraction(0))] * 3)
    assert quotient_dim(system) == 8
    five = cyclic_system(5, (2, 3)).specialize(
        {f"a{i}": 1 for i in range(1, 6)} | {f"b{i}": 1 for i in range(1, 6)})
    assert quotient_dim(five) == 32


def test_membership_basics(rng):
    system = random_specialization(random_system(3, rng), rng)
    for i in (1, 2, 3):
        assert membership(system.form(i), system)
    one = XPoly(3, RATIONAL, {(0, 0, 0): Fraction(1)})
    assert not membership(one, system, 0)
    missing = XPoly(3, RATIONAL, {(1, 1, 0): Fraction(1)})
    # a degree-2 square-free monomial alone is generically not in I_2
    if resultant_eval(system) != 0:
        assert not membership(missing, system)


def test_membership_rejects_other_variable_count():
    system = make_system(2, [(1, 2), (1, 2)], values=[(1, 1), (1, 2)])
    for f in (XPoly(3, RATIONAL, {(2, 0, 0): Fraction(1)}), XPoly(3, RATIONAL)):
        with pytest.raises(ModeMismatchError):
            membership_batch(system, 2, [system.form(1), f])


def test_sylvester_closed_form():
    system = make_system(2, [(1, 2), (1, 2)])
    res = sylvester_resultant_2(system.form(1), system.form(2))
    a = lambda i: ParamPoly.param("a", i, 2)
    b = lambda i: ParamPoly.param("b", i, 2)
    expected = a(1) * a(2) * (a(1) * a(2) - b(1) * b(2))
    assert res in (expected, -1 * expected)


def test_sylvester_trivial_cases():
    f = XPoly(2, RATIONAL, {(2, 0): Fraction(1)})
    g = XPoly(2, RATIONAL, {(0, 2): Fraction(1)})
    assert sylvester_resultant_2(f, g) == 1
    assert sylvester_resultant_2(f, f) == 0


def test_sylvester_needs_two_variables():
    f = XPoly(3, RATIONAL, {(2, 0, 0): Fraction(1)})
    with pytest.raises(ValidationError):
        sylvester_resultant_2(f, f)


def test_quotient_dim_equivalence_with_resultant(rng):
    agree = 0
    for _ in range(12):
        n = rng.randint(2, 3)
        system = random_specialization(random_system(n, rng), rng)
        nonzero = resultant_eval(system) != 0
        assert nonzero == (quotient_dim(system) == 2 ** n)
        agree += 1
    assert agree == 12


def test_selftest_green():
    rows = run_selftest(seed=13, n_max=4)
    assert rows and all(r.passed for r in rows)


def test_selftest_reports_a_broken_degree_law(monkeypatch):
    # the row takes the GCD itself, so a broken law is a FAIL row, not an exception
    gcd = resultant_module.factored_gcd
    monkeypatch.setattr(resultant_module, "factored_gcd",
                        lambda polys: polys[0] if polys[0].n == 4 else gcd(polys))
    rows = {r.name: r for r in run_selftest(seed=13, n_max=4)}
    assert not rows["n=4 resultant degree law"].passed
    assert rows["n=3 resultant degree law"].passed


# -- the oracle's own paths against exact rational arithmetic ---------------

def _complete_intersection(n: int, rng):
    system = random_specialization(random_system(n, rng), rng)
    while resultant_eval(system) == 0:
        system = random_specialization(random_system(n, rng), rng)
    return system


def _member(system, lam: int, rng) -> XPoly:
    """A random combination of the span generators m * f_i, deg m = lam - 2."""
    n = system.n
    total = XPoly.zero(n)
    for m in rng.sample(monomials(n, lam - 2), min(3, comb(n + lam - 3, lam - 2))):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        total = total + XPoly.monomial(n, m, coeff) * system.form(rng.randint(1, n))
    return total


def _squarefree(n: int, lam: int, rng) -> XPoly:
    """x_S for a random |S| = lam; never in I_lam of a complete intersection."""
    support = rng.choice(list(combinations(range(n), lam)))
    return XPoly(n, RATIONAL, {tuple(int(t in support) for t in range(n)): Fraction(1)})


def _dense(f: XPoly, basis) -> list[Fraction]:
    return [Fraction(f.coefficient(m)) for m in basis]


def test_membership_batch_equals_single_calls(rng):
    for n in (3, 4):
        system = _complete_intersection(n, rng)
        for lam in range(2, n + 2):
            polys = [XPoly.zero(n)]
            for _ in range(3):
                polys.append(_member(system, lam, rng))
            if lam <= n:
                for _ in range(3):
                    polys.append(_squarefree(n, lam, rng))
                polys.append(_member(system, lam, rng) + _squarefree(n, lam, rng))
            batch = membership_batch(system, lam, polys)
            assert batch == [membership_batch(system, lam, [f])[0] for f in polys]
            assert batch[:4] == [True] * 4
            assert not any(batch[4:])
            assert membership_batch(system, lam, []) == []


def test_oracle_exact_for_parameters_beyond_int64():
    big = 2 ** 64 + 1
    family = cyclic_system(5, (2, 3))
    generic = family.specialize(
        {f"a{i}": Fraction(big + 7 * i, i) for i in range(1, 6)}
        | {f"b{i}": Fraction(-big - 3 * i, 2) for i in range(1, 6)})
    # a multiple of the degenerate a = 1, b = (1, 1, 1, 1, -1) point
    degenerate = family.specialize(
        {f"a{i}": big for i in range(1, 6)}
        | {"b1": big, "b2": big, "b3": big, "b4": big, "b5": -big})
    deficit = 0
    for spec in (generic, degenerate):
        assert max(abs(g.a) for g in spec.generators) > 2 ** 62
        for lam in (2, 3, 4):
            rows, basis = span_rows(spec, lam)
            frows = [[Fraction(v) for v in row] for row in rows]
            want = frac_rank(frows)
            assert int_rank(rows) == want
            assert ideal_dim(spec, lam) == want
            deficit += comb(4 + lam, lam) - comb(5, lam) - want
            probes = [spec.form(1) * XPoly.monomial(5, m, big) for m in monomials(5, lam - 2)[:2]]
            probes += [XPoly(5, RATIONAL, {m: Fraction(1)}) for m in basis[-3:]]
            assert membership_batch(spec, lam, probes) == [
                frac_rank(frows + [_dense(f, basis)]) == want for f in probes]
    assert deficit > 0


def _lying_reduction(monkeypatch, lie):
    real = oracle._row_reduce_mod

    def reduce(mat, p):
        a, pivots = real(mat, p)
        return lie(a, pivots, p)

    monkeypatch.setattr(oracle, "_row_reduce_mod", reduce)


def test_int_rank_escalates_to_exact_rank(rng, monkeypatch, caplog):
    system = _complete_intersection(3, rng)
    rows, _ = span_rows(system, 3)
    want = frac_rank([[Fraction(v) for v in row] for row in rows])
    assert int_rank(rows) == want
    # every prime reports a different, too large rank
    _lying_reduction(monkeypatch, lambda a, pivots, p:
                     (a, pivots + [(0, 0)] * (1 + RANK_PRIMES.index(p))))
    with caplog.at_level(logging.WARNING, logger="binres.oracle"):
        assert int_rank(rows) == want
        assert ideal_dim(system, 3) == want
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2 * (len(RANK_PRIMES) - 1)
    assert all("escalating" in r.getMessage() for r in warnings)


def test_membership_escalates_to_exact_answer(rng, monkeypatch, caplog):
    system = _complete_intersection(3, rng)
    polys = [XPoly.zero(3), _member(system, 3, rng), _member(system, 3, rng),
             _squarefree(3, 3, rng), _member(system, 3, rng) + _squarefree(3, 3, rng)]
    want = membership_batch(system, 3, polys)
    assert want == [True, True, True, False, False]

    # the first prime finds no pivots, the second claims every column: each
    # nonzero vector gets two different wrong-or-right answers
    def lie(a, pivots, p):
        if p == RANK_PRIMES[0]:
            return a, []
        return np.eye(a.shape[1], dtype=np.int64), [(c, c) for c in range(a.shape[1])]

    _lying_reduction(monkeypatch, lie)
    with caplog.at_level(logging.WARNING, logger="binres.oracle"):
        assert membership_batch(system, 3, polys) == want
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        "membership disagreement between primes; exact fallback"]


def _det_under(matrix, assignment: dict, p: int) -> int:
    """frac_det of the matrix with its parameters replaced, reduced mod p."""
    rows = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for e in matrix.entries:
        v = e.value if e.value is not None else e.sign * assignment[f"{e.kind}{e.index}"]
        rows[e.row][e.col] += v
    d = frac_det(rows)
    return d.numerator * pow(d.denominator, -1, p) % p


def test_det_mod_equals_frac_det(rng):
    for n in (2, 3, 4):
        system = random_system(n, rng)
        # all a_i equal: every diagonal pivot repeats one value
        repeated = {f"a{i}": 3 for i in range(1, n + 1)} | {f"b{i}": i for i in range(1, n + 1)}
        for order in cyclic_orders(n)[:2]:
            for lam in range(2, n + 2):
                matrix = build_c(system, lam, order)
                contexts = [ctx_with(repeated)]
                contexts += [ModularContext.random(n, rng.randrange(1 << 30), allow_zero=True)
                             for _ in range(2)]
                # a small prime makes zero and repeated residues common
                contexts += [ModularContext.random(n, rng.randrange(1 << 30), prime=7,
                                                   allow_zero=True) for _ in range(3)]
                for ctx in contexts:
                    assert det_mod(matrix, ctx) == _det_under(matrix, ctx.assignment, ctx.prime)
                spec = system.specialize(
                    {f"a{i}": Fraction(1) for i in range(1, n + 1)}
                    | {f"b{i}": Fraction(rng.choice([0, 1, -1, 2]), rng.randint(1, 2))
                       for i in range(1, n + 1)})
                smatrix = build_c(spec, lam, order)
                ctx = ctx_with(repeated)
                assert det_mod(smatrix, ctx) == _det_under(smatrix, {}, ctx.prime)


# -- record once, replay per point ---------------------------------------------

def _count_eliminations(monkeypatch) -> list:
    """Every full elimination det_mod runs, counted."""
    calls = []
    real = oracle._eliminate

    def eliminate(matrix, ctx):
        calls.append(ctx.prime)
        return real(matrix, ctx)

    monkeypatch.setattr(oracle, "_eliminate", eliminate)
    return calls


def _cycle_degeneracy() -> Square:
    """det = a1 a2 (a3 a4 - b3 b4)."""
    return Square.from_triples(4, 4, [
        (0, 0, "a", 1), (0, 3, "b", 1),
        (1, 1, "a", 2), (1, 3, "b", 2),
        (2, 2, "a", 3), (2, 3, "b", 3),
        (3, 2, "b", 4), (3, 3, "a", 4),
    ])


def test_det_mod_eliminates_once_per_matrix(rng, monkeypatch):
    calls = _count_eliminations(monkeypatch)
    for n in (3, 4):
        matrix = build_c(random_system(n, rng), n + 1)
        calls.clear()
        for k in range(6):
            ctx = ModularContext.random(n, rng.randrange(1 << 30))
            assert det_mod(matrix, ctx) == _det_under(matrix, ctx.assignment, ctx.prime)
            assert len(calls) == 1
        assert id(matrix) in oracle._PLANS


def test_a_replay_on_a_circuit_factor_falls_back_to_zero(monkeypatch):
    matrix = _cycle_degeneracy()
    calls = _count_eliminations(monkeypatch)
    generic = ctx_with({"a1": 2, "a2": 3, "a3": 5, "a4": 7, "b1": 11, "b2": 13, "b3": 17, "b4": 19})
    assert det_mod(matrix, generic) == 2 * 3 * (5 * 7 - 17 * 19) % DEFAULT_PRIME
    assert id(matrix) in oracle._PLANS
    # a3 a4 = b3 b4: the last pivot is 0, so the replay proves nothing
    on_factor = ctx_with({"a1": 2, "a2": 3, "a3": 6, "a4": 7, "b1": 11, "b2": 13, "b3": 21, "b4": 2})
    assert det_mod(matrix, on_factor) == 0
    assert len(calls) == 2


def test_a_replay_at_a_zero_parameter_falls_back(rng, monkeypatch):
    n = 3
    matrix = build_c(random_system(n, rng), n + 1)
    calls = _count_eliminations(monkeypatch)
    det_mod(matrix, ModularContext.random(n, 1))
    ctx = ModularContext.random(n, 2)
    ctx.assignment["a1"] = 0
    assert det_mod(matrix, ctx) == _det_under(matrix, ctx.assignment, ctx.prime)
    assert len(calls) == 2


def test_an_elimination_with_a_cancellation_leaves_no_plan():
    # [[a1, b1, 0], [a2, b2, a3], [0, b3, b4]]: eliminating column 0 cancels
    # the (1, 1) entry when a1 b2 = a2 b1; det = -a3 b3 there
    matrix = Square.from_triples(4, 3, [
        (0, 0, "a", 1), (0, 1, "b", 1),
        (1, 0, "a", 2), (1, 1, "b", 2), (1, 2, "a", 3),
        (2, 1, "b", 3), (2, 2, "b", 4),
    ])
    ctx = ctx_with({"a1": 1, "a2": 1, "a3": 5, "a4": 1, "b1": 1, "b2": 1, "b3": 7, "b4": 3})
    assert det_mod(matrix, ctx) == -35 % DEFAULT_PRIME
    assert id(matrix) not in oracle._PLANS
    # the next elimination, at a point without cancellation, records one
    ctx = ctx_with({"a1": 2, "a2": 1, "a3": 5, "a4": 1, "b1": 1, "b2": 1, "b3": 7, "b4": 3})
    assert det_mod(matrix, ctx) == _det_under(matrix, ctx.assignment, ctx.prime)
    assert id(matrix) in oracle._PLANS


def test_a_plan_lives_as_long_as_its_matrix(rng):
    before = len(oracle._PLANS)
    matrix = build_c(random_system(3, rng), 4)
    det_mod(matrix, ModularContext.random(3, 1))
    key = id(matrix)
    assert key in oracle._PLANS
    del matrix
    gc.collect()
    assert key not in oracle._PLANS
    assert len(oracle._PLANS) == before


class _Slotted:
    """A matrix that cannot be weakly referenced."""

    __slots__ = ("n", "nrows", "ncols", "entries")

    def __init__(self, square: Square):
        self.n, self.nrows, self.ncols, self.entries = (square.n, square.nrows, square.ncols,
                                                        square.entries)


def test_matrices_without_plans_are_eliminated_every_time(monkeypatch):
    square = _cycle_degeneracy()
    listed = Square(square.n, square.nrows, list(square.entries))
    ctx = ctx_with({"a1": 2, "a2": 3, "a3": 5, "a4": 7, "b1": 11, "b2": 13, "b3": 17, "b4": 19})
    want = 2 * 3 * (5 * 7 - 17 * 19) % DEFAULT_PRIME
    before = len(oracle._PLANS)
    calls = _count_eliminations(monkeypatch)
    for matrix in (_Slotted(square), listed):
        calls.clear()
        assert [det_mod(matrix, ctx) for _ in range(3)] == [want] * 3
        assert len(calls) == 3
    assert len(oracle._PLANS) == before


# -- one-prime certificates and early-stopped Hilbert functions --------------

def test_int_rank_is_not_certified_by_a_prime_that_loses_rank():
    # the first prime divides an entry, so its rank is short and the second
    # prime decides
    p = RANK_PRIMES[0]
    assert int_rank([[p]]) == 1
    assert int_rank([[p, 0], [0, 1]]) == 2


def _count_reductions(monkeypatch) -> list:
    calls = []
    real = oracle._row_reduce_mod

    def reduce(mat, p):
        calls.append(p)
        return real(mat, p)

    monkeypatch.setattr(oracle, "_row_reduce_mod", reduce)
    return calls


def test_a_full_rank_needs_one_prime_and_a_deficient_one_two(rng, monkeypatch):
    system = _complete_intersection(3, rng)
    full, _ = span_rows(system, 4)  # 18 x 15, of full column rank
    deficient = [[1, 2, 3], [2, 4, 6], [0, 0, 5]]
    calls = _count_reductions(monkeypatch)
    assert int_rank(full) == 15
    assert calls == [RANK_PRIMES[0]]
    calls.clear()
    assert int_rank(deficient) == 2
    assert calls == list(RANK_PRIMES[:2])


def test_membership_against_a_full_span_needs_one_elimination(rng, monkeypatch):
    for n in (3, 4):
        system = _complete_intersection(n, rng)
        lam = n + 1
        # I_{n+1} = R_{n+1}: square-free monomials of degree n+1 do not exist
        polys = [XPoly.zero(n), _member(system, lam, rng)]
        polys += [XPoly(n, RATIONAL, {m: Fraction(3, 2)}) for m in monomials(n, lam)[::7]]
        calls = _count_reductions(monkeypatch)
        assert membership_batch(system, lam, polys) == [True] * len(polys)
        assert calls == [RANK_PRIMES[0]]
        # below n + 1 the span is not full, so both primes answer
        calls.clear()
        assert membership_batch(system, n, [_squarefree(n, n, rng)]) == [False]
        assert calls == list(RANK_PRIMES[:2])
        monkeypatch.undo()


def _factor_root(n: int, rng):
    """A specialization at a rational root of one binomial factor of the
    resultant: a parameter of exponent 1 on the pure-a side is solved for."""
    while True:
        system = random_system(n, rng)
        values = {f"a{i}": Fraction(rng.randint(1, 5), rng.randint(1, 3)) for i in range(1, n + 1)}
        values |= {f"b{i}": Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                   for i in range(1, n + 1)}
        names = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
        for factor, _ in resultant_module.resultant(system).factors:
            pos = next((q for q, e in enumerate(factor.a_part)
                        if e == 1 and not factor.b_part[q]), None)
            if pos is None:
                continue
            rest = Fraction(1)
            for q, e in enumerate(factor.a_part):
                if q != pos:
                    rest *= values[names[q]] ** e
            other = Fraction(1)
            for q, e in enumerate(factor.b_part):
                other *= values[names[q]] ** e
            values[names[pos]] = -factor.sign * other / rest
            return system.specialize(values)


def _quotient_dim_reference(system):
    """Sum of dim (R/I)_lam over every degree 0..2n, each an exact rank."""
    n = system.n
    dims = []
    for lam in range(2 * n + 1):
        rows, basis = span_rows(system, lam)
        dims.append(len(basis) - frac_rank([[Fraction(v) for v in row] for row in rows]))
    return None if dims[-1] else sum(dims)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_dim_equals_the_sum_over_every_degree(n, rng):
    zero_a1 = random_specialization(random_system(n, rng), rng)
    zero_a1 = zero_a1.symbolic_twin().specialize(zero_a1.assignment() | {"a1": Fraction(0)})
    cases = [_complete_intersection(n, rng), zero_a1, _factor_root(n, rng)]
    assert resultant_eval(cases[0]) != 0
    assert resultant_eval(cases[1]) == resultant_eval(cases[2]) == 0
    assert [quotient_dim(s) for s in cases] == [_quotient_dim_reference(s) for s in cases]
    assert quotient_dim(cases[0]) == 2 ** n


def test_the_ranks_stop_at_the_first_zero_degree(rng, monkeypatch):
    n = 4
    ci = _complete_intersection(n, rng)
    ranked = []
    real = oracle.ideal_dim
    monkeypatch.setattr(oracle, "ideal_dim", lambda s, lam: ranked.append(lam) or real(s, lam))
    assert oracle.hilbert_by_ranks(ci) == tuple(comb(n, k) for k in range(n + 1)) + (0,) * n
    assert ranked == list(range(n + 2))
    # (R/I)_{n+1} = 0 settles a complete intersection, and that degree is
    # ranked once
    ranked.clear()
    assert quotient_dim(ci) == 2 ** n
    assert ranked == [n + 1] + list(range(n + 1))
    # a quotient that is not Artinian is settled by degrees n+1 and 2n alone
    ranked.clear()
    assert quotient_dim(_factor_root(n, rng)) is None
    assert ranked == [n + 1, 2 * n]
