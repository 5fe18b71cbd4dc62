from __future__ import annotations

import itertools
import logging
import random

import pytest

from binres.coeff_matrix import build_c
from binres.det_factor import (
    SparseMatrix,
    circuits_of,
    decompose,
    factor_determinant,
)
from binres.errors import ModeMismatchError, NonSquareMatrixError, RowOccupancyError, ValidationError
from binres.frames import cyclic_orders
from binres.oracle import ModularContext, det_mod
from binres.polynomials import ParamPoly
from binres.resultant import delta
from binres.systems import cyclic_system, make_system

from conftest import random_system


def peel_and_cycle_matrix():
    return SparseMatrix.from_triples(4, 4, [
        (0, 0, "a", 1), (0, 3, "b", 1),
        (1, 1, "a", 2), (1, 3, "b", 2),
        (2, 2, "a", 3), (2, 3, "b", 3),
        (3, 2, "b", 4), (3, 3, "a", 4),
    ])


def brute_force_det(m: SparseMatrix) -> ParamPoly:
    """Expansion over entry choices (one per row), a permanent-style oracle."""
    n = m.n
    rows = [[] for _ in range(m.nrows)]
    for e in m.entries:
        rows[e.row].append(e)
    total = ParamPoly(n)
    for choice in itertools.product(*rows):
        cols = [e.col for e in choice]
        if len(set(cols)) != len(cols):
            continue
        inv = sum(1 for i in range(len(cols)) for j in range(i + 1, len(cols))
                  if cols[i] > cols[j])
        term = ParamPoly.const(n, (-1) ** inv)
        for e in choice:
            term = term * ParamPoly.param(e.kind, e.index, n) * e.sign
        total = total + term
    return total


def test_4x4_peels_then_one_cycle():
    fp = factor_determinant(peel_and_cycle_matrix())
    a = lambda i: ParamPoly.param("a", i, 4)
    b = lambda i: ParamPoly.param("b", i, 4)
    expected = a(1) * a(2) * (a(3) * a(4) - b(3) * b(4))
    assert fp.expand() == expected
    assert not fp.is_zero()


def test_4x4_single_circuit():
    circuits = circuits_of(peel_and_cycle_matrix())
    assert len(circuits) == 1
    assert circuits[0].row_set == {2, 3} and circuits[0].col_set == {2, 3}


def test_diagonal_matrix():
    n = 4
    m = SparseMatrix.from_triples(n, n, [(i, i, "a", i + 1) for i in range(n)])
    fp = factor_determinant(m)
    assert fp.factors == ()
    assert fp.monomial == (1, 1, 1, 1, 0, 0, 0, 0)
    assert fp.sign == 1
    assert circuits_of(m) == []


def test_n2_lam3_closed_form():
    # the walk: x1^2x2 -> x1x2^2 -> x1^2x2 is a 2-cycle, x1^3 and x2^3 are off it
    system = make_system(2, [(1, 2), (1, 2)])
    m = build_c(system, 3)
    fp = factor_determinant(m)
    a = lambda i: ParamPoly.param("a", i, 2)
    b = lambda i: ParamPoly.param("b", i, 2)
    assert fp.expand() == a(1) * a(2) * (a(1) * a(2) - b(1) * b(2))
    assert delta(system, 3) == fp
    circuits = circuits_of(m)
    assert len(circuits) == 1
    assert circuits[0].row_set == {1, 2} and circuits[0].col_set == {1, 2}


def test_walk_odd_cycles_closed_form():
    # x1^2x2 -> x2^2x3 -> x1x3^2 -> x1^2x2 and x1^2x3 -> x2x3^2 -> x1x2^2 -> x1^2x3
    # are 3-cycles; x_i^3 -> x1x2x3 leaves the graph
    system = cyclic_system(3, (2, 3))
    fp = delta(system, 3)
    a = lambda i: ParamPoly.param("a", i, 3)
    b = lambda i: ParamPoly.param("b", i, 3)
    a123 = a(1) * a(2) * a(3)
    circuit = a123 + b(1) * b(2) * b(3)
    assert fp.expand() == a123 * circuit * circuit
    assert fp == factor_determinant(build_c(system, 3))


def test_walk_equals_matrix_engine():
    systems = [cyclic_system(n, c) for n in (3, 4, 5)
               for c in itertools.combinations(range(1, n + 1), 2)]
    rng = random.Random(7)
    systems += [random_system(6, rng) for _ in range(3)]
    for system in systems:
        n = system.n
        for order in cyclic_orders(n):
            for lam in range(2, n + 2):
                assert delta(system, lam, order) == factor_determinant(
                    build_c(system, lam, order)), (system.pattern(), order, lam)


def test_walk_rejects_bad_input():
    system = make_system(2, [(1, 2), (1, 2)])
    with pytest.raises(ValidationError):
        delta(system, 1)
    with pytest.raises(ValidationError):
        delta(system, 3, (1, 1))
    with pytest.raises(ModeMismatchError):
        delta(system.specialize({"a1": 1, "a2": 1, "b1": 1, "b2": 1}), 3)


def test_zero_row_gives_zero():
    m = SparseMatrix(2, 2, 2, tuple())
    assert factor_determinant(m).is_zero()
    m = SparseMatrix.from_triples(2, 2, [(0, 0, "a", 1), (0, 1, "b", 1)])
    assert factor_determinant(m).is_zero()


def test_circuit_with_equal_matchings():
    # both matchings of the 2-cycle carry a1^2: det is a1^2 - a1^2 or a1^2 + a1^2
    cancel = SparseMatrix.from_triples(1, 2, [(0, 0, "a", 1), (0, 1, "a", 1),
                                             (1, 0, "a", 1), (1, 1, "a", 1)])
    assert factor_determinant(cancel).is_zero()
    double = SparseMatrix.from_triples(1, 2, [(0, 0, "a", 1), (0, 1, "a", 1),
                                             (1, 0, "a", 1, -1), (1, 1, "a", 1)])
    fp = factor_determinant(double)
    a1 = ParamPoly.param("a", 1, 1)
    assert fp.expand() == brute_force_det(double) == a1 * a1 * 2
    assert fp.specialize({"a1": 3, "b1": 1}) == 18


def test_non_square_rejected():
    m = SparseMatrix(2, 2, 3, tuple())
    with pytest.raises(NonSquareMatrixError):
        factor_determinant(m)


def test_row_occupancy_rejected():
    m = SparseMatrix.from_triples(3, 3, [
        (0, 0, "a", 1), (0, 1, "b", 1), (0, 2, "b", 2),
        (1, 1, "a", 2), (2, 2, "a", 3),
    ])
    with pytest.raises(RowOccupancyError):
        factor_determinant(m)


def test_oracle_equivalence_random_systems(rng):
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        system = random_system(n, rng)
        lam = rng.randint(2, n + 1)
        order = rng.choice(cyclic_orders(n))
        m = build_c(system, lam, order)
        fp = factor_determinant(m)
        for k in range(5):
            ctx = ModularContext.random(n, rng.randrange(1 << 30), allow_zero=(k >= 3))
            av, bv = ctx.residue_vectors(n)
            assert fp.eval_mod(av, bv, ctx.prime) == det_mod(m, ctx)
            checked += 1
    assert checked == 200


def random_binomial_p_matrix(size: int, rng: random.Random) -> SparseMatrix:
    """Random irreducible P: row i holds a_i and b_i; every column has one a
    and one b (a single cycle through all rows)."""
    acols = list(range(size))
    rng.shuffle(acols)
    # b-columns: derangement-style cycle over the a-columns so P is irreducible
    perm = list(range(size))
    rng.shuffle(perm)
    triples = []
    for i in range(size):
        triples.append((i, acols[perm[i]], "a", i + 1))
        triples.append((i, acols[perm[(i + 1) % size]], "b", i + 1))
    return SparseMatrix.from_triples(size, size, triples)


def test_irreducible_p_case_sign_law(rng):
    # det P = +-(a_1...a_N + (-1)^(N+1) b_1...b_N) for irreducible P
    for size in range(2, 11):
        m = random_binomial_p_matrix(size, rng)
        fp = factor_determinant(m)
        assert fp.expand() == brute_force_det(m)
        assert len(fp.factors) == 1
        (factor, mult), = fp.factors
        assert mult == 1
        assert not any(fp.monomial)
        assert factor.sign == (-1) ** (size + 1)
        assert factor.a_part == (1,) * size + (0,) * size
        assert factor.b_part == (0,) * size + (1,) * size


def random_signed_matrix(rng: random.Random, lengths: list[int],
                         n_tree: int) -> SparseMatrix:
    """Random matrix of +-1-signed entries, at most two per row: one circuit
    per entry of `lengths`, plus `n_tree` rows that the peel forces.

    Logical row i holds an entry in logical column i.  A circuit on rows
    s..s+k-1 adds row s+j -> column s+(j+1) mod k; tree row t may add an
    entry in any earlier column, so column t only holds entries of rows >= t
    and the tree peels from the last row back.  Rows and columns are then
    shuffled.
    """
    n = 4
    size = sum(lengths) + n_tree
    row_of = rng.sample(range(size), size)
    col_of = rng.sample(range(size), size)
    cells = [(i, i) for i in range(size)]
    start = 0
    for k in lengths:
        cells += [(start + j, start + (j + 1) % k) for j in range(k)]
        start += k
    cells += [(t, rng.randrange(t)) for t in range(start, size) if rng.random() < 0.8]
    return SparseMatrix.from_triples(n, size, [
        (row_of[r], col_of[c], rng.choice("ab"), rng.randint(1, n), rng.choice((1, -1)))
        for r, c in cells
    ])


def test_signed_entries_with_forced_and_several_circuits(rng):
    for _ in range(60):
        lengths = [rng.choice((2, 4)), 3] + rng.sample([2, 3], rng.randint(0, 1))
        n_tree = rng.randint(1, 3)
        m = random_signed_matrix(rng, lengths, n_tree)
        dec = decompose(m)
        assert len(dec.forced) == n_tree
        assert sorted(len(c.rows) for c in dec.circuits) == sorted(lengths)
        assert factor_determinant(m).expand() == brute_force_det(m)


def test_brute_force_agreement_small_random(rng):
    for _ in range(30):
        n = rng.randint(2, 3)
        system = random_system(n, rng)
        lam = rng.randint(2, n + 1)
        m = build_c(system, lam)
        if m.nrows > 10:
            continue
        assert factor_determinant(m).expand() == brute_force_det(
            SparseMatrix(n, m.nrows, m.ncols, m.entries))


def test_multiplicativity_block_diagonal(rng):
    sys_a = make_system(2, [(1, 2), (1, 2)])
    sys_b = make_system(2, [(1, 2), (1, 2)])
    ma = build_c(sys_a, 3)
    mb = build_c(sys_b, 2)
    off_r, off_c = ma.nrows, ma.ncols
    triples = [(e.row, e.col, e.kind, e.index) for e in ma.entries]
    triples += [(e.row + off_r, e.col + off_c, e.kind, e.index) for e in mb.entries]
    merged = SparseMatrix.from_triples(2, off_r + mb.nrows, triples)
    fp = factor_determinant(merged)
    fa = factor_determinant(ma)
    fb = factor_determinant(mb)
    assert fp.expand() == fa.expand() * fb.expand()
    merged_factors = fp.factor_multiplicities()
    for fac, mult in list(fa.factor_multiplicities().items()) + \
            list(fb.factor_multiplicities().items()):
        assert merged_factors.get(fac, 0) >= mult


def test_circuit_persistence(rng):
    # every binomial factor of Delta_lambda appears among Delta_{lambda+1}'s
    for n in range(2, 6):
        system = random_system(n, rng)
        for order in cyclic_orders(n):
            prev = None
            for lam in range(2, n + 2):
                fp = factor_determinant(build_c(system, lam, order))
                atoms = set(fp.factor_multiplicities())
                if prev is not None:
                    assert prev <= atoms
                prev = atoms


def test_repeated_index_circuits_are_logged(caplog):
    # the mixed-cofactor family produces circuits with exponents > 1
    system = make_system(5, [(2, 3), (3, 5), (4, 5), (1, 3), (1, 2)])
    with caplog.at_level(logging.DEBUG, logger="binres.det_factor"):
        fp = factor_determinant(build_c(system, 6))
    assert any(any(e > 1 for e in f.a_part) for f, _ in fp.factors)
    assert any("repeated generator indices" in r.message for r in caplog.records)


def test_factored_poly_specialize_matches_expand(rng):
    system = random_system(3, rng)
    fp = factor_determinant(build_c(system, 3))
    from fractions import Fraction

    assignment = {f"a{i}": Fraction(rng.randint(1, 9), rng.randint(1, 4))
                  for i in range(1, 4)}
    assignment |= {f"b{i}": Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for i in range(1, 4)}
    assert fp.specialize(assignment) == fp.expand().specialize(assignment)


def test_decompose_reports_chains():
    dec = decompose(peel_and_cycle_matrix())
    assert not dec.zero
    peeled = {(e.row, e.col) for e in dec.forced}
    assert peeled == {(0, 0), (1, 1)}


def test_circuit_hops_alternate(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        system = random_system(n, rng)
        m = build_c(system, rng.randint(2, n + 1))
        for circuit in circuits_of(m):
            hops = circuit.hops
            size = len(hops)
            assert size == 2 * len(circuit.rows)
            for i in range(size):
                cur, nxt = hops[i], hops[(i + 1) % size]
                if i % 2 == 0:
                    assert cur.row == nxt.row  # hop along a row
                else:
                    assert cur.col == nxt.col  # hop along a column
