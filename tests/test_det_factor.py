from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from binres.coeff_matrix import MatrixEntry, build_c, build_cprime
from binres.det_factor import FactoredPoly, decompose, factor_determinant
from binres.errors import ModeMismatchError, NonSquareMatrixError, ValidationError
from binres.frames import cyclic_orders, node_count
from binres.oracle import ModularContext, det_mod
from binres.polynomials import ParamPoly
from binres.resultant import delta
from binres.systems import cyclic_system, make_system

from conftest import random_system


def c2_with(triples, n=4):
    """C(2) of a system in n variables (rows x_1^2 .. x_n^2, row r on f_{r+1})
    holding the given (row, col, kind, index) entries instead of its own."""
    m = build_c(cyclic_system(n, (1, 2)), 2)
    return dataclasses.replace(m, entries=tuple(MatrixEntry(*t) for t in triples))


def c2_with_row_graph(succ):
    """C(2) in len(succ) variables whose row graph is r -> succ[r] (None: no b)."""
    triples = [(r, r, "a", r + 1) for r in range(len(succ))]
    triples += [(r, c, "b", r + 1) for r, c in enumerate(succ) if c is not None]
    return c2_with(triples, len(succ))


def forced_and_cycle_matrix():
    # row graph 0 -> 3, 1 -> 3, 2 -> 3 -> 2: rows 0 and 1 are off the cycle
    return c2_with([
        (0, 0, "a", 1), (0, 3, "b", 1),
        (1, 1, "a", 2), (1, 3, "b", 2),
        (2, 2, "a", 3), (2, 3, "b", 3),
        (3, 2, "b", 4), (3, 3, "a", 4),
    ])


def brute_force_det(m) -> ParamPoly:
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
    fp = factor_determinant(forced_and_cycle_matrix())
    a = lambda i: ParamPoly.param("a", i, 4)
    b = lambda i: ParamPoly.param("b", i, 4)
    expected = a(1) * a(2) * (a(3) * a(4) - b(3) * b(4))
    assert fp.expand() == expected == brute_force_det(forced_and_cycle_matrix())
    assert not fp.is_zero()


def test_4x4_single_circuit():
    circuits = decompose(forced_and_cycle_matrix()).circuits
    assert [sorted(c) for c in circuits] == [[2, 3]]


def test_diagonal_matrix():
    m = c2_with([(i, i, "a", i + 1) for i in range(4)])
    fp = factor_determinant(m)
    assert fp.factors == ()
    assert fp.monomial == (1, 1, 1, 1, 0, 0, 0, 0)
    assert fp.sign == 1
    assert decompose(m).circuits == ()


def test_n2_lam3_closed_form():
    # the walk: x1^2x2 -> x1x2^2 -> x1^2x2 is a 2-cycle, x1^3 and x2^3 are off it
    system = make_system(2, [(1, 2), (1, 2)])
    m = build_c(system, 3)
    fp = factor_determinant(m)
    a = lambda i: ParamPoly.param("a", i, 2)
    b = lambda i: ParamPoly.param("b", i, 2)
    assert fp.expand() == a(1) * a(2) * (a(1) * a(2) - b(1) * b(2))
    assert delta(system, 3) == fp
    assert [sorted(c) for c in decompose(m).circuits] == [[1, 2]]


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


def test_non_square_rejected():
    with pytest.raises(NonSquareMatrixError):
        factor_determinant(build_cprime(make_system(2, [(1, 2), (1, 2)]), 2))


def test_specialized_matrix_rejected():
    system = make_system(2, [(1, 2), (1, 2)], values=[(1, 2), (3, 4)])
    with pytest.raises(ModeMismatchError):
        factor_determinant(build_c(system, 3))


def test_row_occupancy_rejected():
    diagonal = [(i, i, "a", i + 1) for i in range(4)]
    bad_rows = [
        diagonal + [(0, 1, "b", 1), (0, 2, "b", 1)],  # two b-entries
        diagonal[1:],                                 # no a in row 0
        diagonal + [(0, 1, "a", 1)],                  # an a off the diagonal
        diagonal + [(0, 0, "b", 1)],                  # a b on the diagonal
        diagonal + [(0, 1, "b", 2)],                  # another generator's b
        diagonal + [(0, 1, "b", 1, -1)],              # a signed entry
    ]
    for triples in bad_rows:
        with pytest.raises(ValidationError):
            factor_determinant(c2_with(triples))


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


def test_sign_law_against_expansion():
    # every cyclic system at n = 2, 3, every cyclic order, every lambda whose
    # C has at most 12 rows: cycles of length r carry (-1)^(r-1)
    lengths = set()
    for n in (2, 3):
        for pair in itertools.combinations(range(1, n + 1), 2):
            system = cyclic_system(n, pair)
            for order in cyclic_orders(n):
                for lam in itertools.takewhile(lambda lam: node_count(n, lam) <= 12,
                                               itertools.count(2)):
                    m = build_c(system, lam, order)
                    expansion = brute_force_det(m)
                    assert delta(system, lam, order).expand() == expansion, (pair, order, lam)
                    assert factor_determinant(m).expand() == expansion, (pair, order, lam)
                    lengths.update(len(c) for c in decompose(m).circuits)
    assert {r % 2 for r in lengths} == {0, 1}


def test_irreducible_p_case_sign_law(rng):
    # one cycle through all N rows: det = a_1...a_N + (-1)^(N+1) b_1...b_N
    for size in range(2, 11):
        order = rng.sample(range(size), size)
        succ = [None] * size
        for i, r in enumerate(order):
            succ[r] = order[(i + 1) % size]
        m = c2_with_row_graph(succ)
        fp = factor_determinant(m)
        assert fp.expand() == brute_force_det(m)
        (factor, mult), = fp.factors
        assert mult == 1
        assert not any(fp.monomial)
        assert factor.sign == (-1) ** (size + 1)
        assert factor.a_part == (1,) * size + (0,) * size
        assert factor.b_part == (0,) * size + (1,) * size


def random_forced_and_cycles(rng: random.Random, lengths: list[int], n_tree: int):
    """C(2) whose row graph has one cycle per entry of `lengths` plus `n_tree`
    rows off every cycle.

    A cycle on logical rows s..s+k-1 sends s+j to s+(j+1) mod k; tree row t
    sends to an earlier row, or nowhere, so it closes no cycle.  Logical rows
    are then shuffled.
    """
    size = sum(lengths) + n_tree
    row_of = rng.sample(range(size), size)
    succ = [None] * size
    start = 0
    for k in lengths:
        for j in range(k):
            succ[row_of[start + j]] = row_of[start + (j + 1) % k]
        start += k
    for t in range(start, size):
        if rng.random() < 0.8:
            succ[row_of[t]] = row_of[rng.randrange(t)]
    return c2_with_row_graph(succ)


def test_signed_entries_with_forced_and_several_circuits(rng):
    # every entry of C(lambda) carries sign +1, so a signed one is refused
    for _ in range(60):
        lengths = [rng.choice((2, 4)), 3] + rng.sample([2, 3], rng.randint(0, 1))
        n_tree = rng.randint(1, 3)
        m = random_forced_and_cycles(rng, lengths, n_tree)
        dec = decompose(m)
        assert len(dec.forced) == n_tree
        assert sorted(len(c) for c in dec.circuits) == sorted(lengths)
        assert factor_determinant(m).expand() == brute_force_det(m)
        entries = list(m.entries)
        k = rng.randrange(len(entries))
        entries[k] = dataclasses.replace(entries[k], sign=-1)
        with pytest.raises(ValidationError):
            factor_determinant(dataclasses.replace(m, entries=tuple(entries)))


def test_brute_force_agreement_small_random(rng):
    for _ in range(30):
        n = rng.randint(2, 3)
        system = random_system(n, rng)
        lam = rng.randint(2, n + 1)
        m = build_c(system, lam)
        if m.nrows > 10:
            continue
        assert factor_determinant(m).expand() == brute_force_det(m)


def test_multiplicativity_block_diagonal():
    # two 2-cycles on the blocks {0, 1} and {2, 3}
    diagonal = [(i, i, "a", i + 1) for i in range(4)]
    block_a = [(0, 1, "b", 1), (1, 0, "b", 2)]
    block_b = [(2, 3, "b", 3), (3, 2, "b", 4)]
    fp = factor_determinant(c2_with(diagonal + block_a + block_b))
    fa = factor_determinant(c2_with(diagonal + block_a))  # det block_a * a3 a4
    fb = factor_determinant(c2_with(diagonal + block_b))  # a1 a2 * det block_b
    a1234 = factor_determinant(c2_with(diagonal)).expand()
    assert fp.expand() * a1234 == fa.expand() * fb.expand()
    assert fp.factor_multiplicities() == fa.factor_multiplicities() | fb.factor_multiplicities()


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


def test_repeated_index_circuits_match_walk():
    # the mixed-cofactor family produces circuits with exponents > 1
    system = make_system(5, [(2, 3), (3, 5), (4, 5), (1, 3), (1, 2)])
    fp = factor_determinant(build_c(system, 6))
    assert any(any(e > 1 for e in f.a_part) for f, _ in fp.factors)
    assert fp == delta(system, 6)


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
    dec = decompose(forced_and_cycle_matrix())
    assert dec.forced == (0, 1)


def test_circuit_hops_alternate(rng):
    # a circuit's row r hops along its b-entry to column c, then down column c
    # to the diagonal a of row c, the circuit's next row
    for _ in range(10):
        n = rng.randint(2, 5)
        system = random_system(n, rng)
        m = build_c(system, rng.randint(2, n + 1))
        col = {(e.row, e.kind): e.col for e in m.entries}
        for circuit in decompose(m).circuits:
            for r, nxt in zip(circuit, circuit[1:] + circuit[:1]):
                assert col[r, "b"] == nxt == col[nxt, "a"]


def test_interface_of_the_benchmark_harness():
    # perfbench imports factor_determinant, and its tracer counts
    # len(decompose(m).forced) and len(decompose(m).circuits)
    system = cyclic_system(4, (2, 3))
    m = build_c(system, 5, cyclic_orders(4)[1])
    dec = decompose(m)
    assert len(dec.forced) + sum(len(c) for c in dec.circuits) == m.nrows
    fp = factor_determinant(m)
    assert isinstance(fp, FactoredPoly) and fp == delta(system, 5, cyclic_orders(4)[1])
