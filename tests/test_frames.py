from __future__ import annotations

import random
import re
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from binres.coeff_matrix import build_c
from binres.det_factor import decompose
from binres import frames
from binres.errors import ValidationError
from binres.frames import (
    MAX_EXPONENTS,
    MAX_NODES,
    build_column_frame,
    build_frame,
    build_row_frame,
    cyclic_orders,
    identity_order,
    node_count,
    paired_count,
    pairing_step,
    successor_walks,
)
from binres.polynomials import is_squarefree, mono_mul, monomials
from binres.systems import cyclic_system

from conftest import random_system


def test_sizes_n3_lam2():
    frame = build_frame(3, 2)
    assert [len(s) for s in frame.sets] == [6, 5, 4]


def test_lambda_one_all_variables():
    for n in (2, 4, 6):
        frame = build_frame(n, 1)
        expected = tuple(monomials(n, 1))
        assert all(s == expected for s in frame.sets)


def test_lambda_zero_all_one():
    frame = build_frame(4, 0)
    assert all(s == ((0, 0, 0, 0),) for s in frame.sets)


def test_m1_size_n5_lam3():
    assert len(build_frame(5, 3).sets[0]) == comb(7, 3)  # 35


def test_nesting_all_orders():
    for n in (2, 3, 4):
        for order in cyclic_orders(n):
            for lam in range(0, n + 2):
                frame = build_frame(n, lam, order)
                for a, b in zip(frame.sets, frame.sets[1:]):
                    assert set(b) <= set(a)


def test_bijection_totality_large_lambda():
    # for lam >= n-1 the disjoint union covers all monomials of degree lam+2
    for n in (2, 3, 4):
        for lam in range(n - 1, n + 2):
            frame = build_frame(n, lam)
            assert sum(len(s) for s in frame.sets) == comb(n + lam + 1, lam + 2)


def test_stability_under_last_variable():
    # M_j(lam) * x_{n'} subset M_j(lam+1), n' the last index of the order
    for n in (3, 4):
        for order in cyclic_orders(n):
            last = order[-1]
            shift = tuple(int(t == last - 1) for t in range(n))
            for lam in range(1, n + 1):
                cur = build_frame(n, lam, order)
                nxt = build_frame(n, lam + 1, order)
                for j in range(n):
                    assert {mono_mul(m, shift) for m in cur.sets[j]} <= set(nxt.sets[j])


def test_row_frame_n2_lam3():
    rf = build_row_frame(2, 3)
    assert rf.rows == (((1, 0), 1), ((0, 1), 1), ((1, 0), 2), ((0, 1), 2))
    assert rf.size == 4


def test_row_frame_n3_lam3():
    rf = build_row_frame(3, 3)
    assert rf.size == 10 - 1
    by_gen = [sum(1 for _, j in rf.rows if j == g) for g in (1, 2, 3)]
    assert by_gen == [3, 3, 3]


def test_row_frame_n5_lam7():
    assert build_row_frame(5, 7).size == 330


def test_row_count_formula_random_orders():
    for n in (2, 3, 4, 5):
        for order in cyclic_orders(n):
            for lam in range(2, n + 2):
                rf = build_row_frame(n, lam, order)
                sq_free = sum(1 for m in monomials(n, lam) if is_squarefree(m))
                assert rf.size == comb(n + lam - 1, lam) - sq_free


def test_column_frame_n2_lam3():
    cf = build_column_frame(build_row_frame(2, 3))
    assert cf.columns == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert cf.split == 4  # no square-free block


def test_column_frame_n3_lam2():
    cf = build_column_frame(build_row_frame(3, 2))
    assert len(cf.columns) == 6
    assert cf.columns[cf.split:] == ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def test_column_pairing_is_squares_at_lam2():
    for n in (2, 3, 4):
        rf = build_row_frame(n, 2)
        cf = build_column_frame(rf)
        for k, (m, j) in enumerate(rf.rows):
            sq = tuple(2 * int(t == j - 1) for t in range(n))
            assert cf.columns[k] == sq


def test_column_pairing_invariant():
    for n in (2, 3, 4):
        for order in cyclic_orders(n):
            for lam in range(2, n + 2):
                rf = build_row_frame(n, lam, order)
                cf = build_column_frame(rf)
                for k, (m, j) in enumerate(rf.rows):
                    sq = tuple(2 * int(t == j - 1) for t in range(n))
                    assert cf.columns[k] == mono_mul(m, sq)
                    assert not is_squarefree(cf.columns[k])
                tail = cf.columns[cf.split:]
                assert all(is_squarefree(m) for m in tail)
                assert len(set(cf.columns)) == len(cf.columns)


def test_no_squarefree_block_beyond_n():
    cf = build_column_frame(build_row_frame(3, 4))
    assert cf.split == len(cf.columns)


def test_bad_order_rejected():
    with pytest.raises(ValidationError):
        build_frame(3, 2, (1, 1, 2))


def test_row_frame_needs_lam2():
    with pytest.raises(ValidationError):
        build_row_frame(3, 1)


def test_permuted_sets_differ_from_relabeled():
    # M'_k under sigma is not M_{sigma(k)} under the identity
    sigma = cyclic_orders(3)[1]  # (2, 3, 1)
    permuted = build_frame(3, 2, sigma)
    identity = build_frame(3, 2, identity_order(3))
    assert set(permuted.sets[1]) != set(identity.sets[sigma[1] - 1])


def test_successor_walks_partition_the_graph_into_paths():
    systems = [cyclic_system(n, c) for n in (3, 4, 5) for c in combinations(range(1, n + 1), 2)]
    rng = random.Random(3)
    systems += [random_system(n, rng) for n in (3, 4, 5) for _ in range(2)]
    for system in systems:
        n, cofactors = system.n, system.pattern()
        for order in cyclic_orders(n):
            for lam in range(2, n + 2):
                walk_of = {}
                cycle_lengths = []
                walks = successor_walks(n, lam, order, cofactors)
                for walk, (path, gens, end, loop) in enumerate(walks):
                    assert len(gens) == len(path)
                    for w in path:
                        assert w not in walk_of
                        walk_of[w] = walk
                    for w, j, nxt in zip(path, gens, path[1:] + [end]):
                        assert pairing_step(w, order, cofactors) == (j, nxt)
                    if loop is None:
                        assert is_squarefree(end) or walk_of.get(end, walk) < walk
                    else:
                        assert path[loop] == end
                        cycle_lengths.append(len(path) - loop)
                assert set(walk_of) == {w for w in monomials(n, lam) if not is_squarefree(w)}
                assert len(walk_of) == node_count(n, lam)
                paired = Counter(pairing_step(w, order, cofactors)[0] for w in walk_of)
                assert [paired[j] for j in order] == [paired_count(n, lam, g) for g in range(n)]
                circuits = decompose(build_c(system, lam, order)).circuits
                assert sorted(cycle_lengths) == sorted(len(c) for c in circuits), (
                    system.pattern(), order, lam)


@pytest.mark.parametrize("make", [
    lambda lam: next(successor_walks(5, lam, identity_order(5), cyclic_system(5, (2, 3)).pattern())),
    lambda lam: build_frame(5, lam),
    lambda lam: build_row_frame(5, lam),
], ids=["walk", "frame", "row_frame"])
def test_an_oversized_degree_is_refused_before_any_work(make, monkeypatch):
    # node_count(5, 200) = 70,058,751 nodes would need about 110 GB; the
    # refusal is shown under a small limit, so that a missing check fails
    # here at once instead of starting that walk
    assert node_count(5, 200) > MAX_NODES
    monkeypatch.setattr(frames, "MAX_NODES", 100)
    make(4)  # 70 monomials
    with pytest.raises(ValidationError, match="126 monomials, past the limit of 100"):
        make(5)


def test_the_node_limit_lets_every_resultant_up_to_n_11_through():
    assert node_count(11, 12) == 646_646 <= MAX_NODES < node_count(12, 13)
    frames._check_node_budget(11, 12)


def test_the_node_limit_counts_the_square_free_monomials_of_a_frame(monkeypatch):
    # a frame lists all C(n + lam - 1, lam) monomials, not only the
    # node_count(20, 2) = 20 squares
    monkeypatch.setattr(frames, "MAX_NODES", 100)
    with pytest.raises(ValidationError, match="210 monomials, past the limit"):
        build_frame(20, 2)


def test_the_monomial_count_is_exact_below_its_cap():
    for n in range(1, 25):
        for lam in range(0, 40):
            want = comb(n + lam - 1, lam)
            assert frames._monomial_count(n, lam) == (want if want <= 10 ** 18 else None)


@pytest.mark.parametrize("n, lam, message", [
    # C(1999999, 1000000) is never computed: the count stops past 10^18
    (10 ** 6, 10 ** 6, "lists more than 10^18 monomials, past the limit of 1,000,000"),
    (10 ** 100, 10 ** 100, "lists more than 10^18 monomials, past the limit"),
    # a million monomials of a million exponents each
    (10 ** 6, 1, "1000000 monomials of 1000000 exponents, past the limit of 10,000,000"),
    (10 ** 9, 0, "1 monomials of 1000000000 exponents, past the limit"),
], ids=["comb", "googol", "degree_1", "degree_0"])
def test_a_huge_listing_is_refused_at_once(n, lam, message):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=re.escape(message)):
        frames._check_node_budget(n, lam)
    assert time.perf_counter() - start < 1.0


def test_the_exponent_limit_lets_every_resultant_up_to_n_11_through():
    assert 11 * comb(22, 12) == 7_113_106 <= MAX_EXPONENTS
    for n in range(2, 12):
        frames._check_node_budget(n, n + 1)
