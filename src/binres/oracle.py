"""Independent brute-force checks: modular determinants, graded ideal
dimensions, membership, quotient dimension, and the classical n=2 Sylvester
resultant.  Everything here deliberately avoids the circuit-factorization
machinery it is used to verify.

Determinants run over a fixed 62-bit prime with general sparse elimination in
pure Python.  The residue of an entry is computed once per distinct
(kind, index, sign, value).  Elimination is division-free: each target row is
scaled by the pivot, and the scalings are divided out by one inverse at the
end.  The first call on a matrix records the elimination's row operations as
a plan of flat integer arrays, and a later call on the same matrix replays
them at its point: 2n residues, then the recorded updates, with no pivot
search, dict or set.  The same operations give the same determinant whenever
every pivot is nonzero, so the replay is exact.  An elimination that met a
zero residue, two entries in one cell or an entry that cancelled leaves no
plan, since its steps depend on the point; the next call eliminates again.
A replay that meets a zero residue or pivot (a point on a circuit factor, a
zero parameter, a small prime) eliminates in full instead.  A plan lives
exactly as long as its matrix.

Rank computations clear denominators and run vectorized Gaussian elimination
mod two 30-bit primes (escalating to more primes, then to exact rational
elimination, if they ever disagree; every escalation logs a WARNING).  For an
integer matrix, rank mod p <= rank over Q <= min(rows, cols), so a full rank
mod the first prime is certified by that prime alone; only a smaller rank is
confirmed by a second.  A graded span keeps its nonzero positions once, and
each of its rows holds only the scaled a_i and b_i of one generator, so
reducing it mod p reduces those 2n integers exactly, whatever their size, and
scatters the residues into an int64 array.  Membership eliminates the span
once per prime and reduces the stacked vectors of all polynomials against it
at once: each pivot updates, in one numpy step, every vector that is nonzero
in its column.  A span of full column rank mod the first prime is all of
R_lambda, so every polynomial is a member and no vector is reduced.

The Hilbert function of R/I by ranks stops at the first degree where it is 0:
I_lambda = R_lambda gives I_{lambda+1} ⊇ R_1 I_lambda = R_{lambda+1}, so every
later degree is 0 too.  `quotient_dim` ranks degree n+1 first: when it is 0
the quotient is finite and its dimension is the sum of degrees 0..n, as for
every complete intersection.  Otherwise degree 2n settles whether it is
finite.
"""
from __future__ import annotations

import logging
import random
import weakref
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .coeff_matrix import build_c
from .errors import ModeMismatchError, ValidationError
from .linalg import frac_rank
from .polynomials import RATIONAL, XPoly, mono_mul, monomials
from .systems import BinomialSystem

logger = logging.getLogger(__name__)

DEFAULT_PRIME = (1 << 62) - 57  # 62-bit prime for determinant evaluation
RANK_PRIMES = (1073741789, 1073741783, 998244353, 469762049, 167772161)


@dataclass(frozen=True)
class ModularContext:
    prime: int
    seed: int
    assignment: dict[str, int] = field(hash=False)

    @classmethod
    def random(cls, n: int, seed: int, prime: int = DEFAULT_PRIME,
               allow_zero: bool = False) -> "ModularContext":
        rng = random.Random(seed)
        low = 0 if allow_zero else 1
        assignment = {}
        for i in range(1, n + 1):
            assignment[f"a{i}"] = rng.randrange(low, prime)
            assignment[f"b{i}"] = rng.randrange(low, prime)
        return cls(prime, seed, assignment)

    def residue_vectors(self, n: int) -> tuple[list[int], list[int]]:
        return ([self.assignment[f"a{i}"] for i in range(1, n + 1)],
                [self.assignment[f"b{i}"] for i in range(1, n + 1)])


def _residue(key: tuple, assignment: dict[str, int], p: int) -> int:
    """Residue of an entry with key (kind, index, sign, value) at the point."""
    kind, index, sign, value = key
    if value is not None:
        return value.numerator % p * pow(value.denominator % p, -1, p) % p
    return sign % p * (assignment[f"{kind}{index}"] % p) % p


def _parity(perm: list[int]) -> int:
    """The sign of a permutation of 0..len(perm)-1."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# the slot that always holds 0: a row scaled by its pivot, with nothing
# subtracted, reads it
_ZERO = -1


@dataclass(frozen=True)
class _Plan:
    """The row operations of one sparse elimination of a matrix, replayed at
    other points.

    Values live in slots: slot k < len(entry_keys) holds entry k, whose
    residue is that of keys[entry_keys[k]]; later slots are fill-in and start
    at 0, and the last slot is 0 for good.  Step k reads its pivot from slot
    pivots[k] and runs the ops u from ends[k-1] (0 for the first step) up to
    ends[k], each setting slot dst[u] to
    pivot * slot dst[u] - slot tgt[u] * slot src[u]: a target row is scaled
    by the pivot and loses its pivot-column entry (slot tgt[u]) times the
    pivot row.  The determinant is sign * prod(pivot ** exps[k]) *
    prod(residue ** powers): a pivot that scaled t rows has exponent 1 - t,
    and `powers` counts, per key, the pivots that no op touches, which take
    no step.
    """
    keys: tuple
    entry_keys: array
    nslots: int
    powers: array
    pivots: array
    exps: array
    ends: array
    dst: array
    tgt: array
    src: array
    sign: int

    def replay(self, ctx: ModularContext) -> int:
        """The determinant at ctx's point, or 0 when a residue or a pivot is
        0 there and the steps prove nothing."""
        p = ctx.prime
        residues = [_residue(key, ctx.assignment, p) for key in self.keys]
        if not all(residues):
            return 0
        num = den = 1
        for r, e in zip(residues, self.powers):
            num = num * pow(r, e, p) % p
        vals = [residues[k] for k in self.entry_keys]
        vals.extend([0] * (self.nslots - len(vals)))
        dst, tgt, src = self.dst, self.tgt, self.src
        start = 0
        for slot, e, end in zip(self.pivots, self.exps, self.ends):
            pv = vals[slot]
            if not pv:
                return 0
            if e == 1:
                num = num * pv % p
            elif e:
                den = den * pow(pv, -e, p) % p
            for u in range(start, end):
                d = dst[u]
                vals[d] = (pv * vals[d] - vals[tgt[u]] * vals[src[u]]) % p
            start = end
        return self.sign * num * pow(den, -1, p) % p


def _eliminate(matrix, ctx: ModularContext) -> "tuple[int, _Plan | None]":
    """Determinant of the matrix mod p by sparse elimination, and the plan of
    its steps.

    Elimination is division-free: a target row is scaled by the pivot before
    the pivot row is subtracted, and the scalings are divided out once at
    the end.  The plan is None when the steps depend on the point: an entry
    was 0 mod p, two entries shared a cell, an entry cancelled to 0 or a
    column ran out of rows.
    """
    p = ctx.prime
    size = matrix.nrows
    # an entry's residue depends only on (kind, index, sign, value), so it is
    # computed once per distinct key
    keys: dict[tuple, int] = {}
    residues: list[int] = []
    entry_keys: list[int] = []
    vals: list[int] = []                                        # slot -> value
    rows: list[dict[int, int]] = [dict() for _ in range(size)]  # col -> slot
    clean = True
    for e in matrix.entries:
        key = (e.kind, e.index, e.sign, e.value)
        k = keys.get(key)
        if k is None:
            k = keys[key] = len(residues)
            residues.append(_residue(key, ctx.assignment, p))
        entry_keys.append(k)
        v = residues[k]
        row = rows[e.row]
        slot = row.get(e.col)
        if slot is not None:
            clean = False
            vals[slot] = (vals[slot] + v) % p
            if not vals[slot]:
                del row[e.col]
        elif v:
            row[e.col] = len(vals)
            vals.append(v)
        else:
            clean = False
    # rows hold no zeros, so col_rows[c] is the set of rows with an entry in
    # column c; active rows never hold an entry left of the current column
    col_rows: list[set[int]] = [set() for _ in range(size)]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)

    num = den = 1
    perm: list[int] = []    # the pivot row of each column
    active = [True] * size
    pivots: list[int] = []
    exps: list[int] = []
    ends: list[int] = []
    ops: list[int] = []     # (dst, tgt, src) triples, flat
    for col in range(size):
        live = [r for r in col_rows[col] if active[r]]
        if len(live) == 1:
            piv = live[0]
        elif live:
            piv = min(live, key=lambda r: (len(rows[r]), r))
        else:
            return 0, None
        active[piv] = False
        perm.append(piv)
        prow = rows[piv]
        pslot = prow[col]
        pv = vals[pslot]
        pivots.append(pslot)
        exps.append(2 - len(live))
        if len(live) == 1:
            num = num * pv % p
            ends.append(len(ops))
            continue
        if len(live) > 2:
            den = den * pow(pv, len(live) - 2, p) % p
        rest = {c: s for c, s in prow.items() if c != col}
        cancelled = []
        for r in live:
            if r == piv:
                continue
            row = rows[r]
            t = row.pop(col)
            f = vals[t]
            for c, d in row.items():
                s = rest.get(c)
                if s is None:
                    vals[d] = pv * vals[d] % p
                    ops += (d, t, _ZERO)
                else:
                    vals[d] = (pv * vals[d] - f * vals[s]) % p
                    ops += (d, t, s)
                    if not vals[d]:
                        cancelled.append((r, c))
            for c, s in rest.items():
                if c not in row:
                    # f * v is a unit mod p, so fill-in is never 0
                    d = row[c] = len(vals)
                    vals.append(-f * vals[s] % p)
                    col_rows[c].add(r)
                    ops += (d, t, s)
        for r, c in cancelled:
            del rows[r][c]
            col_rows[c].discard(r)
            clean = False
        ends.append(len(ops))
    sign = _parity(perm)
    det = sign * num * pow(den, -1, p) % p
    if not clean:
        return det, None
    # a pivot that no op touches and that scales no row holds its entry's
    # residue; its column becomes a power of that residue, not a step
    written = set(ops[0::3])
    powers = array("i", [0] * len(keys))
    steps = []
    for k, slot in enumerate(pivots):
        if exps[k] == 1 and slot not in written:
            powers[entry_keys[slot]] += 1
        else:
            steps.append(k)
    return det, _Plan(tuple(keys), array("i", entry_keys), len(vals) + 1, powers,
                      array("i", [pivots[k] for k in steps]), array("i", [exps[k] for k in steps]),
                      array("i", [ends[k] // 3 for k in steps]), array("i", ops[0::3]),
                      array("i", ops[1::3]), array("i", ops[2::3]), sign)


# id(matrix) -> its plan; an entry is removed when its matrix is collected
_PLANS: dict[int, _Plan] = {}


def det_mod(matrix, ctx: ModularContext) -> int:
    """Determinant of the specialized matrix by sparse elimination mod p.

    An elimination that leaves a plan records it for the matrix, and later
    calls replay it at their point.  A replay that meets a zero residue or
    pivot proves nothing, and that call eliminates in full.  A plan lives
    exactly as long as its matrix; a matrix whose entries are not a tuple,
    or that cannot be weakly referenced, is eliminated afresh every time.
    """
    if matrix.nrows != matrix.ncols:
        raise ValidationError("det_mod needs a square matrix")
    if matrix.nrows == 0:
        return 1 % ctx.prime
    key = id(matrix)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan.replay(ctx) or _eliminate(matrix, ctx)[0]
    det, plan = _eliminate(matrix, ctx)
    if plan is not None and isinstance(matrix.entries, tuple):
        try:
            weakref.finalize(matrix, _PLANS.pop, key, None)
        except TypeError:
            return det
        _PLANS[key] = plan
    return det


# --------------------------------------------------------------------------
# graded spans and ranks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _IntMatrix:
    """An exact integer matrix kept as its nonzero entries: values[k] sits at
    (rows[k], cols[k]).  Reducing it mod p reduces each entry exactly,
    whatever its size, and scatters the residues into an int64 array."""
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: list[int]

    @classmethod
    def build(cls, shape: tuple[int, int], entries: list[tuple[int, int, int]]) -> "_IntMatrix":
        """The matrix of the given (row, col, value) entries."""
        rows, cols, values = zip(*entries) if entries else ((), (), ())
        return cls(shape, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                   list(values))

    def mod(self, p: int) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        np.add.at(out, (self.rows, self.cols),
                  np.array([v % p for v in self.values], dtype=np.int64))
        return out

    def dense(self) -> list[list[int]]:
        out = [[0] * self.shape[1] for _ in range(self.shape[0])]
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.values):
            out[r][c] += v
        return out

    def fractions(self) -> list[list[Fraction]]:
        return [[Fraction(v) for v in row] for row in self.dense()]


def _span(system: BinomialSystem, lam: int) -> tuple[_IntMatrix, list]:
    """{m * f_i : deg m = lam - 2} over the basis of R_lam, rows in (i, m)
    order.  A row holds only the scaled a_i and b_i of its generator."""
    if system.mode != RATIONAL:
        raise ValidationError("oracle spans need a specialized system")
    n = system.n
    basis = monomials(n, lam)
    lower = monomials(n, lam - 2) if lam >= 2 else []
    index = {m: k for k, m in enumerate(basis)}
    entries: list[tuple[int, int, int]] = []
    for i in range(1, n + 1):
        gen = system.generator(i)
        scale = lcm(gen.a.denominator, gen.b.denominator)
        sq = tuple(2 if t == i - 1 else 0 for t in range(n))
        first = (i - 1) * len(lower)
        for value, mono in ((int(gen.a * scale), sq), (int(gen.b * scale), gen.cofactor_mono(n))):
            if value:
                entries.extend((first + t, index[mono_mul(m, mono)], value)
                               for t, m in enumerate(lower))
    return _IntMatrix.build((n * len(lower), len(basis)), entries), basis


def span_rows(system: BinomialSystem, lam: int) -> tuple[list[list[int]], list]:
    """Integer coefficient rows of {m * f_i : deg m = lam - 2} over R_lam."""
    matrix, basis = _span(system, lam)
    return matrix.dense(), basis


def _row_reduce_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Row echelon form of mat mod p with unit pivots, and its (row, col) pivots.

    The rank is the number of pivots; a vector lies in the row span iff
    reducing it against the pivots in order leaves zero.  Rows from r on are
    zero left of column c, so each step touches columns c onwards only.
    """
    a = np.mod(mat, p).astype(np.int64)
    nrows, ncols = a.shape
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        rest = a[r + 1:, c].nonzero()[0]
        if rest.size:
            rows = rest + r + 1
            a[rows, c:] = (a[rows, c:] - a[rows, c][:, None] * a[r, c:][None, :]) % p
        pivots.append((r, c))
    return a, pivots


def _rank(matrix: _IntMatrix) -> int:
    """Rank over Q via multi-prime modular elimination.

    rank mod p <= rank over Q <= min(shape), so a full rank mod the first
    prime needs no second one.
    """
    r0 = len(_row_reduce_mod(matrix.mod(RANK_PRIMES[0]), RANK_PRIMES[0])[1])
    if r0 == min(matrix.shape):
        return r0
    for p in RANK_PRIMES[1:]:
        r1 = len(_row_reduce_mod(matrix.mod(p), p)[1])
        if r1 == r0:
            return r0
        logger.warning("modular rank disagreement (%d vs %d), escalating", r0, r1)
        r0 = max(r0, r1)
    return frac_rank(matrix.fractions())


def int_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix via multi-prime modular elimination."""
    if not rows:
        return 0
    return _rank(_IntMatrix.build((len(rows), len(rows[0])), [
        (r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]))


def ideal_dim(system: BinomialSystem, lam: int) -> int:
    """dim of the degree-lam piece of the ideal, by row rank of its span."""
    return _rank(_span(system, lam)[0])


def _dims_to_first_zero(system: BinomialSystem, last: int) -> list[int]:
    """dim (R/I)_lam for lam = 0..last, by ranks of the graded spans, up to
    and including the first zero degree."""
    dims = []
    for lam in range(last + 1):
        dims.append(comb(system.n + lam - 1, lam) - ideal_dim(system, lam))
        if not dims[-1]:
            break
    return dims


def hilbert_by_ranks(system: BinomialSystem) -> tuple[int, ...]:
    """dim (R/I)_lam for lam = 0..2n, by ranks of the graded spans.

    Degrees after the first zero one are 0 (I_lam = R_lam gives
    I_{lam+1} ⊇ R_1 I_lam = R_{lam+1}) and are not ranked.
    """
    dims = _dims_to_first_zero(system, 2 * system.n)
    return tuple(dims) + (0,) * (2 * system.n + 1 - len(dims))


def quotient_dim(system: BinomialSystem) -> "int | None":
    """Total dimension of R/I summed over degrees 0..2n; None if not Artinian
    by degree 2n (the quotient is then infinite-dimensional for these ideals).

    Degree n+1 is ranked first: when it is 0, so is every later degree, and
    the sum runs over degrees 0..n, as for a complete intersection.
    Otherwise degree 2n settles None, and the sum stops at the first zero
    degree.
    """
    n = system.n
    if ideal_dim(system, n + 1) == comb(2 * n, n + 1):
        return sum(_dims_to_first_zero(system, n))
    if ideal_dim(system, 2 * n) != comb(3 * n - 1, 2 * n):
        return None
    return sum(hilbert_by_ranks(system))


def _poly_vector(f: XPoly, basis_index: dict) -> dict[int, int]:
    """f's nonzero coefficients, cleared of denominators, by basis column."""
    coeffs = {basis_index[m]: Fraction(c) for m, c in f.terms.items()}
    denom = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (denom // c.denominator) for k, c in coeffs.items()}


def membership_batch(system: BinomialSystem, lam: int, polys: list[XPoly]) -> list[bool]:
    """Whether each homogeneous degree-lam polynomial lies in I_lam."""
    span, basis = _span(system, lam)
    index = {m: k for k, m in enumerate(basis)}
    vectors = []
    for f in polys:
        if f.n != system.n:
            raise ModeMismatchError(f"membership needs polynomials in {system.n} variables, "
                                    f"got {f.n}")
        if f.mode != RATIONAL or (not f.is_zero() and (not f.is_homogeneous() or f.degree() != lam)):
            raise ValidationError(f"membership needs homogeneous degree-{lam} rational input")
        vectors.append(_poly_vector(f, index))
    p0, p1 = RANK_PRIMES[:2]
    a0, pivots0 = _row_reduce_mod(span.mod(p0), p0)
    if len(pivots0) == len(basis):
        # full column rank mod p is full rank over Q: I_lam = R_lam
        return [True] * len(vectors)
    stacked = _IntMatrix.build((len(vectors), len(basis)), [
        (r, c, v) for r, vec in enumerate(vectors) for c, v in vec.items()])

    def reduce_all(p: int, a: np.ndarray, pivots: list[tuple[int, int]]) -> list[bool]:
        # the vectors reduce independently, so each pivot updates every
        # vector that is nonzero in its column at once
        v = stacked.mod(p)
        for pr, pc in pivots:
            hit = v[:, pc].nonzero()[0]
            if hit.size:
                v[hit, pc:] = (v[hit, pc:] - v[hit, pc][:, None] * a[pr, pc:][None, :]) % p
        return (~v.any(axis=1)).tolist()

    first = reduce_all(p0, a0, pivots0)
    second = reduce_all(p1, *_row_reduce_mod(span.mod(p1), p1))
    if first == second:
        return first
    logger.warning("membership disagreement between primes; exact fallback")
    frows = span.fractions()
    base_rank = frac_rank(frows)
    out = []
    for vec, f1, s1 in zip(stacked.fractions(), first, second):
        if f1 == s1:
            out.append(f1)
        else:
            out.append(frac_rank(frows + [vec]) == base_rank)
    return out


def membership(f: XPoly, system: BinomialSystem, lam: "int | None" = None) -> bool:
    """True iff homogeneous f lies in the degree-deg(f) piece of the ideal."""
    if lam is None:
        lam = f.degree()
    return membership_batch(system, lam, [f])[0]


def sylvester_resultant_2(f: XPoly, g: XPoly):
    """Classical resultant of two binary quadratic forms (4x4 Sylvester det)."""
    if f.n != 2 or g.n != 2:
        raise ValidationError("sylvester_resultant_2 is for binary forms")
    f._check(g)

    def coeffs(h: XPoly):
        return [h.coefficient((2, 0)), h.coefficient((1, 1)), h.coefficient((0, 2))]

    a = coeffs(f)
    b = coeffs(g)
    m = [
        [a[0], a[1], a[2], 0],
        [0, a[0], a[1], a[2]],
        [b[0], b[1], b[2], 0],
        [0, b[0], b[1], b[2]],
    ]
    # Leibniz over S_4: fine for a 4x4 with ring entries
    total = None
    for perm, sign in _S4:
        term = m[0][perm[0]]
        for i in (1, 2, 3):
            term = term * m[i][perm[i]]
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def _s4():
    import itertools

    out = []
    for perm in itertools.permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
        out.append((perm, -1 if inversions % 2 else 1))
    return out


_S4 = _s4()


# --------------------------------------------------------------------------
# self test
# --------------------------------------------------------------------------

@dataclass
class SelfTestRow:
    name: str
    passed: bool
    detail: str = ""


def _random_system(n: int, rng: random.Random) -> BinomialSystem:
    import itertools

    from .systems import make_system

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return make_system(n, [rng.choice(pairs) for _ in range(n)])


def run_selftest(seed: int = 0, n_max: int = 5) -> list[SelfTestRow]:
    """Cross-check the factorization engine against the oracles."""
    if n_max < 2:
        raise ValidationError(f"selftest needs n_max >= 2, got {n_max}")
    from .frames import cyclic_orders
    from .resultant import delta, delta_chain, divides, factored_gcd, radical, resultant

    rng = random.Random(seed)
    rows: list[SelfTestRow] = []

    for n in range(2, n_max + 1):
        system = _random_system(n, rng)
        mismatches = 0
        checked = 0
        for order in cyclic_orders(n):
            for lam in range(2, n + 2):
                matrix = build_c(system, lam, order)
                fp = delta(system, lam, order)
                for trial in range(4):
                    ctx = ModularContext.random(n, rng.randrange(1 << 30),
                                                allow_zero=(trial == 3))
                    av, bv = ctx.residue_vectors(n)
                    checked += 1
                    if fp.eval_mod(av, bv, ctx.prime) != det_mod(matrix, ctx):
                        mismatches += 1
        rows.append(SelfTestRow(f"n={n} delta walk vs det_mod",
                                mismatches == 0, f"{checked} evaluations"))

        chain = delta_chain(system)
        ok = all(divides(radical(chain.delta(lam)), radical(chain.delta(lam + 1)))
                 for lam in range(2, n + 1))
        rows.append(SelfTestRow(f"n={n} radical chain divisibility", ok))

        # the GCD itself, not resultant(), which raises on a broken law
        degrees = factored_gcd(
            [delta(system, n + 1, o) for o in cyclic_orders(n)]).pair_degrees()
        rows.append(SelfTestRow(
            f"n={n} resultant degree law",
            degrees == (2 ** (n - 1),) * n,
            f"degrees {list(degrees)} in the pairs (a_i, b_i) vs {2 ** (n - 1)} each"))

    # n=2 closed form against the Sylvester oracle
    from .systems import make_system

    sys2 = make_system(2, [(1, 2), (1, 2)])
    res2 = resultant(sys2)
    syl = sylvester_resultant_2(sys2.form(1), sys2.form(2))
    rows.append(SelfTestRow("n=2 resultant equals Sylvester oracle",
                            res2.expand() == syl or (-1 * syl) == res2.expand()))

    # CI equivalence on random specializations, small n
    from .resultant import resultant_eval

    agree = True
    for _ in range(6):
        n = rng.randint(2, 3)
        system = _random_system(n, rng)
        values = [(Fraction(rng.randint(1, 5)), Fraction(rng.randint(-4, 4)))
                  for _ in range(n)]
        spec = system.specialize({f"a{i + 1}": values[i][0] for i in range(n)}
                                 | {f"b{i + 1}": values[i][1] for i in range(n)})
        nonzero = resultant_eval(spec) != 0
        if nonzero != (quotient_dim(spec) == 2 ** n):
            agree = False
    rows.append(SelfTestRow("CI equivalence (resultant vs quotient dimension)", agree))
    return rows
