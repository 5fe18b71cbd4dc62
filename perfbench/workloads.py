"""The benchmark's workloads.

Each workload is a closed loop with one caller: the driver in run.py runs the
operations of round 0, 1, 2, ... one after another until the run length is
reached, and checks every round's results after the round, untimed.  Round r
is made from (seed, r) alone, so the same seed gives the same inputs, and
every round has the same make-up, so the mix is the same in every run.

Each round holds exactly two operations of the slowest kind and the tail
percentile leaves one operation per round beyond it (see `tail_quantile`):
op_tail_ms then sits in the middle of that kind, not on the edge between it
and the next kind down.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from binres import cli
from binres.coeff_matrix import build_c
from binres.det_factor import factor_determinant
from binres.errors import DependentFormsError
from binres.frames import cyclic_orders
from binres.inverse_system import (
    ann_generator_counts,
    builtin_dual,
    catalecticant_hilbert,
    hess2_vanishing_order,
    hess_det_eval,
)
from binres.normal_form import to_normal_form
from binres.oracle import ModularContext, det_mod, ideal_dim, membership_batch, quotient_dim
from binres.polynomials import RATIONAL, XPoly, monomials
from binres.resultant import resultant, resultant_eval
from binres.rewrite import hilbert_function, reduce, rewrite_table
from binres.systems import cyclic_system, make_system, parse, parse_x_polynomial

import checks

OUT = Path(__file__).resolve().parent / "out"

# primes for specializations: with every numerator and denominator a distinct
# prime, no binomial factor a_part +- b_part can vanish (unique factorization),
# so every Delta_lambda is nonzero and each specialization is a complete
# intersection by construction
PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    data: dict = field(default_factory=dict)


def _rng(seed: int, *salt: int) -> random.Random:
    return random.Random("/".join(map(str, (seed,) + salt)))


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


def _is_cyclic(pattern) -> bool:
    n = len(pattern)
    return cyclic_system(n, pattern[0]).pattern() == tuple(pattern)


def _rotate(pattern, shift: int) -> tuple:
    """The pattern with every index i relabeled i + shift (mod n)."""
    n = len(pattern)
    out: list = [None] * n
    for i, (j, k) in enumerate(pattern):
        out[(i + shift) % n] = tuple(sorted(((j - 1 + shift) % n + 1, (k - 1 + shift) % n + 1)))
    return tuple(out)


class Catalogue:
    """Cofactor patterns that do not depend on --seed, drawn in a fixed order
    and pairwise distinct even up to cyclic relabeling.

    The cost of a symbolic resultant varies by up to 2x from one pattern to
    the next at n = 7, and a run holds only a few dozen patterns of a size;
    patterns drawn from --seed would make every metric depend on the seed.
    So every run takes the same patterns in the same order, and --seed draws
    a cyclic relabeling of each (which changes the input but not the work),
    the specialization values, the polynomials and the modular points.
    """

    def __init__(self, tag: str, cyclic: bool = True):
        self.tag = tag
        self.cyclic = cyclic          # whether cyclic patterns may appear
        self._items: dict[int, list] = {}
        self._seen: dict[int, set] = {}
        self._rng: dict[int, random.Random] = {}

    def pattern(self, n: int, k: int, rng: random.Random) -> tuple:
        """The k-th pattern at size n, relabeled by a shift drawn from rng."""
        items = self._items.setdefault(n, [])
        seen = self._seen.setdefault(n, set())
        source = self._rng.setdefault(n, random.Random(f"catalogue/{self.tag}/{n}"))
        while len(items) <= k:
            pattern = tuple(source.choice(_pairs(n)) for _ in range(n))
            key = min(_rotate(pattern, s) for s in range(n))
            if key not in seen and (self.cyclic or not _is_cyclic(pattern)):
                seen.add(key)
                items.append(pattern)
        return _rotate(items[k], rng.randrange(n))


def _generic_values(n: int, rng: random.Random) -> dict[str, Fraction]:
    ps = rng.sample(PRIMES[:40], 4 * n)
    values = {}
    for i in range(n):
        values[f"a{i + 1}"] = Fraction(ps[4 * i], ps[4 * i + 1])
        values[f"b{i + 1}"] = Fraction(rng.choice((-1, 1)) * ps[4 * i + 2], ps[4 * i + 3])
    return values


def _poly_text(n: int, lam: int, rng: random.Random) -> str:
    """A seeded homogeneous polynomial of degree lam with 1-3 terms, at least
    one of them not square-free."""
    monos = monomials(n, lam)
    while True:
        chosen = rng.sample(monos, rng.randint(1, 3))
        if any(max(m) >= 2 for m in chosen):
            break
    terms = []
    for m in chosen:
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
        terms.append(f"{coeff} " + " ".join(factors))
    return " + ".join(terms)


# every run completes at least this many rounds, so the tail quantile below
# keeps at least ten samples beyond it however fast or slow the program is
MIN_ROUNDS = 10


def tail_quantile(ops_per_round: int) -> float:
    """The quantile with one operation per round beyond it: with MIN_ROUNDS
    rounds per run, the highest that keeps ten samples beyond it."""
    return 1.0 - 1.0 / ops_per_round


def _normal_form(text: str, seed: int):
    space = parse(text)
    return space, to_normal_form(space, seed=seed)


# ====================================================================== resultant_symbolic

def run_cli(argv: list[str]) -> tuple[int, str]:
    """`binres <argv>` in this process; returns the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class ResultantSymbolic:
    """`binres resultant --json <file>` on symbolic systems at n = 6 and 7.

    A round is four systems at n = 6 and two at n = 7.  Two of the n = 6
    systems are cyclic, cyclic_system(6, (j, k)), taking all 15 first
    cofactors in turn, so every run covers the whole family; the other four
    have non-cyclic patterns from the Catalogue.  The two n = 7 operations
    are the slowest kind.  (Cyclic systems at n = 7 vary by up to 1.7x in
    cost from one first cofactor to the next, and a run holds too few of
    them to cover the family of 21.)
    """

    name = "resultant_symbolic"
    ROUND = ((6, True), (6, False), (6, True), (6, False), (7, False), (7, False))

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dir = OUT / f"{self.name}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.catalogue = Catalogue(self.name, cyclic=False)
        self.cyclic = random.Random(f"catalogue/{self.name}/cyclic").sample(_pairs(6), 15)

    def _system(self, r: int, slot: int, n: int, cyclic: bool, rng: random.Random):
        """The system in `slot` of round r: the next of its kind in turn."""
        per_round = sum(1 for kind in self.ROUND if kind == (n, cyclic))
        k = r * per_round + sum(1 for kind in self.ROUND[:slot] if kind == (n, cyclic))
        if cyclic:
            return cyclic_system(n, self.cyclic[k % len(self.cyclic)])
        return make_system(n, self.catalogue.pattern(n, k, rng))

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 1, r)
        ops = []
        for slot, (n, cyclic) in enumerate(self.ROUND):
            system = self._system(r, slot, n, cyclic, rng)
            path = self.dir / f"round{r}-{slot}.json"
            path.write_text(json.dumps(system.to_json_dict()), encoding="utf-8")
            argv = ["resultant", "--json", str(path)]
            ops.append(Op(f"n{n}_{'cyclic' if cyclic else 'noncyclic'}",
                          lambda argv=argv: run_cli(argv),
                          {"system": system, "order": rng.randrange(n),
                           "point": rng.randrange(1 << 30)}))
        return ops

    def check_round(self, ops: list[Op], results: list) -> list:
        out = []
        for op, (code, text) in zip(ops, results):
            system = op.data["system"]
            n = system.n
            if code != 0:
                out.append(f"exit code {code}")
                continue
            payload = json.loads(text)
            problem = checks.check_resultant_json(n, payload)
            if problem is None:
                order = cyclic_orders(n)[op.data["order"]]
                matrix = build_c(system, n + 1, order)
                delta = factor_determinant(matrix)
                ctx = ModularContext.random(n, op.data["point"])
                problem = (checks.check_det_mod(delta, matrix, ctx)
                           or checks.check_divides(
                               checks.factored_from_json(n, payload["resultant"]), delta))
            out.append(problem)
        return out


# ====================================================================== specialized_queries

class SpecializedQueries:
    """Queries on specialized complete intersections, parsed from text inside
    each operation.

    Every round takes new cofactor patterns from the Catalogue (never seen
    earlier in the run): two each at n = 4, 5, 6 and one at n = 7, each
    specialized three times.
    Per specialization: resultant_eval and hilbert_function (n <= 6), and
    two `reduce` of seeded polynomials in every degree 2..n+1.  One n = 4
    pattern also gets a degenerate specialization (a1 = 0): resultant_eval
    and hilbert_function, which falls back to the oracle.  The dual queries
    run on F and G on and off the locus 1 + p1...p5 = 0, and two quadratic
    spaces (n = 4, 5) are put in normal form.

    Cache hits are fixed by this make-up.  Per round, _cached_resultant and
    _symbolic_chain each see 6 misses and 13 hits (first specialization of
    each n <= 6 pattern misses); _cached_table sees 111 misses and 111 hits
    (the second reduce in each degree hits).  The two cold resultant_eval
    at n = 6 are the slowest kind.
    """

    name = "specialized_queries"
    PATTERNS = {4: 2, 5: 2, 6: 2, 7: 1}
    SPECS = 3

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.catalogue = Catalogue(self.name)

    def _system_ops(self, r: int, rng: random.Random) -> list[Op]:
        ops = []
        for n, count in self.PATTERNS.items():
            for k in range(count):
                system = make_system(n, self.catalogue.pattern(n, r * count + k, rng))
                specs = [system.specialize(_generic_values(n, rng)) for _ in range(self.SPECS)]
                for s, spec in enumerate(specs):
                    text = json.dumps(spec.to_json_dict())
                    data = {"spec": spec, "generic": True, "sample": s == 0,
                            "oracle": n == 4 and k == 0 and s == 0}
                    if n <= 6:
                        ops.append(Op(f"resultant_eval_n{n}",
                                      lambda t=text: resultant_eval(parse(t)), data))
                        ops.append(Op(f"hilbert_n{n}",
                                      lambda t=text: hilbert_function(parse(t)), data))
                    for lam in range(2, n + 2):
                        for _ in range(2):
                            poly = _poly_text(n, lam, rng)
                            ops.append(Op(f"reduce_n{n}", self._reduce_op(text, poly, n),
                                          dict(data, lam=lam)))
                if n == 4 and k == 0:
                    values = _generic_values(n, rng)
                    values["a1"] = Fraction(0)
                    text = json.dumps(system.specialize(values).to_json_dict())
                    data = {"spec": system.specialize(values), "generic": False,
                            "oracle": True}
                    ops.append(Op("resultant_eval_degenerate",
                                  lambda t=text: resultant_eval(parse(t)), data))
                    ops.append(Op("hilbert_degenerate",
                                  lambda t=text: hilbert_function(parse(t)), data))
        return ops

    @staticmethod
    def _reduce_op(text: str, poly: str, n: int):
        def run():
            f = parse_x_polynomial(poly, n)
            return f, reduce(parse(text), f)
        return run

    @staticmethod
    def _dual_ops(rng: random.Random) -> list[Op]:
        def sample_p(on_locus: bool) -> list[Fraction]:
            p = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
            prod = p[0] * p[1] * p[2] * p[3]
            if on_locus:
                return p + [-1 / prod]
            while True:
                last = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                if prod * last != -1:
                    return p + [last]

        def point() -> list[Fraction]:
            return [Fraction(rng.randint(1, 97), rng.randint(1, 13)) for _ in range(5)]

        def text(values) -> str:
            return ",".join(str(v) for v in values)

        def fracs(t: str) -> list[Fraction]:
            return [Fraction(v) for v in t.split(",")]

        ops = []
        for which in ("F", "G"):
            for on in (False, True):
                p = text(sample_p(on))
                ops.append(Op(f"dual_hilbert_{which}",
                              lambda w=which, p=p: catalecticant_hilbert(builtin_dual(w, fracs(p))),
                              {"which": which, "on": on}))
        for on in (False, True):
            p = text(sample_p(on))
            ops.append(Op("ann_gens_F",
                          lambda p=p: ann_generator_counts(builtin_dual("F", fracs(p))),
                          {"on": on}))
        for on in (False, True):
            p, x = text(sample_p(on)), text(point())
            ops.append(Op("hess_det_G",
                          lambda p=p, x=x: hess_det_eval(builtin_dual("G", fracs(p)), 2, fracs(x)),
                          {"on": on}))
        for which in ("F", "G"):
            p14, x = text(sample_p(False)[:4]), text(point())
            ops.append(Op(f"hess2_order_{which}",
                          lambda w=which, p=p14, x=x: hess2_vanishing_order(w, fracs(p), fracs(x)),
                          {"which": which}))
        return ops

    @staticmethod
    def _normal_form_ops(r: int, rng: random.Random) -> list[Op]:
        ops = []
        for n in (4, 5):
            while True:
                lines = []
                for i in range(1, n + 1):
                    terms = []
                    for m in monomials(n, 2):
                        c = rng.randint(-5, 5)
                        if c:
                            xs = " ".join(f"x{j + 1}" + ("^2" if e == 2 else "")
                                          for j, e in enumerate(m) if e)
                            terms.append(f"{c} {xs}")
                    lines.append(f"g{i} = " + " + ".join(terms or ["1 x1^2"]))
                text = "\n".join(lines)
                try:
                    parse(text)
                except DependentFormsError:
                    continue
                break
            ops.append(Op(f"normal_form_n{n}", lambda t=text: _normal_form(t, r)))
        return ops

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 2, r)
        return self._system_ops(r, rng) + self._dual_ops(rng) + self._normal_form_ops(r, rng)

    def check_round(self, ops: list[Op], results: list) -> list:
        out: list = [None] * len(ops)
        groups: dict = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            kind, d = op.kind, op.data
            if kind.startswith("resultant_eval"):
                problem = None if (res != 0) == d["generic"] else f"resultant value {res}"
                if problem is None and d["oracle"]:
                    problem = checks.check_ci_equivalence(d["spec"].n, res, quotient_dim(d["spec"]))
                out[i] = problem
            elif kind.startswith("hilbert"):
                out[i] = checks.check_hilbert(d["spec"], res, d["generic"], d["oracle"])
            elif kind.startswith("reduce"):
                f, reduced = res
                out[i] = checks.check_squarefree(reduced)
                # membership on a sample whose span elimination stays cheap
                if d["sample"] and (d["lam"] <= 4 or d["spec"].n == 4):
                    groups.setdefault((id(d["spec"]), d["lam"]), []).append((i, f, reduced))
            elif kind.startswith("dual_hilbert"):
                out[i] = checks.check_dual_hilbert(d["which"], d["on"], res)
            elif kind == "ann_gens_F":
                out[i] = checks.check_ann_gens(d["on"], res)
            elif kind == "hess_det_G":
                out[i] = checks.check_hess_det(d["on"], res)
            elif kind.startswith("hess2_order"):
                out[i] = checks.check_hess2_order(d["which"], res)
            elif kind.startswith("normal_form"):
                space, result = res
                out[i] = checks.check_normal_form(space, result)
        for (_, lam), members in groups.items():
            spec = ops[members[0][0]].data["spec"]
            verdicts = checks.check_reductions(spec, lam, [(f, r) for _, f, r in members])
            for (i, _, _), problem in zip(members, verdicts):
                out[i] = out[i] or problem
        return out


# ====================================================================== oracle_verify

class OracleVerify:
    """The cross-checks of `binres selftest` and acceptance criteria 5-6.

    Set-up draws pools of inputs, with patterns from the Catalogue and
    values from --seed: systems at n = 5, 6, 7 whose
    C(lambda), lambda = n and n+1, it factors; complete intersections at
    n = 4, 5 whose rewrite tables it builds; and degenerate specializations
    (a1 = 0, or a rational root of one binomial factor of the resultant).
    Every round then takes the next inputs from each pool: det_mod on
    factored matrices at new seeded points (POINTS per round), and
    membership_batch on the tails of two tables at each n = 4, 5 (degrees
    2..n+1); quotient_dim at n = 4 on two complete intersections, one a1 = 0
    and one factor-root specialization; ideal_dim at n = 5 on a complete
    intersection (degrees 2..6) and an a1 = 0 specialization (degrees 2..4).
    The two membership batches at n = 5, degree 6 are the slowest kind.
    """

    name = "oracle_verify"
    # det_mod evaluations per round; the eight at n = 6, lambda = 7 put the
    # round's median in the middle of that kind
    POINTS = {(5, 5): 2, (5, 6): 2, (6, 6): 2, (6, 7): 8, (7, 7): 4, (7, 8): 4}
    SYSTEMS = {5: 4, 6: 8, 7: 4}       # factored systems per n
    CI = {4: 4, 5: 8}                  # complete intersections with tables, per n
    DEGENERATE = 4                     # degenerate specializations per kind

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(seed, 3)
        catalogue = Catalogue(self.name)
        drawn: dict[int, int] = {}

        def pattern(n: int) -> tuple:
            drawn[n] = drawn.get(n, -1) + 1
            return catalogue.pattern(n, drawn[n], rng)

        self.factored: dict = {}
        for n, count in self.SYSTEMS.items():
            for _ in range(count):
                system = make_system(n, pattern(n))
                order = rng.choice(cyclic_orders(n))
                for lam in (n, n + 1):
                    matrix = build_c(system, lam, order)
                    self.factored.setdefault((n, lam), []).append((matrix, factor_determinant(matrix)))
        self.ci: dict = {}
        for n, count in self.CI.items():
            for _ in range(count):
                spec = make_system(n, pattern(n)).specialize(_generic_values(n, rng))
                tails = []
                for lam in range(2, n + 2):
                    table = rewrite_table(spec, lam)
                    tails.append((lam, [XPoly(n, RATIONAL, {w: Fraction(1)}) - table.tail(w)
                                        for w in sorted(table.tails)]))
                self.ci.setdefault(n, []).append((spec, tails))
        self.zero_a1 = {n: [self._degenerate(n, pattern, rng, kill_factor=False)
                            for _ in range(self.DEGENERATE)] for n in (4, 5)}
        self.on_factor = [self._degenerate(4, pattern, rng, kill_factor=True)
                          for _ in range(self.DEGENERATE)]

    @staticmethod
    def _degenerate(n: int, pattern, rng: random.Random, kill_factor: bool):
        """A specialization with zero resultant: a1 = 0, or a rational root of
        one binomial factor of the resultant."""
        while True:
            system = make_system(n, pattern(n))
            values = _generic_values(n, rng)
            if not kill_factor:
                values["a1"] = Fraction(0)
                return system.specialize(values)
            for factor, _ in resultant(system).factors:
                a_side = factor.a_part
                pos = next((q for q, e in enumerate(a_side)
                            if e == 1 and not factor.b_part[q]), None)
                if pos is None:
                    continue
                names = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
                rest = Fraction(1)
                for q, e in enumerate(a_side):
                    if q != pos and e:
                        rest *= values[names[q]] ** e
                other = Fraction(1)
                for q, e in enumerate(factor.b_part):
                    if e:
                        other *= values[names[q]] ** e
                # a_part + sign * b_part = 0 with the a_part parameter solved for
                values[names[pos]] = -factor.sign * other / rest
                return system.specialize(values)

    @staticmethod
    def _take(pool: list, r: int, count: int) -> list:
        """Round r's `count` items, taken from the pool in turn."""
        return [pool[(r * count + i) % len(pool)] for i in range(count)]

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 4, r)
        ops = []
        for (n, lam), count in self.POINTS.items():
            for matrix, fp in self._take(self.factored[n, lam], r, count):
                ctx = ModularContext.random(n, rng.randrange(1 << 30))
                ops.append(Op(f"det_mod_n{n}_l{lam}", lambda m=matrix, c=ctx: det_mod(m, c),
                              {"matrix": matrix, "fp": fp, "ctx": ctx}))
        for n in (4, 5):
            for spec, tails in self._take(self.ci[n], r, 2):
                for lam, diffs in tails:
                    ops.append(Op(f"membership_n{n}_l{lam}",
                                  lambda s=spec, l=lam, d=diffs: membership_batch(s, l, d)))
        quotients = ([(spec, True) for spec, _ in self._take(self.ci[4], r, 2)]
                     + [(self._take(self.zero_a1[4], r, 1)[0], False),
                        (self._take(self.on_factor, r, 1)[0], False)])
        for spec, ci in quotients:
            ops.append(Op("quotient_dim_n4", lambda s=spec: quotient_dim(s), {"ci": ci}))
        ranks = ((self._take(self.ci[5], r, 1)[0][0], True, 6),
                 (self._take(self.zero_a1[5], r, 1)[0], False, 4))
        for spec, ci, top in ranks:
            for lam in range(2, top + 1):
                ops.append(Op(f"ideal_dim_n5_l{lam}", lambda s=spec, l=lam: ideal_dim(s, l),
                              {"spec": spec, "lam": lam, "ci": ci}))
        return ops

    def check_round(self, ops: list[Op], results: list) -> list:
        out = []
        for op, res in zip(ops, results):
            d = op.data
            if op.kind.startswith("det_mod"):
                out.append(checks.check_det_mod(d["fp"], d["matrix"], d["ctx"], value=res))
            elif op.kind.startswith("membership"):
                out.append(checks.check_membership(res))
            elif op.kind.startswith("quotient_dim"):
                out.append(checks.check_quotient(4, d["ci"], res))
            else:
                # exact rank on a sample: degrees <= 3, and the degenerate spans
                exact = d["lam"] <= 3 or not d["ci"]
                out.append(checks.check_ideal_dim(d["spec"], d["lam"], res, d["ci"], exact))
        return out


WORKLOADS = {w.name: w for w in (ResultantSymbolic, SpecializedQueries, OracleVerify)}
