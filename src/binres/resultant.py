"""Delta chains and the resultant of a binomial system.

Delta_lambda is the factored determinant of C(lambda), read off the cycles of
the frame pairing's successor map (`frames.successor_walks`) without building
the matrix.  The resultant is the GCD of the n determinants
Delta_{n+1}^sigma taken over the n cyclic index orders; on canonical
factorizations the GCD is the atom-wise multiset intersection together with
the entry-wise minimum on the monomial part.  The result is normalized so the
pure-a term has coefficient +1.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .det_factor import BinomialFactor, FactoredPoly, circuit_factor
from .errors import DegenerateSystemError, InternalCheckError, ModeMismatchError, ValidationError
from .frames import check_order, cyclic_orders, paired_count, successor_walks
from .polynomials import SYMBOLIC, normalize_assignment
from .systems import BinomialSystem

from dataclasses import dataclass

_ORACLE_PRIME = (1 << 62) - 57  # shared with the verification oracle
_DIVIDES_TRIALS = 40  # modular samples per missing atom in divides


@dataclass(frozen=True)
class DeltaChain:
    order: tuple[int, ...]
    deltas: tuple[FactoredPoly, ...]  # Delta_2 .. Delta_{n+1}

    def delta(self, lam: int) -> FactoredPoly:
        return self.deltas[lam - 2]


def _require_symbolic(system: BinomialSystem) -> None:
    if system.mode != SYMBOLIC:
        raise ModeMismatchError("this operation needs a symbolic system; "
                                "use resultant_eval for specialized ones")


def delta(system: BinomialSystem, lam: int, order=None) -> FactoredPoly:
    """Factored Delta_lambda = det C(lambda) for one index order.

    Every node of the successor map off a cycle contributes its a_j, every
    cycle of length r the factor prod a + (-1)^(r-1) prod b (`circuit_factor`).
    Equal to factor_determinant(build_c(system, lam, order)).
    """
    _require_symbolic(system)
    if lam < 2:
        raise ValidationError("coefficient matrices need lambda >= 2")
    n = system.n
    order = check_order(n, system.order if order is None else order)
    paired = [0] * n  # nodes paired with each generator, then off-cycle only
    for g, j in enumerate(order):
        paired[j - 1] = paired_count(n, lam, g)
    factors: dict[BinomialFactor, int] = {}
    for _, gens, _, loop in successor_walks(n, lam, order, system.pattern()):
        if loop is None:
            continue
        cycle = gens[loop:]
        for j in cycle:
            paired[j - 1] -= 1
        factor = circuit_factor(n, cycle)
        factors[factor] = factors.get(factor, 0) + 1
    return FactoredPoly(n, 1, tuple(paired) + (0,) * n, factors)


def delta_chain(system: BinomialSystem, order=None) -> DeltaChain:
    """The chain Delta_2, ..., Delta_{n+1}; its invariants are re-checked."""
    _require_symbolic(system)
    n = system.n
    order = check_order(n, system.order if order is None else order)
    deltas = tuple(delta(system, lam, order) for lam in range(2, n + 2))
    if deltas[0] != FactoredPoly(n, 1, (1,) * n + (0,) * n, {}):
        raise InternalCheckError("Delta_2 is not a_1 * ... * a_n")
    for lam in range(2, n + 1):
        if not divides(radical(deltas[lam - 2]), radical(deltas[lam - 1])):
            raise InternalCheckError(f"sqrt(Delta_{lam}) does not divide sqrt(Delta_{lam + 1})")
    return DeltaChain(order, deltas)


def radical(f: FactoredPoly) -> FactoredPoly:
    """Clamp all exponents and multiplicities to 1; sign normalized to +1."""
    if f.is_zero():
        return f
    mono = tuple(min(e, 1) for e in f.monomial)
    factors = {fac: 1 for fac, _ in f.factors}
    return FactoredPoly(f.n, 1, mono, factors)


def _solvable_parameter(factor: BinomialFactor):
    """A position with exponent 1 in either part, for variety sampling."""
    for part in (factor.a_part, factor.b_part):
        for pos, e in enumerate(part):
            if e == 1:
                return pos, part
    return None


def sample_on_factor_variety(f: FactoredPoly, factor: BinomialFactor,
                             rng: random.Random) -> tuple[list[int], list[int]]:
    """Random point mod _ORACLE_PRIME where the given factor (hence f) vanishes.

    Solves for a parameter occurring with exponent 1; all other parameters
    are sampled nonzero.
    """
    n, p = f.n, _ORACLE_PRIME
    slot = _solvable_parameter(factor)
    if slot is None:
        raise ValidationError("no exponent-1 parameter to solve for in factor")
    pos, part = slot
    other = factor.b_part if part is factor.a_part else factor.a_part
    for _ in range(64):
        avals = [rng.randrange(1, p) for _ in range(n)]
        bvals = [rng.randrange(1, p) for _ in range(n)]
        vals = avals + bvals

        def eval_part(mono, skip=None):
            v = 1
            for q, e in enumerate(mono):
                if q == skip or not e:
                    continue
                v = v * pow(vals[q], e, p) % p
            return v

        # rest*x + s*other == 0 (or other + s*rest*x == 0); 1/s == s for s = +-1,
        # so both solve to x = -s * other / rest.
        rest = eval_part(part, skip=pos)
        if rest % p == 0:
            continue
        x = (-factor.sign * eval_part(other)) * pow(rest, -1, p) % p
        if x == 0:
            continue
        vals[pos] = x
        return vals[:n], vals[n:]
    raise DegenerateSystemError("could not sample a point on the factor variety")


def divides(f: FactoredPoly, g: FactoredPoly) -> bool:
    """Whether f divides g, by atom-wise multiplicity comparison.

    On an atom mismatch, falls back to modular evaluation on the missing
    atom's variety; only failures are certain there.
    """
    if g.is_zero():
        return True
    if f.is_zero():
        return False
    if any(ef > eg for ef, eg in zip(f.monomial, g.monomial)):
        return False
    gfac = g.factor_multiplicities()
    missing = [(fac, mult) for fac, mult in f.factors if gfac.get(fac, 0) < mult]
    if not missing:
        return True
    rng = random.Random(0)
    for fac, _ in missing:
        for _ in range(_DIVIDES_TRIALS):
            avals, bvals = sample_on_factor_variety(f, fac, rng)
            if g.eval_mod(avals, bvals, _ORACLE_PRIME) != 0:
                return False
    return True


def factored_gcd(polys: list[FactoredPoly]) -> FactoredPoly:
    """Atom-wise GCD of canonical factorizations, sign normalized to +1."""
    if not polys:
        raise ValidationError("gcd of nothing")
    nonzero = [f for f in polys if not f.is_zero()]  # gcd(0, g) = g
    if not nonzero:
        return FactoredPoly.zero_poly(polys[0].n)
    mono = list(nonzero[0].monomial)
    factors = nonzero[0].factor_multiplicities()
    for f in nonzero[1:]:
        mono = [min(a, b) for a, b in zip(mono, f.monomial)]
        other = f.factor_multiplicities()
        factors = {fac: min(m, other[fac]) for fac, m in factors.items() if fac in other}
    return FactoredPoly(nonzero[0].n, 1, tuple(mono), factors)


def resultant(system: BinomialSystem) -> FactoredPoly:
    """GCD of Delta_{n+1} over the n cyclic index orders, pure-a term +1."""
    _require_symbolic(system)
    lam = system.n + 1
    deltas = []
    for o in cyclic_orders(system.n):
        d = delta(system, lam, o)
        if d.is_zero():
            raise DegenerateSystemError(f"Delta_{lam} vanishes for order {o}")
        deltas.append(d)
    return factored_gcd(deltas)


@lru_cache(maxsize=256)
def _cached_resultant(symbolic_system: BinomialSystem) -> FactoredPoly:
    return resultant(symbolic_system)


def resultant_eval(system: BinomialSystem) -> Fraction:
    """Resultant of the symbolic twin, evaluated at this specialization."""
    if system.mode == SYMBOLIC:
        raise ValidationError("resultant_eval needs a specialized system")
    res = _cached_resultant(system.symbolic_twin())
    return res.specialize(normalize_assignment(system.assignment()))
