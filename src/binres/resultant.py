"""Delta chains and the resultant of a binomial system.

Delta_lambda is the factored determinant of C(lambda), read off the cycles of
the frame pairing's successor map (`frames.successor_walks`) without building
the matrix.  The resultant is the GCD of the n determinants
Delta_{n+1}^sigma taken over the n cyclic index orders; on canonical
factorizations the GCD is the atom-wise multiset intersection together with
the entry-wise minimum on the monomial part.  The result is normalized so the
pure-a term has coefficient +1.

That GCD, and `divides`, are exact because each factorization is unique:
every circuit factor prod a_j^c_j + s * prod b_j^c_j has gcd(c) = 1, hence
is irreducible over Q, and distinct ones are coprime.
`det_factor.BinomialFactor` checks this wherever a factor is built, by
`circuit_factor` or directly, and raises InternalCheckError otherwise.
`resultant` also checks the result's degree 2^(n-1) in each pair (a_i, b_i).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .det_factor import BinomialFactor, FactoredPoly, circuit_factor
from .errors import InternalCheckError, ModeMismatchError, ValidationError
from .frames import check_order, cyclic_orders, paired_count, successor_walks
from .polynomials import SYMBOLIC, normalize_assignment
from .systems import BinomialSystem

from dataclasses import dataclass


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
    mono = tuple(min(e, 1) for e in f.monomial)
    factors = {fac: 1 for fac, _ in f.factors}
    return FactoredPoly(f.n, 1, mono, factors)


def divides(f: FactoredPoly, g: FactoredPoly) -> bool:
    """Whether f divides g, by comparing the monomial part exponent-wise and
    the circuit factors' multiplicities.

    Exact because every circuit factor is irreducible and distinct ones are
    coprime, which `det_factor.BinomialFactor` checks whenever one is built.
    """
    gfac = g.factor_multiplicities()
    return (all(ef <= eg for ef, eg in zip(f.monomial, g.monomial))
            and all(gfac.get(fac, 0) >= mult for fac, mult in f.factors))


def factored_gcd(polys: list[FactoredPoly]) -> FactoredPoly:
    """Atom-wise GCD of canonical factorizations, sign normalized to +1.

    Exact for the same reason as `divides`: the factorizations are unique
    because `det_factor.BinomialFactor` refuses a possibly reducible factor.
    No FactoredPoly is zero, so no input needs the rule gcd(0, g) = g.
    """
    if not polys:
        raise ValidationError("gcd of nothing")
    mono = list(polys[0].monomial)
    factors = polys[0].factor_multiplicities()
    for f in polys[1:]:
        mono = [min(a, b) for a, b in zip(mono, f.monomial)]
        other = f.factor_multiplicities()
        factors = {fac: min(m, other[fac]) for fac, m in factors.items() if fac in other}
    return FactoredPoly(polys[0].n, 1, tuple(mono), factors)


def resultant(system: BinomialSystem) -> FactoredPoly:
    """GCD of Delta_{n+1} over the n cyclic index orders, pure-a term +1.

    It is never the zero polynomial: each Delta_{n+1} holds the term
    prod a_j with coefficient +1 (`det_factor.FactoredPoly`), so it is
    nonzero, and so is a GCD of nonzero polynomials.  The result is checked
    to have degree 2^(n-1) in each generator's coefficient pair (a_i, b_i),
    as the resultant of n quadrics must.
    """
    _require_symbolic(system)
    n = system.n
    res = factored_gcd([delta(system, n + 1, o) for o in cyclic_orders(n)])
    if res.pair_degrees() != (2 ** (n - 1),) * n:
        raise InternalCheckError(f"resultant has degrees {res.pair_degrees()} in the pairs "
                                 f"(a_i, b_i), not {2 ** (n - 1)} each")
    return res


@lru_cache(maxsize=256)
def _cached_resultant(symbolic_system: BinomialSystem) -> FactoredPoly:
    return resultant(symbolic_system)


def resultant_eval(system: BinomialSystem) -> Fraction:
    """Resultant of the symbolic twin, evaluated at this specialization."""
    if system.mode == SYMBOLIC:
        raise ValidationError("resultant_eval needs a specialized system")
    res = _cached_resultant(system.symbolic_twin())
    return res.specialize(normalize_assignment(system.assignment()))
