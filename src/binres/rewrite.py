"""Square-free basis rewriting for specialized complete intersections.

Every generator row reads a_j*(m*x_j^2) + b_j*(m*m_j), so modulo the ideal a
non-square-free monomial w = m*x_j^2 rewrites to -(b_j/a_j) * (m*m_j), its
successor in the functional graph that `frames.successor_walks` traverses.
Following it, every monomial of degree 2..n+1 collapses to a rational
multiple of a single square-free monomial, or to 0 when it feeds a cycle whose
loop product is not 1.  A loop product of exactly 1 is precisely a vanishing
circuit factor of Delta_lambda = det C(lambda); that, and a vanishing a_j,
raise SingularCoeffMatrixError.

`reduce` reads invertibility from the symbolic Delta chain, cached per
cofactor pattern and order, and then walks only from its input's own
monomials.  `rewrite_table` resolves every monomial of one degree at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .errors import DegreeRangeError, ModeMismatchError, SingularCoeffMatrixError, ValidationError
from .frames import pairing_step, successor_walks
from .polynomials import RATIONAL, Mono, XPoly, is_squarefree
from .resultant import delta_chain
from .systems import BinomialSystem


@dataclass
class RewriteTable:
    """Square-free tails: w - tails[w] lies in the ideal's degree-lam piece."""

    system: BinomialSystem
    lam: int
    tails: dict[Mono, XPoly]

    def tail(self, w: Mono) -> XPoly:
        return self.tails[w]


def _resolve_all(system: BinomialSystem, lam: int) -> dict[Mono, tuple[Fraction, "Mono | None"]]:
    """Map every non-square-free degree-lam monomial to (coefficient, target).

    The target is a square-free monomial, or None when the monomial is
    congruent to 0.  Each walk of the successor map is folded backwards from
    its end.
    """
    coeff = {}
    for g in system.generators:
        if g.a == 0:
            raise SingularCoeffMatrixError(lam)
        coeff[g.square] = -g.b / g.a
    zero = (Fraction(0), None)
    memo: dict[Mono, tuple[Fraction, Mono | None]] = {}
    for path, gens, end, loop in successor_walks(system.n, lam, system.order, system.pattern()):
        if loop is None:
            # a square-free end is its own target; any other is on an earlier walk
            acc, target = memo.get(end, (Fraction(1), end))
        else:
            if prod(coeff[j] for j in gens[loop:]) == 1:
                raise SingularCoeffMatrixError(lam)
            acc, target = zero
        for node, j in zip(reversed(path), reversed(gens)):
            acc *= coeff[j]
            memo[node] = (acc, target) if acc else zero
    return memo


def rewrite_table(system: BinomialSystem, lam: int) -> RewriteTable:
    """Tails for every non-square-free monomial of degree lam (2..n+1)."""
    if system.mode != RATIONAL:
        raise ValidationError("rewrite tables need a specialized system")
    if not 2 <= lam <= system.n + 1:
        raise DegreeRangeError(f"rewriting covers degrees 2..{system.n + 1}, got {lam}")
    # XPoly drops the zero coefficient of a (0, None) entry
    tails = {w: XPoly(system.n, RATIONAL, {target: coeff})
             for w, (coeff, target) in _resolve_all(system, lam).items()}
    return RewriteTable(system, lam, tails)


# nothing in src calls it; it stays while the benchmark tracer reads its
# cache_info() (ROADMAP "Stale benchmark layers")
@lru_cache(maxsize=128)
def _cached_table(system: BinomialSystem, lam: int) -> RewriteTable:
    return rewrite_table(system, lam)


def reduce(system: BinomialSystem, f: XPoly) -> XPoly:
    """Rewrite homogeneous f (degree <= n+1) as a square-free combination.

    The result r satisfies f - r in I; square-free inputs are fixed points.
    In degree lam >= 2, C(lam) must be invertible: every a_j is nonzero and
    Delta_lam does not vanish at the specialization.  Each non-square-free
    term then follows its own walk, gaining -b_j/a_j per step, to a
    square-free monomial; a walk that meets one of its own nodes feeds a
    cycle and is 0.  Degree n+1 has no square-free monomial, so there every
    f reduces to 0.
    """
    if f.mode != RATIONAL:
        raise ValidationError("reduce needs rational-mode input")
    if f.n != system.n:
        raise ModeMismatchError(f"reduce needs a polynomial in {system.n} variables, got {f.n}")
    if f.is_zero():
        return f
    if not f.is_homogeneous():
        raise DegreeRangeError("reduce needs homogeneous input")
    lam = f.degree()
    if lam > system.n + 1:
        raise DegreeRangeError(f"degree {lam} beyond the rewriting range 2..{system.n + 1}")
    if lam < 2:
        return f
    if system.mode != RATIONAL:
        raise ValidationError("reduce needs a specialized system")
    if any(g.a == 0 for g in system.generators):
        raise SingularCoeffMatrixError(lam)
    if _symbolic_chain(system.symbolic_twin()).delta(lam).vanishes_at(system.assignment()):
        raise SingularCoeffMatrixError(lam)
    if lam == system.n + 1:
        return XPoly(system.n, RATIONAL)
    coeff = {g.square: -g.b / g.a for g in system.generators}
    order, cofactors = system.order, system.pattern()
    out: dict = {}
    for m, c in f.terms.items():
        seen = set()
        while c and not is_squarefree(m):
            if m in seen:  # m lies on a cycle, whose loop product is not 1
                c = 0
                break
            seen.add(m)
            j, m = pairing_step(m, order, cofactors)
            c *= coeff[j]
        if c:
            out[m] = out[m] + c if m in out else c
    return XPoly(system.n, RATIONAL, out)


@lru_cache(maxsize=128)
def _symbolic_chain(symbolic_twin: BinomialSystem):
    return delta_chain(symbolic_twin)


def hilbert_function(system: BinomialSystem) -> tuple[int, ...]:
    """Hilbert function of R/I for a specialized system.

    The fast path reads Delta_{n+1} alone.  If it does not vanish, C(n+1) is
    invertible, so I_{n+1} = R_{n+1}: R/I is Artinian, a complete intersection
    whose Hilbert function is the binomial row (degrees 0..n).  `delta_chain`
    checks that radical(Delta_lambda) divides radical(Delta_{lambda+1}), so
    some Delta_lambda, lambda = 2..n+1, vanishes exactly when Delta_{n+1}
    does.  Otherwise falls back to oracle ranks over degrees 0..2n.
    """
    if system.mode != RATIONAL:
        raise ValidationError("hilbert_function needs a specialized system")
    n = system.n
    top = _symbolic_chain(system.symbolic_twin()).delta(n + 1)
    if not top.vanishes_at(system.assignment()):
        return tuple(comb(n, k) for k in range(n + 1))
    from .oracle import ideal_dim

    return tuple(comb(n + lam - 1, lam) - ideal_dim(system, lam)
                 for lam in range(0, 2 * n + 1))
