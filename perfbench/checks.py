"""Correctness checks run on each operation's result, outside the timed phase.

Every check compares against a computation made apart from the code under
test, or against a property the method must have; none compares against a
stored copy of an earlier output.  Each returns None when the result passes
and a one-line reason when it does not.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from binres.det_factor import BinomialFactor, FactoredPoly
from binres.linalg import frac_rank
from binres.oracle import ModularContext, det_mod, ideal_dim, membership_batch, span_rows
from binres.polynomials import RATIONAL, XPoly, is_squarefree


# ------------------------------------------------------------ resultants

def factored_from_json(n: int, doc: dict) -> FactoredPoly:
    """Rebuild the FactoredPoly printed by `binres resultant --json`."""
    def mono(part):
        return tuple(part["a"]) + tuple(part["b"])

    if doc["zero"]:
        return FactoredPoly.zero_poly(n)
    factors = {BinomialFactor(n, mono(f["first"]), mono(f["second"]), f["sign"]): f["multiplicity"]
               for f in doc["factors"]}
    return FactoredPoly(n, doc["sign"], mono(doc["monomial"]), factors)


def check_resultant_json(n: int, payload: dict) -> "str | None":
    """Degree law n*2^(n-1), counted from the factor list, and a pure-a
    term with coefficient +1."""
    doc = payload["resultant"]
    if doc["zero"]:
        return "resultant is zero"
    want = n * 2 ** (n - 1)
    degree = sum(doc["monomial"]["a"]) + sum(doc["monomial"]["b"])
    for f in doc["factors"]:
        first = sum(f["first"]["a"]) + sum(f["first"]["b"])
        second = sum(f["second"]["a"]) + sum(f["second"]["b"])
        degree += f["multiplicity"] * max(first, second)
    if degree != want or payload["total_degree"] != want:
        return f"degree {degree} (reported {payload['total_degree']}), law gives {want}"
    if any(doc["monomial"]["b"]):
        return "monomial part is not pure in a"
    coeff = doc["sign"]
    for f in doc["factors"]:
        if not any(f["first"]["b"]):
            side = 1
        elif not any(f["second"]["b"]):
            side = f["sign"]
        else:
            return "binomial factor without a pure-a side"
        coeff *= side ** f["multiplicity"]
    if coeff != 1:
        return f"pure-a term has coefficient {coeff}"
    return None


def check_divides(f: FactoredPoly, g: FactoredPoly) -> "str | None":
    """f divides g atom by atom (both are canonical factorizations)."""
    if any(ef > eg for ef, eg in zip(f.monomial, g.monomial)):
        return "monomial part does not divide"
    gmult = dict(g.factors)
    for fac, mult in f.factors:
        if gmult.get(fac, 0) < mult:
            return f"factor {fac}^{mult} does not divide"
    return None


def check_det_mod(fp: FactoredPoly, matrix, ctx: ModularContext,
                  value: "int | None" = None) -> "str | None":
    """The factorization evaluated mod p equals the modular determinant."""
    if value is None:
        value = det_mod(matrix, ctx)
    avals, bvals = ctx.residue_vectors(fp.n)
    if fp.eval_mod(avals, bvals, ctx.prime) != value:
        return "factored determinant disagrees with det_mod"
    return None


# ------------------------------------------------------------ specialized queries

def binomial_row(n: int) -> tuple[int, ...]:
    return tuple(comb(n, k) for k in range(n + 1))


def oracle_hilbert(spec, degrees: int) -> tuple[int, ...]:
    """Hilbert function of R/I in degrees 0..degrees-1, by oracle ranks."""
    n = spec.n
    return tuple(comb(n + lam - 1, lam) - ideal_dim(spec, lam) for lam in range(degrees))


def check_hilbert(spec, hf, generic: bool, against_oracle: bool) -> "str | None":
    """A generic specialization has the binomial row; on a sample the values
    (and the zero just past them) match the oracle."""
    n = spec.n
    hf = tuple(hf)
    if generic and hf != binomial_row(n):
        return f"hilbert {hf} is not the binomial row"
    if against_oracle:
        want = oracle_hilbert(spec, len(hf) + (1 if generic else 0))
        if hf + ((0,) if generic else ()) != want:
            return f"hilbert {hf} disagrees with oracle {want}"
    return None


def check_ci_equivalence(n: int, value, quotient) -> "str | None":
    """resultant_eval != 0 exactly when the quotient has dimension 2^n."""
    if (value != 0) != (quotient == 2 ** n):
        return f"resultant value {value} but quotient dimension {quotient}"
    return None


def check_squarefree(reduced: XPoly) -> "str | None":
    bad = [m for m in reduced.terms if not is_squarefree(m)]
    return f"reduced form keeps {len(bad)} non-square-free terms" if bad else None


def check_reductions(spec, lam: int, pairs) -> "list[str | None]":
    """f - reduce(f) lies in the ideal, for every (f, reduced) pair of degree lam."""
    diffs = [f - r for f, r in pairs]
    member = membership_batch(spec, lam, diffs)
    return [None if ok else "f - reduce(f) is not in the ideal" for ok in member]


def substitute(form: XPoly, change) -> XPoly:
    """A quadric with x_i replaced by sum_j change[i][j] x_j."""
    n = form.n
    out: dict = {}
    for m, c in form.terms.items():
        idx = [i for i, e in enumerate(m) for _ in range(e)]
        a, b = idx
        for j, u in enumerate(change[a]):
            for k, v in enumerate(change[b]):
                if u and v:
                    mono = [0] * n
                    mono[j] += 1
                    mono[k] += 1
                    key = tuple(mono)
                    out[key] = out.get(key, Fraction(0)) + Fraction(c) * u * v
    return XPoly(n, RATIONAL, out)


def check_normal_form(space, result) -> "str | None":
    """Forms read x_i^2 + (square-free part) and span the same space as the
    input forms after the recorded change of variables."""
    n = space.n
    forms = list(result.forms)
    for i, f in enumerate(forms):
        for j in range(n):
            sq = tuple(2 if t == j else 0 for t in range(n))
            if f.coefficient(sq) != (1 if i == j else 0):
                return f"form {i + 1} is not x_{i + 1}^2 + square-free"
    subst = [substitute(f, result.change_of_variables) for f in space.forms]
    basis = sorted({m for f in forms + subst for m in f.terms})

    def rows(fs):
        return [[Fraction(f.coefficient(m)) for m in basis] for f in fs]

    if not frac_rank(rows(forms)) == frac_rank(rows(subst)) == frac_rank(rows(forms + subst)) == n:
        return "normal form does not span the substituted input"
    return None


# ------------------------------------------------------------ inverse systems

FULL = (1, 5, 10, 10, 5, 1)
DEGENERATE = (1, 5, 5, 5, 5, 1)


def check_dual_hilbert(which: str, on_locus: bool, hf) -> "str | None":
    want = DEGENERATE if (which == "G" and on_locus) else FULL
    return None if tuple(hf) == want else f"{which} hilbert {tuple(hf)}, expected {want}"


def check_ann_gens(on_locus: bool, counts) -> "str | None":
    want = 7 if on_locus else 5
    total = sum(counts)
    return None if total == want else f"F has {total} annihilator generators, expected {want}"


def check_hess_det(on_locus: bool, value) -> "str | None":
    if on_locus and value != 0:
        return "hess^2(G) is nonzero on the locus"
    if not on_locus and value == 0:
        return "hess^2(G) vanishes off the locus"
    return None


def check_hess2_order(which: str, order: int) -> "str | None":
    if which == "G" and order < 5:
        return f"hess^2(G) vanishes to order {order} < 5"
    if which == "F" and order != 0:
        return f"hess^2(F) vanishes to order {order}, expected 0"
    return None


# ------------------------------------------------------------ oracle

def check_membership(flags) -> "str | None":
    missing = sum(1 for ok in flags if not ok)
    return f"{missing} rewrite tails are not members" if missing else None


def check_quotient(n: int, ci: bool, quotient) -> "str | None":
    if ci and quotient != 2 ** n:
        return f"complete intersection has quotient dimension {quotient}"
    if not ci and quotient == 2 ** n:
        return "degenerate specialization has quotient dimension 2^n"
    return None


def check_ideal_dim(spec, lam: int, dim: int, ci: bool, exact: bool) -> "str | None":
    """On a complete intersection dim I_lam = dim R_lam - C(n, lam); on a
    sample the modular rank equals the exact rational rank."""
    n = spec.n
    if ci and dim != comb(n + lam - 1, lam) - comb(n, lam):
        return f"dim I_{lam} = {dim} breaks the square-free basis count"
    if exact:
        rows, _ = span_rows(spec, lam)
        want = frac_rank([[Fraction(v) for v in row] for row in rows])
        if dim != want:
            return f"int_rank {dim} disagrees with frac_rank {want}"
    return None
