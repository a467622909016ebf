"""Exact integration over weighted simplices, the per-family contributions
to the leading Euler characteristic of the jet bundles in dimensions 3 and 4,
the second-cohomology majorant, and integer positivity thresholds via exact
root isolation.

All determinant integrals reduce to a single power of the weight m times an
exact rational; five Chern slots assemble these into polynomials in the
hypersurface degree d.  Every slot determinant det(ell_j^(e_i)) is an
alternant in the linear forms ell_1..ell_n, expanded once per dimension as
{exponent vector: +-1} (`schur.alternant`), and `_integrate` integrates it
with the vertex generating function of Baldoni, Berline, De Loera, Koeppe
and Vergne, "How to integrate a polynomial over a simplex" (Math. Comp. 80,
2011): one layered integer recurrence over the exponent vectors below the
needed ones, then one integer sum and one division per slot.  The tests
check it against an independent oracle, the iterated antiderivative.
The h^2 majorant is a combination of the dimension-3 slot totals, and the
Schur-bundle leading term evaluates the same alternants at integer points.
Sturm chains are built on integer coefficients by primitive
pseudo-remainders, so each sign the root isolation takes is an integer
Horner sum.
No floating point enters any decision path; float approximations of roots
are provided for display only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .degpoly import DegreePolynomial, Scalar
from .schur import FamilySpec, alternant, chern_hypersurface, chi_slots, enumerate_families


# ---------------------------------------------------------------------------
# exact simplex integration: the moment recurrence
# ---------------------------------------------------------------------------


Expansion = Dict[Tuple[int, ...], Scalar]


def _integrate(expansions: Dict[str, Expansion], forms: Sequence[Sequence[int]],
               weights: Sequence[int],
               needed: Optional[Tuple[Tuple[int, ...], ...]] = None) -> Dict[str, Fraction]:
    """Top-m coefficient of the simplex integral of each expansion in the forms.

    Form i is the list of integer coefficients (of m, then of x_1..x_k) of
    ell_i = c_0 m + sum c_j x_j, the simplex is {sum w_j x_j <= m, x >= 0},
    and an expansion {a: c} stands for sum c prod ell_i^(a_i).  By Baldoni,
    Berline, De Loera, Koeppe and Vergne, "How to integrate a polynomial over
    a simplex" (Math. Comp. 80, 2011), the integral of prod ell_i^(a_i) is
    m^(|a|+k) times

        a! / ((|a|+k)! prod w_j) * [t^a] prod_v 1 / (1 - sum_i t_i ell_i(v))

    over the vertices v = 0, e_j / w_j of the m = 1 simplex.  The vertex
    values are scaled to integers by W = lcm(w_j), so [t^a] is h[a] / W^|a|
    for the integers of the recurrence h[a] += sum_i W ell_i(v) h[a - e_i],
    applied one vertex at a time and layer by layer in |a|.  An expansion's
    terms c h[a] a! are summed on integers over the denominator of the
    largest |a|, one Fraction per expansion.  `needed`, the sorted exponent
    vectors of all the expansions, may be passed in cached.
    """
    k = len(weights)
    for w in weights:
        if not isinstance(w, int) or w <= 0:
            raise ValueError(f"simplex weight {w!r} is not a positive integer")
    for form in forms:
        if len(form) != k + 1:
            raise ValueError("each form needs a coefficient of m and one per variable")
        for c in form:
            if not isinstance(c, int):
                raise ValueError(f"form coefficient {c!r} is not an integer")
    if needed is None:
        needed = tuple(sorted({a for coeffs in expansions.values() for a in coeffs}))
    cells, index, groups = _down_closure(needed, len(forms))
    scale = lcm(*weights)
    vertices = [[scale * f[0] for f in forms]]
    for j, w in enumerate(weights, start=1):
        vertices.append([scale * f[0] + scale // w * f[j] for f in forms])

    h = [0] * cells
    h[0] = 1
    for values in vertices:
        for i, pairs in groups:
            v = values[i]
            if v:
                for n, j in pairs:
                    h[n] += v * h[j]

    # each needed moment's numerator over the one denominator of the largest |a|
    top = max((size for _, size, _ in index.values()), default=0)
    lift = [factorial(top + k) // factorial(size + k) * scale ** (top - size)
            for size in range(top + 1)]
    moments = {a: h[n] * fact * lift[size] for a, (n, size, fact) in index.items()}
    den = factorial(top + k) * prod(weights) * scale ** top
    return {name: Fraction(sum(c * moments[a] for a, c in coeffs.items()), den)
            for name, coeffs in expansions.items()}


@lru_cache(maxsize=16)
def _down_closure(needed: Tuple[Tuple[int, ...], ...], rank: int):
    """The exponent vectors of length `rank` below some member of `needed`,
    numbered layer by layer in |a| from the zero vector's 0: their count,
    (number, |a|, a!) for each needed a, and the recurrence's groups (form i,
    [(number of a, number of a - e_i)]) in layer order, so that each layer
    reads only the one below it.  A vector is coded as the integer with its
    exponents as digits in radix 1 + the largest needed exponent."""
    if any(len(a) != rank or min(a, default=0) < 0 for a in needed):
        raise ValueError("each exponent vector needs one nonnegative exponent per form")
    radix = 1 + max((e for a in needed for e in a), default=0)
    unit = [radix ** i for i in range(rank)]
    layers: List[set] = [{0}] + [set() for _ in range(max(map(sum, needed), default=0))]
    for a in needed:
        layers[sum(a)].add(sum(e * u for e, u in zip(a, unit)))
    for size in range(len(layers) - 1, 0, -1):
        layers[size - 1].update(c - u for c in layers[size] for u in unit if c // u % radix)
    number = {c: n for n, c in enumerate(c for layer in layers for c in layer)}
    groups = [(i, pairs) for layer in layers[1:] for i, u in enumerate(unit)
              if (pairs := [(number[c], number[c - u]) for c in layer if c // u % radix])]
    index = {a: (number[sum(e * u for e, u in zip(a, unit))], sum(a), prod(map(factorial, a)))
             for a in needed}
    return len(number), index, groups


# ---------------------------------------------------------------------------
# family contributions
# ---------------------------------------------------------------------------


def reversal_sign(n: int) -> int:
    """Sign relating ascending-row determinants to the theorem's descending rows.

    Reversing n rows is a permutation with n(n-1)/2 inversions, so the sign
    is -1 for n = 2, 3 (mod 4) and +1 for n = 0, 1 (mod 4).
    """
    return -1 if (n * (n - 1) // 2) % 2 else 1


@dataclass
class FamilyContribution:
    family: str
    multiplicity: int
    slots: Dict[str, Fraction]  # slot name -> coefficient of m^top


@lru_cache(maxsize=None)
def _abstract_slot_determinants(n: int) -> Dict[str, Expansion]:
    """Each slot determinant det(ell_j ^ e_i), with the exponent rows in
    ascending order, as {exponent vector of ell_1..ell_n: +-1} (cached).

    The ascending rows match the printed golden integrals; `assemble_chi`
    multiplies by `reversal_sign(n)` to reach the descending rows of the
    expansion theorem.
    """
    return {slot.name: alternant(sorted(slot.exponents)) for slot in chi_slots(n)}


@lru_cache(maxsize=None)
def _slot_exponents(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The exponent vectors of the dimension-n slot determinants, sorted (cached)."""
    return tuple(sorted({a for e in _abstract_slot_determinants(n).values() for a in e}))


def _family_forms(family: FamilySpec, n: int) -> Tuple[List[List[int]], List[int]]:
    """ell_1..ell_n as integer forms over m and the free letters, and the weights.

    o is eliminated by the weight, o = m - sum w_x x; for n = 3, p = 0 and the
    fourth index is dropped.
    """
    letters = [x for x in family.free if x != "o" and not (n == 3 and x == "p")]
    o = family.counts["o"] if "o" in family.free else (0,) * n
    forms = [[o[i]] + [family.counts[x][i] - o[i] * family.weights[x] for x in letters]
             for i in range(n)]
    return forms, [family.weights[x] for x in letters]


def family_contribution(family: FamilySpec, n: int = 4) -> FamilyContribution:
    """The m^top coefficients of the slot determinant integrals for a family.

    For n = 4 the five 4x4 determinant slots integrate over the six free
    exponents to m^16 times a rational; for n = 3 (p = 0, fourth index
    dropped) the three 3x3 slots give m^11.
    """
    forms, weights = _family_forms(family, n)
    slots = _integrate(_abstract_slot_determinants(n), forms, weights, _slot_exponents(n))
    return FamilyContribution(family.id, family.multiplicity, slots)


def family_contributions(families: Sequence[FamilySpec],
                         n: int = 4) -> List[FamilyContribution]:
    """Per-family contributions, in family order."""
    return [family_contribution(f, n) for f in families]


def slot_totals(contributions: Iterable[FamilyContribution]) -> Dict[str, Fraction]:
    """Multiplicity-weighted totals of per-family slot coefficients."""
    totals: Dict[str, Fraction] = {}
    for contrib in contributions:
        for name, val in contrib.slots.items():
            totals[name] = totals.get(name, Fraction(0)) + contrib.multiplicity * val
    return totals


# ---------------------------------------------------------------------------
# leading Euler characteristics in dimensions 4 and 3
# ---------------------------------------------------------------------------


def assemble_chi(coeffs: Dict[str, Scalar], n: int,
                 dual: bool = True) -> DegreePolynomial:
    """Pair slot coefficients with integrated Giambelli combinations."""
    cs = chern_hypersurface(n)
    acc = DegreePolynomial()
    for slot in chi_slots(n):
        c = coeffs.get(slot.name, Fraction(0))
        if c:
            acc = acc + cs.integrate_combo(slot.combo, dual=dual) * Fraction(c, slot.denominator)
    return acc * reversal_sign(n)


def e43_slot_totals(families: Optional[List[FamilySpec]] = None) -> Dict[str, Fraction]:
    """The dimension-3 slot totals, which chi(E43) and the h^2 majorant both read."""
    families = families if families is not None else enumerate_families()
    return slot_totals(family_contributions(families, 3))


def chi_e43_leading(totals: Dict[str, Fraction]) -> DegreePolynomial:
    """Coefficient of m^11 in chi of the dimension-3 order-4 jet bundle, from
    the `e43_slot_totals`."""
    return assemble_chi(totals, 3)


H2_FACTOR = Fraction(3, 2)


def h2_majorant_coefficient(totals: Dict[str, Fraction]) -> Fraction:
    """Sum over the families of the integrated h^2 bound kernel.

    The imported per-bundle bound is d(d+13) * (3/2)(l1+l2+l3)^3 *
    (l1-l2)(l1-l3)(l2-l3) + lower order; the returned rational is the m^11
    coefficient multiplying d(d+13).  By the bialternant formula and Pieri's
    rule, (l1+l2+l3)^3 times the Vandermonde product is -(D015 + 2 D024 +
    D123) in the ascending slot determinants, so the kernel integrates to
    that combination of the dimension-3 slot totals, the `e43_slot_totals`.
    """
    return -H2_FACTOR * (totals["015"] + 2 * totals["024"] + totals["123"])


def h0_minorant(chi43: DegreePolynomial, h2_coefficient: Fraction) -> DegreePolynomial:
    """The section minorant chi - h^2 majorant, from the two ingredients."""
    d = DegreePolynomial.d()
    return chi43 - h2_coefficient * d * (d + 13)


def h0_minorant_e43(families: Optional[List[FamilySpec]] = None) -> DegreePolynomial:
    totals = e43_slot_totals(families)
    return h0_minorant(chi_e43_leading(totals), h2_majorant_coefficient(totals))


def chi_rousseau_e33() -> DegreePolynomial:
    """Leading coefficient of chi for the dimension-3 order-3 jet bundle.

    Sums the Schur slots over the classical decomposition indexed by
    a + 3b + 5c + 6e = m with indices (a+b+2c+e, b+c+e, e).
    """
    # over (m, b, c, e) with a = m - 3b - 5c - 6e eliminated
    forms = [[1, -2, -3, -5],  # a + b + 2c + e
             [0, 1, 1, 1],     # b + c + e
             [0, 0, 0, 1]]     # e
    return assemble_chi(_integrate(_abstract_slot_determinants(3), forms, [3, 5, 6],
                                   _slot_exponents(3)), 3)


def chi_schur_leading(ell: Sequence[int], dual: bool = True) -> DegreePolynomial:
    """Coefficient polynomial of the leading order of chi(X, Schur(ell) bundle).

    Sums, over the partitions of n = len(ell), the integrated Giambelli
    coefficient times the slot determinant at ell'_i = ell_i + n - i, the
    ascending-row alternant evaluated at that integer point; `assemble_chi`'s
    reversal sign turns it into the descending-row determinant.  `dual`
    computes the cotangent twist, which multiplies by (-1)^n.
    """
    n = len(ell)
    point = [e + n - i for i, e in enumerate(ell, start=1)]
    values = {name: sum(c * prod(x ** e for x, e in zip(point, a)) for a, c in coeffs.items())
              for name, coeffs in _abstract_slot_determinants(n).items()}
    return assemble_chi(values, n, dual)


# ---------------------------------------------------------------------------
# integer positivity thresholds (exact root isolation)
# ---------------------------------------------------------------------------


class NonPositiveLeading(Exception):
    pass


def _primitive(q: Sequence[int]) -> Tuple[int, ...]:
    """q divided by its positive content."""
    g = gcd(*q)
    return tuple(c // g for c in q)


def _derivative(q: Sequence[int]) -> Tuple[int, ...]:
    return tuple(c * k for c, k in zip(q, range(len(q) - 1, 0, -1)))


def _pseudo_divmod(a: Sequence[int],
                   b: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(q, r) with |lc(b)|^(deg a - deg b + 1) a = q b + r and deg r < deg b,
    for deg a >= deg b.

    The scale is positive, so r is a positive multiple of the rational
    remainder of a by b; lc(b)^delta would flip it when lc(b) < 0 and delta
    is odd."""
    s, sg = abs(b[0]), (b[0] > 0) - (b[0] < 0)
    r, q = list(a), []
    steps = len(a) - len(b) + 1
    for i in range(steps):
        c = r[i] * sg
        q = [x * s for x in q] + [c]
        r = [x * s for x in r]
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    r = r[steps:]
    while r and not r[0]:
        r.pop(0)
    return tuple(q), tuple(r)


def _sturm_chain(p: Sequence[int]) -> List[Tuple[int, ...]]:
    """Sturm chain of the square-free part of p, which heads the chain.

    Integer coefficients, highest first, built by primitive pseudo-remainders
    (Collins 1967, Brown 1971): each member is a positive multiple of the
    classical rational member, so every sign count is the same."""
    a, b = _primitive(p), _primitive(_derivative(p))
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    if len(a) > 1:
        p = _pseudo_divmod(p, a)[0]
    chain = [_primitive(p), _primitive(_derivative(p))]
    while chain[-1]:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(tuple(-c for c in _primitive(rem)))
    return [q for q in chain if q]


def _integer_coeffs(q: DegreePolynomial) -> Tuple[int, ...]:
    """The coefficients of q, highest first, times the lcm of their
    denominators; the positive factor keeps the sign of q at every point."""
    scale = lcm(*(c.denominator for c in q.coeffs))
    return tuple(int(c * scale) for c in reversed(q.coeffs))


def _sign(q: Sequence[int], u: int, w: int) -> int:
    """Sign of q at u / w (w > 0): the homogeneous Horner sum of c_k u^k w^(n-k)."""
    acc, wk = 0, 1
    for c in q:
        acc = acc * u + c * wk
        wk *= w
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: List[Tuple[int, ...]], u: int, w: int = 1) -> int:
    signs = [s for s in (_sign(q, u, w) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_count(chain: List[Tuple[int, ...]], lo: int, hi: int) -> int:
    """Distinct real roots in (lo, hi] of the head of an integer Sturm chain."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_bound(q: Sequence[int]) -> int:
    """An integer above every |root| of q (integer coefficients, highest first)."""
    return 2 + max(abs(c) for c in q) // abs(q[0])


def positivity_threshold(p: DegreePolynomial) -> int:
    """Least integer D with p(x) > 0 for every integer x >= D.

    Requires a positive leading coefficient.  When p has no real roots (or
    is positive at every integer) the floor of the least real root bound is
    returned, which satisfies the contract vacuously.
    """
    if not p or p.coeffs[-1] <= 0:
        raise NonPositiveLeading("positivity threshold needs a positive leading coefficient")
    if p.degree == 0:
        return 0
    ints = _integer_coeffs(p)
    chain = _sturm_chain(ints)
    bound = cauchy_bound(ints)
    lo, hi = -bound - 1, bound
    if _root_count(chain, lo, hi) == 0:
        return -bound
    # bisect for the integer ceiling of the largest real root
    a, b = lo, hi
    while b - a > 1:
        mid = (a + b) // 2
        if _root_count(chain, mid, hi) >= 1:
            a = mid
        else:
            b = mid
    # scan down for the largest integer with p <= 0; stop once no roots remain
    cand = None
    for x in range(b, -bound - 2, -1):
        if _sign(ints, x, 1) <= 0:
            cand = x
            break
        if _root_count(chain, lo, x) == 0:
            break
    if cand is None:
        return -bound
    D = cand + 1
    if not p(D) > 0 >= p(D - 1):
        raise AssertionError(f"threshold {D} disagrees with the signs of p at {D} and {D - 1}")
    return D


# isolating interval width at which real_roots_approx reports a root
_ROOT_WIDTH = Fraction(1, 10 ** 6)


def real_roots_approx(p: DegreePolynomial) -> List[float]:
    """Float approximations of the distinct real roots (display only).

    Bisects (-B - 1, B] by Sturm counts until each root sits alone in an
    interval narrower than _ROOT_WIDTH and prints the midpoint.  Points
    are integer numerators over a common power-of-two denominator w; once an
    interval holds exactly one root, the sign of the square-free head picks
    the half that keeps it.
    """
    chain = _sturm_chain(_integer_coeffs(p))
    bound = cauchy_bound(chain[0])
    roots = []
    stack = [(-bound - 1, bound, 1, _sign_changes(chain, -bound - 1),
              _sign_changes(chain, bound))]
    while stack:
        a, b, w, va, vb = stack.pop()
        if va - vb == 1:
            # the root is in (a, mid] iff head(mid) is 0 or has the sign of head
            # at this first b (0 when that b is the root itself)
            sb = _sign(chain[0], b, w)
            while (b - a) * _ROOT_WIDTH.denominator >= w * _ROOT_WIDTH.numerator:
                mid, a, b, w = a + b, 2 * a, 2 * b, 2 * w
                if _sign(chain[0], mid, w) in (0, sb):
                    b = mid
                else:
                    a = mid
            roots.append((a + b) / (2 * w))
        elif va > vb:
            vm = _sign_changes(chain, a + b, 2 * w)
            stack += [(2 * a, a + b, 2 * w, va, vm), (a + b, 2 * b, 2 * w, vm, vb)]
    return sorted(roots)


# ---------------------------------------------------------------------------
# golden assembly: numerators over the printed common denominators
# ---------------------------------------------------------------------------


def scaled_numerator(p: DegreePolynomial, denominator: int) -> List[int]:
    """Integer coefficients of denominator * p, exact or raises."""
    out = []
    for c in p.coeffs:
        v = c * denominator
        if v.denominator != 1:
            raise ValueError(f"denominator {denominator} does not clear {c}")
        out.append(int(v))
    return out
