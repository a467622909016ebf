"""Buchberger-style Groebner machinery: reduced bases, normal forms,
relation ideals among named polynomials, and subalgebra membership.

Buchberger and normal forms run on the engine's one packed encoding,
packed with the monomial order (`polyring.Packing`): each monomial is one
`int` whose integer order is the monomial order, so a product is `+`, a
quotient `-`, a leading term `max` and divisibility a guard-bit test.
Inputs are packed once and results unpacked once.  Coefficients are
integers, fraction-free like the exact eliminator: basis elements are
primitive and only results become monic `Fraction`s.  Pending pairs wait in a
heap keyed by (sugar, lcm code, i, j), computed once, at insertion.  Budgets
count single reduction steps; exhausting one returns a partial result
flagged incomplete instead of raising.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .polyring import (
    Block,
    DegRevLex,
    Monomial,
    MonomialOrder,
    Packed,
    Packing,
    Polynomial,
    Variable,
    _packed_mul,
    clear_denominators,
    is_tag,
    mono_divides,
    packing_over,
    tag,
)

Exps = Tuple[int, ...]


class BudgetExceeded(Exception):
    """Internal signal; public entry points convert it into a flagged result."""


@dataclass
class Budget:
    steps: int = 10_000_000
    deadline: Optional[float] = None  # time.monotonic() stamp

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("budget must be positive")
        self.used = 0
        self._tick = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.steps:
            raise BudgetExceeded(f"reduction budget of {self.steps} steps exhausted")
        if self.deadline is not None:
            self._tick += 1
            if self._tick % 64 == 0:
                self.check_deadline()

    def check_deadline(self):
        """Read the clock now; for loops whose single steps can take seconds."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")


# A basis element on packed monomials: (terms, lead code, largest degree).
# The terms are integers; Buchberger keeps them primitive, lead positive.
Gen = Tuple[Dict[int, int], int, int]

# Buchberger's intermediate terms outgrow its inputs (up to about 3 times:
# degree 7 to 22 in `derive --n 3 --kappa 4 --mode bi`); the packing holds
# this many times the largest input degree and raises ValueError past it.
_DEGREE_HEADROOM = 16


def _content_out(a: Dict, b: Dict, lead=None) -> Tuple[Dict, Dict, int]:
    """(a/g, b/g, g) on integers, g the gcd of all values of a and b,
    negated when a[lead] < 0."""
    g = gcd(*a.values(), *b.values())
    if lead is not None and a[lead] < 0:
        g = -g
    if g in (0, 1):
        return a, b, 1
    return {k: c // g for k, c in a.items()}, {k: c // g for k, c in b.items()}, g


def _mul_into(acc: Dict[int, int], gen: Gen, shift: int, coeff: int, packing: Packing):
    """acc += coeff * shift * gen's terms; a monomial product is a code `+`."""
    d, _, top = gen
    if packing.degree(shift) + top > packing.limit:
        raise ValueError(f"a product of degree {packing.degree(shift) + top} overflows "
                         f"the packed fields (limit {packing.limit})")
    for md, c in d.items():
        m = md + shift
        s = acc.get(m)
        p = c * coeff
        if s is None:
            acc[m] = p
        else:
            s = s + p
            if s:
                acc[m] = s
            else:
                del acc[m]


def _reduce_full(p: Dict[int, int], basis: List[Gen], packing: Packing,
                 budget: Budget) -> Tuple[Dict[int, int], int, int]:
    """(rem, num, den): the remainder of the integer terms p modulo basis
    (no term divisible by any lead) is rem * den / num.

    A term c*m under a lead coefficient lc is cancelled by cross-multiplying
    (g = gcd(c, lc)): work and remainder are scaled by lc/g, (c/g) times
    the element subtracted, and the content taken out.  Each step is the
    rational step times a scalar, so the same terms meet the same elements.
    The remainder's terms arrive in decreasing order; its first is its lead.
    """
    guards = packing.guards
    rem: Dict[int, int] = {}
    work = dict(p)
    num = den = 1
    while work:
        m = max(work)
        mg = m | guards
        for gen in basis:
            lt = gen[1]
            if (mg - lt) & guards == guards:
                budget.spend(len(gen[0]))
                c = work[m]
                g = gcd(c, gen[0][lt])
                a = gen[0][lt] // g
                if a != 1:
                    work = {t: v * a for t, v in work.items()}
                    rem = {t: v * a for t, v in rem.items()}
                    num *= a
                # cancels the term at m exactly
                _mul_into(work, gen, m - lt, -(c // g), packing)
                if a != 1:
                    work, rem, g = _content_out(work, rem)
                    den *= g
                break
        else:
            rem[m] = work.pop(m)
    return rem, num, den


@dataclass
class GroebnerBasis:
    generators: List[Polynomial]
    order: MonomialOrder
    complete: bool = True
    steps_used: int = 0


def _buchberger_loop(polys: List[Dict[int, int]], packing: Packing,
                     budget: Budget) -> Tuple[List[Gen], bool]:
    """Core loop with the Buchberger product/chain criteria, sugar selection.

    Returns the basis and whether the loop completed.  Every pair's
    selection key (sugar, lcm code, i, j) is fixed once its two leads
    exist, so it is computed at insertion into a heap; the pending set
    `pairs` mirrors the heap for the chain criterion.  S-polynomials take
    the cofactors lc_j/g and lc_i/g, g = gcd(lc_i, lc_j).
    """
    degree, guards = packing.degree, packing.guards
    basis: List[Gen] = []
    sugars: List[int] = []
    pairs = set()
    heap = []

    def add_poly(d: Dict[int, int], lt: int, sugar: int):
        t = len(basis)
        d = _content_out(d, {}, lt)[0]
        basis.append((d, lt, max(map(degree, d))))
        sugars.append(sugar)
        deg_t = degree(lt)
        for i in range(t):
            li = basis[i][1]
            l = packing.lcm(li, lt)
            deg_l = degree(l)
            sugar_ij = max(sugars[i] + deg_l - degree(li), sugar + deg_l - deg_t)
            heapq.heappush(heap, (sugar_ij, l, i, t))
            pairs.add((i, t))

    for d in polys:
        add_poly(d, max(d), max(map(degree, d)))
    complete = True
    try:
        while heap:
            sugar, l, i, j = heapq.heappop(heap)
            pairs.discard((i, j))
            li, lj = basis[i][1], basis[j][1]
            # product criterion: coprime leads
            if degree(l) == degree(li) + degree(lj):
                continue
            # chain criterion
            lg = l | guards
            if any(k != i and k != j and (lg - basis[k][1]) & guards == guards
                   and (min(i, k), max(i, k)) not in pairs
                   and (min(j, k), max(j, k)) not in pairs
                   for k in range(len(basis))):
                continue
            lci, lcj = basis[i][0][li], basis[j][0][lj]
            g = gcd(lci, lcj)
            s: Dict[int, int] = {}  # the S-polynomial
            _mul_into(s, basis[i], l - li, lcj // g, packing)
            _mul_into(s, basis[j], l - lj, -(lci // g), packing)
            rem, _, _ = _reduce_full(s, basis, packing, budget)
            if rem:
                add_poly(rem, next(iter(rem)), sugar)
    except BudgetExceeded:
        complete = False
    return basis, complete


def _interreduce(basis: List[Gen], packing: Packing, budget: Budget) -> List[Packed]:
    """Minimal then fully reduced basis, sorted by lead, each generator over
    its lead coefficient (monic once unpacked).

    A kept generator's lead is divisible by no other kept lead, so it stays
    the lead of its remainder.
    """
    guards = packing.guards
    leads = [lt for _, lt, _ in basis]
    keep = [i for i, lt in enumerate(leads)
            if not any(j != i and ((lt | guards) - leads[j]) & guards == guards
                       and (leads[j] != lt or j < i) for j in range(len(basis)))]
    out = {}  # kept leads are distinct
    for i in keep:
        rem, _, _ = _reduce_full(basis[i][0], [basis[k] for k in keep if k != i],
                                 packing, budget)
        out[leads[i]] = rem[leads[i]], rem
    return [out[lt] for lt in sorted(out)]


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder,
               budget: Optional[Budget] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Deterministic given inputs and order.  On budget exhaustion the partial
    (unreduced) basis is returned with complete=False.  Raises ValueError
    when an intermediate term outgrows the packing.
    """
    budget = budget or Budget()
    polys = [g.terms for g in gens if g]
    packing = packing_over((m for d in polys for m in d), order, _DEGREE_HEADROOM)
    basis, complete = _buchberger_loop(
        [packing.pack_terms(d)[1] for d in polys], packing, budget)
    out = _interreduce(basis, packing, budget) if complete else \
        [(d[lt], d) for d, lt, _ in basis]
    return GroebnerBasis([packing.unpack(*monic) for monic in out], order,
                         complete=complete, steps_used=budget.used)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of p modulo the (reduced) basis.

    No program path calls it: it is the reference check the acceptance tests
    compare ideals with (a relation lies in an ideal when it reduces to 0).
    """
    polys = [g.terms for g in gb.generators]
    packing = packing_over((m for d in polys + [p.terms] for m in d), gb.order,
                           _DEGREE_HEADROOM)
    basis = [(d, max(d), max(map(packing.degree, d)))
             for d in (packing.pack_terms(g)[1] for g in polys)]
    p_den, p_num = packing.pack_terms(p.terms)
    rem, num, den = _reduce_full(p_num, basis, packing, Budget())
    # the remainder of p is rem * den / (num * p_den)
    return packing.unpack(num * p_den, {m: c * den for m, c in rem.items()})


# ---------------------------------------------------------------------------
# relation ideals (kernels of tag maps)
# ---------------------------------------------------------------------------


@dataclass
class RelationIdeal:
    """Relations among named polynomials: a basis in tag variables only."""

    tags: List[Variable]
    defining: Dict[Variable, Polynomial]
    basis: GroebnerBasis
    method: str = "elimination"
    complete: bool = True

    @property
    def relations(self) -> List[Polynomial]:
        return self.basis.generators

    def verify_vanishing(self) -> bool:
        """Each relation must be identically zero on the defining polynomials.

        A reference check for the tests; no program path calls it.
        """
        for rel in self.relations:
            if rel.substitute(self.defining):
                return False
        return True


def make_tags(named: Sequence[Tuple[str, int]]) -> List[Variable]:
    """Tag variables in listing order; earlier = more senior."""
    return [tag(name, weight=w, index=k) for k, (name, w) in enumerate(named)]


# random evaluation points tried by jacobian_rank_certificate
_JACOBIAN_TRIALS = 4
# steps relations_ideal risks on elimination before the graded kernel;
# elimination orders blow up quickly
_ELIMINATION_SLICE = 400_000


def jacobian_rank_certificate(polys: Sequence[Polynomial]) -> bool:
    """True when the polynomials are certified algebraically independent.

    Evaluates the Jacobian at random integer points; full rank at any point
    (all k rows become pivots of one `_IncrementalKernel`) certifies
    independence over the rationals (char 0).  False means only "no
    certificate found", but dependent inputs always return False.
    """
    import random

    variables = sorted({v for p in polys for v in p.variables()}, key=lambda v: v.key)
    if len(polys) > len(variables):
        return False
    column = {v: k for k, v in enumerate(variables)}
    cleared = [clear_denominators(p.terms) for p in polys]
    rng = random.Random(17)
    for _ in range(_JACOBIAN_TRIALS):
        point = {v: rng.randint(-40, 40) for v in variables}
        kernel = _IncrementalKernel()
        if all(kernel.offer(_gradient(p, point, column), r) is None
               for r, p in enumerate(cleared)):
            return True
    return False


def _gradient(p: Packed, point: Dict[Variable, int], column: Dict[Variable, int]) -> Packed:
    """The nonzero partial derivatives of p = (den, {monomial: numerator})
    at an integer point, keyed by column, in one pass over p's terms."""
    den, terms = p
    grad: Dict[int, int] = {}
    for m, c in terms.items():
        for k, (v, e) in enumerate(m):
            d = c * e * point[v] ** (e - 1) * prod(point[u] ** f for u, f in m[:k] + m[k + 1:])
            grad[column[v]] = grad.get(column[v], 0) + d
    return den, {col: g for col, g in grad.items() if g}


def relations_ideal(named: Sequence[Tuple[str, int, Polynomial]],
                    tag_order: Optional[MonomialOrder] = None,
                    budget: Optional[Budget] = None) -> RelationIdeal:
    """Groebner basis of the kernel of tags -> polynomials.

    Inputs must be weighted homogeneous of the stated weights.  One policy:

    - a Jacobian independence certificate returns the empty ideal;
    - else the textbook tag elimination runs on a slice of the budget
      (`_ELIMINATION_SLICE` steps) and, when it finishes, is complete;
    - else the graded kernel finds the relations weight by weight up to
      weight 2 max(w) + 2, flagged complete=False (it is blind above that).

    The caller's budget is charged the steps the slice spent, capped at the
    slice; its deadline holds throughout.  Every returned relation is
    weighted homogeneous in the tag weights.
    """
    budget = budget or Budget()
    tags, defining = _tagged(named)
    tag_order = tag_order or DegRevLex()
    if jacobian_rank_certificate([p for _, _, p in named]):
        empty = GroebnerBasis([], tag_order)
        return RelationIdeal(tags, defining, empty, method="jacobian-independence")
    trial = Budget(min(budget.steps, _ELIMINATION_SLICE), budget.deadline)
    result = _relations_by_elimination(tags, defining, tag_order, trial)
    budget.spend(min(trial.used, trial.steps))
    if result is not None:
        return result
    return _relations_by_graded_kernel(tags, defining, tag_order, budget)


def _tagged(named: Sequence[Tuple[str, int, Polynomial]]):
    """(tags, {tag: polynomial}), checking each declared weight."""
    tags = make_tags([(n, w) for n, w, _ in named])
    defining = {}
    for t, (n, w, p) in zip(tags, named):
        if p.is_zero():
            raise ValueError(f"{n}: defining polynomial is zero")
        got = p.weighted_degree()
        if got != w:
            raise ValueError(f"{n}: weighted degree {got} != declared {w}")
        defining[t] = p
    return tags, defining


def _relations_by_elimination(tags, defining, tag_order, budget) -> Optional[RelationIdeal]:
    front_vars = set()
    for p in defining.values():
        front_vars |= p.variables()
    front_vars -= set(tags)
    order = Block(front_vars, DegRevLex(), tag_order)
    gens = [Polynomial.variable(t) - p for t, p in defining.items()]
    gb = buchberger(gens, order, budget)
    if not gb.complete:
        return None
    only_tags = [g for g in gb.generators if all(is_tag(v) for v in g.variables())]
    tag_gb = buchberger(only_tags, tag_order, budget) if only_tags else \
        GroebnerBasis([], tag_order)
    return RelationIdeal(list(tags), dict(defining), tag_gb, method="elimination")


def weight_tuples(weights: Sequence[int], total: int) -> List[Exps]:
    """Exponent tuples a with sum a_i * weights_i == total, in lexicographic
    order: each prefix is extended by every exponent in turn, and the last
    exponent is forced."""
    if total < 0 or not weights:
        return [()] if total == 0 else []
    level = [((), total)]
    for w in weights[:-1]:
        level = [(head + (e,), left - e * w) for head, left in level
                 for e in range(left // w + 1)]
    w = weights[-1]
    return [head + (left // w,) for head, left in level if left % w == 0]


def _pool_variables(gens: Sequence[Polynomial]) -> set:
    """The generators' variables; ValueError on one that weighs below 1, as
    products are packed up to their weight, which must bound their degree."""
    variables = set().union(*(g.variables() for g in gens))
    if any(v.weight < 1 for v in variables):
        raise ValueError("a generator variable weighs less than 1")
    return variables


def _eliminate_products(gens: Sequence[Packed], tuples: Sequence[Exps],
                        budget: Budget) -> Tuple[_IncrementalKernel, List[Dict]]:
    """(eliminator, combinations): every product prod gens[i]^a_i, a in
    `tuples` in order, offered to one `_IncrementalKernel` under its tuple,
    and the combinations of the dependent ones, in order.

    The budget spends one step and reads the clock before each product.  A
    product is built from 1 one generator at a time, lowest index first,
    each step one `_packed_mul` with a generator packed once.  Only the
    steps of the last tuple are kept and their longest common start reused:
    in `weight_tuples` order the tuples through one such step are
    consecutive, so no product is built twice.
    """
    kernel = _IncrementalKernel()
    dependent = []
    path: List[Tuple[int, Packed]] = []  # (generator index, product so far)
    for a in tuples:
        budget.spend()
        budget.check_deadline()
        steps = [i for i, e in enumerate(a) for _ in range(e)]
        kept = 0
        while kept < min(len(path), len(steps)) and path[kept][0] == steps[kept]:
            kept += 1
        del path[kept:]
        den, num = path[-1][1] if path else (1, {0: 1})
        for i in steps[kept:]:
            gden, gnum = gens[i]
            den, num = den * gden, {k: c for k, c in _packed_mul(num, gnum).items() if c}
            path.append((i, (den, num)))
        combo = kernel.offer((den, num), a)
        if combo is not None:
            dependent.append(combo)
    return kernel, dependent


def _relations_by_graded_kernel(tags, defining, tag_order, budget) -> RelationIdeal:
    weights = [t.weight for t in tags]
    gens = [defining[t] for t in tags]
    top_weight = 2 * max(weights) + 2
    packing = Packing(_pool_variables(gens), top_weight)
    packed = [packing.pack_terms(g.terms) for g in gens]
    relations: List[Polynomial] = []
    current = GroebnerBasis([], tag_order)
    leads: List[Monomial] = []
    for mu in range(min(weights), top_weight + 1):
        tuples = [a for a in weight_tuples(weights, mu)
                  if not any(mono_divides(lt, _tag_monomial(tags, a)) for lt in leads)]
        if len(tuples) < 2:
            continue
        _, combos = _eliminate_products(packed, tuples, budget)
        if combos:
            relations.extend(_tag_polynomial(tags, c) for c in combos)
            current = buchberger(relations, tag_order, budget)
            leads = [tag_order.leading_monomial(r) for r in current.generators]
    return RelationIdeal(list(tags), dict(defining), current,
                         method="graded-kernel", complete=False)


def _tag_monomial(tags: Sequence[Variable], a: Exps) -> Monomial:
    """The tag monomial prod t_i^a_i.

    `tags` come from make_tags, so their listing order is their seniority
    order and the monomial is built already sorted.
    """
    return tuple((t, e) for t, e in zip(tags, a) if e)


def _tag_polynomial(tags: Sequence[Variable], combo: Dict[Exps, Fraction]) -> Polynomial:
    """The tag polynomial sum of c * prod t_i^a_i over {exponent tuple a: c}."""
    return Polynomial(_raw={_tag_monomial(tags, a): c for a, c in combo.items()})


class _IncrementalKernel:
    """Sparse column echelon with combination tracking: jetcalc's one exact
    eliminator (membership, the graded relation kernel, the Jacobian
    certificate and the invariant-dimension oracle).

    Columns are offered one at a time as `(den, {row: nonzero integer
    numerator})` (`polyring.Packed`) with `int` rows: packed codes of
    generator products, Jacobian column indices, or the dimension oracle's
    `K * code + k`.  A column that reduces to zero returns its combination
    {label: Fraction} over the offered labels, with coefficient 1 on the
    offered one, otherwise None (it became a new pivot).  An offer with
    `keep=False` is a query: it is reduced the same way, but a column that
    does not reduce to zero is dropped instead of stored.

    Stored columns and combinations are integer (primitive, positive pivot);
    a stored column holds only ints, so the garbage collector does not track
    it.  Clearing an entry f by a pivot entry pv scales by pv/g, subtracts
    f/g times the stored pair (g = gcd(f, pv)) and takes out the content.
    The pivot columns depend only on the order of the offers, and a
    dependent column's combination over them is unique, whatever the rows.

    Invariant: every stored column's pivot is its smallest row.  Subtracting
    the stored column at an offered column's smallest row then clears that
    row and touches only larger ones, so the smallest row rises at every
    step.  Pivoting on any other row (the first inserted, say) can bring
    cleared rows back and gives wrong counts or never ends.
    """

    def __init__(self):
        self.pivots: Dict = {}  # pivot row -> (column dict, combo dict)

    def offer(self, column: Packed, label, keep: bool = True) -> Optional[Dict]:
        den, col = column
        col = dict(col)  # reduced in place; the caller's dict stays as it was
        combo = {label: den}
        while col:
            row = min(col)
            hit = self.pivots.get(row)
            if hit is None:
                if keep:
                    self.pivots[row] = _content_out(col, combo, row)[:2]
                return None
            pcol, pcombo = hit
            f = col[row]
            g = gcd(f, pcol[row])
            a = pcol[row] // g
            if a != 1:
                col = {r: c * a for r, c in col.items()}
                combo = {l: c * a for l, c in combo.items()}
            _subtract(col, pcol, f // g)
            _subtract(combo, pcombo, f // g)
            if a != 1:
                col, combo, _ = _content_out(col, combo)
        k = combo[label]
        return {l: Fraction(c, k) for l, c in combo.items()}


def _subtract(acc: Dict, terms: Dict, f: int):
    """acc -= f * terms, on integers, for a nonzero f; zeros leave acc."""
    get = acc.get
    for r, c in terms.items():
        s = get(r, 0) - f * c
        if s:
            acc[r] = s
        else:
            del acc[r]


# ---------------------------------------------------------------------------
# subalgebra membership
# ---------------------------------------------------------------------------


@dataclass
class MembershipResult:
    member: bool
    expression: Optional[Polynomial] = None  # tag polynomial when member

    def __bool__(self):
        return self.member


class Subalgebra:
    """Membership in C[g_1, ..., g_k] for one pool of named generators.

    For weighted homogeneous data (our case throughout) membership is a
    finite exact linear problem: a representation can be taken homogeneous,
    so only generator products of the matching weight can contribute.  The
    first query of a weight builds that weight whole: the pool is packed up
    to max(w, weights) and every generator product of weight w offered, in
    `weight_tuples` order, to one `_IncrementalKernel` (`_eliminate_products`);
    the eliminator and the packing are kept for the pool's lifetime.  Each
    query is packed with that packing, reduced against the pivots and never
    stored.  A build cut short by the budget keeps nothing.  A query with a
    variable that no generator holds is not a member.
    """

    def __init__(self, named: Sequence[Tuple[str, Polynomial]]):
        self.weights = []
        for name, g in named:
            gw = g.weighted_degree()
            if gw is None:
                raise ValueError(f"{name}: generator not weighted homogeneous")
            self.weights.append(gw)
        self.tags = make_tags([(name, gw) for (name, _), gw in zip(named, self.weights)])
        self.gens = [g for _, g in named]
        self.variables = _pool_variables(self.gens)
        self._by_weight: Dict[int, Tuple[_IncrementalKernel, Packing]] = {}

    def member(self, p: Polynomial, budget: Optional[Budget] = None) -> MembershipResult:
        """Decide p in the algebra; on success return a tag representation."""
        budget = budget or Budget()
        if p.is_zero():
            return MembershipResult(True, Polynomial.zero())
        w = p.weighted_degree()
        if w is None:
            raise ValueError("membership test wants a weighted homogeneous input")
        if not p.variables() <= self.variables:
            return MembershipResult(False)
        kernel, packing = self._built(w, budget)
        query = object()
        combo = kernel.offer(packing.pack_terms(p.terms), query, keep=False)
        if combo is None:
            return MembershipResult(False)
        del combo[query]  # its coefficient is 1
        return MembershipResult(True, _tag_polynomial(self.tags,
                                                      {a: -c for a, c in combo.items()}))

    def _built(self, w: int, budget: Budget) -> Tuple[_IncrementalKernel, Packing]:
        """(eliminator of every product of weight w, packing of weight w)."""
        entry = self._by_weight.get(w)
        if entry is None:
            packing = Packing(self.variables, max([w] + self.weights))
            gens = [packing.pack_terms(g.terms) for g in self.gens]
            kernel, _ = _eliminate_products(gens, weight_tuples(self.weights, w), budget)
            entry = self._by_weight[w] = kernel, packing
        return entry


def subalgebra_membership(p: Polynomial,
                          named: Sequence[Tuple[str, Polynomial]],
                          budget: Optional[Budget] = None) -> MembershipResult:
    """Decide p in C[g_1, ..., g_k] once: `Subalgebra(named).member(p, budget)`."""
    return Subalgebra(named).member(p, budget)
