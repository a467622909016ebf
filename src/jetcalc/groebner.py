"""Buchberger-style Groebner machinery: reduced bases, normal forms,
relation ideals among named polynomials, and subalgebra membership.

Internally polynomials are flattened onto a fixed ring as dense exponent
tuples so order comparison is plain tuple comparison.  Budgets count
single reduction steps; exhausting one returns a partial result flagged
incomplete instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .jets import derivation
from .polyring import (
    Block,
    DegRevLex,
    Lex,
    MonomialOrder,
    Polynomial,
    PolyRing,
    Variable,
    is_tag,
    primitive_part,
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
                import time

                if time.monotonic() > self.deadline:
                    raise BudgetExceeded("time budget exhausted")


class DenseRing:
    """Polynomials as dicts {exponent tuple: Fraction} over ordered variables."""

    def __init__(self, variables: Sequence[Variable], order: MonomialOrder):
        self.variables = tuple(variables)
        self.index = {v: k for k, v in enumerate(self.variables)}
        self.n = len(self.variables)
        self.order = order
        self.key = self._make_key(order)

    def _make_key(self, order: MonomialOrder):
        n = self.n
        if isinstance(order, Lex):
            return lambda e: e
        if isinstance(order, DegRevLex):
            return lambda e: (sum(e), tuple(-x for x in reversed(e)))
        if isinstance(order, Block):
            front_mask = [v in order.front for v in self.variables]
            fidx = [i for i in range(n) if front_mask[i]]
            bidx = [i for i in range(n) if not front_mask[i]]
            fkey = self._inner_key(order.inner_front, fidx)
            bkey = self._inner_key(order.inner_back, bidx)
            return lambda e: (fkey(e), bkey(e))
        raise ValueError(f"unsupported order for dense ring: {order!r}")

    @staticmethod
    def _inner_key(order: MonomialOrder, idx: List[int]):
        if isinstance(order, Lex):
            return lambda e: tuple(e[i] for i in idx)
        if isinstance(order, DegRevLex):
            return lambda e: (sum(e[i] for i in idx), tuple(-e[i] for i in reversed(idx)))
        raise ValueError(f"unsupported inner order: {order!r}")

    def to_dense(self, p: Polynomial) -> Dict[Exps, Fraction]:
        out: Dict[Exps, Fraction] = {}
        for m, c in p.terms.items():
            row = [0] * self.n
            for v, e in m:
                k = self.index.get(v)
                if k is None:
                    raise KeyError(f"variable {v} not in ring")
                row[k] = e
            out[tuple(row)] = c
        return out

    def from_dense(self, d: Dict[Exps, Fraction]) -> Polynomial:
        terms = {}
        for e, c in d.items():
            mono = tuple((self.variables[i], e[i]) for i in range(self.n) if e[i])
            mono = tuple(sorted(mono, key=lambda pr: pr[0].key))
            terms[mono] = c
        return Polynomial(_raw=terms)

    def lead(self, d: Dict[Exps, Fraction]) -> Exps:
        return max(d, key=self.key)


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub(a: Exps, b: Exps) -> Exps:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


def _lcm(a: Exps, b: Exps) -> Exps:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mul_into(acc: Dict[Exps, Fraction], d: Dict[Exps, Fraction],
              shift: Exps, coeff: Fraction):
    for e, c in d.items():
        key = _add(e, shift)
        s = acc.get(key)
        p = c * coeff
        if s is None:
            acc[key] = p
        else:
            s = s + p
            if s:
                acc[key] = s
            else:
                del acc[key]


def _reduce_full(ring: DenseRing, p: Dict[Exps, Fraction],
                 basis: List[Dict[Exps, Fraction]], leads: List[Exps],
                 budget: Budget) -> Dict[Exps, Fraction]:
    """Remainder of p modulo basis: no remaining term divisible by any lead."""
    rem: Dict[Exps, Fraction] = {}
    work = dict(p)
    key = ring.key
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, lt in zip(basis, leads):
            if _divides(lt, e):
                budget.spend(len(g))
                shift = _sub(e, lt)
                coeff = -c / g[lt]
                _mul_into(work, g, shift, coeff)
                work[e] = work.get(e, Fraction(0)) + c
                if not work[e]:
                    del work[e]
                break
        else:
            rem[e] = c
    return rem


def _spoly(ring: DenseRing, f: Dict[Exps, Fraction], g: Dict[Exps, Fraction],
           ltf: Exps, ltg: Exps) -> Dict[Exps, Fraction]:
    l = _lcm(ltf, ltg)
    acc: Dict[Exps, Fraction] = {}
    _mul_into(acc, f, _sub(l, ltf), Fraction(1) / f[ltf])
    _mul_into(acc, g, _sub(l, ltg), Fraction(-1) / g[ltg])
    return acc


@dataclass
class GroebnerBasis:
    generators: List[Polynomial]
    order: MonomialOrder
    complete: bool = True
    steps_used: int = 0
    ring: Optional[DenseRing] = None

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def _buchberger_dense(ring: DenseRing, polys: List[Dict[Exps, Fraction]],
                      budget: Budget) -> Tuple[List[Dict[Exps, Fraction]], bool]:
    """Core loop with the Buchberger product/chain criteria, sugar selection."""
    basis: List[Dict[Exps, Fraction]] = []
    leads: List[Exps] = []
    sugars: List[int] = []

    def add_poly(d: Dict[Exps, Fraction], sugar: int):
        lt = ring.lead(d)
        lc = d[lt]
        if lc != 1:
            d = {e: c / lc for e, c in d.items()}
        basis.append(d)
        leads.append(lt)
        sugars.append(sugar)

    for d in polys:
        if d:
            add_poly(dict(d), max(sum(e) for e in d))

    pairs = set()

    def pair_sugar(i: int, j: int) -> int:
        l = _lcm(leads[i], leads[j])
        return max(sugars[i] + sum(_sub(l, leads[i])), sugars[j] + sum(_sub(l, leads[j])))

    for i in range(len(basis)):
        for j in range(i):
            pairs.add((j, i))

    complete = True
    try:
        while pairs:
            # sugar strategy: smallest sugar first, then smallest lcm
            best = min(pairs, key=lambda ij: (pair_sugar(*ij),
                                              ring.key(_lcm(leads[ij[0]], leads[ij[1]]))))
            i, j = best
            pairs.discard(best)
            li, lj = leads[i], leads[j]
            l = _lcm(li, lj)
            # product criterion
            if all(a + b == c for a, b, c in zip(li, lj, l)):
                continue
            # chain criterion
            skip = False
            for k in range(len(basis)):
                if k == i or k == j:
                    continue
                if _divides(leads[k], l):
                    a = (min(i, k), max(i, k))
                    b = (min(j, k), max(j, k))
                    if a not in pairs and b not in pairs:
                        skip = True
                        break
            if skip:
                continue
            s = _spoly(ring, basis[i], basis[j], li, lj)
            rem = _reduce_full(ring, s, basis, leads, budget)
            if rem:
                new_sugar = pair_sugar(i, j)
                add_poly(rem, new_sugar)
                t = len(basis) - 1
                for k in range(t):
                    pairs.add((k, t))
    except BudgetExceeded:
        complete = False
    return basis, complete


def _interreduce(ring: DenseRing, basis: List[Dict[Exps, Fraction]],
                 budget: Budget) -> List[Dict[Exps, Fraction]]:
    """Minimal then fully reduced basis, monic generators."""
    leads = [ring.lead(g) for g in basis]
    keep = []
    for i, lt in enumerate(leads):
        if not any(j != i and _divides(leads[j], lt)
                   and (leads[j] != lt or j < i) for j in range(len(basis))):
            keep.append(i)
    mins = [basis[i] for i in keep]
    out = []
    for i, g in enumerate(mins):
        others = [mins[j] for j in range(len(mins)) if j != i]
        olts = [ring.lead(h) for h in others]
        rem = _reduce_full(ring, g, others, olts, budget) if others else dict(g)
        if rem:
            lt = ring.lead(rem)
            lc = rem[lt]
            out.append({e: c / lc for e, c in rem.items()})
    out.sort(key=lambda g: ring.key(ring.lead(g)))
    return out


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder,
               budget: Optional[Budget] = None,
               ring: Optional[PolyRing] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Deterministic given inputs and order.  On budget exhaustion the partial
    (unreduced) basis is returned with complete=False.
    """
    budget = budget or Budget()
    gens = [g for g in gens if g]
    if not gens:
        return GroebnerBasis([], order)
    variables = set()
    for g in gens:
        variables |= g.variables()
    if ring is not None:
        for g in gens:
            ring.check(g)
        variables |= ring.var_set
    ordered = sorted(variables, key=lambda v: v.key)
    dring = DenseRing(ordered, order)
    dense = [dring.to_dense(g) for g in gens]
    basis, complete = _buchberger_dense(dring, dense, budget)
    if complete:
        basis = _interreduce(dring, basis, budget)
    polys = [dring.from_dense(g) for g in basis]
    return GroebnerBasis(polys, order, complete=complete,
                         steps_used=budget.used, ring=dring)


def normal_form(p: Polynomial, gb: GroebnerBasis,
                budget: Optional[Budget] = None) -> Polynomial:
    """The unique remainder of p modulo the (reduced) basis."""
    budget = budget or Budget()
    if not gb.generators:
        return p
    variables = set(gb.ring.variables) if gb.ring else set()
    variables |= p.variables()
    for g in gb.generators:
        variables |= g.variables()
    dring = DenseRing(sorted(variables, key=lambda v: v.key), gb.order)
    basis = [dring.to_dense(g) for g in gb.generators]
    leads = [dring.lead(g) for g in basis]
    rem = _reduce_full(dring, dring.to_dense(p), basis, leads, budget)
    return dring.from_dense(rem)


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
        """Each relation must be identically zero on the defining polynomials."""
        for rel in self.relations:
            if rel.substitute(self.defining):
                return False
        return True


def make_tags(named: Sequence[Tuple[str, int]]) -> List[Variable]:
    """Tag variables in listing order; earlier = more senior."""
    return [tag(name, weight=w, index=k) for k, (name, w) in enumerate(named)]


# random evaluation points tried by jacobian_rank_certificate
_JACOBIAN_TRIALS = 4


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
    rows = [[derivation(p, {v: Polynomial.constant(1)}) for v in variables]
            for p in polys]
    rng = random.Random(17)
    for _ in range(_JACOBIAN_TRIALS):
        point = {v: Polynomial.constant(rng.randint(-40, 40)) for v in variables}
        kernel = _IncrementalKernel()
        if all(kernel.offer(_evaluated_row(row, point), r) is None
               for r, row in enumerate(rows)):
            return True
    return False


def _evaluated_row(row: Sequence[Polynomial], point) -> Dict[int, Fraction]:
    """The nonzero values of a Jacobian row at a point, keyed by column."""
    out = {}
    for col, entry in enumerate(row):
        value = entry.substitute(point).constant_term()
        if value:
            out[col] = value
    return out


_ENGINES = ("auto", "elimination", "graded")


def relations_ideal(named: Sequence[Tuple[str, int, Polynomial]],
                    tag_order: Optional[MonomialOrder] = None,
                    budget: Optional[Budget] = None,
                    engine: str = "auto") -> RelationIdeal:
    """Groebner basis of the kernel of tags -> polynomials.

    Inputs must be weighted homogeneous of the stated weights.  Engines:

    - "elimination": the textbook tag-elimination construction (complete);
    - "graded": weight-by-weight linear algebra up to weight 2 max(w) + 2,
      returned with complete=False unless the ideal is empty (fast, but
      blind to relations above that weight);
    - "auto": a Jacobian independence certificate (empty ideal), then
      elimination on a bounded slice of the budget, then graded.

    Both the step count and the deadline of `budget` hold in every engine.
    Every returned relation is weighted homogeneous in the tag weights.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown relation engine {engine!r} "
                         f"(engines: {', '.join(_ENGINES)})")
    budget = budget or Budget()
    tags = make_tags([(n, w) for n, w, _ in named])
    defining = {}
    for t, (n, w, p) in zip(tags, named):
        if p.is_zero():
            raise ValueError(f"{n}: defining polynomial is zero")
        got = p.weighted_degree()
        if got != w:
            raise ValueError(f"{n}: weighted degree {got} != declared {w}")
        defining[t] = p
    tag_order = tag_order or DegRevLex()

    if engine == "auto" and jacobian_rank_certificate([p for _, _, p in named]):
        empty = GroebnerBasis([], tag_order)
        return RelationIdeal(tags, defining, empty, method="jacobian-independence")

    if engine in ("auto", "elimination"):
        # elimination orders blow up quickly; under "auto" only a bounded
        # slice of the main budget is risked before falling back
        trial = budget if engine == "elimination" else Budget(
            min(budget.steps, 400_000), budget.deadline)
        result = _relations_by_elimination(tags, defining, tag_order, trial)
        budget.spend(min(trial.used, trial.steps))
        if result is not None:
            return result
        if engine == "elimination":
            empty = GroebnerBasis([], tag_order, complete=False,
                                  steps_used=budget.used)
            return RelationIdeal(tags, defining, empty, method="elimination",
                                 complete=False)

    return _relations_by_graded_kernel(tags, defining, tag_order, budget)


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
    rid = RelationIdeal(list(tags), dict(defining), tag_gb, method="elimination")
    return rid


def weight_tuples(weights: Sequence[int], total: int) -> List[Exps]:
    """Exponent tuples a with sum a_i * weights_i == total."""
    out = []

    def rec(i: int, left: int, acc: List[int]):
        if i == len(weights):
            if left == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        top = left // w
        for e in range(top + 1):
            acc.append(e)
            rec(i + 1, left - e * w, acc)
            acc.pop()

    rec(0, total, [])
    return out


class _PowerCache:
    """Cached products of generator powers, built up incrementally."""

    def __init__(self, gens: List[Polynomial]):
        self.gens = gens
        self.cache: Dict[Exps, Polynomial] = {tuple([0] * len(gens)): Polynomial.constant(1)}

    def product(self, exps: Exps) -> Polynomial:
        got = self.cache.get(exps)
        if got is not None:
            return got
        for i in range(len(exps) - 1, -1, -1):
            if exps[i]:
                prev = list(exps)
                prev[i] -= 1
                base = self.product(tuple(prev))
                got = base * self.gens[i]
                break
        self.cache[exps] = got
        return got


def _relations_by_graded_kernel(tags, defining, tag_order, budget) -> RelationIdeal:
    weights = [t.weight for t in tags]
    gens = [defining[t] for t in tags]
    top_weight = 2 * max(weights) + 2
    powers = _PowerCache(gens)
    relations: List[Polynomial] = []
    current = GroebnerBasis([], tag_order)
    lead_vertices: List[Exps] = []

    def standard(a: Exps) -> bool:
        return not any(_divides(v, a) for v in lead_vertices)

    def vertex_of(rel: Polynomial) -> Exps:
        lead = tag_order.leading_monomial(rel)
        row = [0] * len(tags)
        pos = {t: k for k, t in enumerate(tags)}
        for v, e in lead:
            row[pos[v]] = e
        return tuple(row)

    for mu in range(min(weights), top_weight + 1):
        tuples = [a for a in weight_tuples(weights, mu) if standard(a)]
        if len(tuples) < 2:
            continue
        elim = _IncrementalKernel()
        new_at_mu = []
        for a in tuples:
            budget.spend()
            combo = elim.offer(powers.product(a).terms, a)
            if combo is None:
                continue
            new_at_mu.append(primitive_part(_tag_polynomial(tags, combo)))
        if new_at_mu:
            relations.extend(new_at_mu)
            current = buchberger(relations, tag_order, budget)
            lead_vertices = [vertex_of(r) for r in current.generators]
    rid = RelationIdeal(list(tags), dict(defining), current,
                        method="graded-kernel", complete=False)
    if not relations:
        rid.complete = jacobian_rank_certificate(gens)
        if rid.complete:
            rid.method = "graded-kernel+jacobian"
    return rid


def _tag_polynomial(tags: Sequence[Variable], combo: Dict[Exps, Fraction]) -> Polynomial:
    """The tag polynomial sum of c * prod t_i^a_i over {exponent tuple a: c}.

    `tags` come from make_tags, so their listing order is their seniority
    order and every monomial is built already sorted.
    """
    return Polynomial(_raw={tuple((t, e) for t, e in zip(tags, a) if e): c
                            for a, c in combo.items()})


class _IncrementalKernel:
    """Sparse column echelon with combination tracking: jetcalc's one exact
    eliminator (membership, the graded relation kernel, the Jacobian
    certificate and the invariant-dimension oracle).

    Columns are offered one at a time as {row: coeff} with nonzero coeffs;
    a column that reduces to zero returns its combination {label: coeff}
    over the offered labels, otherwise None (it became a new pivot).

    Invariant: every stored column's pivot is its smallest row under one
    fixed total order, plain `<` on the rows (ints, or monomial tuples,
    which compare by variable seniority).  Subtracting the stored column at
    an offered column's smallest row then clears that row and touches only
    larger ones, so the smallest row rises at every step.  Pivoting on any
    other row (the first inserted, say) can bring cleared rows back and
    gives wrong counts or never ends.
    """

    def __init__(self):
        self.pivots: Dict = {}  # pivot row -> (column dict, combo dict)

    def offer(self, column: Dict, label) -> Optional[Dict]:
        col = dict(column)
        combo = {label: Fraction(1)}
        while col:
            row = min(col)
            hit = self.pivots.get(row)
            if hit is None:
                pv = col[row]
                norm_col = {r: c / pv for r, c in col.items()}
                norm_combo = {l: c / pv for l, c in combo.items()}
                self.pivots[row] = (norm_col, norm_combo)
                return None
            pcol, pcombo = hit
            f = col[row]
            for r, c in pcol.items():
                s = col.get(r, Fraction(0)) - f * c
                if s:
                    col[r] = s
                else:
                    col.pop(r, None)
            for l, c in pcombo.items():
                s = combo.get(l, Fraction(0)) - f * c
                if s:
                    combo[l] = s
                else:
                    combo.pop(l, None)
        return combo


# ---------------------------------------------------------------------------
# subalgebra membership
# ---------------------------------------------------------------------------


@dataclass
class MembershipResult:
    member: bool
    expression: Optional[Polynomial] = None  # tag polynomial when member
    complete: bool = True

    def __bool__(self):
        return self.member


def subalgebra_membership(p: Polynomial,
                          named: Sequence[Tuple[str, Polynomial]],
                          budget: Optional[Budget] = None) -> MembershipResult:
    """Decide p in C[g_1, ..., g_k]; on success return a tag representation.

    For weighted homogeneous data (our case throughout) membership is a
    finite exact linear problem: a representation can be taken homogeneous,
    so only generator products of the matching weight can contribute.
    """
    budget = budget or Budget()
    if p.is_zero():
        return MembershipResult(True, Polynomial.zero())
    w = p.weighted_degree()
    weights = []
    for name, g in named:
        gw = g.weighted_degree()
        if gw is None:
            raise ValueError(f"{name}: generator not weighted homogeneous")
        weights.append(gw)
    if w is None:
        raise ValueError("membership test wants a weighted homogeneous input")
    tags = make_tags([(name, gw) for (name, _), gw in zip(named, weights)])
    gens = [g for _, g in named]
    tuples = weight_tuples(weights, w)
    if not tuples:
        return MembershipResult(False)
    powers = _PowerCache(gens)
    elim = _IncrementalKernel()
    for a in tuples:
        budget.spend()
        elim.offer(powers.product(a).terms, a)
    sentinel = object()
    combo = elim.offer(p.terms, sentinel)
    if combo is None:
        return MembershipResult(False)
    pivot = combo.pop(sentinel)
    expr = _tag_polynomial(tags, {a: -c / pivot for a, c in combo.items()})
    return MembershipResult(True, expr)
