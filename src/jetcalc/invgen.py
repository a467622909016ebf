"""The invariant-generation loop: relation ideals of restricted invariants,
remainder extraction behind powers of f_1', membership tests, termination,
and normal-form monomial enumeration over the quadrant complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import (
    Budget,
    BudgetExceeded,
    DegRevLex,
    MonomialOrder,
    Subalgebra,
    _IncrementalKernel,
    relations_ideal,
    weight_tuples,
)
from .jets import (
    Invariant,
    JetContext,
    check_reparam_invariance,
    check_unipotent_invariance,
    derivation_moves,
    divide_f1_power,
    initial_bi_invariants,
    initial_invariants,
    killed,
    maximal_f1_power,
    reparam_derivations,
    restrict_f1_higher,
    unipotent_derivations,
)
from .polyring import (
    Packing,
    Polynomial,
    Variable,
    is_jet,
    is_tag,
    jet,
    packed_images,
    primitive_part,
    proportional,
    tag,
)


@dataclass
class Syzygy:
    """A filled relation 0 == S(gens) + f_1'^nu * R(gens).

    S is a tag polynomial vanishing on restriction to {f_1' = 0}; nu is the
    maximal factoring power (None when S(gens) == 0 identically, with R = 0
    by convention); R is a tag expression over the current generators which
    may involve the f_1' tag itself.
    """

    id: str
    relation: Polynomial
    weight: int
    nu: Optional[int]
    remainder: Polynomial
    leading_term: Optional[tuple] = None


def extract_remainder(s: Polynomial,
                      generators: Dict[Variable, Polynomial]) -> Tuple[Optional[int], Polynomial]:
    """Maximal nu and jet-polynomial remainder R with S(gens) + f_1'^nu R == 0.

    Precondition: S(gens) restricted to f_1' = 0 vanishes.  Returns
    (None, 0) when S(gens) is identically zero.
    """
    value = s.substitute(generators)
    if value.is_zero():
        return None, Polynomial.zero()
    nu = maximal_f1_power(value)  # 0 exactly when a term survives f_1' = 0
    if nu == 0:
        raise ValueError("relation does not vanish on the restriction f_1'=0")
    return nu, -divide_f1_power(value, nu)


@dataclass
class GenerationState:
    ctx: JetContext
    mode: str  # "full" | "bi"
    generators: List[Invariant] = field(default_factory=list)
    syzygies: List[Syzygy] = field(default_factory=list)
    loop_count: int = 0
    terminated: bool = False
    budget_exceeded: bool = False
    transcript: List[str] = field(default_factory=list)
    relation_method: str = ""

    def to_json(self) -> dict:
        from .polyring import format_polynomial

        return {
            "context": {"n": self.ctx.n, "kappa": self.ctx.kappa},
            "mode": self.mode,
            "terminated": self.terminated,
            "budget_exceeded": self.budget_exceeded,
            "loop_count": self.loop_count,
            "relation_method": self.relation_method,
            "generators": [
                {
                    "name": g.name,
                    "weight": g.weight,
                    "provenance": g.provenance,
                    "polynomial": format_polynomial(g.poly),
                }
                for g in self.generators
            ],
            "syzygies": [
                {
                    "id": s.id,
                    "weight": s.weight,
                    "relation": format_polynomial(s.relation),
                    "nu": s.nu,
                    "remainder": format_polynomial(s.remainder),
                }
                for s in self.syzygies
            ],
            "transcript": self.transcript,
        }


_DISCOVERY_LETTERS = "MNKHFEQRUVXY"


def _next_name(weight: int, taken: set) -> str:
    for letter in _DISCOVERY_LETTERS:
        cand = f"{letter}^{weight}"
        if cand not in taken:
            return cand
    k = 1
    while f"R{weight}_{k}" in taken:
        k += 1
    return f"R{weight}_{k}"


# loops run before run_generation gives up without termination
_MAX_LOOPS = 12


def run_generation(ctx: JetContext, mode: str = "full",
                   tag_order: Optional[MonomialOrder] = None,
                   budget: Optional[Budget] = None,
                   normalizer=None) -> GenerationState:
    """Loop: relation ideal of restrictions, remainder extraction, membership.

    Starts from the initial invariants (full mode) or the Wronskian-minor
    bi-invariants (bi mode); terminates when a loop adds no generator and
    every remainder lies in the algebra of the current ones, or gives up
    after 12 loops.  Each loop takes the relation ideal from
    `relations_ideal`, under `budget`; a graded-kernel ideal is not
    certified complete, so a loop that closes on one leaves `terminated`
    unset.  Membership runs on one `Subalgebra` per generator pool, kept
    across relations and loops until the pool grows, so each weight is
    solved once per pool.  Tags enter the relation ideal sorted by weight
    (paper-style listing), which keeps the reduced bases small; `normalizer`
    may rename/rescale a discovered invariant (e.g. to its catalogued form).
    """
    if mode not in ("full", "bi"):
        raise ValueError(f"unknown mode: {mode}")
    budget = budget or Budget()
    tag_order = tag_order or DegRevLex()
    state = GenerationState(ctx=ctx, mode=mode)
    base = initial_invariants(ctx) if mode == "full" else initial_bi_invariants(ctx)
    state.generators = list(base)
    state.transcript.append(
        f"start: {len(base)} initial {'invariants' if mode == 'full' else 'bi-invariants'}")
    # membership in the current pool's algebra, and the names of that pool
    algebra, algebra_names = None, None

    while state.loop_count < _MAX_LOOPS:
        state.loop_count += 1
        gens = state.generators
        # f_1' restricts to zero, so it never enters the relation ideal
        active = [g for g in gens if not g.restriction.is_zero()]
        active.sort(key=lambda g: g.weight)
        named = [(g.name, g.weight, g.restriction) for g in active]
        try:
            rid = relations_ideal(named, tag_order=tag_order, budget=budget)
        except BudgetExceeded as exc:
            state.transcript.append(f"loop {state.loop_count}: relation ideal failed: {exc}")
            state.budget_exceeded = True
            return state
        state.relation_method = rid.method
        state.transcript.append(
            f"loop {state.loop_count}: {len(rid.relations)} relations ({rid.method})")

        defining_unrestricted = {t: g.poly for t, g in zip(rid.tags, active)}

        new_invariants: List[Invariant] = []
        syzygies: List[Syzygy] = []
        taken = {g.name for g in gens}
        all_expressible = True
        # by weight, then by leading monomial, smallest first
        leads = [tag_order.leading_monomial(r) for r in rid.relations]
        rank = {m: -k for k, m in enumerate(tag_order.ranked(leads))}
        ordered = [r for r, _ in sorted(zip(rid.relations, leads),
                                        key=lambda p: (p[0].weighted_degree(), rank[p[1]]))]
        for k, rel in enumerate(ordered, start=1):
            rel = primitive_part(rel)
            w = rel.weighted_degree()
            nu, rem = extract_remainder(rel, defining_unrestricted)
            if nu is None:
                syzygies.append(Syzygy(f"L{state.loop_count}.{k}", rel, w, None,
                                       Polynomial.zero()))
                continue
            pool = gens + new_invariants
            names = [g.name for g in pool]
            if names != algebra_names:
                algebra = Subalgebra([(g.name, g.poly) for g in pool])
                algebra_names = names
            try:
                # the caller's deadline, but not its step count
                membership = algebra.member(rem, Budget(deadline=budget.deadline))
            except BudgetExceeded as exc:
                state.transcript.append(
                    f"loop {state.loop_count}: membership test failed: {exc}")
                state.budget_exceeded = True
                return state
            if membership.member:
                syzygies.append(Syzygy(f"L{state.loop_count}.{k}", rel, w, nu,
                                       membership.expression))
                continue
            all_expressible = False
            # rem carries no f_1' factor: extract_remainder divided out the largest power
            known = next((g for g in pool if proportional(rem, g.poly)), None)
            if known is None:
                cw = rem.weighted_degree()
                renamed = normalizer(rem) if normalizer else None
                if renamed is not None:
                    name, rem = renamed
                else:
                    name = _next_name(cw, taken)
                taken.add(name)
                inv = Invariant(name, cw, rem, provenance=f"remainder:L{state.loop_count}.{k}")
                new_invariants.append(inv)
                state.transcript.append(
                    f"loop {state.loop_count}: new invariant {name} (weight {cw})")
            syzygies.append(Syzygy(f"L{state.loop_count}.{k}", rel, w, nu, Polynomial.zero()))

        if not new_invariants and all_expressible:
            state.syzygies = syzygies
            state.terminated = rid.complete
            if not rid.complete:
                state.transcript.append(
                    "loop closed but relation ideal not certified complete")
            state.transcript.append(
                f"terminated after {state.loop_count} loops: "
                f"{len(gens)} generators, {len(syzygies)} syzygies")
            # attach remainder expressions and leading terms
            _fill_remainders(state, tag_order)
            return state
        state.generators = gens + new_invariants

    state.transcript.append(f"loop limit {_MAX_LOOPS} reached without termination")
    return state


def _fill_remainders(state: GenerationState, tag_order: MonomialOrder):
    """Record leading terms and verify each syzygy's invariance data."""
    for s in state.syzygies:
        if s.relation.is_zero():
            continue
        lead = tag_order.leading_monomial(s.relation)
        s.leading_term = lead
    # re-verify invariance of every generator (cheap safety net)
    for g in state.generators:
        rep = check_reparam_invariance(g.poly)
        if not rep or rep.weight != g.weight:
            raise AssertionError(f"generator {g.name} failed invariance re-check")
        if state.mode == "bi" and not check_unipotent_invariance(g.poly):
            raise AssertionError(f"generator {g.name} failed unipotent re-check")


# ---------------------------------------------------------------------------
# normal-form monomials over the quadrant complement
# ---------------------------------------------------------------------------


def normal_form_monomials(weights: Sequence[int],
                          vertices: Sequence[Tuple[int, ...]],
                          m: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of weight m avoiding every excluded quadrant."""
    return [a for a in weight_tuples(weights, m)
            if not any(all(x >= v for x, v in zip(a, vert)) for vert in vertices)]


def state_normal_form_monomials(state: GenerationState, m: int) -> List[dict]:
    """Admissible monomials of weight m for a terminated state.

    Each item maps generator names to exponents; generators absent from the
    relation ideal (f_1', and W^10 in dimension 4) are free and appear with
    their own exponents.
    """
    if not state.terminated:
        raise ValueError("normal forms need a terminated state")
    gens = state.generators
    # leading terms were recorded over the active tags; remap by name
    verts = []
    for s in state.syzygies:
        if s.leading_term is None:
            continue
        row = [0] * len(gens)
        for v, e in s.leading_term:
            name = v.name[2:]
            row[[g.name for g in gens].index(name)] = e
        verts.append(tuple(row))
    weights = [g.weight for g in gens]
    tuples = normal_form_monomials(weights, verts, m)
    names = [g.name for g in gens]
    return [dict((n, e) for n, e in zip(names, t) if e) for t in tuples]


# ---------------------------------------------------------------------------
# brute-force dimension oracle
# ---------------------------------------------------------------------------


def invariant_space_dimension(ctx: JetContext, m: int, bi: bool = False) -> int:
    """Dimension of the weight-m invariant space by exact linear algebra.

    Independent oracle: the reparametrization group tangent to the identity
    (and, when `bi`, the lower-triangular unipotent group) is connected and
    unipotent, so the invariants of weight m are the common kernel of its
    Lie algebra's generators D_2, D_3 (and the E_i) on the span of all jet
    monomials of weight m.  Each monomial offers its image under them, read
    off their moves on one `Packing` (`derivation_moves`), as one column to
    one `_IncrementalKernel`; the dimension is the number of columns that
    reduce to zero.
    """
    variables = [jet(i, lam) for i in range(1, ctx.n + 1)
                 for lam in range(1, ctx.kappa + 1)]
    operators = reparam_derivations(variables)
    if bi:
        operators += unipotent_derivations(variables)
    packing = Packing(variables, m)  # every jet weighs at least 1
    unit = [packing.pack(((v, 1),)) for v in variables]
    table = derivation_moves(operators, packing)
    moves = [(k, offset, c) for k, v in enumerate(variables) for offset, c in table.get(v, ())]
    count = len(operators)
    kernel = _IncrementalKernel()
    dim = 0
    for a in weight_tuples([v.weight for v in variables], m):
        base = count * sum(e * u for e, u in zip(a, unit))
        # one operator's distinct (source, target) moves reach distinct rows
        column = {base + offset: a[source] * c for source, offset, c in moves if a[source]}
        if kernel.offer((1, column), a) is not None:
            dim += 1
    return dim


# ---------------------------------------------------------------------------
# syzygy catalog verification
# ---------------------------------------------------------------------------


@dataclass
class SyzygyCheck:
    """`ok` when S(gens) + f_1'^nu R(gens) is zero; `max_terms` is the larger
    term count of S(gens) and f_1'^nu R(gens), so that of R(gens) when ok
    (worked out once per R, up to a scalar, and generator objects)."""

    syzygy_id: str
    ok: bool
    max_terms: int
    detail: str = ""


def _expand_sum(sub: Dict[Variable, Polynomial], s: Polynomial, r: Polynomial) -> Tuple[int, int]:
    """The term counts of s(sub) + r(sub) and of its larger part, both imaged
    on one packing and summed on integers."""
    _, [(ds, image_s), (dr, image_r)] = packed_images(sub, [s, r])
    acc = {k: c * dr for k, c in image_s.items()}  # over the denominator ds * dr
    for k, c in image_r.items():
        acc[k] = acc.get(k, 0) + c * ds
    return sum(1 for c in acc.values() if c), max(len(image_s), len(image_r))


# id(g) -> (g, its slice or None); holding g keeps its id from being reused,
# so an id found here is g's own
_slices: Dict[int, Tuple[Polynomial, Optional[Polynomial]]] = {}


def _certified_slice(g: Polynomial) -> Optional[Polynomial]:
    """g's terms free of f_1^(lam), lam >= 2, if g is a jet polynomial that
    D_2 and D_3 kill, else None; worked out once per object g."""
    entry = _slices.get(id(g))
    if entry is None:
        variables = g.variables()
        certified = all(map(is_jet, variables)) and killed(g, reparam_derivations(variables))
        entry = _slices[id(g)] = (g, restrict_f1_higher(g) if certified else None)
    return entry[1]


# R's terms over generator objects, scaled so the first has coefficient 1
# -> (the objects, the term count of R(gens)); holding the objects keeps
# their ids from being reused, as in _slices
_remainder_counts: Dict[tuple, Tuple[tuple, int]] = {}


def _remainder_count(sub: Dict[Variable, Polynomial], r: Polynomial) -> int:
    """The term count of r(sub), worked out once per r up to a nonzero scalar
    and per generator objects."""
    terms = sorted((tuple(sorted((id(sub[v]), e) for v, e in m)), c) for m, c in r.terms.items())
    key = tuple((m, c / terms[0][1]) for m, c in terms)
    entry = _remainder_counts.get(key)
    if entry is None:
        count = len(packed_images(sub, [r])[1][0][1])
        entry = _remainder_counts[key] = (tuple(sub[v] for v in r.variables()), count)
    return entry[1]


def verify_syzygies(syzygies: Sequence[Syzygy], generators: Dict[str, Polynomial],
                    f1_name: str = "f1'") -> List[SyzygyCheck]:
    """Decide S(gens) + f_1'^nu R(gens) == 0, imaging S and t^nu R, t a
    private tag for the f_1' generator.

    First on the slice f_1'' = ... = f_1^(kappa) = 0 of the moving frame
    (Fels & Olver, Acta Appl. Math. 55, 1999): each generator is imaged as
    its terms free of f_1^(lam), lam >= 2, once D_2 and D_3 kill it (`killed`,
    worked out once per generator object per process).  They then kill the
    sum, which is so invariant under t + a_2 t^2 + ... + a_kappa t^kappa;
    that map moves any jet with f_1' != 0 onto the slice (solve for the a_j
    one order at a time), so the sum is zero if it vanishes there, and only
    R(gens) is expanded in full, for `max_terms`, once per process for each
    R up to a nonzero scalar and generator objects it images.  A variable of
    S or R that is not a generator's tag, a generator with a variable that
    is not a jet or not killed, or a slice residual that is not zero expands
    the sum in full.
    """
    f1 = Polynomial.variable(tag(f1_name, 1, -1))  # every other tag indexes from 0
    results = []
    for s in syzygies:
        tagged = s.remainder * f1 ** s.nu if s.nu is not None else Polynomial.zero()
        variables = s.relation.variables() | tagged.variables()
        sub = {v: generators[v.name[2:]] for v in variables if is_tag(v)}
        cut = {v: _certified_slice(g) for v, g in sub.items()}  # None: not certified
        # a variable of S or R that is no tag is not restricted to the slice
        certified = len(sub) == len(variables) and all(c is not None for c in cut.values())
        residual, peak = _expand_sum(cut if certified else sub, s.relation, tagged)
        if certified and residual:  # the slice cannot decide
            residual, peak = _expand_sum(sub, s.relation, tagged)
        elif certified:  # S(gens) + f_1'^nu R(gens) == 0 has as many terms as R(gens)
            peak = _remainder_count(sub, s.remainder) if s.nu is not None else 0
        results.append(SyzygyCheck(s.id, not residual, peak,
                                   f"residual has {residual} terms" if residual else ""))
    return results
