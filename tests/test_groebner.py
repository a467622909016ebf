"""Groebner engine: bases, normal forms, relation ideals, membership."""

import gc
import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from jetcalc.groebner import (
    _DEGREE_HEADROOM,
    _JACOBIAN_TRIALS,
    Budget,
    _gradient,
    _IncrementalKernel,
    Subalgebra,
    buchberger,
    jacobian_rank_certificate,
    make_tags,
    normal_form,
    relations_ideal,
    subalgebra_membership,
    weight_tuples,
)
from jetcalc.jets import (
    JetContext,
    bracket,
    initial_invariants,
    poly_jet,
    restrict_f1,
    wronskian,
)
from jetcalc.polyring import (
    Block,
    DegRevLex,
    Lex,
    Packing,
    Polynomial,
    clear_denominators,
    primitive_part,
    proportional,
    tag,
    uni,
)
from test_jets import derivation


def T(name, weight=0, index=0):
    return Polynomial.variable(tag(name, weight, index))


def test_single_generator():
    x = T("x")
    gb = buchberger([x], Lex())
    assert [str(g) for g in gb.generators] == ["t:x"]


def test_twisted_cubic_elimination():
    x, y, z = (Polynomial.variable(tag(n, 0, k)) for k, n in enumerate("xyz"))
    gb = buchberger([x * x - y, x ** 3 - z], Lex())
    target = y ** 3 - z * z
    assert any(proportional(g, target) for g in gb.generators)
    # soundness by parametric substitution x=t, y=t^2, z=t^3
    t = Polynomial.variable(tag("t", 0, 9))
    sub = {tag("x", 0, 0): t, tag("y", 0, 1): t * t, tag("z", 0, 2): t ** 3}
    for g in gb.generators:
        assert g.substitute(sub).is_zero()


def test_normal_form_properties():
    x, y, z = (Polynomial.variable(tag(n, 0, k)) for k, n in enumerate("xyz"))
    gb = buchberger([x * x - y, x ** 3 - z], Lex())
    for g in gb.generators:
        assert normal_form(g, gb).is_zero()
    p = x ** 4 + y * z
    nf = normal_form(p, gb)
    assert normal_form(nf, gb) == nf
    q = x * y - z
    assert normal_form(p + q * gb.generators[0], gb) == normal_form(p, gb)


def test_budget_exceeded_is_flagged():
    x, y, z = (Polynomial.variable(tag(n, 0, k)) for k, n in enumerate("xyz"))
    gens = [x ** 4 - y * z ** 2 + x * y * z, y ** 4 - x * z ** 2 + y,
            z ** 4 - x ** 2 * y + z, x * y ** 3 - z ** 3 + x]
    with_budget = buchberger(gens, Lex(), Budget(10))
    assert not with_budget.complete
    assert with_budget.steps_used <= 10 + max(len(g) for g in gens)


def test_reduction_past_the_packing_limit_raises():
    """Reducing x^k by x - y^50 in lex reaches y^(50 k): the packing holds
    a fixed multiple of the largest input degree, and a product term past
    it raises instead of carrying between fields."""
    x, y = tag("x", 0, 0), tag("y", 0, 1)
    X, Y = Polynomial.variable(x), Polynomial.variable(y)
    gb = buchberger([X - Y ** 50], Lex())
    limit = Packing([x, y], _DEGREE_HEADROOM * 50).limit
    k = limit // 50
    assert normal_form(X ** k, gb) == Y ** (50 * k)
    with pytest.raises(ValueError, match="overflows"):
        normal_form(X ** (k + 1), gb)
    with pytest.raises(ValueError, match="overflows"):
        buchberger([X - Y ** 50, X ** (k + 1)], Lex())


def _loop1_named():
    inits = {i.name: i for i in initial_invariants(JetContext(2, 4))}
    return [("F2", 1, restrict_f1(inits["f2'"].poly)),
            ("L3", 3, restrict_f1(inits["Lam[1,2]^3"].poly)),
            ("L5", 5, restrict_f1(inits["Lam[1,2;1]^5"].poly)),
            ("L7", 7, restrict_f1(inits["Lam[1,2;1,1]^7"].poly))]


def _twisted_cubic():
    x, y, z = (Polynomial.variable(tag(n, 0, k)) for k, n in enumerate("xyz"))
    return [x * x - y, x * y - z, y * y - x * z, x ** 3 - z]


def _loop1_elimination():
    """The tag-elimination input of the E24 first loop and its block order."""
    named = _loop1_named()
    tags = make_tags([(n, w) for n, w, _ in named])
    front = set().union(*(p.variables() for _, _, p in named))
    gens = [Polynomial.variable(t) - p for t, (_, _, p) in zip(tags, named)]
    return gens, Block(front, DegRevLex(), DegRevLex())


@pytest.mark.parametrize("case", ["cubic-lex", "cubic-degrevlex", "e24-loop1"])
def test_buchberger_independent_of_input_order(case):
    """Equal pair keys are taken in (i, j) order, which follows the input
    order; the reduced basis must not depend on it."""
    if case == "e24-loop1":
        gens, order = _loop1_elimination()
    else:
        gens, order = _twisted_cubic(), Lex() if case == "cubic-lex" else DegRevLex()
    expected = buchberger(gens, order).generators
    rng = random.Random(5)
    for _ in range(5):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert buchberger(shuffled, order).generators == expected


@pytest.mark.parametrize("method", ["elimination", "graded"])
def test_relations_ideal_first_loop(monkeypatch, method):
    """Elimination finishes on the E24 first loop; with its slice cut to a
    few steps the graded kernel finds the same three relations."""
    import jetcalc.groebner as groebner

    if method == "graded":
        monkeypatch.setattr(groebner, "_ELIMINATION_SLICE", 10)
    rid = relations_ideal(_loop1_named())
    assert rid.method == ("graded-kernel" if method == "graded" else "elimination")
    rels = [primitive_part(r) for r in rid.relations]
    assert len(rels) == 3
    tags = {t.name[2:]: Polynomial.variable(t) for t in rid.tags}
    expected = [
        3 * tags["L3"] ** 2 - tags["F2"] * tags["L5"],
        5 * tags["L3"] * tags["L5"] - tags["F2"] * tags["L7"],
        5 * tags["L5"] ** 2 - 3 * tags["L3"] * tags["L7"],
    ]
    for e in expected:
        assert any(proportional(r, e) for r in rels)
    assert rid.verify_vanishing()
    for r in rels:
        assert r.weighted_degree() is not None


def test_relations_ideal_policy(monkeypatch):
    """The one policy: a Jacobian certificate, else elimination on a slice
    of the budget, else the graded kernel; the caller's budget is charged
    the steps the slice spent, capped at the slice."""
    import jetcalc.groebner as groebner
    from jetcalc.groebner import _relations_by_elimination, _relations_by_graded_kernel, _tagged

    f2, l3 = (restrict_f1(p) for p in (poly_jet(2, 1), wronskian([1, 2])))
    budget = Budget()
    rid = relations_ideal([("F2", 1, f2), ("L3", 3, l3)], budget=budget)
    assert (rid.method, rid.complete, rid.relations, budget.used) == \
        ("jacobian-independence", True, [], 0)

    named = _loop1_named()
    alone = Budget()
    direct = _relations_by_elimination(*_tagged(named), DegRevLex(), alone)
    assert direct is not None and 10 < alone.used
    budget = Budget()
    rid = relations_ideal(named, budget=budget)
    assert (rid.method, rid.complete) == ("elimination", True)
    assert rid.relations == direct.relations and budget.used == alone.used

    monkeypatch.setattr(groebner, "_ELIMINATION_SLICE", 10)
    alone = Budget()
    direct = _relations_by_graded_kernel(*_tagged(named), DegRevLex(), alone)
    budget = Budget()
    rid = relations_ideal(named, budget=budget)
    assert (rid.method, rid.complete) == ("graded-kernel", False)
    assert rid.relations == direct.relations and len(rid.relations) == 3
    assert budget.used == 10 + alone.used


def test_graded_kernel_relations_of_the_ue2k5_loop_2_pool(monkeypatch):
    """The 10 relations of the order-5 second loop's pool (criterion 14:
    UE2k5's L3..K12 restricted to f_1' = 0, elimination cut after one step)
    from the graded kernel, pinned by the digest of their text."""
    import jetcalc.groebner as groebner
    from jetcalc.catalog import load_catalog

    G = load_catalog("UE2k5").generator_map()
    named = [(k, G[k].weighted_degree(), restrict_f1(G[k]))
             for k in ("L3", "L5", "L7", "L9", "M8", "M10", "K12")]
    monkeypatch.setattr(groebner, "_ELIMINATION_SLICE", 1)
    budget = Budget(4_000_000)
    rid = relations_ideal(named, budget=budget)
    assert (rid.method, len(rid.relations), budget.used) == ("graded-kernel", 10, 334)
    text = "\n".join(str(r) for r in rid.relations)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "41479433f5c992d4ed84feb18b3c9b38a630c9da046630ec0a8a5567223c4755"


def test_product_packings_refuse_variables_lighter_than_1():
    """Generator products are packed up to their weight, which bounds their
    degree only when every variable weighs at least 1: (u f_1')^k weighs k
    but has degree 2k, so a pool holding u[2][1] (weight 0) must raise."""
    from jetcalc.groebner import _relations_by_graded_kernel, _tagged

    f1, u = poly_jet(1, 1), Polynomial.variable(uni(2, 1))
    with pytest.raises(ValueError, match="weighs less than 1"):
        Subalgebra([("a", f1), ("b", u * f1)])
    with pytest.raises(ValueError, match="weighs less than 1"):
        _relations_by_graded_kernel(*_tagged([("a", 1, f1), ("b", 1, u * f1)]), DegRevLex(),
                                    Budget())


def test_relations_ideal_kappa5_first_loop():
    # the three degrevlex relations of the order-5 first loop
    f1 = poly_jet(1, 1)
    l3 = wronskian([1, 2])
    l5 = bracket(l3, f1, weights=(3, 1))
    l7 = bracket(l5, f1, weights=(5, 1))
    l9 = bracket(l7, f1, weights=(7, 1))
    named = [("L3", 3, restrict_f1(l3)), ("L5", 5, restrict_f1(l5)),
             ("L7", 7, restrict_f1(l7)), ("L9", 9, restrict_f1(l9))]
    rid = relations_ideal(named)
    tags = {t.name[2:]: Polynomial.variable(t) for t in rid.tags}
    expected = [
        -7 * tags["L7"] ** 2 + 5 * tags["L5"] * tags["L9"],
        -7 * tags["L5"] * tags["L7"] + 3 * tags["L3"] * tags["L9"],
        -5 * tags["L5"] ** 2 + 3 * tags["L3"] * tags["L7"],
    ]
    assert len(rid.relations) == 3
    for e in expected:
        assert any(proportional(r, e) for r in rid.relations)


def test_relations_ideal_independent_family():
    # restrictions of {f2', Lam3, Lam5 via f2, Lam7 via f2 f2} are independent
    inits = {i.name: i for i in initial_invariants(JetContext(2, 4))}
    l3 = inits["Lam[1,2]^3"].poly
    l5b = bracket(l3, poly_jet(2, 1), weights=(3, 1))
    l7bb = bracket(l5b, poly_jet(2, 1), weights=(5, 1))
    named = [("F2", 1, restrict_f1(inits["f2'"].poly)),
             ("L3", 3, restrict_f1(l3)),
             ("L5b", 5, restrict_f1(l5b)),
             ("L7bb", 7, restrict_f1(l7bb))]
    rid = relations_ideal(named)
    assert rid.method == "jacobian-independence"
    assert not rid.relations and rid.complete


def test_jacobian_certificate_rejects_dependence():
    x = poly_jet(1, 1)
    assert not jacobian_rank_certificate([x, x * x])


def reference_jacobian_certificate(polys):
    """The certificate by `derivation` partials, each evaluated with
    `substitute`, at the same seeded points in the same draw order."""
    variables = sorted({v for p in polys for v in p.variables()}, key=lambda v: v.key)
    if len(polys) > len(variables):
        return False
    rows = [partials(p, variables) for p in polys]
    rng = random.Random(17)
    for _ in range(_JACOBIAN_TRIALS):
        point = {v: Polynomial.constant(rng.randint(-40, 40)) for v in variables}
        kernel = _IncrementalKernel()
        if all(kernel.offer(clear_denominators(evaluated_row(row, point)), r) is None
               for r, row in enumerate(rows)):
            return True
    return False


def partials(p, variables):
    """The partial derivatives of p, one per variable."""
    return [derivation(p, {v: Polynomial.constant(1)}) for v in variables]


def evaluated_row(row, point):
    """The nonzero values of Jacobian entries at a point, keyed by column."""
    values = {col: entry.substitute(point).terms.get((), 0) for col, entry in enumerate(row)}
    return {col: v for col, v in values.items() if v}


def catalog_generator_sets():
    """Per catalog: its restricted generators, by weight, then their first
    half and first three (independent and dependent sets both occur)."""
    from jetcalc.catalog import CATALOG_IDS, load_catalog

    for cid in CATALOG_IDS:
        entries = sorted(load_catalog(cid).entries, key=lambda e: e.weight)
        gens = [r for r in (restrict_f1(e.poly) for e in entries) if r]
        yield from (gens, gens[:len(gens) // 2], gens[:3])


def test_jacobian_gradient_matches_derivation_partials():
    """Each catalog generator's gradient at seeded points, one pass over its
    terms, against the `derivation` partials evaluated by `substitute`."""
    rng = random.Random(5)
    for gens in catalog_generator_sets():
        variables = sorted({v for p in gens for v in p.variables()}, key=lambda v: v.key)
        column = {v: k for k, v in enumerate(variables)}
        point = {v: rng.randint(-40, 40) for v in variables}
        constants = {v: Polynomial.constant(x) for v, x in point.items()}
        for p in gens:
            den, grad = _gradient(clear_denominators(p.terms), point, column)
            expect = evaluated_row(partials(p, variables), constants)
            assert {col: Fraction(g, den) for col, g in grad.items()} == expect


def test_jacobian_certificate_matches_the_derivation_reference():
    verdicts = []
    for gens in catalog_generator_sets():
        verdicts.append(jacobian_rank_certificate(gens))
        assert verdicts[-1] == reference_jacobian_certificate(gens)
    assert True in verdicts and False in verdicts


def _brute_force_rank(cols, nrows):
    """Largest r with a nonzero r x r minor (Leibniz expansion)."""
    from itertools import combinations, permutations

    def det(m):
        total = 0
        for perm in permutations(range(len(m))):
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i, j in enumerate(perm):
                term *= m[i][j]
            total += term
        return total

    for r in range(min(nrows, len(cols)), 0, -1):
        for rs in combinations(range(nrows), r):
            for cs in combinations(range(len(cols)), r):
                if det([[cols[c][i] for c in cs] for i in rs]):
                    return r
    return 0


@pytest.mark.parametrize("seed", range(10))
def test_weight_tuples_match_brute_force(seed):
    """Every tuple of the given weighted total, in the order of the
    brute-force product (first exponent slowest); pivots depend on it."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 7) for _ in range(rng.randint(1, 5))]
    for total in rng.sample(range(40), 8):
        brute = [a for a in product(*(range(total // w + 1) for w in weights))
                 if sum(e * w for e, w in zip(a, weights)) == total]
        assert weight_tuples(weights, total) == brute


def weight_tuples_by_recursion(weights, total):
    """The enumeration `weight_tuples` replaced: depth first, the first
    exponent slowest, the last one forced."""
    out = []

    def rec(i, left, acc):
        if i == len(weights):
            if left == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        if i == len(weights) - 1:
            if left % w == 0:
                out.append(tuple(acc) + (left // w,))
            return
        for e in range(left // w + 1):
            acc.append(e)
            rec(i + 1, left - e * w, acc)
            acc.pop()

    if total >= 0:
        rec(0, total, [])
    return out


@pytest.mark.parametrize("weights", [[1, 1, 3], [2, 3, 5, 7], [1, 2, 3, 4, 5, 6],
                                     [4, 6, 7, 8, 10, 10, 12, 12, 14, 15, 17, 19, 21, 23, 25],
                                     [3], [5, 2]])
def test_weight_tuples_order_is_the_recursions(weights):
    """`_eliminate_products` reuses the longest common start of consecutive
    tuples, so the order is part of the contract: it is the old recursion's,
    tuple for tuple, up to weight 30."""
    for total in range(-1, 31):
        assert weight_tuples(weights, total) == weight_tuples_by_recursion(weights, total)


def test_weight_tuples_edge_cases():
    assert weight_tuples([], 0) == [()]
    assert weight_tuples([], 3) == []
    assert weight_tuples([2], -2) == []
    assert weight_tuples([3, 2], 1) == []


def test_incremental_kernel_matches_brute_force_rank():
    """The one exact eliminator against an independent rank, on seeded
    random small integer matrices with planted dependent and zero columns."""
    for seed in range(300):
        _check_kernel_on_random_matrix(seed)


def test_incremental_kernel_on_rational_columns():
    """The fraction-free eliminator against the same rank oracle, on
    rational entries whose pivots are not units: every returned combination
    has coefficient 1 on the offered label and annihilates the columns."""
    non_unit = 0
    for seed in range(300):
        non_unit += _check_kernel_on_random_matrix(seed, rational=True)
    assert non_unit > 100  # stored pivots with an entry other than 1


def _check_kernel_on_random_matrix(seed, rational=False):
    """Offer random columns to one kernel and check its answers against
    `_brute_force_rank`; returns the number of pivots stored with an entry
    other than 1."""
    rng = random.Random(seed)

    def entry():
        top = rng.randint(1, 9)
        x = Fraction(top, rng.randint(1, 7)) if rational else top
        return rng.choice([0, x, -x])

    def multiplier():
        x = rng.randint(-3, 3)
        return Fraction(x, rng.randint(1, 5)) if rational else x

    nrows, ncols = rng.randint(2, 5), rng.randint(2, 6)
    cols = []
    for _ in range(ncols):
        kind = rng.random()
        if kind < 0.15:
            cols.append([0] * nrows)
        elif kind < 0.45 and cols:
            a, b = rng.choice(cols), rng.choice(cols)
            p, q = multiplier(), multiplier()
            cols.append([p * x + q * y for x, y in zip(a, b)])
        else:
            cols.append([entry() for _ in range(nrows)])
    # rows under a shuffled labelling, so pivot order differs from listing order
    labels = rng.sample(range(100), nrows)
    kernel = _IncrementalKernel()
    pivots = 0
    for j, col in enumerate(cols):
        column = clear_denominators({labels[i]: Fraction(x) for i, x in enumerate(col) if x})
        combo = kernel.offer(column, j)
        if combo is None:
            pivots += 1
            continue
        assert combo[j] == 1 and all(type(c) is Fraction for c in combo.values()), seed
        for i in range(nrows):
            assert sum(c * cols[l][i] for l, c in combo.items()) == 0, seed
    assert pivots == _brute_force_rank(cols, nrows), seed
    return sum(col[row] != 1 for row, (col, _) in kernel.pivots.items())


def test_incremental_kernel_ignores_row_labels():
    """Relabelling the rows by an injective map changes which row each
    pivot sits on, not the answers: the same offers become pivots, and
    every dependent column and query gets the same combination."""
    dependent = moved = 0
    for seed in range(100):
        rng = random.Random(seed)
        nrows = rng.randint(2, 8)
        cols = []
        for _ in range(rng.randint(3, 14)):
            if cols and rng.random() < 0.4:
                a, b = rng.choice(cols), rng.choice(cols)
                p, q = rng.randint(-3, 3), rng.randint(-3, 3)
                cols.append([p * x + q * y for x, y in zip(a, b)])
            else:
                cols.append([rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(nrows)])
        dens = [rng.randint(1, 5) for _ in cols]
        rows = rng.sample(range(1000), nrows)
        relabelled = dict(zip(rows, rng.sample(range(1 << 62), nrows)))
        back = {new: old for old, new in relabelled.items()}
        answers, pivot_rows = [], []
        for label, unlabel in ((lambda r: r, lambda r: r), (relabelled.get, back.get)):
            kernel = _IncrementalKernel()
            answers.append([kernel.offer((den, {label(r): x for r, x in zip(rows, col) if x}),
                                         j, keep=j % 5 != 4)
                            for j, (den, col) in enumerate(zip(dens, cols))])
            pivot_rows.append({unlabel(r) for r in kernel.pivots})
        assert answers[0] == answers[1], seed
        dependent += sum(a is not None for a in answers[0])
        moved += pivot_rows[0] != pivot_rows[1]
    assert dependent > 200 and moved > 20


def _textbook_remainder(p, gens, order):
    """Division of p by gens on rational tuple-monomial terms, leading term
    first: the remainder modulo a reduced basis, whatever the divisor order."""
    from jetcalc.polyring import mono_divides
    from test_packed import reference_div

    leads = [order.leading_monomial(g) for g in gens]
    rem = Polynomial.zero()
    while p:
        m = order.leading_monomial(p)
        term = Polynomial({m: p.terms[m]})
        for g, lt in zip(gens, leads):
            if mono_divides(lt, m):
                p = p - Polynomial({reference_div(m, lt): p.terms[m] / g.terms[lt]}) * g
                break
        else:
            rem, p = rem + term, p - term
    return rem


def test_buchberger_on_scaled_rational_generators():
    """Non-monic generators with rational coefficients, scaled by integers
    and by fractions: both copies give the same monic basis, the same steps
    (those of the rational reduction with monic elements) and the same
    normal forms, which match a textbook rational division."""
    x, y, z = (Polynomial.variable(tag(n, 0, k)) for k, n in enumerate("xyz"))
    base = [Fraction(3, 2) * x * x * y - 5 * y * z + Fraction(7, 3) * z,
            4 * x * y * y - Fraction(2, 5) * x * z * z + 6 * y,
            Fraction(9, 4) * y * y * z - Fraction(1, 6) * x * x + 10 * z * z]
    probes = [x ** 4 * y + Fraction(5, 3) * y ** 3 * z - 7,
              Fraction(11, 13) * x * y * z * z + Fraction(2, 9) * x ** 3,
              Fraction(3, 8) * z ** 5 - x * y]
    for order, steps, cut_steps in ((Lex(), 11890, 45), (DegRevLex(), 406, 43)):
        copies = [[g * c for g, c in zip(base, scales)] for scales in
                  ([6, -14, 9], [Fraction(5, 7), Fraction(-3, 11), Fraction(13, 4)])]
        gbs = [buchberger(gens, order) for gens in copies]
        assert all(gb.complete for gb in gbs)
        assert gbs[0].generators == gbs[1].generators
        assert gbs[0].steps_used == gbs[1].steps_used == steps
        for g in gbs[0].generators:
            assert g.terms[order.leading_monomial(g)] == 1
            assert all(type(c) is Fraction for c in g.terms.values())
        for p in probes:
            nf = normal_form(p, gbs[0])
            assert nf == normal_form(p, gbs[1])
            assert nf == _textbook_remainder(p, gbs[0].generators, order)
            assert normal_form(p * Fraction(-4, 15), gbs[0]) == nf * Fraction(-4, 15)
        # cut by the budget: the unreduced bases agree as well, monic
        cut = [buchberger(gens, order, Budget(40)) for gens in copies]
        assert not cut[0].complete and not cut[1].complete
        assert cut[0].generators == cut[1].generators
        assert cut[0].steps_used == cut[1].steps_used == cut_steps
        for g in cut[0].generators:
            assert g.terms[order.leading_monomial(g)] == 1
    # an overflowing product still raises on rational, non-monic input
    k = Packing([tag("x", 0, 0), tag("y", 0, 1)], _DEGREE_HEADROOM * 50).limit // 50
    with pytest.raises(ValueError, match="overflows"):
        buchberger([Fraction(2, 3) * x - 5 * y ** 50, Fraction(7, 4) * x ** (k + 1)], Lex())


def test_membership_examples():
    inits = {i.name: i for i in initial_invariants(JetContext(2, 4))}
    f1, f2 = inits["f1'"].poly, inits["f2'"].poly
    l3, l5, l7 = (inits[k].poly for k in
                  ("Lam[1,2]^3", "Lam[1,2;1]^5", "Lam[1,2;1,1]^7"))
    l5b = bracket(l3, f2, weights=(3, 1))
    gens = [("f1", f1), ("f2", f2), ("L3", l3), ("L5", l5), ("L7", l7)]
    assert not subalgebra_membership(l5b, gens)
    got = subalgebra_membership(l5, gens)
    assert got and str(got.expression) == "t:L5"
    # soundness: evaluating the tag expression reproduces the input
    mixed = 3 * l3 * l5 - 7 * f1 ** 2 * l3 * l3 + f2 ** 8
    rep = subalgebra_membership(mixed, gens)
    assert rep.member
    tags = {t: p for (n, p), t in zip(
        gens, [tag(n, p.weighted_degree(), k) for k, (n, p) in enumerate(gens)])}
    sub = {t: p for t, p in zip(
        [tag(n, p.weighted_degree(), k) for k, (n, p) in enumerate(gens)],
        [p for _, p in gens])}
    assert rep.expression.substitute(sub) == mixed


def test_packed_generator_products_match_polynomial_products(monkeypatch):
    """Every packed product that `_eliminate_products` offers equals the
    `Polynomial` product of the powers, rational coefficients included, and
    keeps no zero numerator where terms cancel: (f_1' - f_2')(f_1' + f_2')
    loses its f_1' f_2' term."""
    import jetcalc.groebner as groebner
    from jetcalc.groebner import _eliminate_products, _pool_variables

    offered = []
    offer = groebner._IncrementalKernel.offer

    def recorded(self, column, label, keep=True):
        offered.append((label, column))
        return offer(self, column, label, keep)

    monkeypatch.setattr(groebner._IncrementalKernel, "offer", recorded)
    f1, f2 = poly_jet(1, 1), poly_jet(2, 1)
    gens = [f1 - f2, f1 + f2, Fraction(1, 3) * wronskian([1, 2])]
    packing = Packing(_pool_variables(gens), 8)
    packed = [packing.pack_terms(g.terms) for g in gens]
    for w in range(9):
        offered.clear()
        tuples = weight_tuples([1, 1, 3], w)
        _eliminate_products(packed, tuples, Budget())
        assert [a for a, _ in offered] == tuples
        for a, (den, num) in offered:
            expect = Polynomial.constant(1)
            for g, e in zip(gens, a):
                expect = expect * g ** e
            assert all(num.values()), a
            assert packing.unpack(den, num) == expect, a


def test_each_generator_product_is_built_once(monkeypatch):
    """A weight's build makes one `_packed_mul` per distinct nonzero prefix
    node of its tuples, (a_1, ..., a_(i-1), j, 0, ..., 0) with 1 <= j <= a_i:
    the kept path of the last product rebuilds none of them."""
    import jetcalc.groebner as groebner
    from jetcalc.catalog import load_catalog

    calls = []
    packed_mul = groebner._packed_mul
    monkeypatch.setattr(groebner, "_packed_mul",
                        lambda a, b: calls.append(1) or packed_mul(a, b))
    G = load_catalog("E2k4").generator_map()
    pool = [(n, G[n]) for n in ("f1", "f2", "L3", "L5a", "L7aa", "L7ab", "M8")]
    algebra = Subalgebra(pool)
    for w, expect in ((10, 117), (14, 302), (16, 468)):
        nodes = {a[:i] + (j,) + (0,) * (len(a) - i - 1)
                 for a in weight_tuples(algebra.weights, w)
                 for i in range(len(a)) for j in range(1, a[i] + 1)}
        calls.clear()
        algebra._built(w, Budget())
        assert len(calls) == len(nodes) == expect


def test_membership_of_a_polynomial_in_a_variable_no_generator_holds():
    """No generator product holds f_2', so a query with it is not a member;
    it is answered without packing it, and the pool's answers stay right."""
    f1, f2 = poly_jet(1, 1), poly_jet(2, 1)
    algebra = Subalgebra([("a", f1), ("b", f1 * f1)])
    assert not algebra.member(f2)
    assert not algebra.member(f1 * f2 + 3 * f1 * f1)
    assert 2 not in algebra._by_weight
    got = algebra.member(3 * f1 * f1)
    assert got and got.expression.substitute(
        dict(zip(algebra.tags, algebra.gens))) == 3 * f1 * f1


def test_membership_bracket_pair_in_e24():
    # [Lam^5_1, Lam^5_2] lies in the order-4 algebra, as Lam^3 * M^8
    from jetcalc.catalog import load_catalog

    data = load_catalog("E2k4")
    G = data.generator_map()
    br = bracket(G["L5a"], G["L5b"], weights=(5, 5))
    rep = subalgebra_membership(br, [(e.name, e.poly) for e in data.entries])
    assert rep.member
    # a rational multiple of Lam^3 M^8 (the source prints the product without
    # its bracket-normalization factor)
    vars_used = sorted(v.name for v in rep.expression.variables())
    assert vars_used == ["t:L3", "t:M8"]
    assert len(rep.expression) == 1


def _e24_membership_queries(seed):
    """(pool, queries): E2k4 without L5b and L7bb, and a seeded shuffle of
    members of weights 2..10 with non-members built on the two left out."""
    from jetcalc.catalog import load_catalog

    rng = random.Random(seed)
    G = load_catalog("E2k4").generator_map()
    pool = [(n, G[n]) for n in ("f1", "f2", "L3", "L5a", "L7aa", "L7ab", "M8")]
    weights = [p.weighted_degree() for _, p in pool]

    def member(w):
        out = Polynomial.zero()
        for a in rng.sample(weight_tuples(weights, w), 2):
            term = Polynomial.constant(rng.choice([-3, -1, 2, Fraction(5, 7)]))
            for (_, g), e in zip(pool, a):
                term = term * g ** e
            out = out + term
        return out

    l5b = bracket(G["L3"], G["f2"], weights=(3, 1))
    queries = [member(w) for w in (2, 3, 5, 5, 7, 8, 8, 9, 10, 10)]
    queries += [l5b, G["L5b"] + member(5), G["L7bb"], G["L5b"] * G["f1"] ** 3 + member(8),
                G["L5b"] * G["L3"] - member(8), Polynomial.zero()]
    rng.shuffle(queries)
    return pool, queries


def test_every_caller_offers_int_rows(monkeypatch):
    """The dimension oracle, the Jacobian certificate, membership and the
    graded kernel offer only int rows, so the cyclic garbage collector
    tracks no stored column."""
    import jetcalc.groebner as groebner
    from jetcalc.invgen import invariant_space_dimension

    offer = groebner._IncrementalKernel.offer
    kernels, rows = [], set()

    def recorded(self, column, label, keep=True):
        kernels.append(self)
        rows.update(type(r) for r in column[1])
        return offer(self, column, label, keep)

    monkeypatch.setattr(groebner._IncrementalKernel, "offer", recorded)
    x, y = poly_jet(1, 1), poly_jet(2, 1)
    named = [("a", 1, x), ("b", 1, y), ("c", 2, x * y)]
    callers = [
        lambda: invariant_space_dimension(JetContext(3, 3), 6, bi=True),
        lambda: jacobian_rank_certificate([x, y]),
        lambda: subalgebra_membership(x * y, [("a", x), ("b", y)]),
        lambda: groebner._relations_by_graded_kernel(*groebner._tagged(named), DegRevLex(),
                                                     Budget()),
    ]
    for call in callers:
        kernels.clear()
        rows.clear()
        call()
        assert rows == {int}
        assert not any(gc.is_tracked(column) for k in kernels for column, _ in k.pivots.values())


@pytest.mark.parametrize("seed", [3, 11])
def test_shared_membership_matches_one_shot_calls(monkeypatch, seed):
    """One `Subalgebra` answers a shuffled run of queries exactly as a fresh
    `subalgebra_membership` call answers each, a non-member leaves the
    pivots as they were, and each weight's products are offered once."""
    import jetcalc.groebner as groebner

    pool, queries = _e24_membership_queries(seed)
    weights = [p.weighted_degree() for _, p in pool]
    offered = []
    offer = groebner._IncrementalKernel.offer

    def counted(self, column, label, keep=True):
        if keep:
            offered.append(label)
        return offer(self, column, label, keep)

    monkeypatch.setattr(groebner._IncrementalKernel, "offer", counted)
    algebra = groebner.Subalgebra(pool)
    answers = []
    rechecked = 0
    for q in queries:
        built = algebra._by_weight.get(q.weighted_degree() if q else None)
        before = len(built[0].pivots) if built else None
        got = algebra.member(q)
        answers.append(got)
        if not got and built:
            assert len(built[0].pivots) == before
            rechecked += 1
    assert rechecked
    # only generator products were stored, never a query; the stored columns
    # are keyed by packed codes, so the cyclic garbage collector skips them
    pivots = [pivot for kernel, _ in algebra._by_weight.values()
              for pivot in kernel.pivots.values()]
    assert pivots and all(type(label) is tuple for _, combo in pivots for label in combo)
    assert not any(gc.is_tracked(column) for column, _ in pivots)
    seen = {q.weighted_degree() for q in queries if q}
    assert sorted(offered) == sorted(a for w in seen for a in weight_tuples(weights, w))
    monkeypatch.setattr(groebner._IncrementalKernel, "offer", offer)

    sub = dict(zip(make_tags([(n, p.weighted_degree()) for n, p in pool]),
                   [p for _, p in pool]))
    assert 0 < sum(not a for a in answers) < len(answers)
    for q, got in zip(queries, answers):
        fresh = subalgebra_membership(q, pool)
        assert got.member == fresh.member
        assert got.expression == fresh.expression
        assert str(got.expression) == str(fresh.expression)
        if got:
            assert got.expression.substitute(sub) == q


def test_shared_membership_keeps_nothing_of_a_build_cut_by_the_budget():
    """A steps budget that runs out inside a weight's build leaves no entry
    for that weight; the retry builds it whole, one step per tuple, and
    answers as a fresh call does."""
    import jetcalc.groebner as groebner
    from jetcalc.groebner import BudgetExceeded

    pool, queries = _e24_membership_queries(5)
    algebra = groebner.Subalgebra(pool)
    weights = [p.weighted_degree() for _, p in pool]
    cuts = 0
    for q in queries:
        if not q or q.weighted_degree() in algebra._by_weight:
            continue
        w = q.weighted_degree()
        total = len(weight_tuples(weights, w))
        if total > 1:
            cut = Budget(steps=total // 2)
            with pytest.raises(BudgetExceeded, match="reduction budget"):
                algebra.member(q, cut)
            assert w not in algebra._by_weight
            cuts += 1
        budget = Budget()
        got = algebra.member(q, budget)
        assert budget.used == total and w in algebra._by_weight
        fresh = subalgebra_membership(q, pool)
        assert got.member == fresh.member and got.expression == fresh.expression
    assert cuts


def test_auxiliary_basis_normal_form_value():
    # the printed auxiliary normal form: NF(L3|0^2 * F16|0) = 35/9 l50^2 n120
    from jetcalc.catalog import load_catalog

    data = load_catalog("UE2k5")
    G = data.generator_map()
    L3_0, L5_0, M8_0, N12_0, F16_0 = (restrict_f1(G[k])
                                      for k in ("L3", "L5", "M8", "N12", "F16"))
    aux = [tag("l30", 3, 0), tag("l50", 5, 1), tag("m80", 8, 2), tag("n120", 12, 3)]
    gens = [Polynomial.variable(a) - g for a, g in
            zip(aux, (L3_0, L5_0, M8_0, N12_0))]
    front = set()
    for g in (L3_0, L5_0, M8_0, N12_0):
        front |= g.variables()
    gb = buchberger(gens, Block(front, DegRevLex(), DegRevLex()))
    assert gb.complete
    nf = normal_form(L3_0 * L3_0 * F16_0, gb)
    expect = Fraction(35, 9) * Polynomial.variable(aux[1]) ** 2 \
        * Polynomial.variable(aux[3])
    assert nf == expect


@pytest.mark.parametrize("loop", ["membership", "graded-kernel"])
def test_product_loops_read_the_clock_before_each_product(monkeypatch, loop):
    """One generator product can take seconds, so these loops read the
    deadline before every product, not every 64 steps."""
    import time

    import jetcalc.groebner as groebner
    from jetcalc.groebner import BudgetExceeded

    products = []
    packed_mul = groebner._packed_mul
    monkeypatch.setattr(groebner, "_packed_mul",
                        lambda a, b: products.append(1) or packed_mul(a, b))
    f1, f2 = poly_jet(1, 1), poly_jet(2, 1)

    def run(budget):
        if loop == "membership":
            return subalgebra_membership(f1 * f2, [("a", f1), ("b", f2)], budget)
        named = [("a", 1, f1), ("b", 1, f2), ("c", 2, f1 * f2)]
        return groebner._relations_by_graded_kernel(*groebner._tagged(named), DegRevLex(),
                                                    budget)

    assert run(Budget()) and products
    products.clear()
    late = Budget(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetExceeded, match="time budget"):
        run(late)
    assert products == [] and late.used == 1
