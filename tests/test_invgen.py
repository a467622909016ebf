"""Remainder extraction, the generation loop, and normal-form enumeration."""

import pytest

from conftest import counted_pairs
from jetcalc.catalog import load_catalog
from jetcalc.invgen import (
    Syzygy,
    extract_remainder,
    invariant_space_dimension,
    normal_form_monomials,
    run_generation,
    state_normal_form_monomials,
    verify_syzygies,
)
from jetcalc.jets import JetContext, check_reparam_invariance, maximal_f1_power
from jetcalc.polyring import Polynomial, is_tag, jet, phi, proportional, tag


def tags_for(data):
    return {e.name: tag(e.name, e.weight, k) for k, e in enumerate(data.entries)}


def test_extract_remainder_examples():
    data = load_catalog("E2k4")
    G = data.generator_map()
    T = tags_for(data)
    V = {n: Polynomial.variable(t) for n, t in T.items()}
    defining = {T[n]: G[n] for n in G}

    s1 = 3 * V["L3"] ** 2 - V["f2"] * V["L5a"]
    nu, rem = extract_remainder(s1, defining)
    assert nu == 1 and rem == G["L5b"]

    s2 = 5 * V["L5a"] ** 2 - 3 * V["L3"] * V["L7aa"]
    nu, rem = extract_remainder(s2, defining)
    assert nu == 2 and rem == G["M8"]

    s3 = V["f2"] ** 2 * V["M8"] + 5 * V["L5b"] ** 2 - 3 * V["L3"] * V["L7bb"]
    nu, rem = extract_remainder(s3, defining)
    assert nu is None and rem.is_zero()

    bad = V["L3"]
    with pytest.raises(ValueError):
        extract_remainder(bad, defining)


def test_run_generation_e23():
    data = load_catalog("E2k3")
    state = run_generation(JetContext(2, 3), "full")
    assert state.terminated and state.loop_count == 2
    assert len(state.generators) == 5
    for entry in data.entries:
        assert any(proportional(g.poly, entry.poly) for g in state.generators)
    assert len(state.syzygies) == 1
    s = state.syzygies[0]
    assert s.weight == 6 and s.nu == 1
    checks = verify_syzygies(state.syzygies,
                             {g.name: g.poly for g in state.generators})
    assert all(c.ok for c in checks)


def test_run_generation_ue33():
    state = run_generation(JetContext(3, 3), "bi")
    assert state.terminated
    assert sorted(g.weight for g in state.generators) == [1, 3, 5, 6]
    assert not state.syzygies
    assert state.relation_method == "jacobian-independence"


def test_run_generation_deterministic():
    a = run_generation(JetContext(2, 3), "full")
    b = run_generation(JetContext(2, 3), "full")
    assert [(g.name, g.poly) for g in a.generators] == \
        [(g.name, g.poly) for g in b.generators]
    assert [(s.relation, s.nu, s.remainder) for s in a.syzygies] == \
        [(s.relation, s.nu, s.remainder) for s in b.syzygies]


def test_generated_invariants_pass_invariance():
    state = run_generation(JetContext(2, 3), "full")
    for g in state.generators:
        rep = check_reparam_invariance(g.poly)
        assert rep and rep.weight == g.weight


@pytest.mark.parametrize("n,kappa,mode,added", [
    (2, 3, "full", 1), (2, 4, "full", 4), (3, 3, "bi", 0), (2, 4, "bi", 1),
])
def test_remainder_generators_carry_no_f1_factor(n, kappa, mode, added):
    """A generator made from a remainder is added as `extract_remainder`
    leaves it, with the largest power of f_1' already divided out."""
    state = run_generation(JetContext(n, kappa), mode)
    made = [g for g in state.generators if g.provenance.startswith("remainder:")]
    assert len(made) == added
    assert all(maximal_f1_power(g.poly) == 0 for g in made)


def test_normal_form_monomials_basics():
    # weights (1, 2), quadrant excluding y^2 (vertex (0, 2))
    assert normal_form_monomials([1, 2], [(0, 2)], 0) == [(0, 0)]
    got = normal_form_monomials([1, 2], [(0, 2)], 4)
    assert set(got) == {(4, 0), (2, 1)}
    # no exclusions: all weighted tuples
    assert len(normal_form_monomials([1, 2], [], 4)) == 3


def test_verify_syzygies_reports_failures():
    data = load_catalog("E2k3")
    syz = data.syzygies()
    G = data.generator_map()
    ok = verify_syzygies(syz, G, "f1")
    assert all(c.ok for c in ok)
    # corrupt a generator: the report flags it, no exception
    bad = dict(G)
    bad["L5b"] = bad["L5b"] + bad["f1"] ** 5
    res = verify_syzygies(syz, bad, "f1")
    assert not res[0].ok and res[0].detail


@pytest.mark.parametrize("m,expected", [(0, 1), (1, 2), (2, 3)])
def test_dimension_oracle_tiny(m, expected):
    # kappa = 1: invariants are all polynomials in f_1', f_2'
    assert invariant_space_dimension(JetContext(2, 1), m) == \
        len(normal_form_monomials([1, 1], [], m)) == expected


def test_dimension_oracle_e22():
    # n=2, kappa=2: free algebra on f1', f2', Lam^3 (no syzygy)
    for m in range(1, 7):
        dim = invariant_space_dimension(JetContext(2, 2), m)
        count = len(normal_form_monomials([1, 1, 3], [], m))
        assert dim == count


def test_bi_dimension_oracle_ue33():
    # bi-invariants of (3,3): free algebra on weights 1, 3, 5, 6
    for m in range(1, 11):
        dim = invariant_space_dimension(JetContext(3, 3), m, bi=True)
        count = len(normal_form_monomials([1, 3, 5, 6], [], m))
        assert dim == count
    assert [len(normal_form_monomials([1, 3, 5, 6], [], m)) for m in (8, 9, 10)] == [6, 8, 9]


def test_dimension_oracle_e24_pinned():
    dims = [invariant_space_dimension(JetContext(2, 4), m) for m in range(11)]
    assert dims == [1, 2, 3, 5, 7, 11, 15, 22, 30, 38, 49]


def test_bi_dimension_oracle_ue34_pinned():
    # the weights where UE3k4's syzygies start to bind
    dims = [invariant_space_dimension(JetContext(3, 4), m, bi=True) for m in (10, 12)]
    assert dims == [14, 22]


@pytest.mark.parametrize("n,kappa,mode,digest", [
    (2, 3, "full", "6402ca81797e3e35ae3f6986c514af683dfd4fd7987dc1f23cd13a076f65885e"),
    (3, 3, "bi", "a1922204721ef084283bb865950dc37e65c0d25f976714c8c4f2bc60c84a6b92"),
    (2, 4, "full", "20400623c016be4e6711dacae1d296614e9851123a385cc078a343a7012b4007"),
])
def test_generation_report_bytes(n, kappa, mode, digest):
    """The generation state's JSON is byte-identical to the pinned report."""
    import hashlib
    import json

    from jetcalc.catalog import normalizer_for
    from jetcalc.groebner import Budget

    ctx = JetContext(n, kappa)
    state = run_generation(ctx, mode, budget=Budget(), normalizer=normalizer_for(ctx, mode))
    text = json.dumps(state.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,kappa,mode,steps", [
    (2, 3, "full", 26),
    (2, 4, "full", 6807),
    (3, 3, "bi", 0),
])
def test_generation_step_counts_pinned(n, kappa, mode, steps):
    """Reduction steps spent by a whole generation run (`Budget.used`): the
    keyed reducer must select and reduce exactly the same terms."""
    from jetcalc.groebner import Budget

    budget = Budget()
    run_generation(JetContext(n, kappa), mode, budget=budget)
    assert budget.used == steps


def test_state_normal_form_monomials_weight0():
    state = run_generation(JetContext(2, 3), "full")
    assert state_normal_form_monomials(state, 0) == [{}]
    got3 = state_normal_form_monomials(state, 3)
    # weight 3: (f1')^3, (f1')^2 f2', f1' (f2')^2, (f2')^3, Lam^3
    assert len(got3) == 5


def test_run_generation_propagates_engine_errors(monkeypatch):
    """Only budget exhaustion is recorded as such; a genuine fault propagates."""
    import jetcalc.invgen as invgen

    def broken(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(invgen, "relations_ideal", broken)
    with pytest.raises(ValueError, match="engine fault"):
        run_generation(JetContext(2, 3), "full")


def test_run_generation_records_budget_exhaustion(monkeypatch):
    import jetcalc.invgen as invgen
    from jetcalc.groebner import BudgetExceeded

    def exhausted(*args, **kwargs):
        raise BudgetExceeded("reduction budget of 1 steps exhausted")

    monkeypatch.setattr(invgen, "relations_ideal", exhausted)
    state = run_generation(JetContext(2, 3), "full")
    assert state.budget_exceeded and not state.terminated


def test_verify_ue3k4_2_keeps_its_fractional_remainder():
    """UE3k4.2 is the one catalogued syzygy with a non-integer coefficient
    (remainder -1/3 E10); dropping the 1/3 must leave a residual."""
    import dataclasses
    from fractions import Fraction

    data = load_catalog("UE3k4")
    s = next(s for s in data.syzygy_sets["lex41"] if s.id == "UE3k4.2")
    assert {c.denominator for c in s.remainder.terms.values()} == {3}
    gens = data.generator_map()
    [check] = verify_syzygies([s], gens, "f1")
    assert check.ok and check.max_terms == 22
    [bad] = verify_syzygies([dataclasses.replace(s, remainder=3 * s.remainder)], gens, "f1")
    assert not bad.ok and bad.detail == "residual has 22 terms"
    # a third of a syzygy is one: S and R both carry denominators
    third = dataclasses.replace(s, relation=s.relation * Fraction(1, 3),
                                remainder=s.remainder * Fraction(1, 3))
    [check] = verify_syzygies([third], gens, "f1")
    assert check.ok and check.max_terms == 22


def reference_verify(syzygies, generators, f1_name):
    """S(g) + f1^nu R(g) with Polynomial `substitute`, `+` and `*`: the
    (ok, max_terms, detail) of each syzygy."""
    out = []
    for s in syzygies:
        sub = {v: generators[v.name[2:]]
               for v in s.relation.variables() | s.remainder.variables() if is_tag(v)}
        image_s, image_r = s.relation.substitute(sub), s.remainder.substitute(sub)
        value = image_s
        if s.nu is not None:
            value = value + generators[f1_name] ** s.nu * image_r
        peak = max(len(image_s), len(image_r)) if s.nu is not None else len(image_s)
        out.append((value.is_zero(), peak, f"residual has {len(value)} terms" if value else ""))
    return out


def _verify_cases():
    """(syzygies, generators, f1 name) of E2k4, UE2k5 loops 1-2, the lex41
    syzygies of UE3k4 and UE4k4 of weight at most 30, and E2k3 as the
    generation loop derives it, whose f1' generator is named f1'."""
    cases = []
    for cid, keys in (("E2k4", None), ("UE2k5", ("loop1", "loop2")),
                      ("UE3k4", ("lex41",)), ("UE4k4", ("lex41",))):
        data = load_catalog(cid)
        syz = [s for key in (keys or sorted(data.syzygy_sets))
               for s in data.syzygy_sets[key] if s.weight <= 30]
        cases.append((syz, data.generator_map(), "f1"))
    state = run_generation(JetContext(2, 3), "full")
    cases.append((state.syzygies, {g.name: g.poly for g in state.generators}, "f1'"))
    return cases


def test_verify_syzygies_matches_the_polynomial_reference():
    """The packed check against the Polynomial-level expansion, on the
    catalogued syzygies (those with nu = None included) and on copies of
    the others with nu one higher, with the remainder doubled and with S
    dropped (so that R(g) alone sets `max_terms`), all of which fail with
    the reference's residual counts."""
    import dataclasses

    for syz, gens, f1_name in _verify_cases():
        factored = [s for s in syz if s.nu is not None]
        higher = [dataclasses.replace(s, nu=s.nu + 1) for s in factored]
        doubled = [dataclasses.replace(s, remainder=2 * s.remainder) for s in factored]
        no_s = [dataclasses.replace(s, relation=Polynomial.zero()) for s in factored]
        for case in (syz, higher, doubled, no_s):
            got = [(c.ok, c.max_terms, c.detail) for c in verify_syzygies(case, gens, f1_name)]
            assert got == reference_verify(case, gens, f1_name)
        assert factored and all(c.ok for c in verify_syzygies(syz, gens, f1_name))
        assert not any(c.ok for c in verify_syzygies(higher + doubled + no_s, gens, f1_name))


def test_verify_syzygies_expands_in_full_what_the_slice_cannot_decide(monkeypatch,
                                                                       empty_tables):
    """f_1'' vanishes on the slice f_1'' = 0 but is no invariant (D_2 f_1'' =
    2 f_1'), and phi'' f_1' has a variable that is not a jet, whose terms the
    slice would drop.  A raw jet in S or R, such as f_2'' beside the tag of
    the Wronskian W = f_1' f_2'' - f_1'' f_2', is not restricted to the slice
    either, though W is certified.  Syzygies over such "generators" or with
    such jets are decided by the full expansion, as the reference does it.
    With the certificate skipped, the slice alone would accept the first
    two."""
    import jetcalc.invgen as invgen

    f1, f1pp, p2 = (Polynomial.variable(v) for v in (jet(1, 1), jet(1, 2), phi(2)))
    f2, f2pp = Polynomial.variable(jet(2, 1)), Polynomial.variable(jet(2, 2))
    t = {name: Polynomial.variable(tag(name, w, 0)) for name, w in
         (("f1", 1), ("P", 2), ("B", 2), ("Q", 3), ("Q2", 4), ("W", 3))}
    gens = {"f1": f1, "P": f1pp, "B": f1pp + f1 ** 2, "Q": p2 * f1, "Q2": p2 * f1 ** 2,
            "W": f1 * f2pp - f1pp * f2}
    cases = [
        Syzygy("P", t["P"], 2, None, Polynomial.zero()),
        # B - f_1'^2 = f_1'', though zero on the slice; max_terms from B
        Syzygy("B", t["B"], 2, 2, Polynomial.constant(-1)),
        Syzygy("Q", t["Q"], 3, None, Polynomial.zero()),
        # a true syzygy over a generator with a phi'' still holds in full
        Syzygy("Q2", t["Q2"] - t["Q"] * t["f1"], 4, None, Polynomial.zero()),
        # W - f_1' f_2'' = -f_1'' f_2', though zero on the slice: a raw jet in S
        Syzygy("WS", t["W"] - f1 * f2pp, 3, None, Polynomial.zero()),
        # f_1' W - f_1'^2 f_2'' = -f_1' f_1'' f_2': a raw jet in R
        Syzygy("WR", t["W"] * t["f1"], 4, 1, -f1 * f2pp),
    ]
    got = [(c.ok, c.max_terms, c.detail) for c in verify_syzygies(cases, gens, "f1")]
    assert got == reference_verify(cases, gens, "f1") == [
        (False, 1, "residual has 1 terms"), (False, 2, "residual has 1 terms"),
        (False, 1, "residual has 1 terms"), (True, 0, ""),
        (False, 1, "residual has 1 terms"), (False, 2, "residual has 1 terms")]
    empty_tables()  # so the stub, not a remembered slice, decides
    monkeypatch.setattr(invgen, "killed", lambda p, operators: True)
    assert [c.ok for c in verify_syzygies(cases[:2], gens, "f1")] == [True, True]


def test_slice_decisions_match_full_expansions(monkeypatch, empty_tables):
    """Every syzygy of the four catalogs that `verify` is benchmarked on gets
    the same (ok, max_terms, detail) decided on the slice as expanded in full
    (`killed` made to certify nothing).  Copies with nu one higher, the
    remainder doubled or S dropped leave f_1'^nu R(gens), times f_1' - 1 for
    the first, as their full residual, which is not zero since R(gens) is
    not; the slice rejects each one (the full expansion that would follow
    is stubbed out as a one-term residual)."""
    import dataclasses

    import jetcalc.invgen as invgen

    expand = invgen._expand_sum
    for cid in ("E2k4", "UE2k5", "UE3k4", "UE4k4"):
        data = load_catalog(cid)
        gens = data.generator_map()
        f1_name = "f1" if "f1" in gens else "f1'"
        for key in sorted(data.syzygy_sets):
            syz = data.syzygy_sets[key]
            fast = verify_syzygies(syz, gens, f1_name)
            with monkeypatch.context() as m:
                empty_tables(m)
                m.setattr(invgen, "killed", lambda p, operators: False)
                assert verify_syzygies(syz, gens, f1_name) == fast
            assert all(c.ok for c in fast)
            factored = [s for s, c in zip(syz, fast) if s.nu is not None and c.max_terms]
            assert len(factored) == sum(1 for s in syz if s.nu is not None)
            perturbed = [dataclasses.replace(s, nu=s.nu + 1) for s in factored]
            perturbed += [dataclasses.replace(s, remainder=2 * s.remainder) for s in factored]
            perturbed += [dataclasses.replace(s, relation=Polynomial.zero()) for s in factored]
            with monkeypatch.context() as m:
                m.setattr(invgen, "_expand_sum", lambda sub, *polys: (1, 0) if all(
                    g is gens[v.name[2:]] for v, g in sub.items()) else expand(sub, *polys))
                assert not any(c.ok for c in verify_syzygies(perturbed, gens, f1_name))


def _spied_killed(monkeypatch):
    """The list of polynomials `killed` is asked about from now on."""
    import jetcalc.invgen as invgen

    seen, certify = [], invgen.killed
    monkeypatch.setattr(invgen, "killed",
                        lambda p, operators: seen.append(p) or certify(p, operators))
    return seen


def _imaged(syzygies, generators, f1_name):
    """The generator objects the syzygies image, f_1' with any nu."""
    names = {v.name[2:] for s in syzygies
             for v in s.relation.variables() | s.remainder.variables() if is_tag(v)}
    names |= {f1_name} if any(s.nu for s in syzygies) else set()
    return {id(generators[n]) for n in names}


def test_generators_are_certified_once_per_object(monkeypatch, empty_tables):
    """`killed` runs once per generator object: not again when the same map
    is checked twice, nor for UE4k4 after UE3k4, whose entries are the same
    objects (all but W10, which no syzygy images)."""
    seen = _spied_killed(monkeypatch)
    imaged = set()
    for cid in ("UE3k4", "UE3k4", "UE4k4"):
        data = load_catalog(cid)
        gens = data.generator_map()
        syz = data.syzygies()
        assert all(c.ok for c in verify_syzygies(syz, gens, "f1"))
        imaged |= _imaged(syz, gens, "f1")
        assert [id(p) for p in seen] == list(dict.fromkeys(id(p) for p in seen))
        assert {id(p) for p in seen} == imaged
    assert len(imaged) == 15


def _perturbed_ue3k4():
    """The UE3k4 syzygies of weight at most 13 that image L3, and the map
    with L3 replaced by L3 + f_1'' f_2', which D_2 does not kill but whose
    slice is L3's."""
    data = load_catalog("UE3k4")
    gens = data.generator_map()
    syz = [s for s in data.syzygies()
           if s.weight <= 13 and "t:L3" in {v.name for v in s.relation.variables()}]
    f1pp, f2 = Polynomial.variable(jet(1, 2)), Polynomial.variable(jet(2, 1))
    perturbed = dict(gens, L3=gens["L3"] + f1pp * f2)
    return syz, gens, perturbed


def test_certified_slice_is_keyed_by_object_not_name(monkeypatch, empty_tables):
    """A later call that maps L3's tag to a perturbed polynomial certifies
    that object afresh, and rejects what the full expansion rejects; L3's
    remembered slice would have accepted it."""
    syz, gens, perturbed = _perturbed_ue3k4()
    seen = _spied_killed(monkeypatch)
    assert all(c.ok for c in verify_syzygies(syz, gens, "f1"))
    before = len(seen)
    got = [(c.ok, c.max_terms, c.detail) for c in verify_syzygies(syz, perturbed, "f1")]
    assert [id(p) for p in seen[before:]] == [id(perturbed["L3"])]
    assert got == reference_verify(syz, perturbed, "f1")
    assert syz and not any(ok for ok, _, _ in got)


def test_uncertified_generator_is_remembered(monkeypatch, empty_tables):
    """A generator `killed` rejects is remembered as such: a second call asks
    `killed` nothing and still expands in full, with the same checks."""
    import jetcalc.invgen as invgen

    syz, _, perturbed = _perturbed_ue3k4()
    seen = _spied_killed(monkeypatch)
    expand, full = invgen._expand_sum, []

    def spy(sub, *polys):
        full.append(all(g is perturbed[v.name[2:]] for v, g in sub.items()))
        return expand(sub, *polys)

    monkeypatch.setattr(invgen, "_expand_sum", spy)
    first = verify_syzygies(syz, perturbed, "f1")
    assert any(p is perturbed["L3"] for p in seen) and full and all(full)
    asked, expanded = len(seen), len(full)
    assert verify_syzygies(syz, perturbed, "f1") == first
    assert len(seen) == asked and full[expanded:] == full[:expanded]


def _v19_squared(cid):
    """Syzygy .35 of UE3k4 or UE4k4, whose remainder is -V19^2, and the map."""
    data = load_catalog(cid)
    [s] = [s for s in data.syzygy_sets["lex41"] if s.id == f"{cid}.35"]
    return s, data.generator_map()


def test_remainder_count_is_shared_across_catalogs(monkeypatch, empty_tables):
    """UE3k4 and UE4k4 share one generator build, so UE4k4.35 finds the
    count of V19^2 that UE3k4.35 made: it expands only S and t R on the
    slice."""
    pairs, checks = counted_pairs(monkeypatch), []
    for cid, made in (("UE3k4", (10480, 47022)), ("UE4k4", (212, 51))):
        s, gens = _v19_squared(cid)
        pairs.update(products=0, squares=0)
        checks += verify_syzygies([s], gens, "f1")
        assert (pairs["products"], pairs["squares"]) == made
    assert [(c.ok, c.max_terms) for c in checks] == [(True, 10268)] * 2


def test_remainder_count_is_keyed_by_object_not_name(empty_tables):
    """S = -f_1' R with R = -V19^2 holds whatever V19 maps to: mapped to
    V19 + f_1'^19, a certified object with a larger square, it is counted
    afresh, as the reference counts it."""
    s, gens = _v19_squared("UE3k4")
    f1 = Polynomial.variable(tags_for(load_catalog("UE3k4"))["f1"])
    made = Syzygy("V19^2", -f1 * s.remainder, s.weight, 1, s.remainder)
    rebound = dict(gens, V19=gens["V19"] + gens["f1"] ** 19)
    for generators in (gens, rebound):
        got = [(c.ok, c.max_terms, c.detail) for c in verify_syzygies([made], generators, "f1")]
        assert got == reference_verify([made], generators, "f1")
    assert got[0][:2] == (True, 10268 + len(gens["V19"]) + 1)


def test_scaled_syzygy_reuses_the_remainder_count(monkeypatch, empty_tables):
    """A copy of UE3k4.35 with S and R times 3 gets the same check, and its
    R(gens) is not expanded again."""
    import dataclasses

    s, gens = _v19_squared("UE3k4")
    [check] = verify_syzygies([s], gens, "f1")
    pairs = counted_pairs(monkeypatch)
    tripled = dataclasses.replace(s, relation=3 * s.relation, remainder=3 * s.remainder)
    assert verify_syzygies([tripled], gens, "f1") == [check]
    assert (pairs["products"], pairs["squares"]) == (212, 51)


def test_two_term_remainders_match_the_reference(monkeypatch, empty_tables):
    """Every syzygy of the four catalogs whose R has two terms (UE2k5.3.14,
    .3.20, .4.28, .4.39) gets the reference's check.  R(gens) is expanded
    once per R up to a scalar: .4.39's R is minus .3.20's, and .4.28's has
    .3.14's monomials with another ratio."""
    import jetcalc.invgen as invgen

    images, expanded = invgen.packed_images, []

    def spy(sub, polys):
        expanded.extend(p for p in polys if len(polys) == 1)
        return images(sub, polys)

    monkeypatch.setattr(invgen, "packed_images", spy)
    two = []
    for cid in ("E2k4", "UE2k5", "UE3k4", "UE4k4"):
        data = load_catalog(cid)
        gens = data.generator_map()
        f1_name = "f1" if "f1" in gens else "f1'"
        syz = [s for key in sorted(data.syzygy_sets) for s in data.syzygy_sets[key]
               if s.nu is not None and len(s.remainder) == 2]
        got = [(c.ok, c.max_terms, c.detail) for c in verify_syzygies(syz, gens, f1_name)]
        assert got == reference_verify(syz, gens, f1_name)
        two += syz
    assert [s.id for s in two] == ["UE2k5.3.14", "UE2k5.3.20", "UE2k5.4.28", "UE2k5.4.39"]
    assert two[3].remainder == -two[1].remainder
    assert [id(r) for r in expanded] == [id(two[k].remainder) for k in (0, 1, 2)]


def test_run_generation_hands_membership_the_deadline(monkeypatch):
    import time

    import jetcalc.invgen as invgen
    from jetcalc.groebner import Budget, BudgetExceeded

    seen = []

    def expired(self, p, budget=None):
        seen.append(budget)
        raise BudgetExceeded("time budget exhausted")

    monkeypatch.setattr(invgen.Subalgebra, "member", expired)
    caller = Budget(deadline=time.monotonic() + 3600)
    state = run_generation(JetContext(2, 3), "full", budget=caller)
    assert state.budget_exceeded and not state.terminated
    assert state.transcript[-1] == "loop 1: membership test failed: time budget exhausted"
    # the deadline is forwarded; the step count is not
    [got] = seen
    assert got is not caller and got.deadline == caller.deadline
    assert got.steps == Budget().steps
