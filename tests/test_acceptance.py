"""The acceptance gate: one test per criterion, timed at its stated budget.

Each criterion reports one pass/fail line in the pytest terminal summary.
Criteria 12b and 12c assert printed threshold values that an exact
re-derivation shows to be inconsistent with the source's own decomposition
data; they are strict expected failures.  The exact values, 26 and 71, are
checked by the passing tests `test_dimension3_chi_threshold_is_26` and
`test_dimension3_minorant_threshold_is_71` in tests/test_euler.py, and the
README describes the defect.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import record_criterion
from test_jets import bell_number_by_set_partitions, jacobi, plucker1, plucker2

from jetcalc.catalog import load_catalog, polarized_count
from jetcalc.degpoly import DegreePolynomial
from jetcalc.groebner import Budget, relations_ideal
from jetcalc.invgen import (
    invariant_space_dimension,
    run_generation,
    state_normal_form_monomials,
    verify_syzygies,
)
from jetcalc.jets import JetContext, faa_di_bruno, poly_jet, restrict_f1, wronskian
from jetcalc.polyring import Polynomial, phi, proportional
from jetcalc import euler, schur


class Clock:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{elapsed:.1f}s exceeds {self.limit}s budget"
        return elapsed


@pytest.fixture(scope="module")
def e24_state():
    return run_generation(JetContext(2, 4), "full")


@pytest.fixture(scope="module")
def families():
    return schur.enumerate_families()


@pytest.fixture(scope="module")
def dim4_data(families):
    start = time.monotonic()
    contribs = euler.family_contributions(families, 4)
    coeffs = {}
    for fam, c in zip(families, contribs):
        for name, v in c.slots.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + fam.multiplicity * v
    chi44 = euler.assemble_chi(coeffs, 4)
    elapsed = time.monotonic() - start
    return {f.id: c for f, c in zip(families, contribs)}, coeffs, chi44, elapsed


def test_criterion_01_calculus_identities():
    """Jacobi, Plucker-1, Plucker-2 vanish for all n=3 basic families."""
    clock = Clock(10)
    items = [(1, poly_jet(i, 1)) for i in (1, 2, 3)]
    items += [(3, wronskian([i, j])) for (i, j) in ((1, 2), (1, 3), (2, 3))]
    for triple in combinations_with_replacement(items, 3):
        assert jacobi(*triple).is_zero()
        assert plucker1(*triple).is_zero()
    for quad in combinations_with_replacement(items, 4):
        assert plucker2(*quad).is_zero()
    record_criterion(1, "Jacobi / Plucker-1 / Plucker-2 identities (n=3)", True,
                     f"{clock.done():.1f}s")


def test_criterion_02_faa_di_bruno():
    """Matrix rows match the chain-rule displays; row sums are Bell numbers."""
    clock = Clock(1)
    M = faa_di_bruno(5, normalized=False)
    p = {k: Polynomial.variable(phi(k)) for k in range(1, 6)}
    displays = {
        (2, 1): p[2], (2, 2): p[1] ** 2,
        (3, 1): p[3], (3, 2): 3 * p[2] * p[1], (3, 3): p[1] ** 3,
        (4, 1): p[4], (4, 2): 4 * p[3] * p[1] + 3 * p[2] ** 2,
        (4, 3): 6 * p[2] * p[1] ** 2, (4, 4): p[1] ** 4,
        (5, 1): p[5], (5, 2): 5 * p[4] * p[1] + 10 * p[3] * p[2],
        (5, 3): 15 * p[2] ** 2 * p[1] + 10 * p[3] * p[1] ** 2,
        (5, 4): 10 * p[2] * p[1] ** 3, (5, 5): p[1] ** 5,
    }
    for (lam, mu), expected in displays.items():
        assert M[lam][mu] == expected, (lam, mu)
    for kappa in range(1, 8):
        Mk = faa_di_bruno(kappa)
        ones = {phi(j): Polynomial.constant(1) for j in range(1, kappa + 1)}
        total = sum((Mk[kappa][mu].substitute(ones).terms.get((), 0)
                     for mu in range(1, kappa + 1)), Fraction(0))
        assert total == bell_number_by_set_partitions(kappa)
    record_criterion(2, "Faa di Bruno rows and Bell-number sums", True,
                     f"{clock.done():.2f}s")


def test_criterion_03_e23_derivation():
    """5 generators and the single quadratic syzygy at n=2, kappa=3."""
    clock = Clock(30)
    state = run_generation(JetContext(2, 3), "full")
    assert state.terminated
    catalog = load_catalog("E2k3")
    assert len(state.generators) == 5
    for entry in catalog.entries:
        assert any(proportional(g.poly, entry.poly) for g in state.generators), entry.name
    assert len(state.syzygies) == 1
    checks = verify_syzygies(state.syzygies,
                             {g.name: g.poly for g in state.generators})
    assert all(c.ok for c in checks)
    record_criterion(3, "E^2_3 derivation (5 generators, 1 syzygy)", True,
                     f"{clock.done():.1f}s")


def test_criterion_04_e24_derivation(e24_state):
    """9 generators, the fundamental syzygies, three-loop transcript."""
    clock = Clock(300)
    state = e24_state
    assert state.terminated and state.loop_count == 3
    catalog = load_catalog("E2k4")
    assert len(state.generators) == 9
    for entry in catalog.entries:
        assert any(proportional(g.poly, entry.poly) for g in state.generators), entry.name
    # transcript: loops of 3, 6, 9 relations
    counts = [int(line.split()[2]) for line in state.transcript
              if "relations" in line]
    assert counts == [3, 6, 9]
    assert len(state.syzygies) == 9
    # same ideal as the catalogued nine relations, elementwise up to scaling
    # after reduction; verify by mutual normal-form vanishing on tags
    from jetcalc.groebner import buchberger, normal_form
    from jetcalc.polyring import DegRevLex, tag

    gens_sorted = sorted((g for g in state.generators if g.name != "f1'"),
                         key=lambda g: g.weight)
    names = {g.name: k for k, g in enumerate(gens_sorted)}
    remap = {}
    for entry in catalog.entries:
        match = next(g for g in state.generators if proportional(g.poly, entry.poly))
        remap[entry.name] = match
    mine = [s.relation for s in state.syzygies]
    theirs = []
    for s in catalog.syzygies():
        sub = {}
        for v in s.relation.variables():
            g = remap[v.name[2:]]
            entry = catalog.entry(v.name[2:])
            ratio = next(iter(g.poly.terms.values())) / \
                entry.poly.terms[next(iter(g.poly.terms))]
            sub[v] = ratio * Polynomial.variable(
                tag(g.name, g.weight, names.get(g.name, 99)))
        theirs.append(s.relation.substitute(sub))
    mine_tagged = []
    for rel in mine:
        sub = {v: Polynomial.variable(tag(v.name[2:],
                                          v.weight, names.get(v.name[2:], 99)))
               for v in rel.variables()}
        mine_tagged.append(rel.substitute(sub))
    gb_mine = buchberger(mine_tagged, DegRevLex())
    gb_theirs = buchberger(theirs, DegRevLex())
    for r in theirs:
        assert normal_form(r, gb_mine).is_zero()
    for r in mine_tagged:
        assert normal_form(r, gb_theirs).is_zero()
    # third loop adds three syzygies; their catalogued representatives carry
    # the "+0" remainder (one printed third-loop row in the source folds a
    # nonzero f1' Lam^5_2 M^8 remainder)
    zero_remainders = [s for s in state.syzygies if s.nu is None]
    assert len(zero_remainders) >= 2
    assert sum(1 for s in catalog.syzygies() if s.nu is None) == 3
    record_criterion(4, "E^2_4 derivation (9 generators, 9 syzygies, 3 loops)",
                     True, f"{clock.done():.1f}s")


def test_criterion_05_ue33():
    """Four algebraically independent bi-invariants, empty relation ideal."""
    clock = Clock(30)
    state = run_generation(JetContext(3, 3), "bi")
    assert state.terminated
    assert sorted(g.weight for g in state.generators) == [1, 3, 5, 6]
    assert not state.syzygies
    assert state.relation_method == "jacobian-independence"
    record_criterion(5, "UE^3_3: 4 independent generators, no syzygy", True,
                     f"{clock.done():.1f}s")


def test_criterion_06_syzygy_verification():
    """41 + 9 + 32 filled syzygies expand to the exact zero polynomial."""
    clock = Clock(1200)
    ue34 = load_catalog("UE3k4")
    checks41 = verify_syzygies(ue34.syzygy_sets["lex41"], ue34.generator_map(), "f1")
    assert len(checks41) == 41 and all(c.ok for c in checks41)
    jet_vars = set()
    for e in ue34.entries:
        jet_vars |= e.poly.variables()
    assert len(jet_vars) == 12  # the twelve jet variables of n=3, kappa=4
    e24 = load_catalog("E2k4")
    checks9 = verify_syzygies(e24.syzygies(), e24.generator_map(), "f1")
    assert len(checks9) == 9 and all(c.ok for c in checks9)
    ue25 = load_catalog("UE2k5")
    checks32 = verify_syzygies(ue25.syzygy_sets["loop3"], ue25.generator_map(), "f1")
    assert len(checks32) == 32 and all(c.ok for c in checks32)
    peak = max(c.max_terms for c in checks41 + checks9 + checks32)
    record_criterion(6, "syzygy verification: 41 + 9 + 32 filled relations", True,
                     f"{clock.done():.1f}s, peak {peak} terms")


def test_criterion_07_catalog_integrity():
    """Every entry passes its invariance checks; quotient identities hold."""
    clock = Clock(600)
    from jetcalc.catalog import CATALOG_IDS, integrity_check

    for cid in CATALOG_IDS:
        data = load_catalog(cid)
        issues = integrity_check(data)
        assert not issues, (cid, issues)
    G = load_catalog("UE2k5").generator_map()
    f1 = G["f1"]
    assert f1 * G["X18"] == -5 * G["L9"] * G["M10"] + 56 * G["L7"] * G["K12"]
    assert f1 * G["X19"] == -5 * G["M10"] ** 2 + 64 * G["M8"] * G["K12"]
    assert f1 * G["X21"] == -5 * G["M10"] * G["N12"] + 8 * G["M8"] * G["H14"]
    assert f1 * G["X23"] == -7 * G["N12"] * G["K12"] + G["M8"] * G["F16"]
    assert f1 * G["X25"] == -56 * G["K12"] * G["H14"] + 5 * G["M10"] * G["F16"]
    assert f1 * G["Y27"] == -56 * G["K12"] * G["F16"] + G["M10"] * G["X18"]
    record_criterion(7, "catalog integrity + weight-18..27 quotient identities",
                     True, f"{clock.done():.1f}s")


def test_criterion_08_dimension_oracle(e24_state):
    """Normal-form counts equal brute-force invariant dimensions, m <= 10."""
    clock = Clock(900)
    mismatches = []
    for m in range(0, 11):
        count = len(state_normal_form_monomials(e24_state, m))
        dim = invariant_space_dimension(JetContext(2, 4), m)
        if count != dim:
            mismatches.append((m, count, dim))
    assert not mismatches, mismatches
    record_criterion(8, "brute-force dimension oracle, weights 0..10 (n=2, k=4)",
                     True, f"{clock.done():.1f}s")


def test_criterion_09_giambelli_chern():
    """Displayed Giambelli combinations; integral of c1^n for n <= 5."""
    clock = Clock(1)
    from jetcalc.schur import (chern_hypersurface, conjugate,
                               format_chern_combo, giambelli, partitions)

    combos3 = {tuple(lam): format_chern_combo(giambelli(conjugate(lam), 3))
               for lam in partitions(3)}
    assert combos3 == {(3, 0, 0): "c1^3 - 2 c1 c2 + c3",
                       (2, 1, 0): "c1 c2 - c3", (1, 1, 1): "c3"}
    combos4 = {tuple(lam): format_chern_combo(giambelli(conjugate(lam), 4))
               for lam in partitions(4)}
    assert combos4[(4, 0, 0, 0)] == "c1^4 - 3 c1^2 c2 + 2 c1 c3 + c2^2 - c4"
    assert combos4[(2, 2, 0, 0)] == "-c1 c3 + c2^2"
    for n in range(1, 6):
        cs = chern_hypersurface(n)
        d = DegreePolynomial.d()
        expect = ((-1) ** n) * d * (DegreePolynomial([-(n + 2), 1]) ** n)
        assert cs.integrate_monomial([1] * n) == expect
    record_criterion(9, "Giambelli / Chern displays and c1^n integrals", True,
                     f"{clock.done():.2f}s")


def test_criterion_10_rousseau_cross_check():
    """The order-3 threefold characteristic reproduces exactly."""
    clock = Clock(60)
    chi = euler.chi_rousseau_e33()
    assert euler.scaled_numerator(chi, 81648000000) == \
        [0, -358873, 185559, -20739, 389]
    record_criterion(10, "chi(E^3_3) = m^9 d (389 d^3 - ...)/81648000000", True,
                     f"{clock.done():.1f}s")


GOLD_A = {
    "0127": Fraction(157423754766863651482110063939631617713614267,
                     7470130440549849070995762660822781685545412418720000000000000),
    "0136": Fraction(285224611253902544589491011638457808537315047,
                     34860608722565962331313559083839647865878591287360000000000000),
    "0145": Fraction(10306128852122999807705628256770676631371801,
                     5229091308384894349697033862575947179881788693104000000000000),
    "0235": Fraction(2097522233626513305099611552292506537139247,
                     2376859685629497431680469937534521445400813042320000000000000),
    "1234": Fraction(20051359515371820286197508247902844353,
                     2102485347748339169995992868230447983547822240000000000000),
}

GOLD_COEFF = {
    "0127": Fraction(2127566277536547206644157, 65144733745232853829877760000000000000),
    "0136": Fraction(52676407087143116547997, 4053450099703377571636838400000000000),
    "0145": Fraction(164685282124542664946051, 50668126246292219645460480000000000000),
    "0235": Fraction(122298240743566105217737, 114003284054157494202286080000000000000),
    "1234": Fraction(1429957461022772407321, 130289467490465707659755520000000000000),
}

E44_DENOMINATOR = 1313317832303894333210335641600000000000000
E44_NUMERATOR = [0, 1624908955061039283976041114, -928886901354141153880624704,
                 141170475250247662147363941, -6170606622505955255988786,
                 50048511135797034256235]
E43_DENOMINATOR = 206133591045620367360000000
H2_COEFFICIENT = Fraction(342988705758851, 29822568148961280000000)


def test_criterion_11_golden_rationals(dim4_data):
    """Family A five-tuple, the five Coeff slots, and the boxed chi."""
    contribs, coeffs, chi44, elapsed = dim4_data
    assert contribs["A"].slots == GOLD_A
    assert coeffs == GOLD_COEFF
    assert euler.scaled_numerator(chi44, E44_DENOMINATOR) == E44_NUMERATOR
    assert elapsed < 300, f"{elapsed:.1f}s exceeds the 300s budget"
    record_criterion(11, "all printed degree-16 golden rationals", True,
                     f"{elapsed:.1f}s incl. all slot integrals")


def test_criterion_12a_threshold_96_and_h2(dim4_data, families):
    """Threshold 96 for the dimension-4 characteristic; h^2 constant exact."""
    clock = Clock(60)
    _, _, chi44, _ = dim4_data
    assert euler.positivity_threshold(chi44) == 96
    assert euler.h2_majorant_coefficient(euler.e43_slot_totals(families)) == H2_COEFFICIENT
    record_criterion("12a", "threshold 96 (dim 4) + exact h^2 constant", True,
                     f"{clock.done():.1f}s")


@pytest.mark.xfail(strict=True,
                   reason="the source's boxed dimension-3 polynomial is "
                          "inconsistent with its own decomposition data; the "
                          "exact assembly gives threshold 26 (see "
                          "test_euler.test_dimension3_chi_threshold_is_26)")
def test_criterion_12b_threshold_29(families):
    """Printed threshold 29 for the dimension-3 characteristic."""
    chi43 = euler.chi_e43_leading(euler.e43_slot_totals(families))
    threshold = euler.positivity_threshold(chi43)
    record_criterion("12b", "threshold 29 (dim 3 chi)", threshold == 29,
                     f"computed {threshold}; documented source defect")
    assert threshold == 29


@pytest.mark.xfail(strict=True,
                   reason="follows the 12b defect: the exact minorant gives "
                          "threshold 71 (see "
                          "test_euler.test_dimension3_minorant_threshold_is_71)")
def test_criterion_12c_threshold_72(families):
    """Printed threshold 72 for the dimension-3 section minorant."""
    h0 = euler.h0_minorant_e43(families)
    threshold = euler.positivity_threshold(h0)
    record_criterion("12c", "threshold 72 (dim 3 h^0 minorant)", threshold == 72,
                     f"computed {threshold}; documented source defect")
    assert threshold == 72


def test_criterion_13_polarized_counts():
    clock = Clock(1)
    assert polarized_count("E4k4") == 2835
    assert polarized_count("E3k4") == 145
    assert polarized_count("E2k5") == 56
    record_criterion(13, "polarized generator counts 2835 / 145 / 56", True,
                     f"{clock.done():.2f}s")


def test_criterion_14_stretch_runs(monkeypatch):
    """Non-gating: order-5 first loop reproduces; deeper loops may budget out."""
    import jetcalc.groebner as groebner

    clock = Clock(600)
    data = load_catalog("UE2k5")
    G = data.generator_map()
    named = [(k, G[k].weighted_degree(), restrict_f1(G[k]))
             for k in ("L3", "L5", "L7", "L9")]
    rid = relations_ideal(named, budget=Budget(2_000_000))
    assert len(rid.relations) == 3
    # second loop on the graded kernel (elimination gets a one-step slice),
    # under a raised budget; budget exhaustion is acceptable
    named2 = [(k, G[k].weighted_degree(), restrict_f1(G[k]))
              for k in ("L3", "L5", "L7", "L9", "M8", "M10", "K12")]
    monkeypatch.setattr(groebner, "_ELIMINATION_SLICE", 1)
    try:
        rid2 = relations_ideal(named2, budget=Budget(4_000_000))
        outcome = f"loop 2: {len(rid2.relations)} relations ({rid2.method})"
        ok2 = len(rid2.relations) == 10
    except Exception as exc:  # BudgetExceeded is an acceptable recorded outcome
        outcome = f"loop 2: budget exhausted ({exc})"
        ok2 = True
    assert ok2
    record_criterion(14, "stretch: order-5 loops (non-gating)", True,
                     f"{clock.done():.1f}s; {outcome}")


def test_acceptance_summary_sorts_criteria_naturally():
    from conftest import criterion_key

    labels = [14, "12c", 2, 10, "12a", 1, 13, 11, "12b"]
    assert sorted(labels, key=criterion_key) == \
        [1, 2, 10, 11, "12a", "12b", "12c", 13, 14]
