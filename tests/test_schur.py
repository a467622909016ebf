"""Partitions, Chern systems, Giambelli, families, and the word calculus."""

import pytest

from jetcalc.degpoly import DegreePolynomial
from jetcalc.schur import (
    chern_hypersurface,
    chi_schur_leading,
    chi_slots,
    conjugate,
    enumerate_families,
    format_chern_combo,
    generator_schur_counts,
    giambelli,
    partitions,
    quadrant_complement_words,
    syzygy_lead_vertices_lex,
)


def test_partitions():
    assert partitions(3) == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
    assert len(partitions(4)) == 5
    for lam in partitions(5):
        assert sum(lam) == 5
        assert conjugate(conjugate(lam)) == lam
    assert conjugate((1, 1, 1)) == (3, 0, 0)
    assert conjugate((2, 1, 0)) == (2, 1, 0)


def test_chern_hypersurface_lemma():
    cs = chern_hypersurface(3)
    d = DegreePolynomial.d()
    assert cs.q(1) == 5 - d  # c_1 = -h (d - 5) on a threefold
    assert cs.q(2) == d * d - 5 * d + 10
    assert cs.q(0) == DegreePolynomial.constant(1)
    assert cs.q(4).is_zero() and cs.q(-1).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_integral_c1_power(n):
    cs = chern_hypersurface(n)
    d = DegreePolynomial.d()
    expect = ((-1) ** n) * d * (DegreePolynomial([-(n + 2), 1]) ** n)
    assert cs.integrate_monomial([1] * n) == expect


def test_giambelli_displays():
    combos3 = {tuple(lam): format_chern_combo(giambelli(conjugate(lam), 3))
               for lam in partitions(3)}
    assert combos3[(3, 0, 0)] == "c1^3 - 2 c1 c2 + c3"
    assert combos3[(2, 1, 0)] == "c1 c2 - c3"
    assert combos3[(1, 1, 1)] == "c3"
    combos4 = {tuple(lam): format_chern_combo(giambelli(conjugate(lam), 4))
               for lam in partitions(4)}
    assert combos4[(4, 0, 0, 0)] == "c1^4 - 3 c1^2 c2 + 2 c1 c3 + c2^2 - c4"
    assert combos4[(3, 1, 0, 0)] == "c1^2 c2 - c1 c3 - c2^2 + c4"
    assert combos4[(2, 2, 0, 0)] == "-c1 c3 + c2^2"
    assert combos4[(2, 1, 1, 0)] == "c1 c3 - c4"
    assert combos4[(1, 1, 1, 1)] == "c4"


def test_chi_slots_factorials():
    slots = {s.name: s.denominator for s in chi_slots(4)}
    assert slots == {"0127": 10080, "0136": 4320, "0145": 2880,
                     "0235": 1440, "1234": 288}
    slots3 = {s.name: s.denominator for s in chi_slots(3)}
    assert slots3 == {"015": 120, "024": 48, "123": 12}


def test_chi_duality():
    cs = chern_hypersurface(3)
    for ell in [(5, 3, 1), (9, 4, 4), (7, 0, 0)]:
        assert chi_schur_leading(ell, cs, dual=True) == \
            -1 * chi_schur_leading(ell, cs, dual=False)
    cs4 = chern_hypersurface(4)
    ell = (6, 4, 2, 1)
    assert chi_schur_leading(ell, cs4, dual=True) == \
        chi_schur_leading(ell, cs4, dual=False)


def test_chi_repeated_indices_vanish_at_leading_order():
    # two equal shifted indices make every slot determinant zero
    cs = chern_hypersurface(3)
    assert chi_schur_leading((4, 4, 4), cs, shifted=False).is_zero()


def test_determinant_antisymmetry():
    cs = chern_hypersurface(3)
    a = chi_schur_leading((7, 4, 2), cs, shifted=False)
    b = chi_schur_leading((4, 7, 2), cs, shifted=False)
    assert a == -1 * b


def test_generator_counts_match_eigenvalue_table():
    counts = generator_schur_counts()
    assert counts["L3"] == (1, 1, 0, 0)
    assert counts["L5"] == (2, 1, 0, 0)
    assert counts["L7"] == (3, 1, 0, 0)
    assert counts["D6"] == (1, 1, 1, 0)
    assert counts["D8"] == (2, 1, 1, 0)
    assert counts["N10"] == (3, 1, 1, 0)
    assert counts["M8"] == (2, 2, 0, 0)
    assert counts["E10"] == (2, 2, 1, 0)
    assert counts["L12"] == (3, 2, 1, 0)
    assert counts["Q14"] == (4, 2, 1, 0)
    assert counts["R15"] == (3, 2, 2, 0)
    assert counts["U17"] == (3, 3, 2, 0)
    assert counts["V19"] == (4, 3, 2, 0)
    assert counts["X21"] == (5, 3, 2, 0)
    assert counts["f1"] == (1, 0, 0, 0)
    assert counts["W10"] == (1, 1, 1, 1)


PRINTED_QUADRANTS = [
    {"a": 1, "c": 1}, {"a": 1, "e": 1}, {"a": 1, "f": 1}, {"a": 1, "i": 1},
    {"a": 1, "j": 1}, {"a": 1, "k": 1}, {"a": 1, "l": 1}, {"a": 1, "m": 1},
    {"a": 1, "n": 1}, {"b": 1, "e": 1}, {"b": 1, "f": 1}, {"b": 1, "i": 1},
    {"b": 1, "j": 1}, {"b": 1, "k": 1}, {"b": 1, "l": 1}, {"b": 1, "m": 1},
    {"b": 1, "n": 1}, {"c": 1, "k": 1}, {"c": 1, "l": 1}, {"c": 1, "m": 1},
    {"c": 1, "n": 1}, {"d": 1, "f": 1}, {"d": 1, "i": 1}, {"d": 1, "j": 1},
    {"d": 1, "m": 1}, {"d": 1, "n": 1}, {"e": 1, "i": 1}, {"e": 1, "j": 1},
    {"e": 1, "m": 1}, {"e": 1, "n": 1}, {"d": 1, "g": 1, "k": 1},
    {"e": 1, "g": 1, "k": 1}, {"f": 1, "g": 1, "k": 1}, {"g": 1, "k": 2},
    {"h": 1, "j": 1}, {"h": 1, "n": 1}, {"i": 2, "n": 1},
    {"f": 1, "h": 1, "m": 1}, {"f": 1, "i": 1, "m": 1},
    {"f": 1, "i": 1, "n": 1}, {"f": 1, "l": 1, "n": 1},
]


def test_syzygy_leading_quadrants_match_printed_list():
    got = syzygy_lead_vertices_lex()
    assert len(got) == 41
    canon = lambda lst: sorted(tuple(sorted(v.items())) for v in lst)
    assert canon(got) == canon(PRINTED_QUADRANTS)


PRINTED_WORDS = {
    # base word -> multiplicity; the ninth-family word is printed with a
    # spurious extra letter in the source and is restored here from the
    # set-algebra computation (free exponents f, i, j, k, l)
    "abcdefghi": 2, "abcdefghn": 1, "abcdefgjn": 1, "abcdefhik": 4,
    "abcdefhkn": 2, "abcdefjkn": 2, "abcdeghil": 1, "abcdeghin": 1,
    "abcdeghmn": 1, "abcdegjmn": 1, "abcdehikl": 1, "abcdehikn": 1,
    "abcdehkmn": 1, "abcdejkmn": 1, "abcdgijmn": 1, "abcdijkmn": 1,
    "abcfgijmn": 1, "abcfijkmn": 1, "abdehklmn": 1, "abdejklmn": 1,
    "abdijklmn": 1, "abfijklmn": 1, "aefijklmn": 1, "cefijklmn": 1,
}


def test_word_computation_thirty_words_24_families():
    words = quadrant_complement_words(syzygy_lead_vertices_lex())
    assert len(words) == 30
    # exactly six carry a one-marker (the primed variants), none keep an
    # empty-set i.i1 or k.k1 contradiction
    ones = [w for w in words if 1 in w.fixed.values()]
    assert len(ones) == 6
    fams = enumerate_families()
    assert len(fams) == 24
    assert {f.word: f.multiplicity for f in fams} == PRINTED_WORDS
    assert [f.id for f in fams] == [chr(ord("A") + k) for k in range(24)]
    mult = {f.id: f.multiplicity for f in fams}
    assert mult["A"] == 2 and mult["D"] == 4 and mult["E"] == 2 and mult["F"] == 2


def test_families_are_fresh_on_every_call():
    """The families are worked out once per process, but no call shares a
    mutable list or dict with another."""
    first, second = enumerate_families(), enumerate_families()
    assert first == second and first is not second
    first[0].weights["j"] = -1
    first[0].counts["j"] = (0, 0, 0, 0)
    first[0].free.append("z")
    first[1].multiplicity = 99
    first.pop()
    third = enumerate_families()
    assert second == third and len(third) == 24
    assert third[0].weights["j"] == 14 and "z" not in third[0].free
    assert {f.word: f.multiplicity for f in third} == PRINTED_WORDS


def ell_forms(family):
    """The four linear forms ell_1..ell_4 over the free exponents."""
    return [{x: family.counts[x][i] for x in family.free if family.counts[x][i]}
            for i in range(4)]


def test_family_a_forms():
    fam = next(f for f in enumerate_families() if f.id == "A")
    assert fam.free == ["j", "k", "l", "m", "n", "o", "p"]
    forms = ell_forms(fam)
    assert forms[0] == {"j": 4, "k": 3, "l": 3, "m": 4, "n": 5, "o": 1, "p": 1}
    assert forms[1] == {"j": 2, "k": 2, "l": 3, "m": 3, "n": 3, "p": 1}
    assert forms[2] == {"j": 1, "k": 2, "l": 2, "m": 2, "n": 2, "p": 1}
    assert forms[3] == {"p": 1}
    # point evaluation: all free exponents zero except o gives (m, 0, 0, 0)
    weights = {x: fam.weights[x] for x in fam.free}
    assert weights == {"j": 14, "k": 15, "l": 17, "m": 19, "n": 21, "o": 1, "p": 10}


def test_schur_weight_of_family_point():
    fam = next(f for f in enumerate_families() if f.id == "A")
    m = 100
    point = {"j": 2, "p": 1}  # weight 14*2 + 10 = 38, o = 62
    o = m - sum(fam.weights[x] * e for x, e in point.items())
    ell = []
    for i in range(4):
        val = sum(fam.counts[x][i] * e for x, e in point.items())
        if i == 0:
            val += o
        ell.append(val)
    assert ell == [62 + 8 + 1, 4 + 1, 2 + 1, 1]
    assert ell == sorted(ell, reverse=True)
