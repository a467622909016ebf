"""Partitions, Chern systems, Giambelli, families, and the word calculus."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from jetcalc.catalog import load_catalog
from jetcalc.degpoly import DegreePolynomial
from jetcalc.euler import chi_schur_leading
from jetcalc.polyring import Polynomial, determinant, signed_permutations, tag
from jetcalc.schur import (
    alternant,
    chern_hypersurface,
    chi_slots,
    conjugate,
    enumerate_families,
    format_chern_combo,
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


# ---------------------------------------------------------------------------
# the slow oracles: determinants of Polynomial powers, Gaussian elimination
# ---------------------------------------------------------------------------


def ell_symbols(n):
    return [tag(f"l{i}", 0, 100 + i) for i in range(1, n + 1)]


def expand_over(p: Polynomial, symbols):
    """{exponent vector over symbols: coefficient} of a polynomial in them."""
    out = {}
    for mono, c in p.terms.items():
        row = [0] * len(symbols)
        for v, e in mono:
            row[symbols.index(v)] = e
        out[tuple(row)] = c
    return out


def cofactor_determinant(rows):
    """Laplace expansion along the first row; no permutation signs, so it is
    independent of `polyring.signed_permutations`."""
    if not rows:
        return Polynomial.constant(1)
    acc = Polynomial.zero()
    for j, entry in enumerate(rows[0]):
        minor = cofactor_determinant([row[:j] + row[j + 1:] for row in rows[1:]])
        acc = acc + (-1) ** j * entry * minor
    return acc


def determinant_oracle(exponents):
    """det(l_j ^ e_i), rows in the given order, over tag symbols, as
    {exponent vector: coefficient}."""
    symbols = ell_symbols(len(exponents))
    ells = [Polynomial.variable(v) for v in symbols]
    return expand_over(cofactor_determinant([[x ** e for x in ells] for e in exponents]),
                       symbols)


def gaussian_det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [row[:] for row in rows]
    k = len(m)
    acc = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            acc = -acc
        pv = m[col][col]
        acc *= pv
        for r in range(col + 1, k):
            if m[r][col]:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return acc


def gaussian_chi_schur_leading(ell, dual=True):
    """The Schur-bundle leading term with descending exponent rows, each
    power determinant at ell'_i = ell_i + n - i by Gaussian elimination."""
    n = len(ell)
    cs = chern_hypersurface(n)
    lp = [Fraction(e + n - i) for i, e in enumerate(ell, start=1)]
    acc = DegreePolynomial()
    for slot in chi_slots(n):
        det = gaussian_det([[x ** e for x in lp] for e in slot.exponents])
        if det:
            acc = acc + cs.integrate_combo(slot.combo, dual=dual) * (det / slot.denominator)
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_alternant_matches_the_cofactor_expansion_on_every_slot(n):
    for slot in chi_slots(n):
        for rows in (sorted(slot.exponents), list(slot.exponents)):
            got = alternant(rows)
            assert got == determinant_oracle(rows)
            assert all(c in (1, -1) for c in got.values())


def test_alternant_matches_the_cofactor_expansion_on_random_exponents():
    rng = random.Random(11)
    for _ in range(30):
        exponents = rng.sample(range(9), rng.randint(1, 4))
        assert alternant(exponents) == determinant_oracle(exponents)


def test_polynomial_determinant_matches_the_cofactor_expansion():
    rng = random.Random(5)
    symbols = ell_symbols(4)
    for k in range(1, 5):
        rows = [[Polynomial.variable(rng.choice(symbols)) * rng.randint(-3, 3) + rng.randint(-2, 2)
                 for _ in range(k)] for _ in range(k)]
        assert determinant(rows) == cofactor_determinant(rows)


def test_signed_permutations():
    for k in range(5):
        perms = list(signed_permutations(k))
        assert len({p for p, _ in perms}) == len(perms) == factorial(k)
        for perm, sign in perms:
            # the sign of prod (perm[b] - perm[a]) over a < b
            assert sign == prod(1 if perm[a] < perm[b] else -1
                                for a in range(k) for b in range(a + 1, k))


def test_alternant_refuses_repeated_exponents():
    with pytest.raises(ValueError):
        alternant([3, 1, 3])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chi_schur_leading_matches_gaussian_elimination(n):
    rng = random.Random(40 + n)
    for _ in range(12):
        ell = sorted((rng.randint(0, 12) for _ in range(n)), reverse=True)
        for dual in (True, False):
            assert chi_schur_leading(ell, dual=dual) == gaussian_chi_schur_leading(ell, dual=dual)


def test_chi_duality():
    for ell in [(5, 3, 1), (9, 4, 4), (7, 0, 0)]:
        assert chi_schur_leading(ell, dual=True) == \
            -1 * chi_schur_leading(ell, dual=False)
    ell = (6, 4, 2, 1)
    assert chi_schur_leading(ell, dual=True) == chi_schur_leading(ell, dual=False)


def test_chi_repeated_indices_vanish_at_leading_order():
    # (2, 3, 4) shifts to (4, 4, 4): equal indices make every slot determinant zero
    assert chi_schur_leading((2, 3, 4)).is_zero()


def test_determinant_antisymmetry():
    # (7, 4, 2) and (3, 8, 2) shift to (9, 5, 2) and (5, 9, 2)
    a = chi_schur_leading((7, 4, 2))
    b = chi_schur_leading((3, 8, 2))
    assert a == -1 * b and not a.is_zero()


def test_generator_counts_match_eigenvalue_table():
    counts = {e.name: tuple(e.counts) for e in load_catalog("UE4k4").entries}
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
