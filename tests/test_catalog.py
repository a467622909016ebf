"""Catalog integrity: recipes vs printed expansions, restrictions, counts."""

from fractions import Fraction

import pytest

from jetcalc.catalog import (
    CATALOG_IDS,
    build_catalog,
    catalog_from_json,
    catalog_to_json,
    integrity_check,
    load_catalog,
    parse_tag_expression,
    polarized_count,
)
from jetcalc.jets import (
    bracket,
    check_reparam_invariance,
    check_unipotent_invariance,
    delta_minor,
    divide_f1_power,
    lambda_chain,
    poly_jet,
    restrict_f1,
    wronskian,
)


def test_catalog_sizes():
    assert len(load_catalog("E2k2").entries) == 3
    assert len(load_catalog("E2k3").entries) == 5
    e24 = load_catalog("E2k4")
    assert len(e24.entries) == 9 and len(e24.syzygies()) == 9
    assert len(load_catalog("E2k5").entries) == 24
    ue25 = load_catalog("UE2k5")
    assert len(ue25.entries) == 17
    assert [len(ue25.syzygy_sets[k]) for k in ("loop1", "loop2", "loop3", "loop4")] \
        == [3, 10, 32, 66]
    assert len(load_catalog("E3k3").entries) == 16
    assert len(load_catalog("UE3k3").entries) == 4
    ue34 = load_catalog("UE3k4")
    assert len(ue34.entries) == 15 and len(ue34.syzygy_sets["lex41"]) == 41
    ue44 = load_catalog("UE4k4")
    assert len(ue44.entries) == 16 and len(ue44.syzygy_sets["lex41"]) == 41


@pytest.mark.parametrize("cid", ["E2k2", "E2k3", "E2k4", "UE3k3", "UE3k4"])
def test_integrity_clean(cid):
    assert integrity_check(load_catalog(cid)) == []


def test_polarized_counts():
    assert polarized_count("E4k4") == 2835
    assert polarized_count("UE4k4") == 2835
    assert polarized_count("E3k4") == 145
    assert polarized_count("E2k5") == 56
    with pytest.raises(KeyError):
        polarized_count("E9k9")


def test_printed_expansions_dimension4():
    """The explicit Delta-determinant displays for the order-4 generators."""
    data = load_catalog("UE4k4")
    G = data.generator_map()
    f1p, f1pp, f1ppp = poly_jet(1, 1), poly_jet(1, 2), poly_jet(1, 3)
    d12 = lambda a, b: delta_minor([1, 2], [a, b])
    d123 = lambda a, b, c: delta_minor([1, 2, 3], [a, b, c])
    assert G["L5"] == d12(1, 3) * f1p - 3 * d12(1, 2) * f1pp
    assert G["L7"] == (d12(1, 4) + 4 * d12(2, 3)) * f1p ** 2 \
        - 10 * d12(1, 3) * f1p * f1pp + 15 * d12(1, 2) * f1pp ** 2
    # the order-4 chapter prints a prime-garbled variant for this one; the
    # syzygy-consistent form is the bracket [D6, f1']
    assert G["D8"] == d123(1, 2, 4) * f1p - 6 * d123(1, 2, 3) * f1pp
    assert G["N10"] == d123(1, 3, 4) * f1p ** 2 - 3 * d123(1, 2, 4) * f1p * f1pp \
        + 4 * d123(1, 2, 3) * f1p * f1ppp + 3 * d123(1, 2, 3) * f1pp ** 2
    assert G["M8"] == 3 * d12(1, 4) * d12(1, 2) + 12 * d12(2, 3) * d12(1, 2) \
        - 5 * d12(1, 3) * d12(1, 3)
    assert G["E10"] == 3 * d123(1, 2, 4) * d12(1, 2) - 6 * d123(1, 2, 3) * d12(1, 3)
    assert G["R15"] == d123(1, 2, 4) * d123(1, 2, 4) * f1p \
        - 12 * d123(1, 3, 4) * d123(1, 2, 3) * f1p \
        + 24 * d123(1, 2, 4) * d123(1, 2, 3) * f1pp \
        - 48 * d123(1, 2, 3) * d123(1, 2, 3) * f1ppp
    assert G["U17"] == 15 * d123(1, 2, 4) ** 2 * d12(1, 2) \
        - 36 * d123(1, 3, 4) * d123(1, 2, 3) * d12(1, 2) \
        - 24 * d123(1, 2, 4) * d123(1, 2, 3) * d12(1, 3) \
        + 144 * d123(1, 2, 3) ** 2 * d12(2, 3)


def test_minor_identities_dimension4():
    """The Lambda-matrix minors equal f1' powers times D6, D8, N10, W10."""
    f1 = poly_jet(1, 1)
    chains = {}
    for i in (2, 3, 4):
        l3 = wronskian([1, i])
        l5 = bracket(l3, f1, weights=(3, 1))
        l7 = bracket(l5, f1, weights=(5, 1))
        chains[i] = (l3, l5, l7)
    G = load_catalog("UE4k4").generator_map()
    det2 = lambda r1, r2: chains[2][r1] * chains[3][r2] - chains[3][r1] * chains[2][r2]
    assert det2(0, 1) == f1 ** 2 * G["D6"]
    assert det2(0, 2) == f1 ** 2 * G["D8"]
    assert det2(1, 2) == f1 ** 2 * G["N10"]
    rows = [[chains[i][r] for i in (2, 3, 4)] for r in (0, 1, 2)]
    det3 = sum(
        sign * rows[0][a] * rows[1][b] * rows[2][c]
        for sign, (a, b, c) in [(1, (0, 1, 2)), (-1, (0, 2, 1)), (-1, (1, 0, 2)),
                                (1, (1, 2, 0)), (1, (2, 0, 1)), (-1, (2, 1, 0))]
    )
    assert det3 == f1 ** 5 * G["W10"]


def test_bracket_definitions_match_loop_extractions():
    """[M8,f1'], [M8,Lam^3], ... equal the syzygy-extracted generators exactly."""
    G = load_catalog("UE2k5").generator_map()
    f1 = poly_jet(1, 1)
    assert bracket(G["M8"], f1, weights=(8, 1)) == G["M10"]
    assert bracket(G["M8"], G["L3"], weights=(8, 3)) == G["N12"]
    assert bracket(G["M8"], G["L5"], weights=(8, 5)) == G["H14"]
    assert bracket(G["M8"], G["L7"], weights=(8, 7)) == G["F16"]
    assert divide_f1_power(bracket(G["L7"], G["L5"], weights=(7, 5)), 1) == G["K12"]
    assert divide_f1_power(bracket(G["L5"], G["L3"], weights=(5, 3)), 1) == G["M8"]


def test_lambda9_printed_expansion():
    """The specialized weight-9 chain element display."""
    G = load_catalog("UE2k5").generator_map()
    f1p, f1pp, f1ppp = poly_jet(1, 1), poly_jet(1, 2), poly_jet(1, 3)
    d = lambda a, b: delta_minor([1, 2], [a, b])
    printed = (d(1, 5) + 5 * d(2, 4)) * f1p ** 2 * f1p \
        - (15 * d(1, 4) + 60 * d(2, 3)) * f1p ** 2 * f1pp \
        - 10 * d(1, 3) * f1p ** 2 * f1ppp + 105 * d(1, 3) * f1p * f1pp ** 2 \
        - 105 * d(1, 2) * f1pp ** 3
    assert G["L9"] == printed


def test_restriction_identities_ue2k5():
    """Cleared-denominator forms of the printed restriction table."""
    G = {k: restrict_f1(v) for k, v in load_catalog("UE2k5").generator_map().items()}
    assert 3 * G["L3"] * G["L7"] == 5 * G["L5"] ** 2
    assert 9 * G["L3"] ** 2 * G["L9"] == 35 * G["L5"] ** 3
    assert 3 * G["L3"] * G["M10"] == 8 * G["L5"] * G["M8"]
    assert 9 * G["L3"] ** 2 * G["K12"] == 5 * G["L5"] ** 2 * G["M8"]
    assert 3 * G["L3"] * G["H14"] == 5 * G["L5"] * G["N12"]
    assert 9 * G["L3"] ** 2 * G["F16"] == 35 * G["L5"] ** 2 * G["N12"]
    assert 27 * G["L3"] ** 3 * G["X18"] == 1225 * G["L5"] ** 3 * G["N12"]
    assert 3 * G["L3"] ** 2 * G["X19"] == 80 * G["L5"] * G["M8"] * G["N12"]
    assert 3 * G["L3"] * G["X21"] == -5 * G["N12"] ** 2 - 64 * G["M8"] ** 3
    # source prints -35/3 for the first quotient; the exact expansion
    # gives -35/9 (clearing denominators: -35, not -105)
    assert 9 * G["L3"] ** 2 * G["X23"] == \
        -35 * G["L5"] * G["N12"] ** 2 - 64 * G["L5"] * G["M8"] ** 3
    assert 27 * G["L3"] ** 3 * G["X25"] == \
        -1225 * G["L5"] ** 2 * G["N12"] ** 2 - 320 * G["L5"] ** 2 * G["M8"] ** 3
    assert 81 * G["L3"] ** 4 * G["Y27"] == \
        -8575 * G["L5"] ** 3 * G["N12"] ** 2 - 320 * G["L5"] ** 3 * G["M8"] ** 3


def test_restriction_identities_ue4k4():
    G = {k: restrict_f1(v) for k, v in load_catalog("UE4k4").generator_map().items()}
    assert 3 * G["L3"] * G["L7"] == 5 * G["L5"] ** 2
    assert G["L3"] * G["D8"] == 2 * G["L5"] * G["D6"]
    assert 3 * G["L3"] ** 2 * G["N10"] == G["L5"] ** 2 * G["D6"]
    assert 3 * G["L3"] * G["L12"] == 5 * G["L5"] * G["E10"]
    assert 9 * G["L3"] ** 2 * G["Q14"] == -25 * G["L5"] ** 2 * G["E10"]
    assert 3 * G["L3"] ** 2 * G["R15"] == -8 * G["L5"] * G["D6"] * G["E10"]
    assert 3 * G["L3"] * G["U17"] == 36 * G["D6"] ** 2 * G["M8"] + 5 * G["E10"] ** 2
    assert 9 * G["L3"] ** 2 * G["V19"] == \
        25 * G["L5"] * G["E10"] ** 2 + 36 * G["L5"] * G["D6"] ** 2 * G["M8"]
    assert 27 * G["L3"] ** 3 * G["X21"] == \
        -36 * G["L5"] ** 2 * G["D6"] ** 2 * G["M8"] - 125 * G["L5"] ** 2 * G["E10"] ** 2


def test_quotient_identities_section8():
    """f1' times each non-bracket bi-invariant equals its defining combination."""
    G = load_catalog("UE2k5").generator_map()
    f1 = G["f1"]
    assert f1 * G["X18"] == -5 * G["L9"] * G["M10"] + 56 * G["L7"] * G["K12"]
    assert f1 * G["X19"] == -5 * G["M10"] ** 2 + 64 * G["M8"] * G["K12"]
    assert f1 * G["X21"] == -5 * G["M10"] * G["N12"] + 8 * G["M8"] * G["H14"]
    assert f1 * G["X23"] == -7 * G["N12"] * G["K12"] + G["M8"] * G["F16"]
    assert f1 * G["X25"] == -56 * G["K12"] * G["H14"] + 5 * G["M10"] * G["F16"]
    assert f1 * G["Y27"] == -56 * G["K12"] * G["F16"] + G["M10"] * G["X18"]


# ---------------------------------------------------------------------------
# the quotient recipes, run as written, against hand-written formula chains
# ---------------------------------------------------------------------------


def _chain_2k5():
    f1 = poly_jet(1, 1)
    L3, L5, L7, L9 = [inv.poly for inv in lambda_chain(2, 5)]
    M8 = divide_f1_power(3 * L3 * L7 - 5 * L5 * L5, 2)
    M10 = divide_f1_power(3 * L3 * L9 - 7 * L5 * L7, 2)
    K12 = divide_f1_power(5 * L5 * L9 - 7 * L7 * L7, 2)
    N12 = divide_f1_power(3 * L3 * M10 - 8 * L5 * M8, 1)
    H14 = divide_f1_power(3 * L3 * K12 - L7 * M8, 1)
    F16 = divide_f1_power(7 * L5 * K12 - L9 * M8, 1)
    X18 = divide_f1_power(56 * L7 * K12 - 5 * L9 * M10, 1)
    X19 = divide_f1_power(64 * M8 * K12 - 5 * M10 * M10, 1)
    X21 = divide_f1_power(8 * M8 * H14 - 5 * M10 * N12, 1)
    X23 = divide_f1_power(M10 * H14 - 8 * K12 * N12, 1)
    X25 = divide_f1_power(5 * M10 * F16 - 56 * K12 * H14, 1)
    Y27 = divide_f1_power(M10 * X18 - 56 * K12 * F16, 1)
    return {
        "f1": f1, "L3": L3, "L5": L5, "L7": L7, "L9": L9, "M8": M8, "M10": M10,
        "K12": K12, "N12": N12, "H14": H14, "F16": F16, "X18": X18, "X19": X19,
        "X21": X21, "X23": X23, "X25": X25, "Y27": Y27,
    }


def _chain_4k4():
    f1 = poly_jet(1, 1)
    L3, L5, L7 = [inv.poly for inv in lambda_chain(2, 4)]
    L3c, L5c, L7c = [inv.poly for inv in lambda_chain(3, 4)]
    D6 = wronskian([1, 2, 3])
    D8 = bracket(D6, f1, weights=(6, 1))
    N10 = divide_f1_power(L5 * L7c - L5c * L7, 2)
    W10 = wronskian([1, 2, 3, 4])
    M8 = divide_f1_power(3 * L3 * L7 - 5 * L5 * L5, 2)
    E10 = divide_f1_power(3 * L3 * D8 - 6 * L5 * D6, 1)
    L12 = divide_f1_power(5 * L3 * N10 - L7 * D6, 1)
    Q14 = divide_f1_power(L7 * D8 - 10 * L5 * N10, 1)
    R15 = divide_f1_power(D8 * D8 - 12 * D6 * N10, 1)
    U17 = divide_f1_power(4 * D8 * E10 + 3 * L3 * R15, 1)
    V19 = divide_f1_power(8 * N10 * E10 + L5 * R15, 1)
    X21 = divide_f1_power(4 * D8 * Q14 - 5 * L7 * R15, 1)
    return {
        "f1": f1, "L3": L3, "L5": L5, "L7": L7, "D6": D6, "D8": D8, "N10": N10,
        "W10": W10, "M8": M8, "E10": E10, "L12": L12, "Q14": Q14, "R15": R15,
        "U17": U17, "V19": V19, "X21": X21,
    }


def _chain_2k4():
    f1, f2 = poly_jet(1, 1), poly_jet(2, 1)
    L3, L5a, L7aa = [inv.poly for inv in lambda_chain(2, 4)]
    L5b = bracket(L3, f2, weights=(3, 1))
    L7ab = bracket(L5a, f2, weights=(5, 1))
    L7bb = bracket(L5b, f2, weights=(5, 1))
    M8 = divide_f1_power(3 * L3 * L7aa - 5 * L5a * L5a, 2)
    return {"f1": f1, "f2": f2, "L3": L3, "L5a": L5a, "L5b": L5b,
            "L7aa": L7aa, "L7ab": L7ab, "L7bb": L7bb, "M8": M8}


@pytest.mark.parametrize("cid, chain", [
    ("UE2k5", _chain_2k5), ("UE4k4", _chain_4k4), ("E2k4", _chain_2k4),
], ids=["UE2k5", "UE4k4", "E2k4"])
def test_recipe_builds_match_formula_chains(cid, chain):
    """Every entry built by running its recipe string equals the same
    construction written out as Polynomial arithmetic in Fractions, entry
    by entry and in the same order (UE3k4 shares UE4k4's build)."""
    want = chain()
    got = load_catalog(cid).generator_map()
    assert list(got) == list(want)
    for name, p in want.items():
        assert got[name] == p, name


def test_e2k4_m8_second_form():
    """E2k4's M8 recipe names two forms; the second, [L5a, L3] / f1, is the
    quotient of a bracket and agrees with the first, which is the one run."""
    data = load_catalog("E2k4")
    assert data.entry("M8").recipe == "(3 L3.L7aa - 5 L5a^2) / f1^2 = [L5a, L3] / f1"
    G = data.generator_map()
    assert divide_f1_power(bracket(G["L5a"], G["L3"], weights=(5, 3)), 1) == G["M8"]


def _base_2k5():
    G = load_catalog("UE2k5").generator_map()
    return {name: G[name] for name in ("f1", "L3", "L5")}


def test_quotient_recipe_that_does_not_divide_raises():
    """Exact division is checked on every term's f1' exponent, also when f1'
    is not among the image's variables at all."""
    from jetcalc.catalog import _run_recipes

    recipes = {"f1": "f[1]'", "L3": "Delta(1,2)", "L5": "[L3, f1]"}
    built = _run_recipes(_base_2k5(), {**recipes, "Z": "(2 f1^3.L3 - f1^2.L5) / f1^2"})
    assert built["Z"] == 2 * poly_jet(1, 1) * built["L3"] - built["L5"]
    with pytest.raises(ValueError, match="not divisible"):
        _run_recipes(_base_2k5(), {**recipes, "Z": "(L3.L5) / f1^9"})
    with pytest.raises(ValueError, match="not divisible"):
        _run_recipes({"f2": poly_jet(2, 1)}, {"f2": "f[2]'", "Z": "(f2^2) / f1"})


@pytest.mark.parametrize("recipe", [
    "[L3, L5] / f1",         # a bracket, not a quotient of tag products
    "3 L3.L5 / f1",          # no parentheses
    "(3 L3.L5 / f1",         # unbalanced
    "(3 L3.L5) / f2",        # divides by something other than f1
    "(3 L3.L5) / f1^",       # no exponent after ^
    "(3 L3..L5) / f1",       # an empty factor
    "(3 L3) - (5 L5) / f1",  # two quotients run together
    "(3 L3.L9) / f1",        # L9 is not built before it
    "(3 L3.Z) / f1",         # refers to itself
])
def test_malformed_quotient_recipe_raises(recipe):
    from jetcalc.catalog import _run_recipes

    recipes = {"f1": "f[1]'", "L3": "Delta(1,2)", "L5": "[L3, f1]", "Z": recipe}
    with pytest.raises((ValueError, KeyError)):
        _run_recipes(_base_2k5(), recipes)


def test_bi_invariance_of_ue4k4_entries():
    data = load_catalog("UE4k4")
    for e in data.entries:
        rep = check_reparam_invariance(e.poly)
        assert rep and rep.weight == e.weight, e.name
        assert check_unipotent_invariance(e.poly), e.name


def test_json_roundtrip_bit_exact():
    for cid in ("E2k3", "UE3k3"):
        data = load_catalog(cid)
        doc = catalog_to_json(data)
        back = catalog_from_json(doc)
        assert [(e.name, e.weight, e.poly) for e in back.entries] == \
            [(e.name, e.weight, e.poly) for e in data.entries]
        for key in data.syzygy_sets:
            assert [(s.relation, s.nu, s.remainder) for s in back.syzygy_sets[key]] \
                == [(s.relation, s.nu, s.remainder) for s in data.syzygy_sets[key]]
        assert catalog_to_json(back) == doc


# checksums of the catalog documents as first published in JSON form
CATALOG_CHECKSUMS = {
    "E2k2": "93421ff4e278b72f8645cfcc15dff1932624b6655be8585387976e0b3a148956",
    "E2k3": "92cf0225aee5610fa164895887b6bfb8819e24da281d81f0de76b2736e802289",
    "E2k4": "fdb3e433a2ee62a93bacd64d3ccef9faf094fb3a8e65340bab7aa797fc11fe0e",
    "E2k5": "c39b9b7833ec31342342ab49a0c692bf344338b8b5d5abb3d024fe666c081ceb",
    "E3k3": "5423a286e755fb01e2fb7c65835fa9c81132fb81cbca24392199977cea886e9f",
    "UE2k5": "16d1c0214efa1ef458d211029183eb2fe05a83a9815aa304868e75b0ca9c3df7",
    "UE3k3": "b7869de1136737a9bc28cda76290c85812ff8b64de05612dfa873a3e7fc70d70",
    "UE3k4": "f71813c0f0b2923e200c3dde0a9c019759dc7cd7f3517295e2e57379cef17847",
    "UE4k4": "7df1d5810e5bdf37ff5e5099b76efd48d9ce2aff5121efb17526713a93ff21f2",
}


def test_built_documents_match_pinned_checksums():
    got = {cid: catalog_to_json(build_catalog(cid))["checksum"] for cid in CATALOG_IDS}
    assert got == CATALOG_CHECKSUMS


def test_ue3k4_and_ue4k4_share_one_read_only_build():
    """The 4k4 recipes run once per process; UE3k4 is UE4k4 without W10."""
    from jetcalc.catalog import _counted_entries_4k4

    ue3, ue4 = build_catalog("UE3k4"), build_catalog("UE4k4")
    assert [e.name for e in ue4.entries if e.name != "W10"] == [e.name for e in ue3.entries]
    shared = _counted_entries_4k4()
    assert _counted_entries_4k4() is shared
    built = {x.name: x.poly for x in shared}
    for e in ue3.entries:
        assert e.poly is built[e.name] is ue4.entry(e.name).poly
    with pytest.raises(TypeError):
        shared[0] = shared[1]


def test_json_checksum_guards():
    doc = catalog_to_json(load_catalog("E2k2"))
    doc["entries"][0]["weight"] = 2
    with pytest.raises(ValueError):
        catalog_from_json(doc)


def test_parse_tag_expression_errors():
    from jetcalc.polyring import tag

    tags = {"A": tag("A", 3, 0)}
    assert parse_tag_expression("0", tags).is_zero()
    p = parse_tag_expression("-7/3 A^2", tags)
    assert p.terms.get(((tags["A"], 2),), 0) == Fraction(-7, 3)
    with pytest.raises(KeyError):
        parse_tag_expression("B", tags)
