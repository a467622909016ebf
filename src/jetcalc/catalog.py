"""Machine-readable catalog of the explicitly known invariants and syzygies.

Entries are built from first principles, not transcribed as raw coefficient
lists, so a slip in a long printed expansion cannot silently enter; the tests
check them against the printed Delta-determinant expansions.  Brackets,
Wronskian minors and N10's determinant are built in `jets`; each quotient
generator, '(S) / f1^k' over the generators before it, is built by running its
recipe string, its only written form.  Syzygy tables are transcribed verbatim
in the same notation and verified by full expansion.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .invgen import Syzygy
from .jets import (
    JetContext,
    bracket,
    delta_minor,
    check_reparam_invariance,
    check_unipotent_invariance,
    component_degrees,
    divide_f1_power,
    lambda_chain,
    poly_jet,
    wronskian,
)
from .polyring import (
    Polynomial,
    Variable,
    format_polynomial,
    parse_polynomial,
    poly_from_json,
    poly_to_json,
    proportional,
    tag,
)

# catalog id -> the (n, kappa, mode) of its context
_CONTEXTS = {
    "E2k2": (2, 2, "full"), "E2k3": (2, 3, "full"), "E2k4": (2, 4, "full"),
    "E2k5": (2, 5, "full"), "UE2k5": (2, 5, "bi"), "E3k3": (3, 3, "full"),
    "UE3k3": (3, 3, "bi"), "UE3k4": (3, 4, "bi"), "UE4k4": (4, 4, "bi"),
}
CATALOG_IDS = tuple(_CONTEXTS)


@dataclass
class CatalogEntry:
    name: str
    weight: int
    poly: Polynomial
    provenance: str
    recipe: str
    counts: Tuple[int, ...] = ()


@dataclass
class CatalogData:
    id: str
    ctx: JetContext
    mode: str  # "full" or "bi"
    entries: List[CatalogEntry]
    syzygy_sets: Dict[str, List[Syzygy]] = field(default_factory=dict)
    polarization: List[Tuple[str, List[Tuple[str, int]]]] = field(default_factory=list)

    def entry(self, name: str) -> CatalogEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"{self.id}: no entry named {name}")

    def generator_map(self) -> Dict[str, Polynomial]:
        return {e.name: e.poly for e in self.entries}

    def syzygies(self) -> List[Syzygy]:
        return [s for key in sorted(self.syzygy_sets) for s in self.syzygy_sets[key]]


# ---------------------------------------------------------------------------
# tiny parser for the transcribed syzygy tables
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+(?:/\d+)?)?\s*((?:[A-Za-z]\w*(?:\^\d+)?)"
                      r"(?:\.[A-Za-z]\w*(?:\^\d+)?)*)?\s*")


def parse_tag_expression(text: str, tags: Dict[str, Variable]) -> Polynomial:
    """Parse '5 L5a.L5b - 3 L3.L7ab' style sums over named tag variables."""
    text = text.strip()
    if text in ("", "0"):
        return Polynomial.zero()
    pos = 0
    terms: Dict[tuple, Fraction] = {}
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse syzygy term at {text[pos:]!r}")
        sign, coeff, prod = m.groups()
        if coeff is None and prod is None:
            raise ValueError(f"empty term in {text!r}")
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        factors: Dict[Variable, int] = {}
        if prod:
            for fac in prod.split("."):
                if "^" in fac:
                    name, _, e = fac.partition("^")
                    exp = int(e)
                else:
                    name, exp = fac, 1
                v = tags[name]
                factors[v] = factors.get(v, 0) + exp
        mono = tuple(sorted(factors.items(), key=lambda pr: pr[0].key))
        terms[mono] = terms.get(mono, 0) + c
        pos = m.end()
    return Polynomial(_raw={mono: c for mono, c in terms.items() if c})


def _make_syzygies(rows: Sequence[Tuple[str, Optional[int], str]],
                   names_weights: Sequence[Tuple[str, int]],
                   prefix: str) -> List[Syzygy]:
    tags = {n: tag(n, w, k) for k, (n, w) in enumerate(names_weights)}
    out = []
    for k, (s_text, nu, r_text) in enumerate(rows, start=1):
        s = parse_tag_expression(s_text, tags)
        r = parse_tag_expression(r_text, tags)
        w = s.weighted_degree()
        if w is None:
            raise ValueError(f"{prefix}.{k}: inhomogeneous S-part {s_text!r}")
        out.append(Syzygy(f"{prefix}.{k}", s, w, nu, r))
    return out


# ---------------------------------------------------------------------------
# generator constructions
# ---------------------------------------------------------------------------

_QUOTIENT_RE = re.compile(r"\((.+)\) / f1(?:\^(\d+))?")


def _run_recipes(base: Mapping[str, Polynomial],
                 recipes: Mapping[str, str]) -> Dict[str, Polynomial]:
    """The generators of `recipes` in their order: `base` holds those built
    in `jets`, and each other recipe, '(S) / f1^k' over the generators before
    it (its first form, before ' = '), runs as written: S is imaged and
    divided by f1^k (`divide_f1_power`), which each term must carry."""
    built: Dict[str, Polynomial] = {}
    for name, recipe in recipes.items():
        if name in base:
            built[name] = base[name]
            continue
        m = _QUOTIENT_RE.fullmatch(recipe.partition(" = ")[0])
        if m is None:
            raise ValueError(f"{name}: not a quotient recipe: {recipe!r}")
        s = parse_tag_expression(m[1], {g: tag(g) for g in built})
        value = s.substitute({tag(g): p for g, p in built.items()})
        built[name] = divide_f1_power(value, int(m[2] or 1))
    return built


def _entries_2k5() -> Dict[str, Polynomial]:
    L3, L5, L7, L9 = [inv.poly for inv in lambda_chain(2, 5)]
    return _run_recipes({"f1": poly_jet(1, 1), "L3": L3, "L5": L5, "L7": L7, "L9": L9},
                        _RECIPES_2K5)


_RECIPES_2K5 = {
    "f1": "f[1]'",
    "L3": "Delta(1,2|',' ')",
    "L5": "[L3, f1]", "L7": "[L5, f1]", "L9": "[L7, f1]",
    "M8": "(3 L3.L7 - 5 L5^2) / f1^2",
    "M10": "(3 L3.L9 - 7 L5.L7) / f1^2",
    "K12": "(5 L5.L9 - 7 L7^2) / f1^2",
    "N12": "(3 L3.M10 - 8 L5.M8) / f1",
    "H14": "(3 L3.K12 - L7.M8) / f1",
    "F16": "(7 L5.K12 - L9.M8) / f1",
    "X18": "(56 L7.K12 - 5 L9.M10) / f1",
    "X19": "(64 M8.K12 - 5 M10^2) / f1",
    "X21": "(8 M8.H14 - 5 M10.N12) / f1",
    "X23": "(M10.H14 - 8 K12.N12) / f1",
    "X25": "(5 M10.F16 - 56 K12.H14) / f1",
    "Y27": "(M10.X18 - 56 K12.F16) / f1",
}


def _entries_4k4() -> Dict[str, Polynomial]:
    """The UE4k4 generators; UE3k4 is UE4k4 without W10."""
    L3, L5, L7 = [inv.poly for inv in lambda_chain(2, 4)]
    L3c, L5c, L7c = [inv.poly for inv in lambda_chain(3, 4)]
    D6, f1 = wronskian([1, 2, 3]), poly_jet(1, 1)
    base = {"f1": f1, "L3": L3, "L5": L5, "L7": L7, "D6": D6,
            "D8": bracket(D6, f1, weights=(6, 1)),
            "N10": divide_f1_power(L5 * L7c - L5c * L7, 2), "W10": wronskian([1, 2, 3, 4])}
    return _run_recipes(base, _RECIPES_4K4)


_RECIPES_4K4 = {
    "f1": "f[1]'",
    "L3": "Delta(1,2)", "L5": "[L3, f1]", "L7": "[L5, f1]",
    "D6": "Delta(1,2,3)", "D8": "[D6, f1]",
    "N10": "det[[L5(1,2), L5(1,3)], [L7(1,2), L7(1,3)]] / f1^2",
    "W10": "Delta(1,2,3,4)",
    "M8": "(3 L3.L7 - 5 L5^2) / f1^2",
    "E10": "(3 L3.D8 - 6 L5.D6) / f1",
    "L12": "(5 L3.N10 - L7.D6) / f1",
    "Q14": "(L7.D8 - 10 L5.N10) / f1",
    "R15": "(D8^2 - 12 D6.N10) / f1",
    "U17": "(4 D8.E10 + 3 L3.R15) / f1",
    "V19": "(8 N10.E10 + L5.R15) / f1",
    "X21": "(4 D8.Q14 - 5 L7.R15) / f1",
}


def _entries_2k4() -> Dict[str, Polynomial]:
    f1, f2 = poly_jet(1, 1), poly_jet(2, 1)
    L3, L5a, L7aa = [inv.poly for inv in lambda_chain(2, 4)]
    L5b = bracket(L3, f2, weights=(3, 1))
    L7ab = bracket(L5a, f2, weights=(5, 1))
    L7bb = bracket(L5b, f2, weights=(5, 1))
    return _run_recipes({"f1": f1, "f2": f2, "L3": L3, "L5a": L5a, "L5b": L5b,
                         "L7aa": L7aa, "L7ab": L7ab, "L7bb": L7bb}, _RECIPES_2K4)


_RECIPES_2K4 = {
    "f1": "f[1]'", "f2": "f[2]'", "L3": "Delta(1,2)",
    "L5a": "[L3, f1]", "L5b": "[L3, f2]",
    "L7aa": "[L5a, f1]", "L7ab": "[L5a, f2] = [L5b, f1]", "L7bb": "[L5b, f2]",
    "M8": "(3 L3.L7aa - 5 L5a^2) / f1^2 = [L5a, L3] / f1",
}


def _entries_2k5_brackets() -> Dict[str, Polynomial]:
    """The 24 bracket-generated invariants of E^2_5 (full mode)."""
    f = {i: poly_jet(i, 1) for i in (1, 2)}
    L3, L5a, L7aa, _ = [inv.poly for inv in lambda_chain(2, 5)]
    L5 = {1: L5a, 2: bracket(L3, f[2], weights=(3, 1))}
    L7 = {(1, 1): L7aa,
          (1, 2): bracket(L5[1], f[2], weights=(5, 1)),
          (2, 2): bracket(L5[2], f[2], weights=(5, 1))}
    M8 = divide_f1_power(bracket(L5[1], L3, weights=(5, 3)), 1)
    out = {"f1": f[1], "f2": f[2], "L3": L3, "L5_1": L5[1], "L5_2": L5[2],
           "L7_11": L7[(1, 1)], "L7_12": L7[(1, 2)], "L7_22": L7[(2, 2)], "M8": M8}
    for (i, j, k) in ((1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2)):
        lij = L7[(min(i, j), max(i, j))]
        out[f"L9_{i}{j}{k}"] = bracket(lij, f[k], weights=(7, 1))
    for i in (1, 2):
        out[f"M10_{i}"] = bracket(M8, f[i], weights=(8, 1))
    out["N12"] = bracket(M8, L3, weights=(8, 3))
    # the compact bracket-with-division definition of the weight-12 family
    # only divides exactly for equal lower indices; the normalized explicit
    # formula below covers all (i, j) and agrees with [L7, L5]/f1' at (1, 1)
    jets2 = {(i, o): poly_jet(i, o) for i in (1, 2) for o in (1, 2, 3)}
    d = lambda a, b: delta_minor([1, 2], [a, b])
    half = Fraction(1, 2)
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        out[f"K12_{i}{j}"] = (
            f[i] * f[j] * (5 * d(1, 5) * d(1, 3) + 25 * d(2, 4) * d(1, 3)
                           - 7 * d(1, 4) * d(1, 4) - 56 * d(2, 3) * d(1, 4)
                           - 112 * d(2, 3) * d(2, 3))
            + half * (f[i] * jets2[(j, 2)] + jets2[(i, 2)] * f[j])
            * (-15 * d(1, 5) * d(1, 2) - 75 * d(2, 4) * d(1, 2)
               + 65 * d(1, 4) * d(1, 3) + 110 * d(2, 3) * d(1, 3))
            + half * (f[i] * jets2[(j, 3)] + jets2[(i, 3)] * f[j])
            * (-50 * d(1, 3) * d(1, 3))
            + jets2[(i, 2)] * jets2[(j, 2)]
            * (-25 * d(1, 3) * d(1, 3) + 15 * d(1, 4) * d(1, 2)
               + 60 * d(2, 3) * d(1, 2)))
    for i in (1, 2):
        out[f"H14_{i}"] = bracket(M8, L5[i], weights=(8, 5))
    for (i, j) in ((1, 1), (1, 2), (2, 2)):
        out[f"F16_{i}{j}"] = bracket(M8, L7[(i, j)], weights=(8, 7))
    return out


def _entries_3k3() -> Dict[str, Polynomial]:
    out = {}
    for i in (1, 2, 3):
        out[f"f{i}"] = poly_jet(i, 1)
    pairs = ((1, 2), (1, 3), (2, 3))
    for (i, j) in pairs:
        out[f"L3_{i}{j}"] = wronskian([i, j])
    for (i, j) in pairs:
        for k in (1, 2, 3):
            out[f"L5_{i}{j}_{k}"] = bracket(out[f"L3_{i}{j}"], poly_jet(k, 1),
                                            weights=(3, 1))
    out["D6"] = wronskian([1, 2, 3])
    return out


# ---------------------------------------------------------------------------
# transcribed syzygy tables
# ---------------------------------------------------------------------------

_SYZ_2K3 = [
    ("3 L3^2 - f2.L5a", 1, "L5b"),
]

# the nine fundamental relations of the surface case at jet order 4
_SYZ_2K4 = [
    ("f2.L5a - 3 L3^2", 1, "-L5b"),
    ("f2.L7aa - 5 L3.L5a", 1, "-L7ab"),
    ("f2.L7ab - 5 L3.L5b", 1, "-L7bb"),
    ("-3 L3.L7aa + 5 L5a^2", 2, "M8"),
    ("-3 L3.L7ab + 5 L5a.L5b", 1, "f2.M8"),
    ("f2^2.M8 - 3 L3.L7bb + 5 L5b^2", None, "0"),
    ("-L5a.L7ab + L5b.L7aa", 1, "L3.M8"),
    ("f2.L3.M8 - L5a.L7bb + L5b.L7ab", None, "0"),
    ("5 L3^2.M8 - L7bb.L7aa + L7ab^2", None, "0"),
]

_SYZ_2K5_LOOP1 = [
    ("-7 L7^2 + 5 L5.L9", 2, "-K12"),
    ("-7 L5.L7 + 3 L3.L9", 2, "-M10"),
    ("-5 L5^2 + 3 L3.L7", 2, "-M8"),
]

_SYZ_2K5_LOOP2 = [
    ("-5 M10^2 + 64 M8.K12", 1, "-X19"),
    ("-5 L9.M10 + 56 L7.K12", 1, "-X18"),
    ("-8 L9.M8 + 7 L7.M10", 1, "-F16"),
    ("-L9.M8 + 7 L5.K12", 1, "-F16"),
    ("-8 L7.M8 + 5 L5.M10", 1, "-H14"),
    ("-L7.M8 + 3 L3.K12", 1, "-H14"),
    ("-8 L5.M8 + 3 L3.M10", 1, "-N12"),
] + _SYZ_2K5_LOOP1

_SYZ_2K5_LOOP3 = [
    ("-5 F16^2 + H14.X18", 1, "-K12.X19"),
    ("-7 H14.F16 + N12.X18", 1, "-M10.X19"),
    ("-7 H14^2 + 5 N12.F16", 1, "-M8.X19"),
    ("-56 K12.F16 + M10.X18", 1, "-Y27"),
    ("-56 K12.H14 + 5 M10.F16", 1, "-X25"),
    ("-8 K12.N12 + M10.H14", 1, "-X23"),
    ("-49 K12.H14 + M8.X18", 1, "-X25"),
    ("-7 K12.N12 + M8.F16", 1, "-X23"),
    ("-5 M10.N12 + 8 M8.H14", 1, "-X21"),
    ("-48 K12.F16 + L9.X19", 1, "-Y27"),
    ("-48 K12.H14 + L7.X19", 1, "-X25"),
    ("-5 L9.F16 + L7.X18", 1, "8 K12^2"),
    ("-L9.H14 + L7.F16", 1, "M10.K12"),
    ("-5 L9.N12 + 7 L7.H14", 1, "56 M8.K12 - f1.X19"),
    ("-48 K12.N12 + L5.X19", 1, "-7 X23"),
    ("-7 L9.H14 + L5.X18", 1, "8 M10.K12"),
    ("-L9.N12 + L5.F16", 1, "M10^2"),
    ("-L7.N12 + L5.H14", 1, "M8.M10"),
    ("-10 M10.N12 + L3.X19", 1, "-7/3 X21"),
    ("-35 L9.N12 + 3 L3.X18", 1, "285/8 M10^2 - 7/8 f1.X19"),
    ("-7 L7.N12 + 3 L3.F16", 1, "8 M8.M10"),
    ("-5 L5.N12 + 3 L3.H14", 1, "8 M8^2"),
] + _SYZ_2K5_LOOP2

_SYZ_2K5_LOOP4 = [
    ("X18.X23 - 8 F16.X25 + 7 H14.Y27", None, "0"),
    ("5 F16.X23 - 8 H14.X25 + 5 N12.Y27", 1, "X19^2"),
    ("7 K12.X23 - M10.X25 + M8.Y27", None, "0"),
    ("5 L9.X23 - 8 L7.X25 + 5 L5.Y27", 1, "-8 K12.X19"),
    ("7 L7.X23 - 8 L5.X25 + 3 L3.Y27", 1, "-M10.X19"),
    ("X18.X21 - 57 H14.X25 + 40 N12.Y27", 1, "7 X19^2"),
    ("F16.X21 - 8 H14.X23 + N12.X25", None, "0"),
    ("7 K12.X21 - 5 M10.X23 + M8.X25", None, "0"),
    ("7 L9.X21 - 57 L5.X25 + 24 L3.Y27", 1, "-15 M10.X19"),
    ("7 L7.X21 - 40 L5.X23 + 3 L3.X25", 1, "-8 M8.X19"),
    ("X18.X19 - 8 K12.X25 + 5 M10.Y27", None, "0"),
    ("7 F16.X19 - M10.X25 + 8 M8.Y27", None, "0"),
    ("7 H14.X19 - 5 M10.X23 + 8 M8.X25", None, "0"),
    ("N12.X19 - M10.X21 + 8 M8.X23", None, "0"),
    ("6 F16.X18 - L9.X25 + 7 L7.Y27", None, "0"),
    ("6 H14.X18 - L7.X25 + 5 L5.Y27", 1, "-7 K12.X19"),
    ("6 N12.X18 - L5.X25 + 3 L3.Y27", 1, "-7 M10.X19"),
    ("6 M10.X18 - 7 L9.X19", 1, "Y27"),
    ("48 M8.X18 - 49 L7.X19", 1, "X25"),
    ("30 F16^2 - L7.X25 + 5 L5.Y27", 1, "-K12.X19"),
    ("42 H14.F16 - L5.X25 + 3 L3.Y27", 1, "-M10.X19"),
    # remainder factor 7 restored from the exact expansion (source prints 1)
    ("30 N12.F16 - 5 L5.X23 + 3 L3.X25", 1, "-7 M8.X19"),
    ("48 K12.F16 - L9.X19", 1, "Y27"),
    ("30 M10.F16 - 7 L7.X19", 1, "X25"),
    ("48 M8.F16 - 7 L5.X19", 1, "X23"),
    ("5 L9.F16 - L7.X18", 1, "-8 K12^2"),
    ("7 L7.F16 - L5.X18", 1, "-M10.K12"),
    ("35 L5.F16 - 3 L3.X18", 1, "-8 M8.K12 + f1.X19"),
    ("42 H14^2 - 5 L5.X23 + 3 L3.X25", 1, "-M8.X19"),
    ("6 N12.H14 - L5.X21 + 3 L3.X23", None, "0"),
    ("48 K12.H14 - L7.X19", 1, "X25"),
    ("6 M10.H14 - L5.X19", 1, "X23"),
    ("16 M8.H14 - L3.X19", 1, "1/3 X21"),
    ("7 L9.H14 - L5.X18", 1, "-8 M10.K12"),
    ("49 L7.H14 - 3 L3.X18", 1, "-5 M10^2"),
    ("7 L5.H14 - 3 L3.F16", 1, "-M8.M10"),
    ("48 K12.N12 - L5.X19", 1, "7 X23"),
    ("10 M10.N12 - L3.X19", 1, "7/3 X21"),
    ("35 L9.N12 - 3 L3.X18", 1, "-285/8 M10^2 + 7/8 f1.X19"),
    ("7 L7.N12 - 3 L3.F16", 1, "-8 M8.M10"),
    ("5 L5.N12 - 3 L3.H14", 1, "-8 M8^2"),
    ("5 M10^2 - 64 M8.K12", 1, "X19"),
    ("5 L9.M10 - 56 L7.K12", 1, "X18"),
    ("L7.M10 - 8 L5.K12", 1, "F16"),
    # remainder factor 7 restored from the exact expansion (source prints 1)
    ("5 L5.M10 - 24 L3.K12", 1, "7 H14"),
    ("L9.M8 - 7 L5.K12", 1, "F16"),
    ("L7.M8 - 3 L3.K12", 1, "H14"),
    ("8 L5.M8 - 3 L3.M10", 1, "N12"),
    ("7 L7^2 - 5 L5.L9", 2, "K12"),
    ("7 L5.L7 - 3 L3.L9", 2, "M10"),
    ("5 L5^2 - 3 L3.L7", 2, "M8"),
    ("7 K12.X19^2 + X25^2 - 5 X23.Y27", None, "0"),
    ("M10.X19^2 + X23.X25 - X21.Y27", None, "0"),
    ("M8.X19^2 + 5 X23^2 - X21.X25", None, "0"),
    ("56 K12^2.X19 + X18.X25 - 5 F16.Y27", None, "0"),
    ("M10.K12.X19 + F16.X25 - H14.Y27", None, "0"),
    ("8 M8.K12.X19 + 7 H14.X25 - 5 N12.Y27", 1, "-X19^2"),
    ("M8.M10.X19 + 7 H14.X23 - N12.X25", None, "0"),
    ("8 M8^2.X19 + 7 H14.X21 - 5 N12.X23", None, "0"),
    ("448 K12^3 + X18^2 + 5 L9.Y27", None, "0"),
    ("48 M10.K12^2 + L9.X25 - L7.Y27", None, "0"),
    ("384 M8.K12^2 + 7 L7.X25 - 5 L5.Y27", 1, "K12.X19"),
    ("48 M8.M10.K12 + 7 L5.X25 - 3 L3.Y27", 1, "M10.X19"),
    ("384 M8^2.K12 + 35 L5.X23 - 3 L3.X25", 1, "M8.X19"),
    ("48 M8^2.M10 + 7 L5.X21 - 3 L3.X23", None, "0"),
    ("64 M8^3 + 5 N12^2 + 3 L3.X21", None, "0"),
]

# the 41 lexicographic syzygies shared by dimensions 3 and 4 at jet order 4;
# syzygy 19's remainder line is garbled in the source and is restored here
# from the exact expansion (it vanishes identically)
_SYZ_4K4 = [
    ("-5 L5^2 + 3 L3.L7", 2, "-M8"),
    ("-2 L5.D6 + L3.D8", 1, "-1/3 E10"),
    ("-L7.D6 + 5 L3.N10", 1, "-L12"),
    ("-5 L5.E10 + 3 L3.L12", 1, "6 D6.M8"),
    ("5 L7.E10 + 3 L3.Q14", 1, "-6 D8.M8"),
    ("4 D8.E10 + 3 L3.R15", 1, "-U17"),
    ("-36 D6^2.M8 - 5 E10^2 + 3 L3.U17", None, "0"),
    ("-5 E10.L12 - 6 D6.D8.M8 + 3 L3.V19", None, "0"),
    ("5 L12^2 + 3 L3.X21 + M8.D8^2", None, "0"),
    ("-6 L7.D6 + 5 L5.D8", 1, "-L12"),
    ("-L7.D8 + 10 L5.N10", 1, "Q14"),
    ("L5.L12 - L7.E10", 1, "D8.M8"),
    ("L7.L12 + L5.Q14", 1, "-2 M8.N10"),
    ("8 N10.E10 + L5.R15", 1, "-V19"),
    ("L5.U17 - E10.L12 - 6 D6.D8.M8", None, "0"),
    ("L5.V19 - M8.D8^2 - L12^2", 1, "M8.R15"),
    ("L5.X21 - L12.Q14 + 2 D8.N10.M8", None, "0"),
    ("8 N10.L12 + L7.R15", 1, "X21"),
    ("-L12^2 + L7.U17 - 5 M8.D8^2", None, "0"),
    ("L12.Q14 + L7.V19 - 10 D8.M8.N10", None, "0"),
    ("20 N10^2.M8 + Q14^2 + L7.X21", None, "0"),
    ("6 D6.M8.R15 + L12.U17 - E10.V19", None, "0"),
    ("5 D8.M8.R15 - Q14.U17 - L12.V19", None, "0"),
    ("10 N10.M8.R15 - Q14.V19 + L12.X21", None, "0"),
    ("5 M8.R15^2 + V19^2 + U17.X21", None, "0"),
    ("-D8^2 + 12 D6.N10", 1, "R15"),
    ("-5 D8.E10 + 6 D6.L12", 1, "U17"),
    ("3 D6.Q14 + 25 N10.E10", 1, "-3 V19"),
    ("5 E10.R15 - D8.U17 + 6 D6.V19", None, "0"),
    ("-3 L12.R15 + N10.U17 + 3 D6.X21", None, "0"),
    ("-10 N10.E10 + D8.L12", 1, "V19"),
    ("D8.Q14 + 10 N10.L12", 1, "X21"),
    ("-2 N10.U17 + D8.V19 + L12.R15", None, "0"),
    ("Q14.R15 + 2 N10.V19 + D8.X21", None, "0"),
    ("-2 L12.N10.U17 + R15.L12^2 + 10 V19.N10.E10", 1, "-V19^2"),
    ("2 N10.U17.Q14 - R15.L12.Q14 + 10 V19.N10.L12", 1, "V19.X21"),
    ("10 N10.L12.X21 - R15.Q14^2 - 2 Q14.N10.V19", 1, "X21^2"),
    ("2 N10.U17.X21 - X21.L12.R15 + V19.Q14.R15 + 2 N10.V19^2", None, "0"),
    ("E10.Q14 + L12^2", 1, "-M8.R15"),
    ("Q14.U17 + 6 L12.V19 + 5 E10.X21", None, "0"),
    ("-6 Q14.L12.V19 - Q14^2.U17 + 5 X21.L12^2", 1, "-5 M8.R15.X21"),
]


# ---------------------------------------------------------------------------
# polarization descriptors: index groups -> combinatorial counts
# ---------------------------------------------------------------------------

# each generator: list of ("skew", size) and ("free", count) index groups
_POLARIZATION = {
    "E4k4": (4, [
        ("W10", [("skew", 4)]),
        ("f", [("free", 1)]),
        ("L3", [("skew", 2)]),
        ("L5", [("skew", 2), ("free", 1)]),
        ("L7", [("skew", 2), ("free", 2)]),
        ("D6", [("skew", 3)]),
        ("D8", [("skew", 3), ("free", 1)]),
        ("N10", [("skew", 3), ("free", 2)]),
        ("M8", [("skew", 2), ("skew", 2)]),
        ("E10", [("skew", 3), ("skew", 2)]),
        ("L12", [("skew", 3), ("skew", 2), ("free", 1)]),
        ("Q14", [("skew", 3), ("skew", 2), ("free", 2)]),
        ("R15", [("skew", 3), ("skew", 3), ("free", 1)]),
        ("U17", [("skew", 3), ("skew", 3), ("skew", 2)]),
        ("V19", [("skew", 3), ("skew", 3), ("skew", 2), ("free", 1)]),
        ("X21", [("skew", 3), ("skew", 3), ("skew", 2), ("free", 2)]),
    ]),
    "E3k4": (3, [
        ("f", [("free", 1)]),
        ("L3", [("skew", 2)]),
        ("L5", [("skew", 2), ("free", 1)]),
        ("L7", [("skew", 2), ("free", 2)]),
        ("D6", [("skew", 3)]),
        ("D8", [("skew", 3), ("free", 1)]),
        ("N10", [("skew", 3), ("free", 2)]),
        ("M8", [("skew", 2), ("skew", 2)]),
        ("E10", [("skew", 3), ("skew", 2)]),
        ("L12", [("skew", 3), ("skew", 2), ("free", 1)]),
        ("Q14", [("skew", 3), ("skew", 2), ("free", 2)]),
        ("R15", [("skew", 3), ("skew", 3), ("free", 1)]),
        ("U17", [("skew", 3), ("skew", 3), ("skew", 2)]),
        ("V19", [("skew", 3), ("skew", 3), ("skew", 2), ("free", 1)]),
        ("X21", [("skew", 3), ("skew", 3), ("skew", 2), ("free", 2)]),
    ]),
    "E2k5": (2, [
        ("f", [("free", 1)]),
        ("L3", []),
        ("L5", [("free", 1)]),
        ("L7", [("free", 2)]),
        ("L9", [("free", 3)]),
        ("M8", []),
        ("M10", [("free", 1)]),
        ("K12", [("free", 2)]),
        ("N12", []),
        ("H14", [("free", 1)]),
        ("F16", [("free", 2)]),
        ("X18", [("free", 3)]),
        ("X19", [("free", 1)]),
        ("X21", []),
        ("X23", [("free", 1)]),
        ("X25", [("free", 2)]),
        ("Y27", [("free", 3)]),
    ]),
}


def polarized_count(catalog_id: str) -> int:
    """Number of polarized invariants from index-range combinatorics."""
    from math import comb

    key = catalog_id
    if key.startswith("UE"):
        key = key[1:]
    if key not in _POLARIZATION:
        raise KeyError(f"no polarization data for {catalog_id}")
    n, rows = _POLARIZATION[key]
    total = 0
    for _, groups in rows:
        count = 1
        for kind, size in groups:
            count *= comb(n, size) if kind == "skew" else n ** size
        total += count
    return total


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------

def _as_entries(polys: Mapping[str, Polynomial], recipes: Dict[str, str],
                n: int, provenance: str = "catalog") -> List[CatalogEntry]:
    out = []
    for name, p in polys.items():
        w = p.weighted_degree()
        counts = component_degrees(p, n) or ()
        out.append(CatalogEntry(name, w, p, provenance,
                                recipes.get(name, ""), counts))
    return out


@lru_cache(maxsize=None)
def _counted_entries_4k4() -> Tuple[CatalogEntry, ...]:
    """The UE4k4 entries, weights and per-component degrees worked out once
    per process.  No entry but W10 involves f_4, so UE3k4's counts are the
    first three of these."""
    return tuple(_as_entries(_entries_4k4(), _RECIPES_4K4, 4))


def build_catalog(catalog_id: str) -> CatalogData:
    """Construct a catalog from its defining recipes (exact, no transcription)."""
    if catalog_id not in _CONTEXTS:
        raise KeyError(f"unknown catalog id: {catalog_id} (ids: {', '.join(CATALOG_IDS)})")
    n, kappa, mode = _CONTEXTS[catalog_id]
    tables = {}  # syzygy set -> (its transcribed rows, its id prefix)
    if catalog_id == "E2k2":
        polys = {"f1": poly_jet(1, 1), "f2": poly_jet(2, 1), "L3": wronskian([1, 2])}
        recipes = {"f1": "f[1]'", "f2": "f[2]'", "L3": "Delta(1,2)"}
        entries = _as_entries(polys, recipes, n)
    elif catalog_id in ("E2k3", "E2k4"):
        polys = _entries_2k4()
        if catalog_id == "E2k3":
            polys = {k: polys[k] for k in ("f1", "f2", "L3", "L5a", "L5b")}
        entries = _as_entries(polys, _RECIPES_2K4, n)
        rows = _SYZ_2K3 if catalog_id == "E2k3" else _SYZ_2K4
        tables = {"fundamental": (rows, catalog_id)}
    elif catalog_id == "E2k5":
        polys = _entries_2k5_brackets()
        entries = _as_entries(polys, dict.fromkeys(polys, "bracket construction"), n, "bracket")
    elif catalog_id == "E3k3":
        polys = _entries_3k3()
        entries = _as_entries(polys, dict.fromkeys(polys, "bracket construction"), n)
    elif catalog_id == "UE2k5":
        entries = _as_entries(_entries_2k5(), _RECIPES_2K5, n)
        loops = (_SYZ_2K5_LOOP1, _SYZ_2K5_LOOP2, _SYZ_2K5_LOOP3, _SYZ_2K5_LOOP4)
        tables = {f"loop{k}": (rows, f"UE2k5.{k}") for k, rows in enumerate(loops, start=1)}
    elif catalog_id == "UE3k3":
        L3, L5 = [inv.poly for inv in lambda_chain(2, 3)]
        polys = {"f1": poly_jet(1, 1), "L3": L3, "L5": L5, "D6": wronskian([1, 2, 3])}
        recipes = {"f1": "f[1]'", "L3": "Delta(1,2)", "L5": "[L3, f1]",
                   "D6": "Delta(1,2,3)"}
        entries = _as_entries(polys, recipes, n)
    else:  # UE3k4, UE4k4
        entries = [replace(e, counts=e.counts[:n]) for e in _counted_entries_4k4()
                   if n == 4 or e.name != "W10"]
        tables = {"lex41": (_SYZ_4K4, catalog_id)}
    data = CatalogData(catalog_id, JetContext(n, kappa), mode, entries)
    nw = [(e.name, e.weight) for e in entries]
    for key, (rows, prefix) in tables.items():
        data.syzygy_sets[key] = _make_syzygies(rows, nw, prefix)
    return data


_cache: Dict[str, CatalogData] = {}


@dataclass
class IntegrityIssue:
    entry: str
    problem: str


def integrity_check(data: CatalogData) -> List[IntegrityIssue]:
    """Weights, reparametrization invariance, and (bi mode) unipotent checks."""
    issues = []
    for e in data.entries:
        if e.poly.is_zero():
            issues.append(IntegrityIssue(e.name, "zero polynomial"))
            continue
        w = e.poly.weighted_degree()
        if w != e.weight:
            issues.append(IntegrityIssue(e.name, f"weight {w} != declared {e.weight}"))
        rep = check_reparam_invariance(e.poly)
        if not rep:
            issues.append(IntegrityIssue(e.name, "fails reparametrization invariance"))
        elif rep.weight != e.weight:
            issues.append(IntegrityIssue(e.name, f"invariance weight {rep.weight}"))
        if data.mode == "bi" and not check_unipotent_invariance(e.poly):
            issues.append(IntegrityIssue(e.name, "fails unipotent invariance"))
    return issues


def normalizer_for(ctx: JetContext, mode: str):
    """Name-normalizer for run_generation: match discovered invariants
    against the catalogued ones (up to a rational multiple) and adopt the
    catalogued polynomial and name."""
    cid = next((c for c, context in _CONTEXTS.items()
                if context == (ctx.n, ctx.kappa, mode)), None)
    if cid is None:
        return None
    entries = load_catalog(cid).entries

    def normalize(core):
        for e in entries:
            if proportional(core, e.poly):
                return e.name, e.poly
        return None

    return normalize


def load_catalog(catalog_id: str) -> CatalogData:
    """Cached catalog access."""
    data = _cache.get(catalog_id)
    if data is None:
        data = build_catalog(catalog_id)
        _cache[catalog_id] = data
    return data


# ---------------------------------------------------------------------------
# JSON round trip and checksums
# ---------------------------------------------------------------------------


def catalog_to_json(data: CatalogData) -> dict:
    doc = {
        "schema": "jetcalc-catalog/1",
        "id": data.id,
        "context": {"n": data.ctx.n, "kappa": data.ctx.kappa, "mode": data.mode},
        "entries": [
            {
                "name": e.name,
                "weight": e.weight,
                "provenance": e.provenance,
                "recipe": e.recipe,
                "counts": list(e.counts),
                "polynomial": poly_to_json(e.poly),
            }
            for e in data.entries
        ],
        "syzygies": {
            key: [
                {
                    "id": s.id,
                    "weight": s.weight,
                    "S": format_polynomial(s.relation),
                    "nu": s.nu,
                    "R": format_polynomial(s.remainder),
                }
                for s in rows
            ]
            for key, rows in data.syzygy_sets.items()
        },
    }
    doc["checksum"] = catalog_checksum(doc)
    return doc


def catalog_checksum(doc: dict) -> str:
    body = {k: v for k, v in doc.items() if k != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def catalog_from_json(doc: dict) -> CatalogData:
    if doc.get("checksum") != catalog_checksum(doc):
        raise ValueError("catalog checksum mismatch")
    ctx = JetContext(doc["context"]["n"], doc["context"]["kappa"])
    entries = []
    for e in doc["entries"]:
        entries.append(CatalogEntry(e["name"], e["weight"],
                                    poly_from_json(e["polynomial"]),
                                    e["provenance"], e.get("recipe", ""),
                                    tuple(e.get("counts", ()))))
    data = CatalogData(doc["id"], ctx, doc["context"]["mode"], entries)
    nw = [(e.name, e.weight) for e in entries]
    tags = {n: tag(n, w, k) for k, (n, w) in enumerate(nw)}
    for key, rows in doc.get("syzygies", {}).items():
        out = []
        for s in rows:
            nu = s["nu"]
            if nu is not None and (type(nu) is not int or nu < 0):
                raise ValueError(f"syzygy {s['id']}: nu {nu!r} is not a power")
            if nu is not None and not tags.keys() & {"f1", "f1'"}:
                raise ValueError(f"syzygy {s['id']} has nu, but no entry is f1 or f1'")
            rel = parse_polynomial(s["S"], tags)
            rem = parse_polynomial(s["R"], tags)
            out.append(Syzygy(s["id"], rel, s["weight"], nu, rem))
        data.syzygy_sets[key] = out
    return data
