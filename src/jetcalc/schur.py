"""Partitions, Giambelli determinants and alternants, Chern classes of
hypersurfaces, the slots of the leading Euler-characteristic expansion of
Schur bundles, and the 24-family approximate decomposition in dimension 4 at
jet order 4.

Chern data for a degree-d hypersurface X^n in P^(n+1) lives in the ring
generated by the hyperplane class h with h^(n+1) = 0 and the integration
rule  integral over X of h^n = d, so every degree-n Chern monomial reduces
to an exact polynomial in d.  Giambelli's determinant in the Chern classes
and the alternant det(x_j^(e_i)) are both expanded over
`polyring.signed_permutations`; `euler` pairs the two, slot by slot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .degpoly import DegreePolynomial
from .polyring import format_terms, signed_permutations


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def partitions(n: int) -> List[Tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples (padded with zeros),
    in decreasing lexicographic order."""
    out: List[Tuple[int, ...]] = []
    stack = [((), n)]  # (parts so far, what is left), the largest next part on top
    while stack:
        head, left = stack.pop()
        if not left:
            out.append(head + (0,) * (n - len(head)))
        stack.extend((head + (part,), left - part)
                     for part in range(1, min(left, head[-1] if head else n) + 1))
    return out


def conjugate(lam: Sequence[int]) -> Tuple[int, ...]:
    """Transpose of the partition diagram, padded to the same length."""
    n = len(lam)
    return tuple(sum(1 for part in lam if part >= i) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Chern classes of a hypersurface
# ---------------------------------------------------------------------------


@dataclass
class ChernSystem:
    """c_k(T_X) = q_k(d) h^k on a degree-d hypersurface X^n in P^(n+1)."""

    n: int
    classes: List[DegreePolynomial]  # index k: the d-polynomial q_k

    def q(self, k: int) -> DegreePolynomial:
        if k < 0 or k > self.n:
            return DegreePolynomial()
        return self.classes[k]

    def integrate_monomial(self, ks: Sequence[int], dual: bool = False) -> DegreePolynomial:
        """Integral over X of the product of the c_k, for sum(ks) == n."""
        if sum(ks) != self.n:
            raise ValueError(f"Chern monomial of degree {sum(ks)} != n={self.n}")
        acc = DegreePolynomial.d()  # integral of h^n
        for k in ks:
            acc = acc * self.q(k)
        if dual and self.n % 2:
            acc = -acc
        return acc

    def integrate_combo(self, combo: Dict[Tuple[int, ...], Fraction],
                        dual: bool = False) -> DegreePolynomial:
        acc = DegreePolynomial()
        for ks, c in combo.items():
            acc = acc + c * self.integrate_monomial(ks, dual=dual)
        return acc


def chern_hypersurface(n: int) -> ChernSystem:
    """Chern polynomials from the recurrence q_k = binom(n+2,k) - d q_(k-1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    d = DegreePolynomial.d()
    qs = [DegreePolynomial.constant(1)]
    for k in range(1, n + 1):
        qs.append(DegreePolynomial.constant(comb(n + 2, k)) - d * qs[-1])
    return ChernSystem(n, qs)


# ---------------------------------------------------------------------------
# permutation expansions: Giambelli determinants and alternants
# ---------------------------------------------------------------------------

ChernCombo = Dict[Tuple[int, ...], Fraction]


def giambelli(lam_conj: Sequence[int], n: int) -> ChernCombo:
    """The determinant det(c_{lam^c_i - i + j}) as {sorted index tuple: coeff}.

    Conventions: c_0 = 1 and c_k = 0 for k < 0 or k > n.  The result is a
    homogeneous degree-n combination of abstract Chern classes.
    """
    combo: ChernCombo = {}
    for perm, sign in signed_permutations(len(lam_conj)):
        ks = [part - i + j for i, (part, j) in enumerate(zip(lam_conj, perm))]
        if min(ks) < 0 or max(ks) > n:
            continue
        key = tuple(sorted(k for k in ks if k))
        combo[key] = combo.get(key, Fraction(0)) + sign
        if not combo[key]:
            del combo[key]
    return combo


def alternant(exponents: Sequence[int]) -> Dict[Tuple[int, ...], int]:
    """The Leibniz expansion of det(x_j ^ e_i), rows in the given order, as
    {exponent vector of x_1..x_n: sign}.

    The term of a permutation puts e_i on x_perm(i); the vector read through
    the inverse permutation has the same sign.  The exponents must be
    distinct, so that each permutation gives its own monomial and every
    coefficient is +1 or -1.
    """
    if len(set(exponents)) != len(exponents):
        raise ValueError(f"alternant exponents {tuple(exponents)} repeat")
    return {tuple(exponents[i] for i in perm): sign
            for perm, sign in signed_permutations(len(exponents))}


def format_chern_combo(combo: ChernCombo) -> str:
    def mono(ks: Tuple[int, ...]) -> str:
        return " ".join(f"c{k}" + (f"^{ks.count(k)}" if ks.count(k) > 1 else "")
                        for k in sorted(set(ks)))

    return format_terms(((c, mono(ks)) for ks, c in sorted(combo.items())), " ")


# ---------------------------------------------------------------------------
# slots of the leading Euler characteristic of a Schur bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiSlot:
    """One partition's contribution: determinant exponents and Chern data."""

    name: str                 # ascending exponent digits, e.g. "0127"
    exponents: Tuple[int, ...]  # descending, as in the expansion theorem
    denominator: int          # product of the factorials of the exponents
    combo: ChernCombo         # Giambelli combination for the conjugate


@lru_cache(maxsize=None)
def chi_slots(n: int) -> Tuple[ChiSlot, ...]:
    """The slots of dimension n, by name; worked out once per n."""
    out = []
    for lam in partitions(n):
        mu = tuple(lam[i] + n - (i + 1) for i in range(n))  # strictly decreasing
        name = "".join(str(e) for e in sorted(mu))
        out.append(ChiSlot(name, mu, prod(map(factorial, mu)), giambelli(conjugate(lam), n)))
    out.sort(key=lambda s: s.name)
    return tuple(out)


# ---------------------------------------------------------------------------
# the 24 monomial families of the dimension-4 decomposition
# ---------------------------------------------------------------------------

# exponent letters of the sixteen UE4k4 generators (`_letter_entries`); o and
# p are the free powers of f_1' and of the full Wronskian
FAMILY_LETTERS = "abcdefghijklmnop"


def _letter_entries() -> dict:
    """The UE4k4 `CatalogEntry`s by letter: a..n in catalog order, then f1
    and W10."""
    from .catalog import load_catalog

    entries = load_catalog("UE4k4").entries  # a stable sort keeps their order
    return dict(zip(FAMILY_LETTERS, sorted(entries, key=lambda e: e.name in ("f1", "W10"))))


@dataclass
class FamilySpec:
    id: str
    word: str                      # the vanishing letters (1-markers dropped)
    multiplicity: int
    free: List[str]                # free exponent letters among a..n, plus o, p
    weights: Dict[str, int]        # letter -> jet weight
    counts: Dict[str, Tuple[int, int, int, int]]  # letter -> Schur index counts


class ConstraintWord:
    """A conjunction of per-letter constraints: letter -> 0 or 1."""

    __slots__ = ("fixed",)

    def __init__(self, fixed: Dict[str, int]):
        self.fixed = dict(fixed)

    def key(self) -> tuple:
        return tuple(sorted(self.fixed.items()))

    def merge(self, other: "ConstraintWord") -> Optional["ConstraintWord"]:
        out = dict(self.fixed)
        for k, v in other.fixed.items():
            if out.get(k, v) != v:
                return None  # {x=0} & {x=1} is empty
            out[k] = v
        return ConstraintWord(out)

    def implies(self, other: "ConstraintWord") -> bool:
        """True when this word's set is contained in the other's."""
        return all(self.fixed.get(k) == v for k, v in other.fixed.items())

    def letters(self) -> str:
        return "".join(sorted(self.fixed))

    def __repr__(self):
        return "".join(f"{k}{'' if v == 0 else chr(0xB9)}"
                       for k, v in sorted(self.fixed.items()))


# longest constraint word kept by quadrant_complement_words
_MAX_WORD_LETTERS = 9


def _union_product(a: List[ConstraintWord], b: List[ConstraintWord]) -> List[ConstraintWord]:
    merged: Dict[tuple, ConstraintWord] = {}
    for wa in a:
        for wb in b:
            w = wa.merge(wb)
            if w is None or len(w.fixed) > _MAX_WORD_LETTERS:
                continue
            merged[w.key()] = w
    # absorb: a word is redundant when a shorter kept word covers it
    words = sorted(merged.values(), key=lambda w: len(w.fixed))
    keep: List[ConstraintWord] = []
    for w in words:
        if not any(w.implies(v) for v in keep):
            keep.append(w)
    return keep


def quadrant_complement_words(vertices: List[Dict[str, int]]) -> List[ConstraintWord]:
    """Intersection over the quadrants of the complements {e < vertex_e}.

    Each quadrant {x >= v_x, ...} has complement the union over its letters
    of {x = 0}, ..., {x = v_x - 1}; the intersection is expanded as a union
    of constraint words, dropping words of more than nine letters (they only
    contribute below the leading order).
    """
    current = [ConstraintWord({})]
    for vert in vertices:
        union = []
        for letter, v in sorted(vert.items()):
            for value in range(v):
                union.append(ConstraintWord({letter: value}))
        current = _union_product(current, union)
    return sorted(current, key=lambda w: (w.letters(), w.key()))


def syzygy_lead_vertices_lex() -> List[Dict[str, int]]:
    """Leading-term quadrants of the 41 syzygies under the Lex order of the
    catalog's tags, which the letters a..n follow."""
    from .catalog import load_catalog
    from .polyring import Lex

    letters = {e.name: x for x, e in _letter_entries().items()}
    order = Lex()
    return [{letters[v.name[2:]]: e for v, e in order.leading_monomial(s.relation)}
            for s in load_catalog("UE4k4").syzygy_sets["lex41"]]


@lru_cache(maxsize=None)
def _family_words() -> Tuple[Tuple[str, int], ...]:
    """(vanishing letters, multiplicity) per family, sorted by letters; the
    input is fixed, so this is worked out once per process."""
    words = quadrant_complement_words(syzygy_lead_vertices_lex())
    return tuple(sorted(Counter(w.letters() for w in words).items()))


def enumerate_families() -> List[FamilySpec]:
    """The 24 families with multiplicities from the quadrant-word computation;
    every call returns new lists and dicts."""
    entries = _letter_entries()
    weights = {x: e.weight for x, e in entries.items()}
    lcounts = {x: tuple(e.counts) for x, e in entries.items()}
    if len(_family_words()) > 26:
        raise AssertionError("unexpected family count")
    out = []
    for idx, (word, multiplicity) in enumerate(_family_words()):
        fam_id = chr(ord("A") + idx)
        free = [x for x in FAMILY_LETTERS[:14] if x not in word] + ["o", "p"]
        out.append(FamilySpec(fam_id, word, multiplicity, free, weights, lcounts))
    return out
