"""Ring axioms, orders, substitution, exact division, and serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc.polyring import (
    Block,
    DegRevLex,
    Lex,
    Polynomial,
    WeightedDeg,
    format_polynomial,
    jet,
    mono_mul,
    parse_polynomial,
    phi,
    poly_from_json,
    poly_to_json,
    proportional,
    tag,
    uni,
)
from jetcalc.jets import divide_f1_power, maximal_f1_power
from test_packed import textbook_cmp

VARS = [jet(1, 1), jet(1, 2), jet(2, 1), jet(2, 2), jet(1, 3)]


def random_poly(rng, nterms=4, max_exp=3):
    p = Polynomial.zero()
    for _ in range(nterms):
        term = Polynomial.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for v in rng.sample(VARS, rng.randint(0, 3)):
            term = term * Polynomial.variable(v) ** rng.randint(1, max_exp)
        p = p + term
    return p


@pytest.mark.parametrize("seed", range(12))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    p, q, r = (random_poly(rng) for _ in range(3))
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == Polynomial.zero()
    assert p * Polynomial.constant(1) == p
    assert (p - p).is_zero()


def test_canonical_zero_has_no_terms():
    f1 = Polynomial.variable(jet(1, 1))
    z = f1 + (-1) * f1
    assert z.is_zero() and len(z.terms) == 0


def test_additive_identity():
    lam3 = Polynomial.variable(jet(1, 1)) * Polynomial.variable(jet(2, 2)) \
        - Polynomial.variable(jet(1, 2)) * Polynomial.variable(jet(2, 1))
    assert lam3 + Polynomial.zero() == lam3
    assert Polynomial.constant(1) * lam3 == lam3
    assert (lam3 * lam3).weighted_degree() == 6


@pytest.mark.parametrize("seed", range(8))
def test_divide_exact_roundtrip(seed):
    """The program's exact division, by a power of f_1', undoes the product
    and finds the power."""
    rng = random.Random(100 + seed)
    p = random_poly(rng) or Polynomial.constant(1)
    k = rng.randint(1, 3)
    q = p * Polynomial.variable(jet(1, 1)) ** k
    assert maximal_f1_power(q) == maximal_f1_power(p) + k
    assert divide_f1_power(q, k) == p


@pytest.mark.parametrize("seed", range(6))
def test_substitute_respects_products(seed):
    rng = random.Random(200 + seed)
    p, q = random_poly(rng), random_poly(rng)
    sigma = {jet(1, 1): random_poly(rng, nterms=2, max_exp=2),
             jet(2, 1): Polynomial.constant(3)}
    assert (p * q).substitute(sigma) == p.substitute(sigma) * q.substitute(sigma)


def test_substitute_identity_and_restriction():
    f1, f1pp, f2p = (Polynomial.variable(v) for v in (jet(1, 1), jet(1, 2), jet(2, 1)))
    lam3 = f1 * Polynomial.variable(jet(2, 2)) - f1pp * f2p
    assert lam3.substitute({}) == lam3
    assert lam3.substitute({jet(1, 1): Polynomial.zero()}) == -(f1pp * f2p)


def _less(order, a, b):
    return a != b and order.ranked([a, b]) == [b, a]


@pytest.mark.parametrize("order", [
    Lex(), DegRevLex(), WeightedDeg(), Block({jet(1, 1), jet(2, 1)}),
    Block({jet(1, 1), jet(2, 1)}, Lex(), WeightedDeg()),
    Block({jet(1, 2)}, WeightedDeg(), Block({jet(2, 1)}, Lex(), DegRevLex()))])
def test_order_multiplicative_and_unit_minimal(order):
    rng = random.Random(17)
    monos = []
    for _ in range(40):
        m = ()
        for v in rng.sample(VARS, rng.randint(0, 3)):
            m = mono_mul(m, ((v, rng.randint(1, 3)),))
        monos.append(m)
    for _ in range(300):
        a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        if _less(order, a, b):
            assert _less(order, mono_mul(a, c), mono_mul(b, c))
    assert order.ranked(set(monos) | {()})[-1] == ()


@pytest.mark.parametrize("which", ["lex", "degrevlex", "block", "block-lex"])
def test_sort_key_matches_exponent_vector_orders(which):
    """`ranked` on each pair of monomials, packed over the pair's own
    variables as a sort key, orders it as the exponent-vector definition of
    its order over all variables does."""
    variables = sorted(VARS + [phi(1), phi(2), uni(2, 1), tag("a", 2, 0), tag("b", 1, 1)],
                       key=lambda v: v.key)
    front = {jet(1, 2), jet(2, 1), phi(1), tag("b", 1, 1)}
    order = {
        "lex": Lex(),
        "degrevlex": DegRevLex(),
        "block": Block(front),
        "block-lex": Block(front, Lex(), DegRevLex()),
    }[which]
    cmp = textbook_cmp(order, variables)
    rng = random.Random(29)
    monos = [((jet(1, 1), 1),), ((jet(1, 2), 1),)]
    for _ in range(80):
        m = ()
        for v in rng.sample(variables, rng.randint(0, 4)):
            m = mono_mul(m, ((v, rng.randint(1, 3)),))
        monos.append(m)
    for a in monos:
        ea = [dict(a).get(v, 0) for v in variables]
        for b in monos:
            eb = [dict(b).get(v, 0) for v in variables]
            ranked = 0 if a == b else (1 if order.ranked([a, b])[0] == a else -1)
            assert ranked == cmp(ea, eb), (a, b)


def test_block_order_eliminates_front():
    front = {jet(1, 1), jet(1, 2)}
    order = Block(front)
    with_front = ((jet(1, 1), 1),)
    only_back = ((jet(2, 1), 5),)
    assert order.ranked([only_back, with_front]) == [with_front, only_back]


def test_variable_identity_structural():
    assert jet(1, 2) is jet(1, 2)
    assert jet(1, 2) != jet(2, 1)
    assert uni(3, 1).name == "u[3][1]"
    with pytest.raises(ValueError):
        uni(1, 3)
    assert phi(2).weight == 2
    assert tag("L3", 3).weight == 3


@pytest.mark.parametrize("seed", range(10))
def test_text_and_json_roundtrip(seed):
    rng = random.Random(300 + seed)
    p = random_poly(rng)
    assert parse_polynomial(format_polynomial(p)) == p
    assert poly_from_json(poly_to_json(p)) == p


def test_text_form_mentions_primes_and_tags():
    x21 = tag("X21", 21)
    p = Polynomial.variable(jet(2, 3)) * Polynomial.variable(x21) \
        * Polynomial.variable(uni(2, 1)) * Polynomial.variable(phi(2))
    text = format_polynomial(p)
    assert "f[2]'''" in text and "t:X21" in text and "u[2][1]" in text and "phi''" in text
    # tag weight and order are context, supplied by the caller on re-parse
    assert parse_polynomial(text, {"X21": x21}) == p


def test_weighted_degree():
    f1 = Polynomial.variable(jet(1, 1))
    lam3 = f1 * Polynomial.variable(jet(2, 2)) \
        - Polynomial.variable(jet(1, 2)) * Polynomial.variable(jet(2, 1))
    assert lam3.weighted_degree() == 3
    assert (f1 + lam3).weighted_degree() is None
    with pytest.raises(ValueError):
        Polynomial.zero().weighted_degree()


def test_proportional():
    rng = random.Random(5)
    p = random_poly(rng)
    assert proportional(p * Fraction(-7, 3), p)
    q = p + Polynomial.variable(jet(1, 3)) ** 5
    assert not proportional(p, q)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2)),
                min_size=0, max_size=6))
def test_hypothesis_add_mul_consistency(data):
    x, y = Polynomial.variable(jet(1, 1)), Polynomial.variable(jet(2, 1))
    p = Polynomial.zero()
    for c, e1, e2 in data:
        p = p + Polynomial.constant(c) * x ** e1 * y ** e2
    assert p * (x + y) == p * x + p * y
    assert (p - p).is_zero()
