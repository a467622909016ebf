"""The packed substitution against the tuple-monomial expansion it replaced."""

import random
from fractions import Fraction

import pytest

from jetcalc.polyring import Polynomial, jet, mono_mul, phi, tag, uni

VARS = [jet(1, 1), jet(1, 2), jet(2, 1), jet(2, 3), jet(3, 1), phi(1), phi(2),
        uni(2, 1), uni(3, 2), tag("A", 3, 0), tag("B", 5, 1)]
IMAGE_KINDS = ("zero", "constant", "polynomial", "polynomial")


def reference_substitute(p, sigma):
    """Term by term on tuple monomials, image powers by `**`, summed with `+`."""
    if not sigma:
        return p
    pow_cache = {}

    def image_power(v, e):
        got = pow_cache.get((v, e))
        if got is None:
            got = sigma[v] ** e
            pow_cache[(v, e)] = got
        return got

    acc = Polynomial.zero()
    for m, c in p.terms.items():
        kept = []
        factors = []
        for v, e in m:
            if v in sigma:
                factors.append(image_power(v, e))
            else:
                kept.append((v, e))
        term = Polynomial(_raw={tuple(kept): c})
        for f in factors:
            term = term * f
            if not term:
                break
        acc = acc + term
    return acc


def random_coeff(rng):
    c = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
    return c or Fraction(1, 7)


def random_poly(rng, nterms, max_vars, max_exp):
    terms = {}
    for _ in range(nterms):
        m = ()
        for v in rng.sample(VARS, rng.randint(0, max_vars)):
            m = mono_mul(m, ((v, rng.randint(1, max_exp)),))
        terms[m] = random_coeff(rng)
    return Polynomial(terms)


def random_case(seed):
    """A polynomial and a map of some of its variables: zero, constant and
    polynomial images, the rest kept; images may mention mapped variables."""
    rng = random.Random(seed)
    p = random_poly(rng, rng.randint(3, 8), 4, 4)
    mapped = rng.sample(sorted(p.variables(), key=lambda v: v.key),
                        len(p.variables()) // 2 + 1) if p.variables() else []
    sigma = {}
    for k, v in enumerate(mapped):
        kind = IMAGE_KINDS[(seed + k) % len(IMAGE_KINDS)]
        if kind == "zero":
            sigma[v] = Polynomial.zero()
        elif kind == "constant":
            sigma[v] = Polynomial.constant(random_coeff(rng))
        else:
            sigma[v] = random_poly(rng, rng.randint(1, 3), 2, 2)
    return p, sigma


@pytest.mark.parametrize("seed", range(40))
def test_packed_substitute_matches_reference(seed):
    p, sigma = random_case(seed)
    assert p.substitute(sigma) == reference_substitute(p, sigma)


def test_random_cases_cover_every_image_kind():
    kinds = {"zero": 0, "constant": 0, "polynomial": 0, "kept": 0}
    denominators, mapped_kinds = set(), set()
    for seed in range(40):
        p, sigma = random_case(seed)
        for v, img in sigma.items():
            mapped_kinds.add(v.kind)
            if not img:
                kinds["zero"] += 1
            elif img.variables():
                kinds["polynomial"] += 1
            else:
                kinds["constant"] += 1
            denominators |= {c.denominator for c in img.terms.values()}
        kinds["kept"] += bool(p.variables() - sigma.keys())
        denominators |= {c.denominator for c in p.terms.values()}
    assert all(kinds.values()), kinds
    assert {2, 3, 7} <= denominators
    # jets, phi, u[r][c] and tags are all mapped somewhere
    assert mapped_kinds == {0, 1, 2, 3}


@pytest.mark.parametrize("power", [200, 40000])
def test_exponents_past_8_and_16_bit_fields(power):
    """x^2 -> y^(2 power): the result's y field passes 255, then 65535, with
    occupied fields on both sides of it (u above, z and w below)."""
    u, y, x, z, w = jet(1, 1), jet(1, 3), jet(2, 2), jet(2, 1), phi(1)
    U, Y, X, Z, W = (Polynomial.variable(v) for v in (u, y, x, z, w))
    p = X ** 2 * Z ** 3 * U + Fraction(5, 7) * X * W - Fraction(1, 2) * Z
    sigma = {x: Y ** power + Z - Fraction(1, 3)}
    got = p.substitute(sigma)
    assert got == reference_substitute(p, sigma)
    assert max(e for m in got.terms for v, e in m if v is y) == 2 * power
    assert got.coefficient(((u, 1), (y, 2 * power), (z, 3))) == 1
