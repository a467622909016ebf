"""The packed substitution and monomial orders against the tuple-monomial
routines they replaced, and the tuple product against the packed one."""

import gc
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from conftest import counted_pairs
from jetcalc import polyring
from jetcalc.catalog import load_catalog
from jetcalc.invgen import verify_syzygies
from jetcalc.jets import reparam_images
from jetcalc.polyring import (
    Block,
    DegRevLex,
    Lex,
    Packing,
    Polynomial,
    WeightedDeg,
    is_tag,
    jet,
    mono_degree,
    mono_divides,
    mono_mul,
    packed_images,
    phi,
    tag,
    uni,
)

VARS = [jet(1, 1), jet(1, 2), jet(2, 1), jet(2, 3), jet(3, 1), phi(1), phi(2),
        uni(2, 1), uni(3, 2), tag("A", 3, 0), tag("B", 5, 1)]
IMAGE_KINDS = ("zero", "constant", "polynomial", "polynomial")


def reference_mul(a, b):
    """a * b on packed integers: both operands packed on one order-free
    Packing of their variables, wide enough for the product's degree."""
    (va, top_a), (vb, top_b) = polyring._support(a.terms), polyring._support(b.terms)
    packing = Packing(va | vb, top_a + top_b)
    da, ta = packing.pack_terms(a.terms)
    db, tb = packing.pack_terms(b.terms)
    return packing.unpack(da * db, polyring._packed_mul(ta, tb))


def reference_substitute(p, sigma):
    """Term by term on tuple monomials, image powers by repeated products
    `*`, summed with `+`."""
    if not sigma:
        return p
    pow_cache = {}

    def image_power(v, e):
        got = pow_cache.get((v, e))
        if got is None:
            got = Polynomial.constant(1)
            for _ in range(e):
                got = got * sigma[v]
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
    assert got.terms.get(((u, 1), (y, 2 * power), (z, 3)), 0) == 1


@pytest.mark.parametrize("seed", range(12))
def test_packed_images_share_one_packing(seed):
    """Several polynomials, of low and of high degree, imaged in one call:
    each unpacks to its reference image, the packing's limit holds the
    highest image degree, and no zero numerator is kept."""
    p, sigma = random_case(seed)
    polys = [p, p * p * p, Polynomial.constant(Fraction(-2, 3)), Polynomial.zero()]
    packing, images = packed_images(sigma, polys)
    assert len(images) == len(polys)
    for q, image in zip(polys, images):
        assert packing.unpack(*image) == reference_substitute(q, sigma)
        assert all(image[1].values())
    top = max((sum(e * max(map(mono_degree, sigma[v].terms), default=0) if v in sigma else e
                   for v, e in m) for m in polys[1].terms), default=0)
    assert top <= packing.limit < 2 * max(top, 1)


def test_a_zero_image_drops_its_terms():
    x, y, z = jet(1, 1), jet(1, 2), jet(2, 1)
    X, Y, Z = (Polynomial.variable(v) for v in (x, y, z))
    packing, [mixed, gone] = packed_images({x: Polynomial.zero()},
                                           [X * Y + Fraction(2, 3) * Z, X ** 3])
    assert len(mixed[1]) == 1 and packing.unpack(*mixed) == Fraction(2, 3) * Z
    assert gone[1] == {}
    assert (X ** 3 + Y).substitute({x: Polynomial.zero()}) == Y


def test_substitute_is_the_identity_off_the_maps_support():
    x, y = jet(1, 1), jet(1, 2)
    p = Polynomial.variable(x) * 3 + Fraction(1, 2)
    assert p.substitute({}) is p
    assert p.substitute({y: Polynomial.variable(x) + 1}) is p
    assert p.substitute({x: Polynomial.variable(y)}) == Polynomial.variable(y) * 3 + Fraction(1, 2)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("e", [2, 3, 4])
def test_packed_images_of_a_power(seed, e):
    """x^e imaged through the square (e = 2) and the products of the power
    cache, alone and beside lower powers of x."""
    rng = random.Random(10 * seed + e)
    x = jet(1, 1)
    X = Polynomial.variable(x)
    sigma = {x: random_poly(rng, rng.randint(1, 6), 3, 3) + random_coeff(rng)}
    for p in (X ** e, X ** e - Fraction(2, 3) * X ** (e - 1) * Polynomial.variable(phi(1))):
        packing, [image] = packed_images(sigma, [p])
        assert packing.unpack(*image) == reference_substitute(p, sigma)


def shared_powers_case(seed):
    """Polynomials whose terms share image powers at several depths: every
    exponent combination of a few mapped variables (one with a zero image,
    one with a constant image) times a few cofactors, some of them off the
    map's support, and a constant term; images and coefficients have
    denominators."""
    rng = random.Random(seed)
    mapped = rng.sample(VARS, 4)
    kept = [v for v in VARS if v not in mapped]
    sigma = {mapped[0]: poly_of_size(rng, 5), mapped[1]: poly_of_size(rng, 3),
             mapped[2]: Polynomial.constant(random_coeff(rng)),
             mapped[3]: Polynomial.zero()}
    cofactors = [(), ((rng.choice(kept), 1),), ((rng.choice(kept), 2),),
                 ((rng.choice(mapped[1:]), 1),)]
    polys = []
    for _ in range(2):
        terms = {(): random_coeff(rng)}
        for e0 in range(3):
            for e1 in range(3):
                for extra in rng.sample(cofactors, 3):
                    m = mono_mul(((mapped[0], e0),) if e0 else (),
                                 ((mapped[1], e1),) if e1 else ())
                    m = mono_mul(m, extra)
                    if not e1 and not extra:
                        m = mono_mul(m, ((mapped[3], 1),))
                    terms[m] = terms.get(m, 0) + random_coeff(rng)
        polys.append(Polynomial(terms))
    return sigma, polys


def _shared_groups(sigma, p, depth):
    """The largest number of terms that share the same nonzero exponents of
    the `depth` largest images (ties by seniority) and carry no zero image."""
    ranked = sorted((v for v in sigma if sigma[v]), key=lambda v: (-len(sigma[v]), v.key))
    counts = {}
    for m in p.terms:
        exps = dict(m)
        if any(v in exps for v in sigma if not sigma[v]):
            continue
        key = tuple(exps.get(v, 0) for v in ranked[:depth])
        if all(key):
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values(), default=0)


@pytest.mark.parametrize("seed", range(16))
def test_grouped_expansion_matches_reference(seed):
    """Terms grouped by shared image powers, two levels deep, beside a
    constant and the zero polynomial on one packing: each image is the
    term-by-term reference, with no zero numerator kept."""
    sigma, polys = shared_powers_case(seed)
    polys += [Polynomial.constant(Fraction(-5, 3)), Polynomial.zero()]
    packing, images = packed_images(sigma, polys)
    for q, image in zip(polys, images):
        assert packing.unpack(*image) == reference_substitute(q, sigma)
        assert all(image[1].values())
    assert images[-1] == (1, {})


def test_grouped_cases_share_powers_at_two_depths():
    """The cases above do exercise the grouping: terms share the power of
    the largest image, and of the two largest, in every seed; some terms
    hit the zero image, one is constant, some keep a variable."""
    for seed in range(16):
        sigma, polys = shared_powers_case(seed)
        assert all(_shared_groups(sigma, p, 1) >= 2 for p in polys)
        assert all(_shared_groups(sigma, p, 2) >= 2 for p in polys)
        terms = [m for p in polys for m in p.terms]
        zero = next(v for v in sigma if not sigma[v])
        assert any(v is zero for m in terms for v, _ in m)
        assert () in terms and any(dict(m).keys() - sigma.keys() for m in terms)


def _ue3k4_35_inputs():
    """The map and the two polynomials (S and t^nu R) of the check of
    syzygy UE3k4.35, as `verify_syzygies` images them."""
    data = load_catalog("UE3k4")
    [s] = [s for s in data.syzygies() if s.id == "UE3k4.35"]
    gens = data.generator_map()
    f1 = Polynomial.variable(tag("f1", 1, -1))
    tagged = s.remainder * f1 ** s.nu
    sub = {v: gens[v.name[2:]] for v in s.relation.variables() | tagged.variables() if is_tag(v)}
    return sub, [s.relation, tagged]


def test_packed_images_leave_nothing_for_the_collector():
    """One expansion makes no reference cycle (a self-recursive closure
    would keep each call's power cache alive until the collector runs)."""
    sub, polys = _ue3k4_35_inputs()
    gc.collect()
    gc.disable()
    try:
        _, images = packed_images(sub, polys)
        assert all(len(num) for _, num in images)
        del images
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("catalog, syzygy, sliced, full", [
    ("UE3k4", "UE3k4.35", (10480, 47022), (246343, 47961)),
    ("UE2k5", "UE2k5.4.1", (63, 0), (155498, 0)),
], ids=["UE3k4.35", "UE2k5.4.1"])
def test_syzygy_check_term_pairs_pinned(monkeypatch, empty_tables, catalog, syzygy, sliced,
                                        full):
    """The term pairs (products, squares) one syzygy check makes.  Decided on
    the slice f_1'' = ... = 0, it expands S and t^nu R there and R(gens)
    alone in full (UE2k5.4.1 has nu = None, so no R).  Expanded in full, as
    when a generator is not certified: each image power's square makes every
    cross pair once (as full products, UE3k4.35's squares would make 95,572
    pairs, not 47,961), and a lone term's partial products drop their zero
    numerators (UE3k4.35 made 249,471 product pairs without)."""
    import jetcalc.invgen as invgen

    data = load_catalog(catalog)
    [s] = [s for s in data.syzygies() if s.id == syzygy]
    gens = data.generator_map()
    pairs = counted_pairs(monkeypatch)
    [check] = verify_syzygies([s], gens, "f1")
    assert check.ok
    assert (pairs["products"], pairs["squares"]) == sliced
    empty_tables()  # so the stub, not a remembered slice, decides
    monkeypatch.setattr(invgen, "killed", lambda p, operators: False)
    pairs.update(products=0, squares=0)
    assert verify_syzygies([s], gens, "f1") == [check]
    assert (pairs["products"], pairs["squares"]) == full


def test_reparam_substitution_term_pairs_pinned(monkeypatch):
    """The invariance substitution of UE2k5's X25 (580 terms, and so many in
    its image): grouped by shared image powers it makes at most a fifth of
    the 327,345 product pairs that expanding term by term made."""
    [x25] = [e for e in load_catalog("UE2k5").entries if e.name == "X25"]
    sigma = reparam_images(x25.poly.variables())  # the matrix is built outside the count
    pairs = counted_pairs(monkeypatch)
    assert x25.poly.substitute(sigma) == x25.poly
    assert pairs == {"products": 40512, "squares": 106}
    assert pairs["products"] <= 327345 // 5


# ---------------------------------------------------------------------------
# products: a * b on tuples against the packed product
# ---------------------------------------------------------------------------


def poly_of_size(rng, n, big=()):
    """A polynomial of exactly n terms over VARS, Fraction coefficients; the
    variables in `big` get exponents of up to that size in a third of the
    terms (a constant term may appear)."""
    terms = {}
    while len(terms) < n:
        m = ()
        for v in rng.sample(VARS, rng.randint(0, 3)):
            m = mono_mul(m, ((v, rng.randint(1, 3)),))
        for v, top in big:
            if rng.random() < 1 / 3:
                m = mono_mul(m, ((v, rng.randint(top // 2, top)),))
        terms[m] = random_coeff(rng)
    return Polynomial(terms)


# term counts of the two factors, 240 to 1,536 term pairs
SIZES = [(1, 255), (15, 16), (16, 16), (1, 256), (32, 16), (768, 2)]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("sizes", SIZES)
def test_product_matches_reference(seed, sizes):
    rng = random.Random(seed * 100 + sizes[0])
    a, b = (poly_of_size(rng, n) for n in sizes)
    got = a * b
    assert got == reference_mul(a, b)
    assert got == b * a
    assert all(got.terms.values())


def test_constant_products():
    rng = random.Random(3)
    c = Polynomial.constant(Fraction(-5, 3))
    for n in (255, 256, 512):
        a = poly_of_size(rng, n)
        assert c * a == a * c == reference_mul(c, a)


@pytest.mark.parametrize("top", [200, 40000])
def test_product_exponents_past_8_and_16_bit_fields(top):
    """The y field (occupied fields on both sides) and the lowest, tag, field
    of the product pass 255, then 65535."""
    rng = random.Random(top)
    y, t = jet(1, 3), tag("B", 5, 1)
    peak = Polynomial({((y, top), (t, top)): Fraction(2, 3)})
    a = poly_of_size(rng, 24, big=[(y, top), (t, top)]) + peak
    b = poly_of_size(rng, 24, big=[(y, top), (t, top)]) + peak
    got = a * b
    assert got == reference_mul(a, b)
    assert got.terms.get(((y, 2 * top), (t, 2 * top)), 0) != 0


@pytest.mark.parametrize("seed", range(4))
def test_product_cancellation(seed):
    """(A + B)(A - B) = A^2 - B^2: every cross term cancels, and no zero
    coefficient is left behind; the constant and tag terms cancel too."""
    rng = random.Random(seed)
    A = poly_of_size(rng, 20) + 3
    B = poly_of_size(rng, 20) + Polynomial.variable(tag("A", 3, 0))
    got = (A + B) * (A - B)
    assert got == reference_mul(A, A) - reference_mul(B, B)
    pairs = {mono_mul(ma, mb) for ma in (A + B).terms for mb in (A - B).terms}
    assert len(got) < len(pairs)
    assert all(got.terms.values())
    assert (A - A) * B == 0 and ((A + B) * (A - A)).is_zero()


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


@pytest.mark.parametrize("seed", range(12))
def test_packed_square_matches_the_product(seed):
    """The symmetric square against the full product, on packed dicts of 0,
    1 and many terms with negative coefficients."""
    rng = random.Random(seed)
    packing = Packing(VARS, 24)
    for n in (0, 1, 2, rng.randint(3, 40)):
        a = {packing.pack(m): rng.choice((-1, 1)) * rng.randint(1, 50)
             for m in random_monomials(rng, n, 3)}
        assert len(a) == n
        assert _nonzero(polyring._packed_square(a)) == _nonzero(polyring._packed_mul(a, a))


def test_packed_square_cancels_cross_terms():
    """(x + yz + xy - z)^2: the cross pairs x * yz and xy * -z meet in xyz
    and cancel, and both kernels leave the same nonzero terms."""
    x, y, z = jet(1, 1), jet(1, 2), jet(2, 1)
    packing = Packing([x, y, z], 4)
    xyz = packing.pack(((x, 1), (y, 1), (z, 1)))
    a = {packing.pack(((x, 1),)): 1, packing.pack(((y, 1), (z, 1))): 1,
         packing.pack(((x, 1), (y, 1))): 1, packing.pack(((z, 1),)): -1}
    square = polyring._packed_square(a)
    assert square[xyz] == 0 and xyz not in _nonzero(square)
    assert _nonzero(square) == _nonzero(polyring._packed_mul(a, a))
    X, Y, Z = (Polynomial.variable(v) for v in (x, y, z))
    assert packing.unpack(1, square) == reference_mul(X + Y * Z + X * Y - Z,
                                                      X + Y * Z + X * Y - Z)


def test_products_cover_every_variable_kind():
    rng = random.Random(0)
    seen = set()
    for n in (16, 16):
        seen |= {v.kind for v in poly_of_size(rng, n).variables()}
    assert seen == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# the packed encoding refuses what does not fit its fields
# ---------------------------------------------------------------------------


def test_pack_rejects_an_undeclared_over_degree_polynomial():
    x, y = jet(1, 1), jet(1, 2)
    X, Y = Polynomial.variable(x), Polynomial.variable(y)
    packing, _ = packed_images({}, [X * Y + 1])  # degree 2: 2-bit fields
    assert packing.pack_terms((X * X * Y).terms)[1]  # degree 3 still fits
    with pytest.raises(ValueError, match="overflows"):
        packing.pack_terms((X ** 4 + Y).terms)  # x^4 would carry into y's field


@pytest.mark.parametrize("order", [None, Lex(), DegRevLex()])
def test_a_monomial_past_the_limit_overflows_in_both_layouts(order):
    packing = Packing(VARS, 12, order)
    assert packing.limit == 15
    assert packing.pack(((VARS[0], 15),)) > 0 and packing.pack(((VARS[-1], 15),)) > 0
    for m in (((VARS[0], 16),), ((VARS[0], 8), (VARS[-1], 8)), ((VARS[-1], 16),)):
        with pytest.raises(ValueError, match="overflows"):
            packing.pack(m)


def test_order_free_codes_fit_in_one_field_per_variable():
    """Without an order a code is n fields of `width` bits and nothing else:
    no guard bits and no degree field; with an order the layout keeps both."""
    rng = random.Random(5)
    n, width = len(VARS), 5
    packing = Packing(VARS, 31)
    assert packing.guards == 0 and not packing.ordered
    assert packing.pack(((VARS[0], 31),)) == 31 << (n - 1) * width
    for m in random_monomials(rng, 200, 7):
        code = packing.pack(m)
        assert code.bit_length() <= n * width
        assert [code >> (n - 1 - j) * width & 31 for j in range(n)] == \
            [dict(m).get(v, 0) for v in sorted(VARS, key=lambda v: v.key)]
    ordered = Packing(VARS, 31, Lex())
    assert ordered.guards == sum(1 << (k * (width + 1) + width) for k in range(n))
    assert ordered.degree(ordered.pack(((VARS[0], 3), (VARS[1], 2)))) == 5
    assert ordered.lcm(ordered.pack(((VARS[0], 3),)), ordered.pack(((VARS[0], 1), (VARS[1], 2)))) \
        == ordered.pack(((VARS[0], 3), (VARS[1], 2)))


def test_order_free_packings_refuse_degree_and_lcm():
    x, y = jet(1, 1), jet(1, 2)
    packing = Packing([x, y], 7)
    a, b = packing.pack(((x, 2),)), packing.pack(((y, 1),))
    with pytest.raises(ValueError, match="no degree field"):
        packing.degree(a)
    with pytest.raises(ValueError, match="no guard bits"):
        packing.lcm(a, b)


def test_unpack_sparse_codes_over_a_wide_universe():
    """Codes that set a few fields of a 44-variable universe, among them
    the top and the bottom field and fields at their largest exponent,
    round-trip through pack and unpack, and so do their products."""
    wide = sorted([jet(i, lam) for i in range(1, 9) for lam in range(1, 6)]
                  + [phi(1), uni(3, 1), tag("Z", 2, 0), tag("Y", 1, 1)], key=lambda v: v.key)
    rng = random.Random(11)
    terms = {(): Fraction(1, 3), ((wide[0], 1),): Fraction(2), ((wide[-1], 1),): Fraction(-1)}
    while len(terms) < 40:
        chosen = sorted(rng.sample(wide, rng.randint(1, 3)), key=lambda v: v.key)
        terms[tuple((v, rng.randint(1, 3)) for v in chosen)] = random_coeff(rng)
    p = Polynomial(terms)
    everything = Polynomial({((v, 1),): 1 for v in wide})
    packing, _ = packed_images({}, [p, everything])
    assert packing.unpack(*packing.pack_terms(p.terms)) == p
    top = Polynomial({((wide[0], packing.limit),): 1, ((wide[-1], packing.limit),): Fraction(5, 7)})
    assert packing.unpack(*packing.pack_terms(top.terms)) == top
    assert p * p == reference_mul(p, p)


# ---------------------------------------------------------------------------
# packed monomial orders: code order against the textbook definitions, code
# arithmetic against the tuple monomials
# ---------------------------------------------------------------------------


def reference_lcm(a, b):
    """The least common multiple of two tuple monomials."""
    acc = dict(a)
    for v, e in b:
        if acc.get(v, 0) < e:
            acc[v] = e
    return tuple(sorted(acc.items(), key=lambda p: p[0].key))


def reference_div(a, b):
    """The quotient a / b of two tuple monomials; b divides a."""
    quot = dict(a)
    for v, e in b:
        quot[v] -= e
    return tuple(sorted(((v, e) for v, e in quot.items() if e), key=lambda p: p[0].key))


def _sign(x, y):
    return (x > y) - (x < y)


def _lex_cmp(a, b):
    """Textbook lex on exponent vectors (most senior variable first)."""
    for x, y in zip(a, b):
        if x != y:
            return _sign(x, y)
    return 0


def _degrevlex_cmp(a, b):
    """Textbook degrevlex: total degree, then the smaller exponent on the
    least senior variable where the vectors differ wins."""
    if sum(a) != sum(b):
        return _sign(sum(a), sum(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return _sign(y, x)
    return 0


def textbook_cmp(order, variables):
    """The comparison of exponent vectors over the seniority-sorted
    `variables` that defines `order`, written out from its definition."""
    if isinstance(order, Lex):
        return _lex_cmp
    if isinstance(order, DegRevLex):
        return _degrevlex_cmp
    if isinstance(order, WeightedDeg):
        weights = [v.weight for v in variables]

        def weighted(a, b):
            wa, wb = (sum(w * x for w, x in zip(weights, e)) for e in (a, b))
            return _sign(wa, wb) or _degrevlex_cmp(a, b)
        return weighted
    # a block order: the front sub-vector first, the back one breaks ties
    front = [v in order.front for v in variables]
    cmp_front = textbook_cmp(order.inner_front, [v for v, f in zip(variables, front) if f])
    cmp_back = textbook_cmp(order.inner_back, [v for v, f in zip(variables, front) if not f])

    def block(a, b):
        return (cmp_front([x for x, f in zip(a, front) if f], [x for x, f in zip(b, front) if f])
                or cmp_back([x for x, f in zip(a, front) if not f],
                            [x for x, f in zip(b, front) if not f]))
    return block


def textbook_key(order, monomials):
    """A sort key for `monomials` by the textbook definition of `order` over
    the union of their variables."""
    variables = sorted({v for m in monomials for v, _ in m}, key=lambda v: v.key)
    cmp = textbook_cmp(order, variables)
    return cmp_to_key(lambda a, b: cmp([dict(a).get(v, 0) for v in variables],
                                       [dict(b).get(v, 0) for v in variables]))


FRONT = {jet(1, 2), jet(2, 1), phi(2), uni(2, 1), tag("B", 5, 1)}
ORDERS = {
    "lex": Lex(),
    "degrevlex": DegRevLex(),
    "weighted": WeightedDeg(),
    "block": Block(FRONT, DegRevLex(), DegRevLex()),
    "block-lex-weighted": Block(FRONT, Lex(), WeightedDeg()),
    "block-nested": Block({jet(1, 1), tag("A", 3, 0)}, WeightedDeg(),
                          Block(FRONT, Lex(), DegRevLex())),
}
F1, F1PP = ((jet(1, 1), 1),), ((jet(1, 2), 1),)


def random_monomials(rng, n, max_exp):
    out = set()
    while len(out) < n:
        m = ()
        for v in rng.sample(VARS, rng.randint(0, 4)):
            m = mono_mul(m, ((v, rng.randint(1, max_exp)),))
        out.add(m)
    return sorted(out, key=str)


@pytest.mark.parametrize("name", ORDERS)
def test_packed_order_sorts_as_sort_key(name):
    """A packed code is an integer sort key: sorting by code is the textbook
    order on exponent vectors, on jet, phi, uni and tag variables and on f1'
    against f1'', and unpacking inverts packing."""
    order = ORDERS[name]
    rng = random.Random(len(name))
    monos = sorted(set(random_monomials(rng, 300, 9)) | {F1, F1PP}, key=str)
    packing = Packing(VARS, 40, order)
    codes = [packing.pack(m) for m in monos]
    assert sorted(monos, key=packing.pack) == sorted(monos, key=textbook_key(order, monos))
    assert list(packing.unpack(1, dict.fromkeys(codes, 1)).terms) == monos
    assert [packing.degree(c) for c in codes] == [mono_degree(m) for m in monos]


@pytest.mark.parametrize("name", ORDERS)
def test_ranked_and_leading_monomial_across_supports(name):
    """`ranked` and `leading_monomial` pack over their inputs' variables
    only; on monomials with different variable supports they still agree
    with the textbook order over the union of the supports."""
    order = ORDERS[name]
    rng = random.Random(7 + len(name))
    supports = set()
    for _ in range(150):
        monos = random_monomials(rng, rng.randint(2, 5), 4)
        supports.add(len({frozenset(v for v, _ in m) for m in monos}))
        expected = sorted(monos, key=textbook_key(order, monos), reverse=True)
        assert order.ranked(monos) == expected
        assert order.leading_monomial(Polynomial(dict.fromkeys(monos, 1))) == expected[0]
    assert order.ranked([F1, F1PP]) == sorted([F1, F1PP], key=textbook_key(order, [F1, F1PP]),
                                             reverse=True)
    assert max(supports) >= 4


@pytest.mark.parametrize("make", [Lex, DegRevLex, WeightedDeg,
                                  lambda: Block(FRONT, Lex(), WeightedDeg())])
def test_ranked_keeps_one_packing_per_support_and_widens_it(make):
    """The packing an order keeps for a variable set serves later rankings
    of lower degree and is built again, wider, for a higher one; every
    ranking stays the textbook order."""
    order = make()
    x, y, z = VARS[0], VARS[4], VARS[-1]
    kept = []
    for top in (3, 2, 40, 7):
        monos = [((x, 1), (y, 1), (z, 1)), ((x, top),), ((y, top - 1), (z, 1)),
                 ((x, 1), (z, top - 1)), ((y, top),)]
        expected = sorted(monos, key=textbook_key(order, monos), reverse=True)
        assert order.ranked(monos) == expected
        assert order.leading_monomial(Polynomial(dict.fromkeys(monos, 1))) == expected[0]
        [packing] = order._packings.values()
        kept.append(packing)
    assert kept[0] is kept[1] and kept[2] is kept[3]
    assert kept[1].limit < 40 <= kept[2].limit


@pytest.mark.parametrize("name", ORDERS)
def test_packed_order_arithmetic_matches_tuples(name):
    """Product, quotient, divisibility and lcm on codes against the tuple
    routines, with exponents up to the field maximum."""
    order = ORDERS[name]
    rng = random.Random(100 + len(name))
    packing = Packing(VARS, 31, order)
    half = random_monomials(rng, 60, 7)  # degree at most 28
    pack, guards = packing.pack, packing.guards
    assert pack(((jet(1, 1), 31),)) and pack(((tag("B", 5, 1), 31),))
    divisible = lcms = 0
    for _ in range(2000):
        a, b = rng.choice(half), rng.choice(half)
        if rng.random() < 0.3:
            b = mono_mul(a, b) if mono_degree(a) + mono_degree(b) <= 31 else a
        A, B = pack(a), pack(b)
        divides = ((B | guards) - A) & guards == guards
        assert divides == mono_divides(a, b), (a, b)
        if divides:
            divisible += 1
            assert B - A == pack(reference_div(b, a))
        lcm = reference_lcm(a, b)
        if mono_degree(lcm) <= 31:
            lcms += 1
            assert packing.lcm(A, B) == packing.lcm(B, A) == pack(lcm)
        if mono_degree(a) + mono_degree(b) <= 31:
            assert A + B == pack(mono_mul(a, b))
    assert 200 < divisible < 1800 and lcms > 1000


def test_packed_order_rejects_monomials_past_its_limit():
    x, y = jet(1, 1), tag("A", 3, 0)
    packing = Packing([x, y], 5, DegRevLex())
    assert packing.limit == 7
    assert packing.pack(((x, 7),)) and packing.pack(((x, 3), (y, 4)))
    with pytest.raises(ValueError, match="overflows"):
        packing.pack(((x, 4), (y, 4)))  # y^4 would carry into x's guard
