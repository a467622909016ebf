"""Simplex integration, thresholds, and the chi assembly plumbing."""

import random
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Dict, Iterable, Sequence, Tuple

import pytest

from jetcalc.degpoly import DegreePolynomial
from jetcalc.euler import (
    _ROOT_WIDTH,
    H2_FACTOR,
    NonPositiveLeading,
    _family_forms,
    _integer_coeffs,
    _integrate,
    _pseudo_divmod,
    _root_count,
    _sign,
    _sign_changes,
    _sturm_chain,
    assemble_chi,
    cauchy_bound,
    chi_e43_leading,
    chi_rousseau_e33,
    e43_slot_totals,
    family_contributions,
    h0_minorant_e43,
    h2_majorant_coefficient,
    positivity_threshold,
    real_roots_approx,
    reversal_sign,
    scaled_numerator,
    slot_totals,
)
from jetcalc import euler
from jetcalc.cli import main
from jetcalc.polyring import Polynomial, Variable, tag
from jetcalc.schur import alternant, chi_slots, enumerate_families
from test_schur import ell_symbols, expand_over

M = tag("m", 0, 0)
X = tag("x", 0, 1)
Y = tag("y", 0, 2)
Z = tag("z", 0, 3)


def V(v):
    return Polynomial.variable(v)


# ---------------------------------------------------------------------------
# the independent oracle: iterated antiderivatives over the simplex
# ---------------------------------------------------------------------------


def antiderivative(p: Polynomial, x: Variable) -> Polynomial:
    """Power-rule antiderivative in x (constant of integration zero)."""
    terms = {}
    for m, c in p.terms.items():
        mono = []
        e = 0
        for v, ee in m:
            if v is x:
                e = ee
            else:
                mono.append((v, ee))
        mono.append((x, e + 1))
        mono.sort(key=lambda pr: pr[0].key)
        terms[tuple(mono)] = c / (e + 1)
    return Polynomial(_raw=terms)


def simplex_integral(integrand: Polynomial, nesting: Sequence[Tuple[Variable, int]],
                     m_var: Variable) -> Polynomial:
    """Iterated integral over the weighted simplex {sum w_i x_i <= m, x >= 0}.

    Variables are integrated in list order (first = innermost); the upper
    bound of x_i is (m - sum of the later weighted variables) / w_i and the
    lower bound is 0.  Returns the exact polynomial in m.
    """
    acc = integrand
    remaining = list(nesting)
    while remaining:
        (x, w), remaining = remaining[0], remaining[1:]
        bound = Polynomial.variable(m_var)
        for y, wy in remaining:
            bound = bound - wy * Polynomial.variable(y)
        bound = bound * Fraction(1, w)
        acc = antiderivative(acc, x).substitute({x: bound})
    return acc


def top_coefficient(p: Polynomial, m_var: Variable, expected_degree: int) -> Fraction:
    """Coefficient of m^expected_degree in a univariate polynomial in m."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        if not mono:
            continue
        if len(mono) != 1 or mono[0][0] is not m_var:
            raise ValueError("polynomial is not univariate in m")
        if mono[0][1] == expected_degree:
            total += c
    return total


def simplex_moments(forms: Sequence[Sequence[int]], weights: Sequence[int],
                    needed: Iterable[Tuple[int, ...]]) -> Dict[Tuple[int, ...], Fraction]:
    """The moments, one Fraction per exponent vector: the reference for the
    integer slot sums and the layered recurrence of `_integrate`.

    The integral of prod ell_i^(a_i) over {sum w_j x_j <= m, x >= 0} is
    m^(|a|+k) times a! / ((|a|+k)! prod w_j) [t^a] prod_v 1 / (1 - sum_i t_i
    ell_i(v)) (Baldoni, Berline, De Loera, Koeppe and Vergne 2011); the
    vertex values are scaled by W = lcm(w_j) and the generating function is
    expanded cell by cell in lex order, so each a - e_i precedes a."""
    k = len(weights)
    scale = lcm(*weights)
    vertices = [[scale * f[0] for f in forms]]
    for j, w in enumerate(weights, start=1):
        vertices.append([scale * f[0] + scale // w * f[j] for f in forms])
    needed = list(needed)
    closure, frontier = set(needed), set(needed)
    while frontier:
        frontier = {a[:i] + (a[i] - 1,) + a[i + 1:]
                    for a in frontier for i in range(len(a)) if a[i]} - closure
        closure |= frontier
    h = {a: int(not any(a)) for a in closure}
    for values in vertices:
        for a in sorted(closure):
            h[a] += sum(values[i] * h[a[:i] + (a[i] - 1,) + a[i + 1:]]
                        for i in range(len(a)) if a[i])
    return {a: Fraction(h[a] * prod(map(factorial, a)),
                        factorial(sum(a) + k) * prod(weights) * scale ** sum(a))
            for a in needed}


def moment_sum(expansion, forms, weights) -> Fraction:
    """sum c * moment of a over the terms {a: c}, in Fractions."""
    moments = simplex_moments(forms, weights, expansion)
    return sum((c * moments[a] for a, c in expansion.items()), Fraction(0))


def test_unit_simplex_area():
    one = Polynomial.constant(1)
    got = simplex_integral(one, [(X, 1), (Y, 1)], M)
    assert got == Fraction(1, 2) * V(M) * V(M)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_simplex_volume(k):
    variables = [tag(f"v{i}", 0, 10 + i) for i in range(k)]
    got = simplex_integral(Polynomial.constant(1), [(v, 1) for v in variables], M)
    assert got == Fraction(1, factorial(k)) * V(M) ** k


def test_weighted_volume():
    got = simplex_integral(Polynomial.constant(1), [(X, 2), (Y, 5)], M)
    assert got == Fraction(1, 2 * 2 * 5) * V(M) ** 2


@pytest.mark.parametrize("seed", range(5))
def test_fubini_permutation_invariance(seed):
    rng = random.Random(seed)
    integrand = Polynomial.zero()
    for _ in range(4):
        term = Polynomial.constant(rng.randint(-4, 4))
        for v in (X, Y, Z):
            term = term * V(v) ** rng.randint(0, 2)
        integrand = integrand + term
    nest = [(X, 2), (Y, 3), (Z, 5)]
    base = simplex_integral(integrand, nest, M)
    permuted = simplex_integral(integrand, [nest[2], nest[0], nest[1]], M)
    assert base == permuted


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_matches_iterated_integral(seed):
    rng = random.Random(50 + seed)
    integrand = Polynomial.zero()
    deg = 3
    for _ in range(5):
        exps = [rng.randint(0, deg) for _ in range(3)]
        pad = deg * 3 - sum(exps)
        term = Polynomial.constant(rng.randint(-5, 5)) * V(M) ** pad
        for v, e in zip((X, Y, Z), exps):
            term = term * V(v) ** e
        integrand = integrand + term
    nest = [(X, 3), (Y, 4), (Z, 7)]
    full = simplex_integral(integrand, nest, M)
    top = top_coefficient(full, M, deg * 3 + 3)
    # each monomial m^e x^a y^b z^c is a product of the coordinate forms
    coordinates = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    order = (M, X, Y, Z)
    exps = {}
    for mono, c in integrand.terms.items():
        row = [0] * 4
        for v, e in mono:
            row[order.index(v)] = e
        exps[tuple(row)] = c
    assert top == moment_sum(exps, coordinates, [3, 4, 7])
    assert top == _integrate({"f": exps}, coordinates, [3, 4, 7])["f"]


def _form_polynomial(form, variables):
    acc = form[0] * V(M)
    for c, v in zip(form[1:], variables):
        acc = acc + c * V(v)
    return acc


@pytest.mark.parametrize("seed", range(14))
def test_simplex_moments_match_iterated_integral(seed):
    """The vertex generating function against the iterated antiderivative.

    From seed 8 on, `needed` holds the zero vector and vectors of unequal
    total degree, keeps one exponent at 0 throughout, and its downward
    closure is not a box."""
    rng = random.Random(700 + seed)
    k = 1 + seed % 4
    variables = [tag(f"w{i}", 0, 20 + i) for i in range(k)]
    # unequal weights, with a repeated one whenever there are two or more
    weights = [rng.randint(1, 7) for _ in range(k)]
    if k >= 2:
        weights[-1] = weights[0]
    forms = [[rng.randint(-3, 3) for _ in range(k + 1)] for _ in range(rng.randint(1, 3))]
    # an o-elimination form: o = m - sum w_j x_j
    forms.append([1] + [rng.randint(0, 2) - w for w in weights])
    needed = set()
    if seed < 8:
        while len(needed) < 4:
            needed.add(tuple(rng.randint(0, 2) for _ in forms))
    else:
        # two exponents besides the one kept at 0, so the closure can be no box
        while len(forms) < 3:
            forms.insert(0, [rng.randint(-3, 3) for _ in range(k + 1)])
        zero = rng.randrange(len(forms))
        # redraw until no member is the corner of the bounding box
        while not needed or tuple(map(max, *needed)) in needed:
            needed = {(0,) * len(forms)}
            while len(needed) < 4:
                a = [rng.randint(0, 3) for _ in forms]
                a[zero] = 0
                needed.add(tuple(a))
        assert len({sum(a) for a in needed}) > 1
    needed = sorted(needed)
    moments = simplex_moments(forms, weights, needed)
    assert sorted(moments) == needed
    # the integrator on each vector alone, and on all of them in one expansion
    # (of unequal total degrees from seed 8 on)
    assert _integrate({a: {a: 1} for a in needed}, forms, weights) == moments
    assert _integrate({"all": dict.fromkeys(needed, 1)}, forms, weights)["all"] == \
        sum(moments.values())
    nest = list(zip(variables, weights))
    polys = [_form_polynomial(f, variables) for f in forms]
    for a in needed:
        integrand = Polynomial.constant(1)
        for p, e in zip(polys, a):
            integrand = integrand * p ** e
        full = simplex_integral(integrand, nest, M)
        assert moments[a] == top_coefficient(full, M, sum(a) + k)


def test_simplex_moments_rejects_non_integer_forms():
    """The integrator's input checks."""
    for forms, weights, a in (([[1, Fraction(1, 2)]], [2], (1,)), ([[1, 0.5]], [2], (1,)),
                              ([[1, 1]], [0], (1,)), ([[1, 1, 1]], [2], (1,)),
                              ([[1, 1]], [2], (1, 1)), ([[1, 1]], [2], (-1,))):
        with pytest.raises(ValueError):
            _integrate({"f": {a: 1}}, forms, weights)


def random_forms(rng, count, weights):
    """`count` integer forms over m and len(weights) variables; the first has a
    zero m-coefficient and the second is zero at the origin and at one other
    vertex, so the recurrence meets zero vertex values."""
    k = len(weights)
    forms = [[rng.randint(-4, 4) for _ in range(k + 1)] for _ in range(count)]
    forms[0][0] = 0
    forms[1][0] = forms[1][1] = 0
    # an o-elimination form: o = m - sum w_j x_j
    forms[-1] = [1] + [rng.randint(0, 2) - w for w in weights]
    return forms


@pytest.mark.parametrize("seed", range(6))
def test_integrate_matches_the_fraction_moment_oracle(seed):
    """The integer slot sums and the layered recurrence against the moments
    summed one Fraction at a time, on the slot expansions of dimensions 3
    and 4 over seeded random forms and weights."""
    rng = random.Random(900 + seed)
    for n in (3, 4):
        expansions = euler._abstract_slot_determinants(n)
        weights = [rng.randint(1, 9) for _ in range(2 * n - 2)]
        forms = random_forms(rng, n, weights)
        assert any(v == 0 for v in forms[1])
        got = _integrate(expansions, forms, weights)
        assert got == {name: moment_sum(e, forms, weights) for name, e in expansions.items()}
        assert _integrate(expansions, forms, weights, euler._slot_exponents(n)) == got


def test_integrate_matches_the_oracle_on_the_families_and_rousseau():
    """Every dimension-3 family, one dimension-4 family, and the forms of
    `chi_rousseau_e33`."""
    families = enumerate_families()
    cases = [_family_forms(f, 3) for f in families] + [_family_forms(families[0], 4)]
    cases.append(([[1, -2, -3, -5], [0, 1, 1, 1], [0, 0, 0, 1]], [3, 5, 6]))
    for forms, weights in cases:
        expansions = euler._abstract_slot_determinants(len(forms))
        assert _integrate(expansions, forms, weights) == \
            {name: moment_sum(e, forms, weights) for name, e in expansions.items()}


def test_integrate_builds_one_fraction_per_slot(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)
    monkeypatch.setattr(euler, "Fraction", counted)
    forms, weights = _family_forms(enumerate_families()[0], 4)
    slots = _integrate(euler._abstract_slot_determinants(4), forms, weights)
    assert len(made) == len(slots) == 5


def count_integrations(monkeypatch):
    calls = []
    integrate = euler._integrate

    def counted(expansions, forms, *args):
        calls.append(len(forms))
        return integrate(expansions, forms, *args)
    monkeypatch.setattr(euler, "_integrate", counted)
    return calls


def test_chi_e43_with_h2_integrates_each_family_once(monkeypatch, capsys):
    calls = count_integrations(monkeypatch)
    assert main(["chi", "--target", "E43", "--with-h2"]) == 0
    capsys.readouterr()
    assert calls == [3] * len(enumerate_families()) == [3] * 24


def test_h0_minorant_e43_integrates_each_family_once(monkeypatch):
    calls = count_integrations(monkeypatch)
    h0_minorant_e43()
    assert calls == [3] * 24


def test_antiderivative_power_rule():
    got = antiderivative(V(X) ** 3 + 2 * V(Y), X)
    assert got == Fraction(1, 4) * V(X) ** 4 + 2 * V(Y) * V(X)


def test_lattice_sum_approaches_integral():
    """Discrete-vs-continuous: exact lattice sums converge at rate O(1/m)."""
    # integrand x * y over {2x + 3y <= m}: degree 2, two variables, top power m^4
    top = simplex_moments([[0, 1, 0], [0, 0, 1]], [2, 3], [(1, 1)])[(1, 1)]
    for m in (120, 240):
        total = Fraction(0)
        for x in range(0, m // 2 + 1):
            rest = m - 2 * x
            for y in range(0, rest // 3 + 1):
                total += x * y
        rel = abs(total - top * m ** 4) / (abs(top) * m ** 4)
        assert rel < Fraction(8, m)


def test_positivity_threshold_cases():
    # (d-2)(d-11) with positive leading coefficient
    p = DegreePolynomial([22, -13, 1])
    assert positivity_threshold(p) == 12
    # strictly positive polynomial: returned D sits below all real roots
    q = DegreePolynomial([1, 0, 1])
    assert positivity_threshold(q) <= 0
    # double root at 4: p >= 0 but p(4) == 0, so the threshold is 5
    r = DegreePolynomial([16, -8, 1])
    assert positivity_threshold(r) == 5
    with pytest.raises(NonPositiveLeading):
        positivity_threshold(DegreePolynomial([1, -1]))
    # factor of d as in the chi numerators
    s = DegreePolynomial([0, 22, -13, 1])
    assert positivity_threshold(s) == 12
    # x^4 + x - 2: root 1, and a chain divisor -3x + 8 at an odd exponent
    assert positivity_threshold(DegreePolynomial([-2, 1, 0, 0, 1])) == 2


def test_degree_polynomial_powers():
    d = DegreePolynomial.d()
    assert d ** 0 == 1 and (d - 2) ** 2 == DegreePolynomial([4, -4, 1])
    with pytest.raises(ValueError, match="negative power"):
        d ** -1


def test_positivity_threshold_raises_on_an_inconsistent_sign(monkeypatch):
    """The final sign check is an explicit raise, so python -O keeps it: the
    integer image of d - 12 is swapped for that of d - 5, whose threshold 6
    contradicts the sign of d - 12 at 6."""
    p = DegreePolynomial([-12, 1])
    assert positivity_threshold(p) == 13
    monkeypatch.setattr(euler, "_integer_coeffs", lambda q: (1, -5))
    with pytest.raises(AssertionError, match="threshold 6"):
        positivity_threshold(p)


# ---------------------------------------------------------------------------
# the slow oracle: the rational Sturm chain, evaluated in Fraction arithmetic
# ---------------------------------------------------------------------------


def fraction_divmod(a: DegreePolynomial, b: DegreePolynomial):
    """Quotient and remainder of a by a nonzero b, over the rationals."""
    quot = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    r = a
    while r and r.degree >= b.degree:
        shift = r.degree - b.degree
        factor = r.coeffs[-1] / b.coeffs[-1]
        quot[shift] = factor
        r = r - DegreePolynomial([0] * shift + list(b.coeffs)) * factor
    return DegreePolynomial(quot), r


def fraction_derivative(p: DegreePolynomial) -> DegreePolynomial:
    return DegreePolynomial([k * c for k, c in enumerate(p.coeffs)][1:])


def fraction_sturm_chain(p: DegreePolynomial):
    """The classical Sturm chain of the square-free part of p over Q: p / gcd(p, p'),
    its derivative, then the negated remainders."""
    a, b = p, fraction_derivative(p)
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    if a.degree > 0:
        p = fraction_divmod(p, a)[0]
    chain = [p, fraction_derivative(p)]
    while chain[-1]:
        rem = fraction_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(-rem)
    return [q for q in chain if q]


def descending(ints) -> DegreePolynomial:
    """The polynomial with integer coefficients ints, highest first."""
    return DegreePolynomial(list(reversed(ints)))


def integer_sturm_chain(p: DegreePolynomial):
    return _sturm_chain(_integer_coeffs(p))


def fraction_sign_changes(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def bisection_roots(p: DegreePolynomial):
    """Float midpoints of the isolating intervals, bisecting by full-chain
    Sturm counts at every step."""
    chain = fraction_sturm_chain(p)
    bound = cauchy_bound(_integer_coeffs(chain[0]))
    roots = []

    def isolate(a: Fraction, b: Fraction):
        k = fraction_sign_changes(chain, a) - fraction_sign_changes(chain, b)
        if k == 0:
            return
        if k == 1 and b - a < _ROOT_WIDTH:
            roots.append(float((a + b) / 2))
            return
        mid = (a + b) / 2
        isolate(a, mid)
        isolate(mid, b)

    isolate(Fraction(-bound - 1), Fraction(bound))
    return sorted(roots)


def real_root_count(p, lo, hi):
    """Number of distinct real roots in (lo, hi] by Sturm's theorem."""
    return _root_count(integer_sturm_chain(p), lo, hi)


def from_roots(roots, factor=(1,)):
    p = DegreePolynomial(factor)
    for r in roots:
        p = p * DegreePolynomial([-Fraction(r), 1])
    return p


def bisection_depth(p, x):
    """The depth at which x is a midpoint of the bisection of (-B - 1, B],
    or None."""
    bound = cauchy_bound(integer_sturm_chain(p)[0])
    t = (Fraction(x) + bound + 1) / (2 * bound + 1)
    if not 0 < t < 1 or t.denominator & (t.denominator - 1):
        return None
    return t.denominator.bit_length() - 1


CLOSE = Fraction(1, 3) + Fraction(1, 3 * 10 ** 7)  # 10^-7 / 3 above 1/3

# name: (rational roots, with multiplicity; the factor without rational roots)
STURM_CASES = {
    "simple": ([2, 3], (1,)),
    "repeated": ([1, 1, 1, -2, -2, Fraction(5, 3)], (1,)),
    "zero": ([0, 0, -7, Fraction(9, 4)], (1,)),
    "halves": ([Fraction(1, 2), Fraction(-3, 4), Fraction(1, 2)], (1,)),
    "first-midpoint": ([Fraction(-1, 2)], (1, 0, 1)),
    "deep-midpoint": ([3, Fraction(7, 8)], (1,)),
    "deep-midpoint-quadratic": ([3, Fraction(11, 8)], (1, 0, 1)),
    "close": ([Fraction(1, 3), CLOSE, -5], (1,)),
    "close-repeated": ([CLOSE, CLOSE, Fraction(1, 3)], (2, 1, 1)),
    "irreducible": ([], (2, 2, 3, 1, 1)),  # (x^2 + x + 1)(x^2 + 2)
    "gap": ([1], (2, 1, 1, 1)),  # x^4 + x - 2: chain degrees 4, 3, 1, 0
}
CASE_IDS = sorted(STURM_CASES) + [f"random-{seed}" for seed in range(8)]


def sturm_case(name):
    """A test polynomial and its rational roots."""
    if name in STURM_CASES:
        roots, factor = STURM_CASES[name]
        return from_roots(roots, factor), roots
    rng = random.Random(900 + int(name.split("-")[1]))
    roots = [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 7, 8]))
             for _ in range(rng.randint(1, 5))]
    roots += roots[:rng.randint(0, 2)]
    factor = rng.choice([(1,), (1, 0, 1), (5, -2, 1), (-2, 0, 3)])
    return from_roots(roots, factor) * rng.choice([1, Fraction(2, 3), 7]), roots


def test_sturm_cases_cover_the_refinement_branches():
    """Roots on bisection midpoints (head(mid) == 0, then the kept right
    end is the root) and two roots closer than the reporting width."""
    assert bisection_depth(sturm_case("first-midpoint")[0], Fraction(-1, 2)) == 1
    assert bisection_depth(sturm_case("deep-midpoint")[0], Fraction(7, 8)) == 3
    assert bisection_depth(sturm_case("deep-midpoint-quadratic")[0], Fraction(11, 8)) == 3
    assert CLOSE - Fraction(1, 3) < _ROOT_WIDTH


@pytest.mark.parametrize("case", CASE_IDS)
def test_integer_sign_changes_match_fraction_oracle(case):
    p, roots = sturm_case(case)
    rng = random.Random(case)
    fractions = fraction_sturm_chain(p)
    chain = integer_sturm_chain(p)
    bound = cauchy_bound(chain[0])
    points = [Fraction(rng.randint(-bound - 1, bound)) for _ in range(20)]
    points += [Fraction(-bound - 1), Fraction(bound)] + list(map(Fraction, roots))
    points += [Fraction(rng.randint(-bound << 20, bound << 20), 2 ** rng.randint(0, 20))
               for _ in range(40)]
    points += [Fraction(rng.randint(-bound * 99, bound * 99), rng.randint(1, 99))
               for _ in range(40)]
    for x in points:
        assert _sign_changes(chain, x.numerator, x.denominator) == \
            fraction_sign_changes(fractions, x)
        assert _sign(chain[0], x.numerator, x.denominator) == \
            (fractions[0](x) > 0) - (fractions[0](x) < 0)


def is_positive_multiple(ints, q: DegreePolynomial) -> bool:
    """ints (highest coefficient first) is c * q for some rational c > 0."""
    c = ints[0] / q.coeffs[-1]
    return c > 0 and descending(ints) == q * c


def test_integer_chain_members_are_positive_multiples_of_the_oracle():
    """On every case and on the four report polynomials: chi(E43), h0,
    chi(E44) and rousseau-E33."""
    chi44 = assemble_chi(slot_totals(family_contributions(enumerate_families(), 4)), 4)
    polys = [sturm_case(case)[0] for case in CASE_IDS]
    polys += [chi_e43_leading(e43_slot_totals()), h0_minorant_e43(), chi44, chi_rousseau_e33()]
    for p in polys:
        chain, oracle = integer_sturm_chain(p), fraction_sturm_chain(p)
        assert len(chain) == len(oracle)
        assert all(is_positive_multiple(a, q) for a, q in zip(chain, oracle))


def test_sturm_cases_cover_a_negative_divisor_at_an_odd_exponent():
    """Some divisor of a chain sits two degrees below its dividend with a
    negative leading coefficient, so lc^3 < 0 would flip the remainder."""
    def odd_negative(chain):
        return any(len(a) - len(b) == 2 and b[0] < 0
                   for a, b in zip(chain, chain[1:-1]))
    assert [case for case in CASE_IDS
            if odd_negative(integer_sturm_chain(sturm_case(case)[0]))] == ["gap"]
    gap = integer_sturm_chain(sturm_case("gap")[0])
    assert [len(q) - 1 for q in gap] == [4, 3, 1, 0] and gap[2] == (-3, 8)
    q, r = _pseudo_divmod(gap[1], gap[2])
    assert r[0] > 0
    assert 27 * descending(gap[1]) == descending(q) * descending(gap[2]) + descending(r)


@pytest.mark.parametrize("case", CASE_IDS)
def test_real_roots_approx_matches_full_chain_bisection(case):
    p = sturm_case(case)[0]
    assert real_roots_approx(p) == bisection_roots(p)


def test_real_roots_approx_of_the_rousseau_chi_matches_the_oracle():
    chi = chi_rousseau_e33()
    assert real_roots_approx(chi) == bisection_roots(chi)


def test_positivity_threshold_contract():
    """Draws with integer roots, with rational roots of denominators 2 to 9,
    and with an irreducible quadratic factor, which leaves p(D - 1) > 0 when
    there are no other roots.  Each draw keeps an odd number of real roots
    or none: a polynomial positive at every integer yet with real roots has
    no least threshold, and the contract leaves its value open."""
    rng = random.Random(3)
    draws = []
    for _ in range(20):
        draws.append(from_roots(sorted(rng.randint(-30, 30) for _ in range(3))))
    for _ in range(20):
        draws.append(from_roots([Fraction(rng.randint(-90, 90), rng.randint(2, 9))
                                 for _ in range(3)]))
    for _ in range(20):
        b = rng.randint(-9, 9)
        quadratic = DegreePolynomial([rng.randint(b * b // 4 + 1, 99), b, 1])
        draws.append(from_roots([Fraction(rng.randint(-90, 90), rng.randint(1, 9))
                                 for _ in range(rng.choice([0, 1, 3]))]) * quadratic)
    vacuous = 0
    for p in draws:
        D = positivity_threshold(p)
        assert p(D) > 0
        assert all(p(D + k) > 0 for k in range(1, 40))
        assert p(D - 1) <= 0 or real_root_count(p, D - 1, 10 ** 6) == 0
        vacuous += p(D - 1) > 0
    assert vacuous  # the last clause is reached


def test_real_roots_approx():
    p = DegreePolynomial([6, -5, 1])  # roots 2, 3
    roots = real_roots_approx(p)
    assert len(roots) == 2
    assert abs(roots[0] - 2) < 1e-5 and abs(roots[1] - 3) < 1e-5


def test_cauchy_bound_bounds_roots():
    b = cauchy_bound((1, 0, -100))
    assert b >= 10


def test_scaled_numerator():
    p = DegreePolynomial([Fraction(1, 3), Fraction(-2, 3)])
    assert scaled_numerator(p, 3) == [1, -2]
    with pytest.raises(ValueError):
        scaled_numerator(p, 2)


def test_reversal_sign():
    """The sign of the permutation that reverses n rows, by its inversion count."""
    for n in range(1, 8):
        rev = list(range(n))[::-1]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if rev[a] > rev[b])
        assert reversal_sign(n) == (-1) ** inversions
    assert [reversal_sign(n) for n in range(1, 8)] == [1, -1, -1, 1, 1, -1, -1]


def h2_kernel():
    """(3/2)(l1+l2+l3)^3 (l1-l2)(l1-l3)(l2-l3), expanded with Polynomial."""
    symbols = ell_symbols(3)
    l1, l2, l3 = map(Polynomial.variable, symbols)
    s = l1 + l2 + l3
    kernel = Fraction(3, 2) * s * s * s * (l1 - l2) * (l1 - l3) * (l2 - l3)
    return expand_over(kernel, symbols)


def test_h2_kernel_is_a_combination_of_slot_alternants():
    """Bialternant and Pieri: the kernel is -(3/2)(D015 + 2 D024 + D123)."""
    combo = {}
    for exponents, k in (((0, 1, 5), 1), ((0, 2, 4), 2), ((1, 2, 3), 1)):
        for a, c in alternant(exponents).items():
            combo[a] = combo.get(a, 0) - H2_FACTOR * k * c
    assert h2_kernel() == {a: c for a, c in combo.items() if c}
    assert {s.name for s in chi_slots(3)} == {"015", "024", "123"}


def test_h2_majorant_matches_the_kernel_integrated_per_family():
    """The kernel integrated family by family, as a second expansion, against
    the combination of the slot totals."""
    families = enumerate_families()
    kernel = {"h2": h2_kernel()}
    total = sum(f.multiplicity * _integrate(kernel, *_family_forms(f, 3))["h2"]
                for f in families)
    assert h2_majorant_coefficient(e43_slot_totals(families)) == total
    for f in families:
        t = family_contributions([f], 3)[0].slots
        assert _integrate(kernel, *_family_forms(f, 3))["h2"] == \
            -H2_FACTOR * (t["015"] + 2 * t["024"] + t["123"])


def test_degree_polynomial_refuses_floats():
    """Fraction(0.1) is the binary value of the float, so no float may enter."""
    p = DegreePolynomial([1, 2])
    for bad in (lambda: DegreePolynomial([1, 0.5]), lambda: p * 0.5, lambda: 0.5 * p,
                lambda: p + 0.5, lambda: p - 0.5, lambda: DegreePolynomial.constant(1.0)):
        with pytest.raises(TypeError):
            bad()
    assert p * Fraction(1, 2) == DegreePolynomial([Fraction(1, 2), 1])
    assert 3 * p == DegreePolynomial([3, 6]) and p * 0 == DegreePolynomial()


def test_degree_polynomial_evaluation_refuses_floats():
    """p(0.1) would be 1.2, a float out of exact evaluation; ints and
    Fractions keep their exact values."""
    p = DegreePolynomial([1, 2])
    for bad in (0.1, 0.0, 2.0):
        with pytest.raises(TypeError, match="binary value"):
            p(bad)
    assert p(3) == 7 and isinstance(p(3), Fraction)
    assert p(Fraction(1, 10)) == Fraction(6, 5)
    assert DegreePolynomial()(5) == 0


def test_polynomial_refuses_floats():
    """The jet polynomials refuse floats as DegreePolynomial does: p * 0.1
    would otherwise carry 3602879701896397/36028797018963968."""
    x = tag("x", 1, 0)
    p = Polynomial.variable(x)
    for bad in (lambda: p * 0.1, lambda: 0.1 * p, lambda: p + 0.25, lambda: 0.25 + p,
                lambda: p - 0.25, lambda: 0.25 - p, lambda: Polynomial.constant(0.5),
                lambda: Polynomial({((x, 1),): 0.5}), lambda: p * 0.0):
        with pytest.raises(TypeError, match="binary value"):
            bad()
    assert p * Fraction(1, 10) == Polynomial({((x, 1),): Fraction(1, 10)})
    assert Polynomial.constant(Fraction(1, 2)) + p == Polynomial({(): Fraction(1, 2), ((x, 1),): 1})
    assert 3 * p - p == 2 * p and (p * 0).is_zero()


def test_assemble_chi_keeps_integer_slot_values_exact():
    """An int slot value over its factorial denominator stays a Fraction."""
    for n in (2, 3, 4):
        ints = {slot.name: 7 + k for k, slot in enumerate(chi_slots(n))}
        exact = assemble_chi({k: Fraction(v) for k, v in ints.items()}, n)
        assert assemble_chi(ints, n) == exact


def test_rousseau_cross_check():
    chi = chi_rousseau_e33()
    assert scaled_numerator(chi, 81648000000) == \
        [0, -358873, 185559, -20739, 389]
    assert positivity_threshold(chi) == 43


def test_dimension3_chi_threshold_is_26():
    """The exact dimension-3 assembly gives 26; criterion 12b keeps the
    printed 29 as a strict expected failure."""
    chi43 = chi_e43_leading(e43_slot_totals())
    assert positivity_threshold(chi43) == 26
    assert chi43(26) > 0 >= chi43(25)


def test_dimension3_minorant_threshold_is_71():
    """The exact section minorant gives 71; criterion 12c keeps the printed
    72 as a strict expected failure."""
    h0 = h0_minorant_e43()
    assert positivity_threshold(h0) == 71
    assert h0(71) > 0 >= h0(70)
