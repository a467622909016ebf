"""Composite differentiation, brackets, Wronskians, and invariance checks."""

from fractions import Fraction
from typing import List, Tuple

import pytest

from jetcalc.jets import (
    JetContext,
    bracket,
    check_reparam_invariance,
    check_unipotent_invariance,
    component_degrees,
    delta_minor,
    derivative,
    divide_f1_power,
    faa_di_bruno,
    initial_bi_invariants,
    initial_invariants,
    maximal_f1_power,
    phi_total_derivative,
    poly_jet,
    reparam_derivations,
    restrict_f1,
    restrict_f1_higher,
    total_derivative,
    unipotent_derivations,
    wronskian,
)
from jetcalc.polyring import Packing, Polynomial, is_jet, is_phi, jet, mono_mul, phi, tag, uni


def P(v):
    return Polynomial.variable(v)


# ---------------------------------------------------------------------------
# reference oracles: bracket-calculus identities and Bell numbers
# ---------------------------------------------------------------------------

Weighted = Tuple[int, Polynomial]


def jacobi(p: Weighted, q: Weighted, r: Weighted) -> Polynomial:
    """[[P,Q],R] + [[R,P],Q] + [[Q,R],P]: identically zero for invariants."""
    (wp, P), (wq, Q), (wr, R) = p, q, r
    pq = bracket(P, Q, weights=(wp, wq))
    rp = bracket(R, P, weights=(wr, wp))
    qr = bracket(Q, R, weights=(wq, wr))
    return (bracket(pq, R, weights=(wp + wq + 1, wr))
            + bracket(rp, Q, weights=(wr + wp + 1, wq))
            + bracket(qr, P, weights=(wq + wr + 1, wp)))


def plucker1(p: Weighted, q: Weighted, r: Weighted) -> Polynomial:
    """wp*P*[Q,R] + wr*R*[P,Q] + wq*Q*[R,P]: identically zero."""
    (wp, P), (wq, Q), (wr, R) = p, q, r
    return (wp * P * bracket(Q, R, weights=(wq, wr))
            + wr * R * bracket(P, Q, weights=(wp, wq))
            + wq * Q * bracket(R, P, weights=(wr, wp)))


def plucker2(p: Weighted, q: Weighted, r: Weighted, s: Weighted) -> Polynomial:
    """[P,Q][R,S] + [S,P][R,Q] + [Q,S][R,P]: identically zero."""
    (wp, P), (wq, Q), (wr, R), (ws, S) = p, q, r, s
    return (bracket(P, Q, weights=(wp, wq)) * bracket(R, S, weights=(wr, ws))
            + bracket(S, P, weights=(ws, wp)) * bracket(R, Q, weights=(wr, wq))
            + bracket(Q, S, weights=(wq, ws)) * bracket(R, P, weights=(wr, wp)))


def derivation(p: Polynomial, images) -> Polynomial:
    """Leibniz on tuple monomials: the derivation sending each variable v of
    `images` to images[v], a Polynomial or a move (target, c) for c * target;
    the oracle of the packed kernel behind `jets.derivative` and `jets.killed`."""
    acc = {}
    for m, c in p.terms.items():
        for idx, (v, e) in enumerate(m):
            img = images.get(v)
            if img is None:
                continue
            if isinstance(img, tuple):
                img = img[1] * P(img[0])
            rest = list(m)
            if e == 1:
                del rest[idx]
            else:
                rest[idx] = (v, e - 1)
            for mi, ci in img.terms.items():
                key = mono_mul(tuple(rest), mi)
                acc[key] = acc.get(key, 0) + ci * c * e
    return Polynomial(_raw={m: c for m, c in acc.items() if c})


def bell_number_by_set_partitions(k: int) -> int:
    """Independent oracle: count the set partitions of {1..k} by enumeration."""
    def count(elems: int) -> int:
        # recurrence-free direct enumeration
        parts: List[List[int]] = []

        def place(x: int) -> int:
            if x == elems:
                return 1
            total = 0
            for block in parts:
                block.append(x)
                total += place(x + 1)
                block.pop()
            parts.append([x])
            total += place(x + 1)
            parts.pop()
            return total

        return place(0)

    return count(k)


def test_faa_di_bruno_small_rows_match_chain_rule():
    # with phi' kept formal: g'' = phi'' f' + phi'^2 f'',
    # g''' = phi''' f' + 3 phi'' phi' f'' + phi'^3 f''',
    # g'''' = phi'''' f' + (4 phi''' phi' + 3 phi''^2) f'' + 6 phi'' phi'^2 f''' + phi'^4 f''''
    M = faa_di_bruno(5, normalized=False)
    p1, p2, p3, p4, p5 = (P(phi(k)) for k in range(1, 6))
    assert M[1][1] == p1
    assert M[2][1] == p2 and M[2][2] == p1 * p1
    assert M[3][1] == p3 and M[3][2] == 3 * p2 * p1 and M[3][3] == p1 ** 3
    assert M[4][1] == p4
    assert M[4][2] == 4 * p3 * p1 + 3 * p2 * p2
    assert M[4][3] == 6 * p2 * p1 * p1
    assert M[4][4] == p1 ** 4
    assert M[5][1] == p5
    assert M[5][2] == 5 * p4 * p1 + 10 * p3 * p2
    assert M[5][3] == 15 * p2 * p2 * p1 + 10 * p3 * p1 * p1
    assert M[5][4] == 10 * p2 * p1 ** 3
    assert M[5][5] == p1 ** 5


def test_faa_di_bruno_normalized_matrix():
    M = faa_di_bruno(4)
    assert M[2][1] == P(phi(2)) and M[2][2] == Polynomial.constant(1)
    assert M[4][2] == 4 * P(phi(3)) + 3 * P(phi(2)) ** 2
    for lam in range(1, 5):
        assert M[lam][lam] == Polynomial.constant(1)


def faa_di_bruno_fresh(kappa, normalized):
    """The recurrence M[lam+1][mu] = D_phi(M[lam][mu]) + phi' M[lam][mu-1]
    from M[1][1] = phi', built anew as lists on every call."""
    phi1 = P(phi(1))
    rows = [[], [Polynomial.zero(), phi1]]
    for lam in range(1, kappa):
        prev = rows[lam] + [Polynomial.zero()]
        row = [Polynomial.zero()]
        for mu in range(1, lam + 2):
            row.append(phi_total_derivative(prev[mu]) + phi1 * prev[mu - 1])
        rows.append(row)
    if normalized:
        rows = [[entry.substitute({phi(1): Polynomial.constant(1)}) for entry in row]
                for row in rows]
    return rows


@pytest.mark.parametrize("normalized", [True, False])
def test_faa_di_bruno_is_built_once_with_immutable_rows(normalized):
    """One matrix per (kappa, normalized), shared by every caller: a second
    call returns the same object, its rows are tuples, and after invariance
    checks have used it, it still equals a fresh build."""
    for kappa in range(1, 7):
        M = faa_di_bruno(kappa, normalized)
        assert faa_di_bruno(kappa, normalized) is M
        assert isinstance(M, tuple) and all(isinstance(row, tuple) for row in M)
    lam3 = wronskian([1, 2])
    assert check_reparam_invariance(lam3) and check_reparam_invariance(lam3 * lam3)
    for kappa in range(1, 7):
        assert [list(row) for row in faa_di_bruno(kappa, normalized)] == \
            faa_di_bruno_fresh(kappa, normalized)


@pytest.mark.parametrize("kappa,bell", [(1, 1), (2, 2), (3, 5), (4, 15),
                                        (5, 52), (6, 203), (7, 877)])
def test_faa_di_bruno_row_sums_are_bell_numbers(kappa, bell):
    M = faa_di_bruno(kappa)
    ones = {phi(j): Polynomial.constant(1) for j in range(1, kappa + 1)}
    total = Fraction(0)
    for mu in range(1, kappa + 1):
        val = M[kappa][mu].substitute(ones)
        total += val.terms.get((), 0)
    assert total == bell
    assert bell_number_by_set_partitions(kappa) == bell


def test_total_derivative_basics():
    assert total_derivative(poly_jet(1, 1)) == poly_jet(1, 2)
    assert total_derivative(Polynomial.constant(5)).is_zero()
    lam3 = wronskian([1, 2])
    assert total_derivative(lam3) == delta_minor([1, 2], [1, 3])


@pytest.mark.parametrize("seed", range(5))
def test_total_derivative_is_a_derivation(seed):
    import random

    from test_polyring import random_poly

    rng = random.Random(400 + seed)
    p, q = random_poly(rng), random_poly(rng)
    assert total_derivative(p * q) == total_derivative(p) * q + p * total_derivative(q)


def test_derivative_matches_the_leibniz_oracle():
    """The one packed kernel against Leibniz on tuple monomials, for D_2,
    D_3, each E_i and the total derivatives of jets and of phi, on random
    polynomials in jet, phi, u and tag variables with Fraction coefficients,
    a constant and zero."""
    import random

    from test_packed import VARS, random_poly

    variables = [jet(i, lam) for i in (1, 2, 3) for lam in (1, 2, 3, 4)] + VARS
    operators = reparam_derivations(variables) + unipotent_derivations(variables) + [
        {v: (jet(v.i, v.j + 1), 1) for v in variables if is_jet(v)},
        {v: (phi(v.j + 1), 1) for v in variables if is_phi(v)}]
    assert len(operators) == 6
    rng = random.Random(27)
    cases = [random_poly(rng, rng.randint(1, 8), 4, 3) for _ in range(40)]
    cases += [Polynomial.constant(Fraction(-5, 3)), Polynomial.zero()]
    nonzero = 0
    for p in cases:
        for table in operators:
            got = derivative(p, table)
            assert got == derivation(p, table), (p, table)
            nonzero += bool(got)
        assert total_derivative(p) == derivation(p, operators[4])
        assert phi_total_derivative(p) == derivation(p, operators[5])
    assert nonzero > len(cases) * 2


def test_bracket_basics_and_antisymmetry():
    fi, fj = poly_jet(1, 1), poly_jet(2, 1)
    assert bracket(fi, fj) == -delta_minor([1, 2], [1, 2])
    lam3 = wronskian([1, 2])
    assert bracket(lam3, lam3).is_zero()
    assert bracket(lam3, fi) == -bracket(fi, lam3)
    with pytest.raises(ValueError):
        bracket(poly_jet(1, 2), fi)  # f'' is not invariant


def test_bracket_weight_and_invariance():
    lam3 = wronskian([1, 2])
    lam5 = bracket(lam3, poly_jet(1, 1))
    rep = check_reparam_invariance(lam5)
    assert rep and rep.weight == 3 + 1 + 1


def test_bracket_of_two_lambda3_gives_wronskian():
    # [Lam_{1,2}, Lam_{1,3}] = -3 f_1' D6
    l12, l13 = wronskian([1, 2]), wronskian([1, 3])
    d6 = wronskian([1, 2, 3])
    assert bracket(l12, l13) == -3 * poly_jet(1, 1) * d6


def test_wronskian_cases():
    assert wronskian([1, 2]) == delta_minor([1, 2], [1, 2])
    assert wronskian([1, 1]).is_zero()
    d6 = wronskian([1, 2, 3])
    rep = check_reparam_invariance(d6)
    assert rep and rep.weight == 6
    w10 = wronskian([1, 2, 3, 4])
    rep = check_reparam_invariance(w10)
    assert rep and rep.weight == 10


def test_staircase_invariance_exponent_is_weighted_degree():
    # the invariance multiplier exponent always equals the weighted degree:
    # 3 for the 2x2 staircase, 6 (not 2*3-1) for the 3x3 one
    for comps, weight in [([1, 2], 3), ([1, 2, 3], 6), ([1, 2, 3, 4], 10)]:
        rep = check_reparam_invariance(wronskian(comps))
        assert rep.weight == weight == wronskian(comps).weighted_degree()


def test_non_staircase_minor_not_invariant():
    bad = delta_minor([1, 2], [2, 3])
    rep = check_reparam_invariance(bad)
    assert not rep and rep.witness and not rep.witness.is_zero()


def test_reparam_examples():
    lam3 = wronskian([1, 2])
    assert check_reparam_invariance(lam3).weight == 3
    assert not check_reparam_invariance(poly_jet(1, 2))
    m8 = 3 * delta_minor([1, 2], [1, 4]) * lam3 + 12 * delta_minor([1, 2], [2, 3]) * lam3 \
        - 5 * delta_minor([1, 2], [1, 3]) * delta_minor([1, 2], [1, 3])
    assert check_reparam_invariance(m8).weight == 8


def test_unipotent_examples():
    lam3 = wronskian([1, 2])
    assert check_unipotent_invariance(lam3)
    rep = check_unipotent_invariance(poly_jet(2, 1))
    assert not rep and rep.witness is not None
    assert check_unipotent_invariance(wronskian([1, 2, 3, 4]))
    # f_2' fails with residual u_21 f_1'
    from jetcalc.polyring import uni

    assert rep.witness == Polynomial.variable(uni(2, 1)) * poly_jet(1, 1)


def test_restrict_f1():
    lam3 = wronskian([1, 2])
    assert restrict_f1(lam3) == -poly_jet(1, 2) * poly_jet(2, 1)
    assert restrict_f1(poly_jet(1, 1) * lam3).is_zero()
    lam5 = bracket(lam3, poly_jet(1, 1))
    assert restrict_f1(lam5) == 3 * poly_jet(1, 2) ** 2 * poly_jet(2, 1)


def test_restriction_commutes_with_products():
    lam3 = wronskian([1, 2])
    lam5 = bracket(lam3, poly_jet(1, 1))
    assert restrict_f1(lam3 * lam5) == restrict_f1(lam3) * restrict_f1(lam5)


def test_initial_invariants_counts():
    assert len(initial_invariants(JetContext(1, 5))) == 1
    out = initial_invariants(JetContext(2, 4))
    assert [(i.name, i.weight) for i in out] == [
        ("f1'", 1), ("f2'", 1), ("Lam[1,2]^3", 3), ("Lam[1,2;1]^5", 5),
        ("Lam[1,2;1,1]^7", 7)]
    assert len(initial_invariants(JetContext(4, 4))) == 4 + 3 * 3
    for inv in out:
        rep = check_reparam_invariance(inv.poly)
        assert rep and rep.weight == inv.weight, inv.name


def test_initial_bi_invariants():
    out = initial_bi_invariants(JetContext(3, 3))
    assert len(out) == 4
    weights = sorted(i.weight for i in out)
    assert weights == [1, 3, 5, 6]
    d6 = next(i for i in out if i.weight == 6)
    assert d6.poly == wronskian([1, 2, 3])
    out44 = initial_bi_invariants(JetContext(4, 4))
    assert sorted(i.weight for i in out44) == [1, 3, 5, 6, 7, 8, 10, 10]
    w10 = [i for i in out44 if i.weight == 10]
    assert any(i.poly == wronskian([1, 2, 3, 4]) for i in w10)
    for inv in out44:
        assert check_unipotent_invariance(inv.poly)


def test_f1_power_helpers():
    f1 = poly_jet(1, 1)
    p = f1 ** 2 * wronskian([1, 2])
    assert maximal_f1_power(p) == 2
    assert divide_f1_power(p, 2) == wronskian([1, 2])
    with pytest.raises(ValueError):
        divide_f1_power(wronskian([1, 2]), 1)


def scan_maximal_f1_power(p: Polynomial) -> int:
    """The least exponent of f_1' over all terms, each monomial scanned
    whole."""
    f1 = jet(1, 1)
    return min(next((e for v, e in m if v is f1), 0) for m in p.terms)


def scan_divide_f1_power(p: Polynomial, nu: int) -> Polynomial:
    """p / f_1'^nu, each monomial scanned whole for its f_1' factor."""
    f1 = jet(1, 1)
    terms = {}
    for m, c in p.terms.items():
        if next((e for v, e in m if v is f1), 0) < nu:
            raise ValueError("not divisible by that power of f_1'")
        terms[tuple((v, e - nu if v is f1 else e) for v, e in m
                    if v is not f1 or e > nu)] = c
    return Polynomial(terms)


def scan_restrict_f1_higher(p: Polynomial) -> Polynomial:
    """The terms with no f_1^(lam), lam >= 2, each monomial scanned whole."""
    return Polynomial({m: c for m, c in p.terms.items()
                       if not any(is_jet(v) and v.i == 1 and v.j >= 2 for v, _ in m)})


F1_MIXED_VARS = [jet(1, 2), jet(1, 3), jet(2, 1), jet(3, 4), phi(1), phi(3), uni(2, 1), uni(3, 1),
                 tag("A", 3, 0), tag("B", 5, 1)]


@pytest.mark.parametrize("seed", range(16))
def test_f1_power_reads_match_whole_monomial_scans(seed):
    """Reading f_1' off the first factor, and f_1'', f_1''' off the first
    two, agrees with scanning every factor, on monomials made by mono_mul and
    by Packing.unpack, with jet, phi, uni and tag variables and, in some
    cases, a constant term."""
    import random

    rng = random.Random(seed)
    f1 = jet(1, 1)
    base = 0 if seed % 4 == 0 else rng.randint(0, 3)
    terms = {(): Fraction(rng.randint(1, 9), 2)} if base == 0 and seed % 2 == 0 else {}
    for _ in range(rng.randint(1, 8)):
        e = base + rng.randint(0, 2)
        m = ((f1, e),) if e else ()
        for v in rng.sample(F1_MIXED_VARS, rng.randint(0, 4)):
            m = mono_mul(((v, rng.randint(1, 3)),), m)
        terms[m] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    p = Polynomial(terms)
    packing = Packing([f1] + F1_MIXED_VARS, 24)
    unpacked = packing.unpack(*packing.pack_terms(p.terms))
    assert unpacked == p
    for q in (p, unpacked):
        top = maximal_f1_power(q)
        assert top == scan_maximal_f1_power(q) >= base
        assert restrict_f1_higher(q) == scan_restrict_f1_higher(q)
        for nu in range(top + 2):
            if nu <= top:
                assert divide_f1_power(q, nu) == scan_divide_f1_power(q, nu)
            else:
                with pytest.raises(ValueError):
                    divide_f1_power(q, nu)
                with pytest.raises(ValueError):
                    scan_divide_f1_power(q, nu)


def diagonal_weights(factors: list, n: int):
    """Schur weight (ell_1 >= ... >= ell_n) of a monomial in bi-invariants.

    `factors` lists (bi-invariant polynomial, exponent) pairs; each factor
    must be a diagonal eigenvector (constant per-component degrees).
    """
    total = [0] * n
    for poly, exp in factors:
        row = component_degrees(poly, n)
        if row is None:
            raise ValueError("factor is not a diagonal eigenvector")
        for k in range(n):
            total[k] += row[k] * exp
    if any(total[k] < total[k + 1] for k in range(n - 1)):
        raise ValueError(f"diagonal weights not weakly decreasing: {total}")
    return tuple(total)


def test_diagonal_weights_examples():
    w10 = wronskian([1, 2, 3, 4])
    f1 = poly_jet(1, 1)
    lam5 = bracket(wronskian([1, 2]), f1)
    assert diagonal_weights([(w10, 3)], 4) == (3, 3, 3, 3)
    assert diagonal_weights([(f1, 5)], 4) == (5, 0, 0, 0)
    assert diagonal_weights([(lam5, 2)], 4) == (4, 2, 0, 0)
    assert component_degrees(f1 + poly_jet(2, 1), 2) is None


JAC_ITEMS = None


def _n3_items():
    global JAC_ITEMS
    if JAC_ITEMS is None:
        items = [(1, poly_jet(i, 1)) for i in (1, 2, 3)]
        items += [(3, wronskian([i, j])) for (i, j) in ((1, 2), (1, 3), (2, 3))]
        JAC_ITEMS = items
    return JAC_ITEMS


def test_jacobi_plucker_families_quick():
    items = _n3_items()
    assert jacobi(items[0], items[1], items[3]).is_zero()
    assert plucker1(items[0], items[4], items[5]).is_zero()
    assert plucker2(items[0], items[1], items[2], items[3]).is_zero()
