"""The Lie-algebra invariance criterion against the group actions themselves.

`invariant_space_dimension` decides by the derivations D_2, D_3 and E_i;
`check_reparam_invariance` and `check_unipotent_invariance` decide by
substitution: composite differentiation of the jets with formal
phi''..phi^(kappa) (phi' = 1), and the formal unipotent action
f_i -> f_i + sum_{j<i} u_ij f_j.  A polynomial is invariant when its image
equals it, and the substitution dimension oracle here counts the kernel of
p -> image(p) - p.  The derivation verdicts of single polynomials are
computed here as well, so both criteria are compared on the same inputs,
and `killed_by` (Leibniz on tuple monomials, `test_jets.derivation`) is the
oracle of `jets.killed`, which decides by moves on packed integer numerators.
"""

from fractions import Fraction
from math import factorial

import pytest

from jetcalc.catalog import CATALOG_IDS, load_catalog
from jetcalc.groebner import _IncrementalKernel, weight_tuples
from jetcalc.invgen import invariant_space_dimension
from jetcalc.jets import (
    JetContext,
    check_reparam_invariance,
    check_unipotent_invariance,
    derivative,
    faa_di_bruno,
    killed,
    poly_jet,
    reparam_derivations,
    reparam_images,
    reparam_substitution,
    unipotent_derivations,
    unipotent_images,
    unipotent_substitution,
)
from jetcalc.polyring import Polynomial, clear_denominators, jet, phi, tag, uni
from test_jets import derivation


def killed_by(p: Polynomial, derivations) -> bool:
    return all(derivation(p, images).is_zero() for images in derivations)


def substitution_dimension(ctx: JetContext, m: int, bi: bool = False) -> int:
    """Dimension of the weight-m invariants: the kernel of p -> image(p) - p.

    The columns' rows are monomials in phi and jets (reparametrization) or
    in u and jets (unipotent action), so the two actions never share a row.
    """
    variables = [jet(i, lam) for i in range(1, ctx.n + 1)
                 for lam in range(1, ctx.kappa + 1)]
    reparam = reparam_images(variables)
    unipotent = unipotent_images(variables) if bi else {}
    kernel = _IncrementalKernel()
    dim = 0
    for a in weight_tuples([v.weight for v in variables], m):
        mono = tuple((v, e) for v, e in zip(variables, a) if e)
        p = Polynomial(_raw={mono: Fraction(1)})
        column = dict((p.substitute(reparam) - p).terms)
        column.update((p.substitute(unipotent) - p).terms)
        if kernel.offer(clear_denominators(column), mono) is not None:
            dim += 1
    return dim


def verdicts(p: Polynomial):
    """(reparam weight or None, unipotent verdict) by the derivations."""
    if p.is_zero():
        return 0, True
    w = p.weighted_degree()
    if w is not None and not killed_by(p, reparam_derivations(p.variables())):
        w = None
    return w, killed_by(p, unipotent_derivations(p.variables()))


def packed_verdicts(p: Polynomial):
    """The pair of `verdicts`, by the packed certificate `jets.killed`."""
    if p.is_zero():
        return 0, True
    w = p.weighted_degree()
    if w is not None and not killed(p, reparam_derivations(p.variables())):
        w = None
    return w, killed(p, unipotent_derivations(p.variables()))


def substitution_verdicts(p: Polynomial):
    """The same pair from the checks, which apply the group actions."""
    rep = check_reparam_invariance(p)
    return (rep.weight if rep else None), bool(check_unipotent_invariance(p))


def test_catalogs_hold_109_entries():
    assert sum(len(load_catalog(cid).entries) for cid in CATALOG_IDS) == 109


@pytest.mark.parametrize("cid", CATALOG_IDS)
def test_catalog_entries_agree(cid):
    data = load_catalog(cid)
    for e in data.entries:
        got = verdicts(e.poly)
        assert got == substitution_verdicts(e.poly) == packed_verdicts(e.poly), e.name
        assert got[0] == e.weight, e.name
        if data.mode == "bi":
            assert got[1], e.name


@pytest.mark.parametrize("cid", CATALOG_IDS)
def test_perturbed_entries_agree(cid):
    """P + f_1'' f_1'^(w-2) is never reparametrization-invariant; P + (f_2')^w
    is, with weight w, but never bi-invariant."""
    data = load_catalog(cid)
    f1, f1pp, f2 = poly_jet(1, 1), poly_jet(1, 2), poly_jet(2, 1)
    for e in data.entries:
        w = e.weight
        if w < 2:
            continue
        bent = e.poly + f1pp * f1 ** (w - 2)
        got = verdicts(bent)
        assert got == substitution_verdicts(bent) == packed_verdicts(bent), e.name
        assert got[0] is None, e.name
        shifted = e.poly + f2 ** w
        got = verdicts(shifted)
        assert got == substitution_verdicts(shifted) == packed_verdicts(shifted), e.name
        assert got[0] == w, e.name
        if data.mode == "bi":
            assert not got[1], e.name


def test_packed_certificate_reads_other_variables_as_constants():
    """Derivations leave phi, u and tag variables alone, so on polynomials
    with such variables the certificate agrees with `killed_by` too, and
    with Fraction coefficients, constants and zero."""
    f1, f2 = poly_jet(1, 1), poly_jet(2, 1)
    w12 = f1 * poly_jet(2, 2) - poly_jet(1, 2) * f2  # a Wronskian: reparametrization-invariant
    x, u, p2 = (Polynomial.variable(v) for v in (tag("x", 1, 0), uni(2, 1), phi(2)))
    cases = [x * w12, p2 * w12 + u, Fraction(2, 3) * x * poly_jet(1, 2), p2 * f1 ** 3 * f2,
             u * f2 + f1, (x + u) * w12 * f1 - Fraction(1, 7) * f2 ** 2, x ** 2 * poly_jet(3, 4),
             Polynomial.constant(Fraction(5, 2)), Polynomial.zero()]
    seen = set()
    for p in cases:
        for operators in (reparam_derivations(p.variables()), unipotent_derivations(p.variables())):
            got = killed(p, operators)
            assert got == killed_by(p, operators), p
            seen.add(got)
    assert seen == {True, False}


def test_failure_witness_is_the_substitution_residual():
    bent = poly_jet(1, 2) * poly_jet(2, 1)
    rep = check_reparam_invariance(bent)
    assert not rep and rep.witness == reparam_substitution(bent) - bent
    rep = check_unipotent_invariance(bent)
    assert not rep and rep.witness == unipotent_substitution(bent) - bent


@pytest.mark.parametrize("m", range(9))
def test_dimension_e24_matches_substitution_oracle(m):
    ctx = JetContext(2, 4)
    assert invariant_space_dimension(ctx, m) == substitution_dimension(ctx, m)


@pytest.mark.parametrize("m", range(9))
def test_bi_dimension_ue33_matches_substitution_oracle(m):
    ctx = JetContext(3, 3)
    assert invariant_space_dimension(ctx, m, bi=True) == \
        substitution_dimension(ctx, m, bi=True)


@pytest.mark.parametrize("m", range(9))
def test_bi_dimension_ue34_matches_substitution_oracle(m):
    ctx = JetContext(3, 4)
    assert invariant_space_dimension(ctx, m, bi=True) == \
        substitution_dimension(ctx, m, bi=True)


@pytest.mark.parametrize("j", [2, 3])
def test_reparam_derivations_are_the_linear_part_of_faa_di_bruno(j):
    """phi = t + eps t^j has phi^(j)(0) = j! eps and no other phi^(k), k >= 2,
    so D_j f^(lam) is j! times the phi^(j) coefficient of row lam."""
    kappa = 7
    matrix = faa_di_bruno(kappa)
    others = {phi(k): Polynomial.zero() for k in range(2, kappa + 1) if k != j}
    variables = [jet(2, lam) for lam in range(1, kappa + 1)]
    table = reparam_derivations(variables)[j - 2]
    assert all(type(c) is int for _, c in table.values())
    for v in variables:
        linear = Polynomial.zero()
        for mu in range(1, v.j):
            entry = matrix[v.j][mu].substitute(others)
            coeff = entry.terms.get(((phi(j), 1),), 0)
            linear = linear + factorial(j) * coeff * poly_jet(2, mu)
        target, c = table.get(v, (v, 0))  # a jet the table omits is killed
        assert linear == c * Polynomial.variable(target), v


def test_d2_d3_generate_the_reparametrization_algebra():
    """[D_2, D_3] = -D_4 on the jets: the brackets reach every D_j."""
    variables = [jet(1, lam) for lam in range(1, 8)]
    d2, d3 = reparam_derivations(variables)
    for v in variables:
        p = Polynomial.variable(v)
        bracket = derivative(derivative(p, d3), d2) - derivative(derivative(p, d2), d3)
        d4 = (factorial(v.j) // factorial(v.j - 4)) * poly_jet(1, v.j - 3) \
            if v.j >= 4 else Polynomial.zero()
        assert bracket == -d4, v


def test_unipotent_derivations_lower_one_component():
    variables = [jet(i, lam) for i in (1, 2, 3) for lam in (1, 2)]
    e1, e2 = unipotent_derivations(variables)
    assert e1 == {jet(2, 1): (jet(1, 1), 1), jet(2, 2): (jet(1, 2), 1)}
    assert e2 == {jet(3, 1): (jet(2, 1), 1), jet(3, 2): (jet(2, 2), 1)}
    # f_3' alone: E_1 has nothing to move and is left out
    assert unipotent_derivations([jet(3, 1)]) == [{jet(3, 1): (jet(2, 1), 1)}]
