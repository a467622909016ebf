"""Jet-differential calculus: composite differentiation, brackets, Wronskians,
the reparametrization and unipotent group actions, and the initial invariants.

Everything here is exact polynomial algebra.  A weight-m invariant P obeys
P(jets of f.phi) = phi'^m * P(jets of f); since any jet of phi factors into a
dilation and a jet tangent to the identity, checking invariance splits into a
weighted-homogeneity test plus invariance under the group of jets tangent to
the identity, which acts through the unipotent matrix of composite
differentiation with phi' = 1.

That group, like the lower-triangular unipotent group of the bi-invariant
theory, is connected and unipotent, so a polynomial is invariant exactly when
the derivations of its Lie algebra kill it (Demailly 1997 for G_k;
Freudenburg, Algebraic Theory of Locally Nilpotent Derivations, 2006).
t^j d/dt acts on jets as D_j f_i^(lam) = lam!/(lam-j)! f_i^(lam-j+1), and
since [t^2 d/dt, t^j d/dt] = (j-2) t^(j+1) d/dt, D_2 and D_3 generate the
algebra.  The unipotent algebra is generated by the lowering derivations
E_i: f_(i+1)^(lam) -> f_i^(lam).  These and the total derivatives each send
a variable to an integer times another: a derivation is a move table
{v: (target, c)} (`Derivation`), applied to packed integer numerators by one
kernel, read as the image (`derivative`), as a verdict (`killed`, which
certifies the generators of a syzygy check) and, move by move
(`derivation_moves`), by the dimension oracle of `invgen`.  The
invariance checks of single polynomials apply the group actions themselves,
by substitution, and return the residual as the witness of a failure.  The
bracket identities (Jacobi, Pluecker) and the Bell-number count that check
this calculus are oracles of the tests and live there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .polyring import (
    Packing,
    Polynomial,
    Variable,
    clear_denominators,
    determinant,
    is_jet,
    is_phi,
    jet,
    mono_degree,
    phi,
    uni,
)


@dataclass(frozen=True)
class JetContext:
    """Source dimension n (components f_1..f_n) and jet order kappa."""

    n: int
    kappa: int

    def __post_init__(self):
        if self.n < 1 or self.kappa < 1:
            raise ValueError(f"invalid jet context: n={self.n}, kappa={self.kappa}")


def poly_jet(i: int, lam: int) -> Polynomial:
    return Polynomial.variable(jet(i, lam))


# v -> c * target for each {v: (target, c)}, c an int; a variable not listed is killed
Derivation = Dict[Variable, Tuple[Variable, int]]


def derivation_moves(operators: Sequence[Derivation], packing: Packing) -> Dict[Variable, list]:
    """Per variable v, one move (offset, c) for each v -> c * target of
    operator k of K, on a `packing` that holds both variables: the monomial
    of `code` sends a_v * c to row K * code + offset, offset = K *
    (unit[target] - unit[v]) + k, the row of operator k and the image."""
    count, unit, moves = len(operators), lambda v: packing.pack(((v, 1),)), {}
    for k, table in enumerate(operators):
        for v, (target, c) in table.items():
            moves.setdefault(v, []).append((count * (unit(target) - unit(v)) + k, c))
    return moves


def _images(p: Polynomial, operators: Sequence[Derivation]) -> Tuple[Packing, int, Dict[int, int]]:
    """p's images under the K derivations of `operators`, as (packing, den,
    {K * code + k: numerator}): operator k's image is the sum of numerator /
    den * monomial(code).  p is packed once, over its variables and the
    moves'; a move keeps the total degree, so p's largest one is the limit."""
    support = p.variables().union(*((v, t) for table in operators for v, (t, _) in table.items()))
    packing = Packing(support, max(map(mono_degree, p.terms), default=0))
    moves, count, acc = derivation_moves(operators, packing), len(operators), {}
    den, num = clear_denominators(p.terms)
    for m, c in num.items():
        base = count * packing.pack(m)
        for v, e in m:
            for offset, d in moves.get(v, ()):
                acc[base + offset] = acc.get(base + offset, 0) + e * d * c
    return packing, den, acc


def killed(p: Polynomial, operators: Sequence[Derivation]) -> bool:
    """Whether every derivation of `operators` kills p."""
    return not any(_images(p, operators)[2].values())


def derivative(p: Polynomial, operator: Derivation) -> Polynomial:
    """The image of p under one derivation; with K = 1 its rows are codes."""
    packing, den, acc = _images(p, [operator])
    return packing.unpack(den, acc)


def total_derivative(p: Polynomial) -> Polynomial:
    """The total differentiation operator: f_k^(lam) -> f_k^(lam+1)."""
    return derivative(p, {v: (jet(v.i, v.j + 1), 1) for v in p.variables() if is_jet(v)})


def phi_total_derivative(p: Polynomial) -> Polynomial:
    """Derivation on reparametrization jets: phi^(j) -> phi^(j+1)."""
    return derivative(p, {v: (phi(v.j + 1), 1) for v in p.variables() if is_phi(v)})


# ---------------------------------------------------------------------------
# composite differentiation (Faa di Bruno)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def faa_di_bruno(kappa: int, normalized: bool = True) -> Tuple[Tuple[Polynomial, ...], ...]:
    """Lower-triangular matrix M with g_i^(lam) = sum_mu M[lam][mu] f_i^(mu).

    Built by the recurrence M[lam+1][mu] = D_phi(M[lam][mu]) + phi' M[lam][mu-1]
    starting from M[1][1] = phi'.  With `normalized` (the tangent-to-identity
    convention) phi' is set to 1 and the diagonal becomes 1.

    Entries are indexed 1-based: M[lam][mu] for 1 <= mu <= lam <= kappa.
    Built once per (kappa, normalized); the rows are tuples, so no caller
    can change the shared matrix.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    zero, phi1 = Polynomial.zero(), Polynomial.variable(phi(1))
    rows = [(), (zero, phi1)]  # row 0 unused
    for lam in range(1, kappa):
        prev = rows[lam] + (zero,)
        rows.append((zero,) + tuple(phi_total_derivative(prev[mu]) + phi1 * prev[mu - 1]
                                    for mu in range(1, lam + 2)))
    sub = {phi(1): Polynomial.constant(1)} if normalized else {}
    return tuple(tuple(entry.substitute(sub) for entry in row) for row in rows)


def reparam_images(variables: Iterable[Variable]) -> Dict[Variable, Polynomial]:
    """Images f_i^(lam) -> sum_mu M[lam][mu] f_i^(mu), phi' = 1, of the jets."""
    jets = [v for v in variables if is_jet(v)]
    if not jets:
        return {}
    matrix = faa_di_bruno(max(v.j for v in jets))
    sigma = {}
    for v in jets:
        lam = v.j
        img = Polynomial.zero()
        for mu in range(1, lam + 1):
            entry = matrix[lam][mu]
            if entry:
                img = img + entry * poly_jet(v.i, mu)
        sigma[v] = img
    return sigma


def unipotent_images(variables: Iterable[Variable]) -> Dict[Variable, Polynomial]:
    """Images f_i^(lam) -> f_i^(lam) + sum_{j<i} u[i][j] f_j^(lam) of the jets."""
    sigma = {}
    for v in variables:
        if not is_jet(v) or v.i == 1:
            continue
        img = poly_jet(v.i, v.j)
        for j in range(1, v.i):
            img = img + Polynomial.variable(uni(v.i, j)) * poly_jet(j, v.j)
        sigma[v] = img
    return sigma


def reparam_substitution(p: Polynomial) -> Polynomial:
    """Image of p under f_i^(lam) -> sum_mu M[lam][mu] f_i^(mu), phi' = 1."""
    return p.substitute(reparam_images(p.variables()))


def unipotent_substitution(p: Polynomial) -> Polynomial:
    """Image of p under the formal unipotent action u . f_i = f_i + sum u_ij f_j."""
    return p.substitute(unipotent_images(p.variables()))


# ---------------------------------------------------------------------------
# the Lie algebras of the two actions
# ---------------------------------------------------------------------------

def reparam_derivations(variables: Iterable[Variable]) -> List[Derivation]:
    """D_2 and D_3: f_i^(lam) -> lam!/(lam-j)! f_i^(lam-j+1), j = 2, 3.

    Jets of order lam < j are killed, so they have no move.
    """
    jets = [v for v in variables if is_jet(v)]
    return [{v: (jet(v.i, v.j - j + 1), factorial(v.j) // factorial(v.j - j))
             for v in jets if v.j >= j} for j in (2, 3)]


def unipotent_derivations(variables: Iterable[Variable]) -> List[Derivation]:
    """The lowering derivations E_i: f_(i+1)^(lam) -> f_i^(lam).

    Only the E_i that move a variable present are listed; the others kill.
    """
    by_row: Dict[int, Derivation] = {}
    for v in variables:
        if is_jet(v) and v.i > 1:
            by_row.setdefault(v.i - 1, {})[v] = (jet(v.i - 1, v.j), 1)
    return [by_row[i] for i in sorted(by_row)]


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of an invariance test: weight on success, witness on failure."""

    invariant: bool
    weight: Optional[int] = None
    witness: Optional[Polynomial] = None

    def __bool__(self) -> bool:
        return self.invariant


def check_reparam_invariance(p: Polynomial) -> InvarianceReport:
    """Weight(m) when p is invariant under source reparametrization.

    Tests weighted homogeneity (dilations) and exact cancellation of all
    formal phi''..phi^(kappa) under composite differentiation with phi'=1.
    The witness of failure is a nonzero residual polynomial.
    """
    if p.is_zero():
        return InvarianceReport(True, weight=0)
    w = p.weighted_degree()
    if w is None:
        # mix of weights: witness is the leading inhomogeneous discrepancy
        return InvarianceReport(False, witness=p)
    residual = reparam_substitution(p) - p
    if residual.is_zero():
        return InvarianceReport(True, weight=w)
    return InvarianceReport(False, witness=residual)


def check_unipotent_invariance(p: Polynomial) -> InvarianceReport:
    """Invariance under the lower-triangular unipotent group, all jet levels.

    The image of f_i only involves f_j with j < i, so the variables of p
    fix the action.
    """
    if p.is_zero():
        return InvarianceReport(True, weight=0)
    residual = unipotent_substitution(p) - p
    if residual.is_zero():
        return InvarianceReport(True, weight=p.weighted_degree())
    return InvarianceReport(False, witness=residual)


# ---------------------------------------------------------------------------
# Wronskian-type determinants and brackets
# ---------------------------------------------------------------------------


def delta_minor(components: Sequence[int], orders: Sequence[int]) -> Polynomial:
    """The determinant of (f_{i_c}^(alpha_r))_{r,c}; orders by rows.

    General tool: only the staircase orders 1..lam give invariants, but
    arbitrary minors appear inside catalogued formulas.
    """
    if len(components) != len(orders):
        raise ValueError("components and orders must have equal length")
    return determinant([[poly_jet(i, alpha) for i in components] for alpha in orders])


def wronskian(components: Sequence[int]) -> Polynomial:
    """The Wronskian minor with derivative orders 1..lam (the invariant case).

    Repeated component indices give the zero polynomial; `delta_minor` is
    the general minor.
    """
    if len(set(components)) < len(components):
        return Polynomial.zero()
    return delta_minor(components, range(1, len(components) + 1))


def bracket(p: Polynomial, q: Polynomial,
            weights: Optional[Tuple[int, int]] = None) -> Polynomial:
    """[P, Q] = wq * DP * Q - wp * P * DQ for invariants of weights wp, wq.

    Inputs must be reparametrization-invariant (weight metadata would be
    meaningless otherwise); pass `weights` to skip the re-check when the
    weights are already known.
    """
    if weights is None:
        rp = check_reparam_invariance(p)
        rq = check_reparam_invariance(q)
        if not rp or not rq:
            bad = "first" if not rp else "second"
            raise ValueError(f"bracket of non-invariant {bad} argument")
        weights = (rp.weight, rq.weight)
    wp, wq = weights
    return wq * total_derivative(p) * q - wp * p * total_derivative(q)


# ---------------------------------------------------------------------------
# restriction and diagonal weights
# ---------------------------------------------------------------------------


def restrict_f1(p: Polynomial) -> Polynomial:
    """Substitute f_1' = 0, exposing ghost invariants hidden behind it: the
    terms free of f_1', the most senior variable, so first in a monomial."""
    f1 = jet(1, 1)
    return Polynomial(_raw={m: c for m, c in p.terms.items() if not m or m[0][0] is not f1})


def restrict_f1_higher(p: Polynomial) -> Polynomial:
    """Substitute f_1'' = ... = f_1^(kappa) = 0, the slice of the moving frame:
    the terms free of f_1^(lam), lam >= 2.  f_1's jets are the most senior
    variables, by order, so one of them leads a monomial or follows f_1'."""
    return Polynomial(_raw={m: c for m, c in p.terms.items()
                            if not any(is_jet(v) and v.i == 1 and v.j > 1 for v, _ in m[:2])})


def component_degrees(p: Polynomial, n: int) -> Optional[Tuple[int, ...]]:
    """Per-component jet degree vector when constant across terms, else None.

    A bi-invariant is an eigenvector of the diagonal torus, so all of its
    monomials carry the same per-component degrees (ell_1, ..., ell_n).
    """
    if p.is_zero():
        return tuple([0] * n)
    result = None
    for m in p.terms:
        row = [0] * n
        for v, e in m:
            if is_jet(v):
                row[v.i - 1] += e
        row = tuple(row)
        if result is None:
            result = row
        elif result != row:
            return None
    return result


# ---------------------------------------------------------------------------
# named invariants and the initial families
# ---------------------------------------------------------------------------


@dataclass
class Invariant:
    """A named, weighted jet polynomial with provenance and cached restriction."""

    name: str
    weight: int
    poly: Polynomial
    provenance: str = "catalog"
    _restriction: Optional[Polynomial] = field(default=None, repr=False)

    @property
    def restriction(self) -> Polynomial:
        if self._restriction is None:
            self._restriction = restrict_f1(self.poly)
        return self._restriction


def lambda_chain(i: int, kappa: int) -> List[Invariant]:
    """The iterated brackets Lambda_{1,i;1^(lam-2)} of weights 3, 5, ..., 2k-1."""
    out = []
    f1 = poly_jet(1, 1)
    current = bracket(poly_jet(i, 1), f1, weights=(1, 1))
    subscript = f"1,{i}"
    out.append(Invariant(f"Lam[{subscript}]^3", 3, current, "bracket"))
    w = 3
    for lam in range(3, kappa + 1):
        current = bracket(current, f1, weights=(w, 1))
        w += 2
        subscript += ";1" if lam == 3 else ",1"
        out.append(Invariant(f"Lam[{subscript}]^{w}", w, current, "bracket"))
    return out


def initial_invariants(ctx: JetContext) -> List[Invariant]:
    """f_1', ..., f_n' plus the Lambda chains: n + (n-1)(kappa-1) invariants."""
    out = [Invariant(f"f{i}'", 1, poly_jet(i, 1), "initial") for i in range(1, ctx.n + 1)]
    for i in range(2, ctx.n + 1):
        out.extend(lambda_chain(i, ctx.kappa))
    return out


def maximal_f1_power(p: Polynomial) -> int:
    """Largest nu with f_1'^nu dividing p (p nonzero).  f_1', the most senior
    variable, is the first factor of any monomial that contains it."""
    if p.is_zero():
        raise ValueError("zero polynomial divisible by every power")
    f1 = jet(1, 1)
    return min(m[0][1] if m and m[0][0] is f1 else 0 for m in p.terms)


def divide_f1_power(p: Polynomial, nu: int) -> Polynomial:
    """Exact quotient p / f_1'^nu (every term must carry the factor, as the
    first factor of its monomial)."""
    if nu == 0:
        return p
    f1 = jet(1, 1)
    terms = {}
    for m, c in p.terms.items():
        if not m or m[0][0] is not f1 or m[0][1] < nu:
            raise ValueError("not divisible by that power of f_1'")
        e = m[0][1] - nu
        terms[((f1, e),) + m[1:] if e else m[1:]] = c
    return Polynomial(_raw=terms)


def initial_bi_invariants(ctx: JetContext) -> List[Invariant]:
    """f_1' plus the leading minors of the Lambda matrix, reduced mod f_1' powers.

    The matrix has rows lambda = 2..kappa and columns i = 2..n holding
    Lambda_{1,i;1^(lambda-2)}; the minors on column prefixes 2..n1 with any
    strictly increasing row choice are unipotent-invariant, and dividing each
    by its maximal factoring power of f_1' yields the initial bi-invariants
    (D- and W-type Wronskians among them).
    """
    from itertools import combinations

    chains = {i: lambda_chain(i, ctx.kappa) for i in range(2, ctx.n + 1)}
    # chains[i][lam-2] is Lambda_{1,i;...} of weight 2 lam - 1
    out = [Invariant("f1'", 1, poly_jet(1, 1), "initial")]
    max_size = min(ctx.n - 1, ctx.kappa - 1)
    for size in range(1, max_size + 1):
        cols = list(range(2, 2 + size))
        for rows in combinations(range(2, ctx.kappa + 1), size):
            entries = [[chains[i][lam - 2].poly for i in cols] for lam in rows]
            det = determinant(entries)
            if det.is_zero():
                continue
            nu = maximal_f1_power(det)
            reduced = divide_f1_power(det, nu)
            w = reduced.weighted_degree()
            label = "".join(str(r) for r in rows)
            out.append(Invariant(f"Pi[{label}]^{w}", w, reduced, "wronskian-minor"))
    return out
