"""Jet-differential calculus: composite differentiation, brackets, Wronskians,
the reparametrization and unipotent group actions, and the initial invariants.

Everything here is exact polynomial algebra.  A weight-m invariant P obeys
P(jets of f.phi) = phi'^m * P(jets of f); since any jet of phi factors into a
dilation and a jet tangent to the identity, checking invariance splits into a
weighted-homogeneity test plus invariance under the unipotent matrix group of
composite differentiation with phi' = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .polyring import (
    Polynomial,
    Variable,
    determinant,
    is_jet,
    is_phi,
    jet,
    mono_mul,
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


def derivation(p: Polynomial, images: Dict[Variable, Polynomial]) -> Polynomial:
    """Apply the derivation sending each variable to its image (Leibniz)."""
    acc = {}
    for m, c in p.terms.items():
        for idx, (v, e) in enumerate(m):
            img = images.get(v)
            if img is None:
                continue
            rest = list(m)
            if e == 1:
                del rest[idx]
            else:
                rest[idx] = (v, e - 1)
            rest = tuple(rest)
            ce = c * e
            for mi, ci in img.terms.items():
                key = mono_mul(rest, mi)
                acc[key] = acc.get(key, 0) + ci * ce
    return Polynomial(_raw={m: c for m, c in acc.items() if c})


def total_derivative(p: Polynomial) -> Polynomial:
    """The total differentiation operator: f_k^(lam) -> f_k^(lam+1)."""
    images = {}
    for v in p.variables():
        if is_jet(v):
            images[v] = poly_jet(v.i, v.j + 1)
    return derivation(p, images)


def phi_total_derivative(p: Polynomial) -> Polynomial:
    """Derivation on reparametrization jets: phi^(j) -> phi^(j+1)."""
    images = {}
    for v in p.variables():
        if is_phi(v):
            images[v] = Polynomial.variable(phi(v.j + 1))
    return derivation(p, images)


# ---------------------------------------------------------------------------
# composite differentiation (Faa di Bruno)
# ---------------------------------------------------------------------------


def faa_di_bruno(kappa: int, normalized: bool = True) -> List[List[Polynomial]]:
    """Lower-triangular matrix M with g_i^(lam) = sum_mu M[lam][mu] f_i^(mu).

    Built by the recurrence M[lam+1][mu] = D_phi(M[lam][mu]) + phi' M[lam][mu-1]
    starting from M[1][1] = phi'.  With `normalized` (the tangent-to-identity
    convention) phi' is set to 1 and the diagonal becomes 1.

    Entries are indexed 1-based: M[lam][mu] for 1 <= mu <= lam <= kappa.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    phi1 = Polynomial.variable(phi(1))
    rows: List[List[Polynomial]] = [[]]  # index 0 unused
    rows.append([Polynomial.zero(), phi1])
    for lam in range(1, kappa):
        prev = rows[lam]
        row = [Polynomial.zero()] * (lam + 2)
        for mu in range(1, lam + 2):
            term = Polynomial.zero()
            if mu <= lam:
                term = term + phi_total_derivative(prev[mu])
            if mu - 1 >= 1:
                term = term + phi1 * prev[mu - 1]
            row[mu] = term
        rows.append(row)
    if normalized:
        one = Polynomial.constant(1)
        sub = {phi(1): one}
        rows = [[entry.substitute(sub) for entry in row] for row in rows]
    return rows


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
        try:
            w = p.weighted_degree()
        except ValueError:
            w = None
        return InvarianceReport(True, weight=w)
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


def wronskian(components: Sequence[int], orders: Optional[Sequence[int]] = None) -> Polynomial:
    """The Wronskian minor with derivative orders 1..lam (the invariant case).

    Repeated component indices give the zero polynomial.  Passing explicit
    `orders` exposes the general minor, which is reparametrization-invariant
    only for the staircase 1..lam.
    """
    lam = len(components)
    if orders is None:
        orders = list(range(1, lam + 1))
    if len(set(components)) < len(components):
        return Polynomial.zero()
    return delta_minor(components, orders)


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
    """Substitute f_1' = 0, exposing ghost invariants hidden behind it."""
    return p.substitute({jet(1, 1): Polynomial.zero()})


# ---------------------------------------------------------------------------
# automatic syzygy families (bracket calculus identities)
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


def diagonal_weights(factors: Sequence[Tuple[Polynomial, int]], n: int) -> Tuple[int, ...]:
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

    def verified(self) -> "Invariant":
        rep = check_reparam_invariance(self.poly)
        if not rep:
            raise ValueError(f"{self.name}: not reparametrization-invariant")
        if rep.weight != self.weight:
            raise ValueError(f"{self.name}: weight {rep.weight} != declared {self.weight}")
        return self


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
    """Largest nu with f_1'^nu dividing p (p nonzero)."""
    if p.is_zero():
        raise ValueError("zero polynomial divisible by every power")
    f1 = jet(1, 1)
    best = None
    for m in p.terms:
        e = 0
        for v, ee in m:
            if v is f1:
                e = ee
                break
        best = e if best is None else min(best, e)
        if best == 0:
            return 0
    return best


def divide_f1_power(p: Polynomial, nu: int) -> Polynomial:
    """Exact quotient p / f_1'^nu (every term must carry the factor)."""
    if nu == 0:
        return p
    f1 = jet(1, 1)
    terms = {}
    for m, c in p.terms.items():
        new = []
        found = 0
        for v, e in m:
            if v is f1:
                found = e
                if e - nu > 0:
                    new.append((v, e - nu))
            else:
                new.append((v, e))
        if found < nu:
            raise ValueError("not divisible by that power of f_1'")
        terms[tuple(new)] = c
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
