"""Sparse multivariate polynomials over exact rationals.

Variables come in four kinds: jet derivatives f_i^(lam), formal
reparametrization derivatives phi^(lam), formal unipotent matrix entries
u[r][c], and named tag variables standing for invariants.  A `Polynomial`
holds `fractions.Fraction` coefficients, its heavy loops integer numerators;
no floating point enters any computation.

Polynomials are immutable values (plain dicts wrapped in a thin class); all
operations return new objects, so they are safe to share between tasks.
Their monomials are tuples of (Variable, exponent) pairs.

Heavy work runs on one packed encoding that never leaves the call
(`Packing`; Monagan & Pearce, CASC 2007).  A monomial is one `int`: one
exponent field per variable, the most senior variable the top one, each wide
enough for a degree limit, so a monomial product is an integer `+`.  Given a
monomial order, each field also gets a guard bit, so divisibility is one
subtraction, and the code carries a total-degree field and the order's
integer weight rows in its top fields, so comparing codes compares
monomials; each order is defined only by those rows.

Substitution, the heaviest expansion (a syzygy check expands a few tag
polynomials into ~10k-term jet polynomials), images a list of polynomials
over one packing of the variables they can reach (`packed_images`); a
polynomial is `(den, {code: int numerator})` over one common denominator
(`Packed`, as `Packing.pack_terms` makes it; the generator products of
Groebner membership and relation kernels are built and eliminated in this
form too).  Image powers are cached per call (a square makes each cross pair
once), and each polynomial is expanded distributively, a multivariate Horner
scheme (Ceberio & Kreinovich, 2004): its terms are grouped by their powers of
the largest images, so a power shared by many terms multiplies the sum of
their cofactors once.  `Packing.unpack` is the one way back to a
`Polynomial`.  A product `a * b` runs on tuples.  Groebner computations and
every ranking of monomials (`MonomialOrder.ranked`, `leading_monomial`) pack
with an order; all other packings have none.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, starmap
from math import gcd, lcm
from operator import gt
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

Coeff = Union[int, Fraction]


def exact(c: Coeff) -> Fraction:
    """c as a Fraction; a float is refused, since Fraction(0.1) would be the
    float's binary value."""
    if isinstance(c, float):
        raise TypeError("a float coefficient would bring in its binary value")
    return Fraction(c)


_JET, _PHI, _UNI, _TAG = 0, 1, 2, 3
_KIND_NAMES = ("jet", "phi", "uni", "tag")


class Variable:
    """A single indeterminate with structural identity.

    Variables are interned, so identity is equality: hashing and `==` are
    those of `object`, and monomial tuples hash without calling back into
    Python.  The total order (seniority) is: jets first, ordered by
    (component, order) so that f[1]' is the most senior jet, then
    phi-derivatives, then unipotent entries, then tags in declaration order.
    """

    __slots__ = ("kind", "i", "j", "name", "weight", "key")

    _interned: Dict[tuple, "Variable"] = {}

    def __new__(cls, kind: int, i: int, j: int, name: str, weight: int, key: tuple):
        ident = (kind, i, j, name, weight)
        got = cls._interned.get(ident)
        if got is not None:
            return got
        self = object.__new__(cls)
        self.kind = kind
        self.i = i
        self.j = j
        self.name = name
        self.weight = weight
        self.key = key
        cls._interned[ident] = self
        return self

    def __lt__(self, other: "Variable") -> bool:
        # "less than" = more senior; monomial tuples are kept sorted this way
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Variable({self.name})"

    def __str__(self) -> str:
        return self.name


def jet(i: int, lam: int) -> Variable:
    """The formal derivative f_i^(lam), of weight lam."""
    if i < 1 or lam < 1:
        raise ValueError(f"jet indices out of range: i={i}, lam={lam}")
    name = f"f[{i}]" + "'" * lam
    return Variable(_JET, i, lam, name, lam, (_JET, i, lam))


def phi(lam: int) -> Variable:
    """The formal reparametrization derivative phi^(lam), lam >= 1."""
    if lam < 1:
        raise ValueError(f"phi order out of range: {lam}")
    name = "phi" + "'" * lam
    return Variable(_PHI, 0, lam, name, lam, (_PHI, 0, lam))


def uni(r: int, c: int) -> Variable:
    """Unipotent matrix entry u[r][c], below the diagonal (r > c)."""
    if not r > c >= 1:
        raise ValueError(f"unipotent entry must have row > col >= 1: ({r},{c})")
    name = f"u[{r}][{c}]"
    return Variable(_UNI, r, c, name, 0, (_UNI, r, c))


def tag(name: str, weight: int = 0, index: int = 0) -> Variable:
    """A named tag variable; `index` fixes its place in the tag order."""
    return Variable(_TAG, index, 0, f"t:{name}", weight, (_TAG, index, name))


def is_jet(v: Variable) -> bool:
    return v.kind == _JET


def is_phi(v: Variable) -> bool:
    return v.kind == _PHI


def is_tag(v: Variable) -> bool:
    return v.kind == _TAG


# A monomial is a tuple of (Variable, exponent) pairs, sorted by seniority,
# with all exponents positive.  The empty tuple is the unit monomial.
Monomial = Tuple[Tuple[Variable, int], ...]

ONE_MONOMIAL: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        va, ea = a[ia]
        vb, eb = b[ib]
        if va is vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va.key < vb.key:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when monomial a divides b."""
    ib = 0
    nb = len(b)
    for va, ea in a:
        while ib < nb and b[ib][0].key < va.key:
            ib += 1
        if ib == nb or b[ib][0] is not va or b[ib][1] < ea:
            return False
        ib += 1
    return True


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_weight(m: Monomial) -> int:
    return sum(v.weight * e for v, e in m)


class Polynomial:
    """A sparse polynomial: map from monomials to nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Coeff]] = None, *, _raw=None):
        if _raw is not None:
            self.terms = _raw
            return
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = exact(c)
                if c:
                    self.terms[m] = c

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(_raw={})

    @staticmethod
    def constant(c: Coeff) -> "Polynomial":
        c = exact(c)
        return Polynomial(_raw={ONE_MONOMIAL: c} if c else {})

    @staticmethod
    def variable(v: Variable) -> "Polynomial":
        return Polynomial(_raw={((v, 1),): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def variables(self) -> set:
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return seen

    def weighted_degree(self) -> Optional[int]:
        """The common weight of all terms, or None when mixed.

        Weights are carried by the variables themselves (jet f_i^(lam) and
        phi^(lam) weigh lam; tags weigh their declared weight).  Raises on
        the zero polynomial, which has no degree.
        """
        if not self.terms:
            raise ValueError("zero polynomial has no weighted degree")
        it = iter(self.terms)
        w = mono_weight(next(it))
        for m in it:
            if mono_weight(m) != w:
                return None
        return w

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Union["Polynomial", Coeff]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m)
            if s is None:
                acc[m] = c
            else:
                s = s + c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return Polynomial(_raw=acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(_raw={m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["Polynomial", Coeff]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: Union["Polynomial", Coeff]) -> "Polynomial":
        """The product, term pair by term pair on tuple monomials."""
        if not isinstance(other, Polynomial):
            c = exact(other)
            if not c:
                return Polynomial.zero()
            return Polynomial(_raw={m: k * c for m, k in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial.zero()
        if len(a) < len(b):
            a, b = b, a
        acc: Dict[Monomial, Fraction] = {}
        for mb, cb in b.items():
            if not mb:
                for ma, ca in a.items():
                    s = acc.get(ma)
                    p = ca * cb
                    if s is None:
                        acc[ma] = p
                    else:
                        s = s + p
                        if s:
                            acc[ma] = s
                        else:
                            del acc[ma]
                continue
            for ma, ca in a.items():
                m = mono_mul(ma, mb)
                s = acc.get(m)
                p = ca * cb
                if s is None:
                    acc[m] = p
                else:
                    s = s + p
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        return Polynomial(_raw=acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if other == 0:
                return not self.terms
            return self.terms == {ONE_MONOMIAL: Fraction(other)}
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- substitution ----------------------------------------------------------

    def substitute(self, sigma: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        """Image under variable -> polynomial, identity off the map's support."""
        if not sigma or sigma.keys().isdisjoint(self.variables()):
            return self
        packing, [image] = packed_images(sigma, [self])
        return packing.unpack(*image)

    # -- presentation ----------------------------------------------------------

    def sorted_terms(self) -> Iterator[Tuple[Monomial, Fraction]]:
        """Terms from the degrevlex-largest monomial down."""
        for m in grevlex.ranked(self.terms):
            yield m, self.terms[m]

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        s = format_polynomial(self)
        if len(s) > 120:
            s = s[:117] + "..."
        return f"Polynomial({s})"


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


class Packing:
    """Monomials over one variable universe packed into ints (Monagan &
    Pearce, CASC 2007); the one packed encoding of the engine.

    A code holds one field per variable, the most senior on top, each wide
    enough for any exponent of a monomial of total degree up to `limit`
    (rounded up to 2^w - 1), so packing is linear: a product is `+` of codes
    and a quotient `-`.  `pack` raises ValueError on a monomial of degree
    over `limit`; code that forms products sizes `limit` for them, or checks
    their `degree` first.

    Only division needs more, so only with an order is each exponent under a
    guard bit, and the code carries a total-degree field (`degree`), then
    one field per weight row of `order` with that row's dot product with the
    exponent vector as a signed (balanced) digit.  Balanced digits of bounded
    size compare like their digit vectors, so codes compare like monomials.
    `a` divides `b` exactly when `((b | guards) - a) & guards == guards`: an
    exponent of `a` above the one of `b` borrows its field's guard, and no
    borrow passes a guard.  Order-free, `degree` and `lcm` raise ValueError.
    """

    def __init__(self, variables: Iterable[Variable], limit: int,
                 order: Optional["MonomialOrder"] = None):
        ranked = sorted(variables, key=lambda v: v.key)
        n = len(ranked)
        width = max(limit, 1).bit_length()
        self.limit = (1 << width) - 1
        self.ordered = order is not None
        # a guard bit over each exponent and a degree field only with an order
        self._step = step = width + 1 if order else width
        self.guards = sum(1 << (k * step + width) for k in range(n)) if order else 0
        self._deg_shift = shift = n * step
        self._exponents = (1 << shift) - 1
        degree_unit = 1 << shift if order else 0
        units = [(1 << ((n - 1 - j) * step)) + degree_unit for j in range(n)]
        shift += width
        for row in reversed(order.weight_rows(ranked) if order else []):
            top = 0  # the largest |entry| sizes the row's field
            for k, r in enumerate(row):
                if r:
                    units[k] += r << shift
                    top = max(top, abs(r))
            shift += (top * self.limit).bit_length() + 1
        self._unit = dict(zip(ranked, units))
        # field k from the bottom belongs to ranked[n - 1 - k]
        self._field_units = units[::-1]
        self._fields = [(v, {}) for v in reversed(ranked)]

    def pack(self, m: Monomial) -> int:
        unit = self._unit
        d = code = 0
        for v, e in m:
            d += e
            code += e * unit[v]
        if d > self.limit:
            raise ValueError(f"a monomial of degree {d} overflows the packed fields "
                             f"(limit {self.limit})")
        return code

    def pack_terms(self, terms: Mapping[Monomial, Coeff]) -> Packed:
        """The terms over their least common denominator, `(den, {code:
        integer numerator})`, keyed by code in their order."""
        den, num = clear_denominators(terms)
        pack = self.pack
        return den, {pack(m): c for m, c in num.items()}

    def unpack(self, den: int, terms: Mapping[int, int]) -> Polynomial:
        """The Polynomial of a packed value, the sum of numerator / den *
        monomial(code), in the terms' order; zero numerators are dropped.

        The exponent fields of a code split into an upper and a lower half;
        each distinct half is decoded once per call, visiting only its set
        fields from the top, into one shared (variable, exponent) pair per
        field value, and a monomial is the two halves' tuples joined.
        """
        step, fields = self._step, self._fields
        half = (len(fields) // 2) * step
        low = (1 << half) - 1
        uppers: Dict[int, Monomial] = {}
        lowers: Dict[int, Monomial] = {}

        def walk(code: int, base: int) -> Monomial:
            mono = []
            while code:
                k = (code.bit_length() - 1) // step
                shift = k * step
                e = code >> shift
                code -= e << shift
                v, pairs = fields[base + k]
                pair = pairs.get(e)
                if pair is None:
                    pair = pairs[e] = (v, e)
                mono.append(pair)
            return tuple(mono)

        exponents = self._exponents
        out = {}
        for code, c in terms.items():
            if not c:
                continue
            hi = (code & exponents) >> half
            lo = code & low
            a = uppers.get(hi)
            if a is None:
                a = uppers[hi] = walk(hi, len(fields) // 2)
            b = lowers.get(lo)
            if b is None:
                b = lowers[lo] = walk(lo, 0)
            out[a + b] = Fraction(c) if den == 1 else Fraction(c, den)
        return Polynomial(_raw=out)

    def degree(self, code: int) -> int:
        if not self.ordered:
            raise ValueError("an order-free packing has no degree field")
        return (code >> self._deg_shift) & self.limit

    def lcm(self, a: int, b: int) -> int:
        """The code of the least common multiple."""
        if not self.ordered:
            raise ValueError("an order-free packing has no guard bits")
        low, guards = self._exponents, self.guards
        la, lb = a & low, b & low
        a_wins = ((la | guards) - lb) & guards  # guards of fields where a >= b
        b_fields = low & ~guards & ~(a_wins - (a_wins >> (self._step - 1)))
        x = (lb & b_fields) - (la & b_fields)  # lcm / a, exponent fields only
        step, units = self._step, self._field_units
        while x:
            k = (x.bit_length() - 1) // step
            shift = k * step
            e = x >> shift
            x -= e << shift
            a += e * units[k]
        return a


def _support(monomials: Iterable[Monomial]) -> Tuple[frozenset, int]:
    """The variables of `monomials` and their largest total degree."""
    variables = set()
    top = 0
    for m in monomials:
        variables.update(v for v, _ in m)
        top = max(top, mono_degree(m))
    return frozenset(variables), top


def packing_over(monomials: Iterable[Monomial], order: "MonomialOrder",
                 headroom: int) -> Packing:
    """The packing of the variables of `monomials` whose limit is `headroom`
    times their largest total degree."""
    variables, top = _support(monomials)
    return Packing(variables, headroom * top, order)


# ---------------------------------------------------------------------------
# packed substitution
# ---------------------------------------------------------------------------

# A packed polynomial (den, {code: numerator}) stands for the sum of
# numerator / den * monomial(code), with integer numerators.
Packed = Tuple[int, Dict[int, int]]


def clear_denominators(terms: Mapping) -> Tuple[int, Dict]:
    """(den, {key: numerator}): the rational terms over their least common
    denominator, with integer numerators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _add_packed_product(acc: Dict[int, int], a: Dict[int, int], b: Dict[int, int]):
    """acc += a * b on packed numerators; zero entries stay in acc."""
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _packed_mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    _add_packed_product(out, a, b)
    return out


def _packed_square(a: Dict[int, int]) -> Dict[int, int]:
    """a * a with each cross pair made once and doubled; zero entries stay."""
    out: Dict[int, int] = {}
    get = out.get
    items = list(a.items())
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        out[k] = get(k, 0) + ca * ca
        ca += ca
        for kb, cb in items[i + 1:]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _expand(acc: Dict[int, int], terms: list, rank: Sequence[Variable], i: int, power) -> None:
    """acc += the sum of `terms`, each `(exponents, code, numerator)` for
    numerator * monomial(code) * the product of power(rank[j], exponents[j])
    over j >= i.  The terms split by their exponent e of rank[i]; each e > 0
    group's cofactors are summed first and multiply power(rank[i], e) once.
    A lone term multiplies its factors, the smallest first, each partial
    product without its zero numerators, and the largest straight into acc."""
    if len(terms) == 1 or i == len(rank):
        for exps, code, num in terms:
            factors = sorted((power(v, e) for v, e in zip(rank[i:], exps[i:]) if e), key=len)
            part = {code: num}
            for f in factors[:-1]:
                part = {k: c for k, c in _packed_mul(part, f).items() if c}
            _add_packed_product(acc, part, factors[-1] if factors else {0: 1})
        return
    groups: Dict[int, list] = {}
    for t in terms:
        groups.setdefault(t[0][i], []).append(t)
    for e, group in groups.items():
        if not e:
            _expand(acc, group, rank, i + 1, power)
        elif len(group) == 1:  # its own product, power(rank[i], e) among the factors
            _expand(acc, group, rank, i, power)
        else:
            inner: Dict[int, int] = {}
            _expand(inner, group, rank, i + 1, power)
            inner = {k: c for k, c in inner.items() if c}
            if inner:
                _add_packed_product(acc, *sorted((inner, power(rank[i], e)), key=len))


def packed_images(sigma: Mapping[Variable, Polynomial],
                  polys: Sequence[Polynomial]) -> Tuple[Packing, List[Packed]]:
    """The image of each polynomial under sigma (identity off its support),
    packed, with no zero numerators.

    The images share one order-free `Packing` of the variables they can
    reach, whose limit is the largest total degree of any term's image, so
    no field can carry into its neighbour, and one cache of image powers.
    Each polynomial is expanded distributively (`_expand`), its imaged
    variables ranked by image size, the largest first, so an image power
    shared by many terms multiplies the sum of their cofactors once.
    """
    used = set().union(*(p.variables() for p in polys))
    images = {v: sigma[v] for v in used if v in sigma}
    degree = {v: max(map(mono_degree, img.terms), default=0) for v, img in images.items()}
    universe = used - images.keys()
    for img in images.values():
        universe |= img.variables()
    packing = Packing(universe, max((sum(e * degree.get(v, 1) for v, e in m)
                                     for p in polys for m in p.terms), default=0))
    pack = packing.pack
    dens: Dict[Variable, int] = {}
    powers: Dict[Variable, list] = {}
    for v, img in images.items():
        dens[v], num = packing.pack_terms(img.terms)
        powers[v] = [{0: 1}, num]
    rank = sorted(images, key=lambda v: (-len(powers[v][1]), v.key))
    slot = {v: j for j, v in enumerate(rank)}

    def power(v: Variable, e: int) -> Dict[int, int]:
        cached = powers[v]
        while len(cached) <= e:
            nxt = (_packed_square(cached[1]) if len(cached) == 2
                   else _packed_mul(cached[-1], cached[1]))
            cached.append({k: c for k, c in nxt.items() if c})
        return cached[e]

    out = []
    for p in polys:
        den = lcm(*(c.denominator for c in p.terms.values()))
        top: Dict[Variable, int] = {}
        for m in p.terms:
            for v, e in m:
                if v in images and top.get(v, 0) < e:
                    top[v] = e
        for v, e in top.items():
            den *= dens[v] ** e
        terms = []
        for m, c in p.terms.items():
            kept = ()
            scale = den // c.denominator
            exps = [0] * len(rank)
            for v, e in m:
                if v not in images:
                    kept += ((v, e),)
                elif not powers[v][1]:
                    break  # a zero image
                else:
                    exps[slot[v]] = e
                    scale //= dens[v] ** e
            else:
                terms.append((exps, pack(kept) if kept else 0, c.numerator * scale))
        acc: Dict[int, int] = {}
        _expand(acc, terms, rank, 0, power)
        out.append((den, {k: c for k, c in acc.items() if c}))
    return packing, out


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class MonomialOrder:
    """A total order on monomials compatible with multiplication, defined by
    integer weight rows (a matrix order, Robbiano 1985).

    Monomials compare as the dot products of the rows with their exponent
    vectors, row by row.  `ranked` and `leading_monomial` pack their inputs
    over the inputs' variables (`Packing`) and compare codes; the order keeps
    one packing per variable set and builds it again only for a monomial of
    larger degree than its limit (a larger limit ranks the same).
    """

    name = "order"

    def weight_rows(self, ranked: Sequence[Variable]) -> List[List[int]]:
        """Integer rows over the seniority-sorted variables `ranked`; with
        the order restricted to monomials in those variables, they must
        rank every pair of such monomials apart."""
        raise NotImplementedError

    def _packing(self, monomials: Iterable[Monomial]) -> Packing:
        variables, top = _support(monomials)
        kept = self.__dict__.setdefault("_packings", {})
        packing = kept.get(variables)
        if packing is None or packing.limit < top:
            packing = kept[variables] = Packing(variables, top, self)
        return packing

    def ranked(self, monomials: Iterable[Monomial]) -> List[Monomial]:
        """The monomials, largest first."""
        monomials = list(monomials)
        return sorted(monomials, key=self._packing(monomials).pack, reverse=True)

    def leading_monomial(self, p: Polynomial) -> Monomial:
        return max(p.terms, key=self._packing(p.terms).pack)

    def __repr__(self) -> str:
        return f"<{self.name}>"


class Lex(MonomialOrder):
    """Lexicographic order: the more senior variable decides first."""

    name = "lex"

    def weight_rows(self, ranked: Sequence[Variable]) -> List[List[int]]:
        n = len(ranked)
        return [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]


class DegRevLex(MonomialOrder):
    """Total degree first, ties broken reverse-lexicographically: the smaller
    exponent on the least senior variable where two monomials differ wins."""

    name = "degrevlex"

    def weight_rows(self, ranked: Sequence[Variable]) -> List[List[int]]:
        # the degree, then -e from the least senior variable up; the most
        # senior variable's row follows from the others and is left out
        n = len(ranked)
        return [[1] * n] + [[0] * j + [-1] + [0] * (n - 1 - j) for j in range(n - 1, 0, -1)]


class WeightedDeg(MonomialOrder):
    """Weighted degree first (weights carried by variables), grevlex ties."""

    name = "weighted"

    def weight_rows(self, ranked: Sequence[Variable]) -> List[List[int]]:
        return [[v.weight for v in ranked]] + DegRevLex.weight_rows(self, ranked)


class Block(MonomialOrder):
    """Elimination order: front variables dominate, inner orders break ties."""

    name = "block"

    def __init__(self, front: Iterable[Variable], inner_front: MonomialOrder = None,
                 inner_back: MonomialOrder = None):
        self.front = set(front)
        self.inner_front = inner_front or DegRevLex()
        self.inner_back = inner_back or DegRevLex()
        self.name = f"block({self.inner_front.name}|{self.inner_back.name})"

    def weight_rows(self, ranked: Sequence[Variable]) -> List[List[int]]:
        front = [k for k, v in enumerate(ranked) if v in self.front]
        back = [k for k, v in enumerate(ranked) if v not in self.front]
        rows = []
        for inner, cols in ((self.inner_front, front), (self.inner_back, back)):
            for part in inner.weight_rows([ranked[k] for k in cols]):
                row = [0] * len(ranked)
                for k, r in zip(cols, part):
                    row[k] = r
                rows.append(row)
        return rows


grevlex = DegRevLex()


# ---------------------------------------------------------------------------
# canonical text form and JSON serialization
# ---------------------------------------------------------------------------


def format_monomial(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(v.name if e == 1 else f"{v.name}^{e}")
    return " * ".join(parts)


def format_terms(terms: Iterable[Tuple[Fraction, str]], times: str) -> str:
    """Text of a sum of (coefficient, monomial text) terms, "" being the
    monomial 1: the first sign as a prefix, " + " or " - " between terms,
    and no coefficient of absolute value 1 before a monomial other than 1."""
    out = ""
    for c, mono in terms:
        body = f"{abs(c)}{times}{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


def format_polynomial(p: Polynomial) -> str:
    return format_terms(((c, format_monomial(m) if m else "") for m, c in p.sorted_terms()),
                        " * ")


def parse_variable(name: str) -> Variable:
    """Inverse of Variable.name for jet/phi/uni variables, t:... for tags."""
    if name.startswith("f["):
        close = name.index("]")
        i = int(name[2:close])
        lam = len(name) - close - 1
        if name[close + 1:] != "'" * lam:
            raise ValueError(f"bad jet variable: {name!r}")
        return jet(i, lam)
    if name.startswith("phi"):
        lam = len(name) - 3
        if name[3:] != "'" * lam or lam < 1:
            raise ValueError(f"bad phi variable: {name!r}")
        return phi(lam)
    if name.startswith("u["):
        inner = name[1:]
        r, c = inner.replace("[", " ").replace("]", " ").split()
        return uni(int(r), int(c))
    if name.startswith("t:"):
        return tag(name[2:])
    raise ValueError(f"unrecognized variable: {name!r}")


def parse_polynomial(text: str, tags: Optional[Mapping[str, Variable]] = None) -> Polynomial:
    """Parse the canonical text form produced by format_polynomial.

    Tag weights and ordering indices are context, not syntax: pass `tags`
    mapping bare tag names to their Variables to round-trip them bit-exactly;
    a tag not in them raises ValueError, as do an exponent below 1 and a
    zero denominator.
    """
    text = text.strip()
    if text in ("0", ""):
        return Polynomial.zero()
    body = text.replace(" - ", " + -")
    terms: Dict[Monomial, Fraction] = {}
    for chunk in body.split(" + "):
        chunk = chunk.strip()
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:].strip()
        coeff = Fraction(1)
        factors: Dict[Variable, int] = {}
        for fac in chunk.split("*"):
            fac = fac.strip()
            if not fac:
                continue
            if fac[0].isdigit():
                try:
                    coeff *= Fraction(fac)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator: {fac!r}") from None
                continue
            if "^" in fac:
                vname, _, e = fac.partition("^")
                exp = _exponent(e, vname)
            else:
                vname, exp = fac, 1
            vname = vname.strip()
            if tags is not None and vname.startswith("t:"):
                if vname[2:] not in tags:
                    raise ValueError(f"unknown tag: {vname!r}")
                v = tags[vname[2:]]
            else:
                v = parse_variable(vname)
            factors[v] = factors.get(v, 0) + exp
        mono = tuple(sorted(factors.items(), key=lambda p: p[0].key))
        c = -coeff if neg else coeff
        prev = terms.get(mono, Fraction(0)) + c
        if prev:
            terms[mono] = prev
        else:
            terms.pop(mono, None)
    return Polynomial(_raw=terms)


def poly_to_json(p: Polynomial) -> list:
    """Bit-exact JSON form: list of ({var: exp}, numerator, denominator)."""
    out = []
    for m, c in p.sorted_terms():
        out.append([{v.name: e for v, e in m}, str(c.numerator), str(c.denominator)])
    return out


def poly_from_json(data: Iterable) -> Polynomial:
    """Inverse of `poly_to_json`; an exponent below 1, a zero numerator or a
    zero denominator raises ValueError."""
    terms: Dict[Monomial, Fraction] = {}
    for expmap, num, den in data:
        mono = sorted(((parse_variable(name), _exponent(e, name)) for name, e in expmap.items()),
                      key=lambda pair: pair[0].key)
        if not int(num) or not int(den):
            raise ValueError(f"zero numerator or denominator: {num}/{den}")
        terms[tuple(mono)] = Fraction(int(num), int(den))
    return Polynomial(_raw=terms)


def _exponent(text, name: str) -> int:
    e = int(text)
    if e < 1:
        raise ValueError(f"exponent {e} of {name} is below 1")
    return e


def content(p: Polynomial) -> Fraction:
    """The positive rational content (gcd of coefficients), 0 for zero."""
    den, num = clear_denominators(p.terms)
    return Fraction(gcd(*num.values()), den)


def primitive_part(p: Polynomial) -> Polynomial:
    """p divided by its content; sign fixed so the grevlex-leading coeff > 0."""
    if not p.terms:
        return p
    c = content(p)
    q = p * (1 / c)
    if q.terms[grevlex.leading_monomial(q)] < 0:
        q = -q
    return q


def proportional(p: Polynomial, q: Polynomial) -> bool:
    """True when p = r * q for a nonzero rational r (or both are zero)."""
    if not p.terms or not q.terms:
        return not p.terms and not q.terms
    if len(p.terms) != len(q.terms):
        return False
    m = next(iter(p.terms))
    cq = q.terms.get(m)
    if not cq:
        return False
    r = p.terms[m] / cq
    return all(q.terms.get(mm) is not None and p.terms[mm] == r * q.terms[mm] for mm in p.terms)


def signed_permutations(k: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Every permutation of range(k) with its sign, by the inversion count."""
    for perm in permutations(range(k)):
        yield perm, -1 if sum(starmap(gt, combinations(perm, 2))) % 2 else 1


def determinant(entries: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Leibniz expansion of det(entries[r][c]): for each permutation, the
    signed product of entries[r][perm[r]] taken in row order."""
    k = len(entries)
    acc: Dict[Monomial, Fraction] = {}
    for perm, sign in signed_permutations(k):
        term = Polynomial.constant(sign)
        for r in range(k):
            term = term * entries[r][perm[r]]
        for m, c in term.terms.items():
            acc[m] = acc.get(m, 0) + c
    return Polynomial(_raw={m: c for m, c in acc.items() if c})
