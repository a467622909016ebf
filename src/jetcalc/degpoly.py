"""Exact univariate polynomials in the hypersurface degree d."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .polyring import exact, format_terms

Scalar = Union[int, Fraction]


class DegreePolynomial:
    """Dense exact-rational polynomial in d; canonical (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c: Scalar) -> "DegreePolynomial":
        return DegreePolynomial([c])

    @staticmethod
    def d() -> "DegreePolynomial":
        return DegreePolynomial([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, DegreePolynomial):
            return self.coeffs == other.coeffs
        return self.coeffs == DegreePolynomial([other]).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "DegreePolynomial":
        if not isinstance(other, DegreePolynomial):
            other = DegreePolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return DegreePolynomial([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "DegreePolynomial":
        return DegreePolynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "DegreePolynomial":
        return self + (-other)

    def __rsub__(self, other) -> "DegreePolynomial":
        return DegreePolynomial([other]) - self

    def __mul__(self, other) -> "DegreePolynomial":
        if not isinstance(other, DegreePolynomial):
            other = DegreePolynomial([other])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return DegreePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DegreePolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = DegreePolynomial([1])
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x: Scalar) -> Fraction:
        x = exact(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return format_terms(((c, "" if k == 0 else "d" if k == 1 else f"d^{k}")
                             for k, c in reversed(list(enumerate(self.coeffs))) if c), " ")

    def __repr__(self) -> str:
        return f"DegreePolynomial({self})"
