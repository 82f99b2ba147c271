"""Exact arithmetic kernel: rationals, Q(sqrt(5)) elements, dense polynomials.

Rational numbers are ``fractions.Fraction`` throughout (always reduced,
positive denominator, zero is 0/1).  ``QuadRat`` models r + s*sqrt(5) with
rational components: the ring operations +, - and * plus conjugation, which
is what splitting a sequence over alpha and beta needs; there is no division.
``Poly`` is a dense univariate polynomial that is generic in its coefficient
type: int, Fraction and QuadRat all work because the only operations used
are +, *, unary - and comparison with zero.

No floating point appears anywhere; every operation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True, eq=False, repr=False)
class QuadRat:
    """An element r + s*sqrt(5) of Q(sqrt(5)), with ring operations only.

    Equality is componentwise (and accepts plain rationals, which embed as
    s = 0); the conjugate flips the sign of s, exchanging alpha and beta.
    """

    r: Fraction
    s: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "s", Fraction(self.s))

    @staticmethod
    def _lift(x: object) -> "QuadRat | None":
        if isinstance(x, QuadRat):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadRat(Fraction(x))
        return None

    def conj(self) -> "QuadRat":
        return QuadRat(self.r, -self.s)

    def __add__(self, other: object) -> "QuadRat":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.r + o.r, self.s + o.s)

    __radd__ = __add__

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.r, -self.s)

    def __sub__(self, other: object) -> "QuadRat":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.r - o.r, self.s - o.s)

    def __mul__(self, other: object) -> "QuadRat":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.r * o.r + 5 * self.s * o.s, self.r * o.s + self.s * o.r)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.r or self.s)

    def __eq__(self, other: object) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.r == o.r and self.s == o.s

    def __hash__(self) -> int:
        return hash(self.r) if not self.s else hash((self.r, self.s))

    def __repr__(self) -> str:
        return f"QuadRat({self.r}, {self.s})"


INV_SQRT5 = QuadRat(0, Fraction(1, 5))
ALPHA = QuadRat(Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, coefficients ascending by degree.

    The zero polynomial is the empty tuple and its degree is None ("absent"):
    callers must branch on that explicitly instead of relying on a numeric
    sentinel.  Trailing zero coefficients are stripped on construction, so
    structural equality of the coefficient tuples is polynomial equality.
    """

    coeffs: tuple = ()

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        while c and not c[-1]:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, n):
        """Evaluate at n by Horner's rule (exact for any exact scalar n)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        return Poly(merged)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly(tuple(c * other for c in self.coeffs))

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomial powers must be non-negative")
        out = Poly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def taylor_shift(self, k) -> "Poly":
        """Return p(x + k) expanded exactly (binomial expansion via Horner)."""
        shifted = Poly(())
        step = Poly((k, 1))
        for c in reversed(self.coeffs):
            shifted = shifted * step + Poly((c,))
        return shifted

    def map_coeffs(self, fn: Callable) -> "Poly":
        return Poly(tuple(fn(c) for c in self.coeffs))

