"""Exact arithmetic kernel: rationals and dense polynomials.

Rational numbers are ``fractions.Fraction`` throughout (always reduced,
positive denominator, zero is 0/1).  ``Poly`` is a dense univariate
polynomial whose coefficients are ``int`` or ``Fraction``.

No floating point appears anywhere; every operation is exact.
"""

from __future__ import annotations

from ._value import Value


class Poly(Value):
    """Dense univariate polynomial, coefficients ascending by degree.

    The zero polynomial is the empty tuple and its degree is None ("absent"):
    callers must branch on that explicitly instead of relying on a numeric
    sentinel.  Trailing zero coefficients are stripped on construction, so
    structural equality of the coefficient tuples is polynomial equality.
    """

    coeffs: tuple

    def __init__(self, coeffs: tuple = ()) -> None:
        c = tuple(coeffs)
        end = len(c)
        while end and not c[end - 1]:  # one slice: stripping one zero at a time is quadratic
            end -= 1
        self.__dict__["coeffs"] = c[:end]

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
