"""Test oracle: the Binet split of a FibExpr over Q(sqrt(5)).

With alpha, beta = (1 +- sqrt(5))/2, F(n) = (alpha^n - beta^n)/(alpha - beta),
so the Fibonacci part of an expression is q_alpha(n)*alpha^n + q_beta(n)*beta^n.
Everything here is independent of the library's evaluator: the split is read
off the expression term by term (no canonical form, no shift identity), and
root powers come from square-and-multiply in Q(sqrt(5)), not from fib().
Coefficient polynomials are plain tuples of ``QuadRat``, ascending by degree
with trailing zeros stripped, so no library ``Poly`` arithmetic is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fibrec import FibExpr


@dataclass(frozen=True, eq=False)
class QuadRat:
    """An element r + s*sqrt(5) of Q(sqrt(5)); rationals embed with s = 0."""

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
            return QuadRat(x)
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
        return self + -other

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


ALPHA = QuadRat(Fraction(1, 2), Fraction(1, 2))
BETA = QuadRat(Fraction(1, 2), Fraction(-1, 2))
SQRT5 = QuadRat(0, 1)


def root_pow(root: QuadRat, n: int) -> QuadRat:
    """root**n by square-and-multiply, for root alpha or beta and any integer n.

    Both roots satisfy x^2 = x + 1, so 1/root = root - 1 for negative n.
    """
    base = root if n >= 0 else root - 1
    out = QuadRat(1)
    n = abs(n)
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _strip(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _half(expr: FibExpr, root: QuadRat, other: QuadRat) -> tuple:
    # p(n)*F(n-j) puts p(n)*root^(-j)/(root - other) on root^n, and
    # (root - other)^2 = 5 gives 1/(root - other) = (root - other)/5
    coeffs: list = []
    for t in expr.terms:
        scale = root_pow(root, -t.shift) * (root - other) * Fraction(1, 5)
        coeffs += [QuadRat(0)] * (len(t.poly.coeffs) - len(coeffs))
        for i, c in enumerate(t.poly.coeffs):
            coeffs[i] = coeffs[i] + c * scale
    return _strip(coeffs)


def binet(expr: FibExpr) -> tuple[tuple, tuple]:
    """(q_alpha, q_beta): the coefficient polynomials of alpha^n and beta^n.

    The constant and alternating parts are left out; they are const_e and
    alt_f of the expression.
    """
    return _half(expr, ALPHA, BETA), _half(expr, BETA, ALPHA)


def degree(q: tuple) -> int | None:
    return len(q) - 1 if q else None


def horner(q: tuple, n: int) -> QuadRat:
    acc = QuadRat(0)
    for c in reversed(q):
        acc = acc * n + c
    return acc


def conj_poly(q: tuple) -> tuple:
    return tuple(c.conj() for c in q)


def fib_part_at(split: tuple[tuple, tuple], n: int) -> QuadRat:
    """q_alpha(n)*alpha^n + q_beta(n)*beta^n for split = binet(expr), exactly."""
    q_alpha, q_beta = split
    return horner(q_alpha, n) * root_pow(ALPHA, n) + horner(q_beta, n) * root_pow(BETA, n)
