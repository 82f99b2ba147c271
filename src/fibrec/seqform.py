"""Sequences written as rational-polynomial combinations of Fibonacci numbers.

A ``FibExpr`` is a finite formal sum

    sum_i  p_i(n) * F(n - j_i)  +  e  +  f * (-1)**n

with polynomials p_i (``Poly`` with int or Fraction coefficients), integer
shifts j_i (negative shifts, i.e. F(n+k), are first class) and rational
constants e, f.  Every shift can be eliminated with the identity

    F(n-j) = F(1-j) * F(n) + F(-j) * F(n-1),

which reduces any expression to the canonical form
P0(n)*F(n) + P1(n)*F(n-1) + e + f*(-1)^n.  Two expressions describe the
same sequence exactly when their canonical forms are componentwise equal.

Every value comes from one loop, ``_numerators``: over the common denominator
of the form's coefficients, w_n is an integer combination of (F(n), F(n-1)),
a pair that steps by one addition from one ``fib_pair`` seed.
``CanonForm.values(lo, hi)`` runs it on ints.

An expression is canonicalized once: ``FibExpr.canon`` keeps its form, and
``CanonForm._scaled`` its cleared denominators, in the instance ``__dict__``.
Neither memo is a field, so ``==``, ``hash`` and ``repr`` do not see it; both
classes are frozen, so a memo never goes stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .exact import Poly
from .fib import fib_pair, shift_coeffs


@dataclass(frozen=True)
class ShiftTerm:
    """One summand p(n) * F(n - shift); the polynomial is never zero."""

    shift: int
    poly: Poly


@dataclass(frozen=True)
class FibExpr:
    """Normalized expression: terms sorted by strictly increasing shift."""

    terms: tuple[ShiftTerm, ...] = ()
    const_e: Fraction = Fraction(0)
    alt_f: Fraction = Fraction(0)

    @staticmethod
    def of(terms: Iterable = (), const=0, alt=0) -> "FibExpr":
        """Build a normalized expression from (shift, poly) pairs.

        Polynomials may be given as Poly instances, coefficient sequences in
        ascending degree, or bare scalars; duplicate shifts are merged and
        zero terms dropped.
        """
        acc: dict[int, Poly] = {}
        for shift, p in terms:
            if not isinstance(p, Poly):
                p = Poly(tuple(p)) if isinstance(p, (list, tuple)) else Poly((p,))
            shift = int(shift)
            acc[shift] = acc[shift] + p if shift in acc else p
        kept = tuple(ShiftTerm(s, q) for s, q in sorted(acc.items()) if q)
        return FibExpr(kept, Fraction(const), Fraction(alt))

    def at(self, n: int) -> Fraction:
        """Exact value of the sequence at index n (any integer)."""
        return next(self.canon().values(n, n))[1]

    def __add__(self, other: "FibExpr") -> "FibExpr":
        if not isinstance(other, FibExpr):
            return NotImplemented
        return FibExpr.of(
            [(t.shift, t.poly) for t in self.terms + other.terms],
            self.const_e + other.const_e,
            self.alt_f + other.alt_f,
        )

    def __neg__(self) -> "FibExpr":
        return self * -1

    def __sub__(self, other: "FibExpr") -> "FibExpr":
        if not isinstance(other, FibExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "FibExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        r = Fraction(scalar)
        return FibExpr.of(
            [(t.shift, t.poly * r) for t in self.terms],
            self.const_e * r,
            self.alt_f * r,
        )

    __rmul__ = __mul__

    def shifted(self, k: int) -> "FibExpr":
        """The reindexed sequence n -> self(n + k)."""
        alt = self.alt_f if k % 2 == 0 else -self.alt_f
        return FibExpr.of(
            [(t.shift - k, t.poly.taylor_shift(k)) for t in self.terms],
            self.const_e,
            alt,
        )

    def canon(self) -> "CanonForm":
        """Collapse every shift onto the F(n), F(n-1) basis.

        Computed once per expression and kept in its ``__dict__``; the memo
        is not a field, so it takes no part in equality, hashing or repr.
        """
        form = self.__dict__.get("_canon_memo")
        if form is not None:
            return form
        p0 = Poly(())
        p1 = Poly(())
        for t in self.terms:
            c_f, c_f1 = shift_coeffs(t.shift)
            p0 = p0 + t.poly * c_f
            p1 = p1 + t.poly * c_f1
        form = self.__dict__["_canon_memo"] = CanonForm(p0, p1, self.const_e, self.alt_f)
        return form


@dataclass(frozen=True)
class CanonForm:
    """The reduced shape P0(n)*F(n) + P1(n)*F(n-1) + e + f*(-1)^n.

    Componentwise equality of canonical forms is equality of sequences.
    """

    p0: Poly
    p1: Poly
    const_e: Fraction
    alt_f: Fraction

    @property
    def fib_degree(self) -> int | None:
        """max(deg P0, deg P1), or None when the Fibonacci part vanishes."""
        d0, d1 = self.p0.degree, self.p1.degree
        if d0 is None:
            return d1
        if d1 is None:
            return d0
        return max(d0, d1)

    def _scaled(self) -> tuple[int, Poly, Poly, int, int]:
        """(L, L*P0, L*P1, L*e, L*f), with L the common denominator of the
        form's coefficients, so every part is an int.  Computed once per
        form, like ``FibExpr.canon``."""
        scaled = self.__dict__.get("_scaled_memo")
        if scaled is not None:
            return scaled
        parts = self.p0.coeffs + self.p1.coeffs + (self.const_e, self.alt_f)
        den = math.lcm(*(Fraction(c).denominator for c in parts))
        q0, q1 = (Poly(tuple(int(c * den) for c in p.coeffs)) for p in (self.p0, self.p1))
        scaled = self.__dict__["_scaled_memo"] = (
            den, q0, q1, int(self.const_e * den), int(self.alt_f * den))
        return scaled

    def values(self, lo: int, hi: int) -> Iterator[tuple[int, Fraction]]:
        """Yield (n, w_n) for n = lo..hi, exactly; nothing when lo > hi."""
        den, q0, q1, e, f = self._scaled()
        for n, num in _numerators(q0, q1, e, f, fib_pair(lo - 1), lo, hi):
            yield n, Fraction(num, den)


def _numerators(q0: Poly, q1: Poly, e, f, seed, lo: int, hi: int) -> Iterator[tuple]:
    """Yield (n, L*w_n) for n = lo..hi: the one evaluation loop.

    (q0, q1, e, f) is a form scaled by L (``CanonForm._scaled``) and seed is
    (F(lo-1), F(lo)).  The loop works in the number type it is given: ints
    for ``CanonForm.values``, a Decimal seed for the values the CLI prints.
    """
    fn1, fn = seed
    for n in range(lo, hi + 1):
        yield n, q0(n) * fn + q1(n) * fn1 + (e - f if n % 2 else e + f)
        fn, fn1 = fn + fn1, fn
