"""Characteristic polynomials and integer recurrences for canonical forms."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .exact import Poly
from .seqform import CanonForm, FibExpr

FIB_CHAR = Poly((-1, -1, 1))  # x^2 - x - 1, the minimal polynomial of alpha


class InvariantViolation(Exception):
    """An internal structural guarantee was broken (a library bug if raised)."""


def char_poly(form: CanonForm) -> Poly:
    """Monic integer characteristic polynomial of the sequence.

    (x^2-x-1)^(D+1) where D = max(deg P0, deg P1), times (x-1) when the
    constant part is nonzero and (x+1) when the alternating part is.  The
    Fibonacci factor is omitted entirely when P0 and P1 both vanish, and
    the zero sequence gets the constant polynomial 1.
    """
    out = Poly((1,))
    d = form.fib_degree
    if d is not None:
        out = out * FIB_CHAR ** (d + 1)
    if form.const_e:
        out = out * Poly((-1, 1))
    if form.alt_f:
        out = out * Poly((1, 1))
    return out


@dataclass(frozen=True)
class Recurrence:
    """w_n = coeffs[0]*w_{n-1} + ... + coeffs[m-1]*w_{n-m}, with w_0..w_{m-1}.

    order and coeffs are read off the monic char_poly: its degree, and its
    negated non-leading coefficients.  Its constant coefficient is always
    +-1 for nonzero sequences, which is what makes backward extension (and
    the integrality decision) exact.
    """

    char_poly: Poly
    initial: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return self.char_poly.degree  # char_poly is never the zero polynomial

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(-c) for c in reversed(self.char_poly.coeffs[:-1]))

    def extend(self, count: int, direction: str = "forward") -> list[Fraction]:
        """Next values past the initial segment, forward or backward.

        forward: w_m ... w_{m+count-1}; backward: w_{-1} ... w_{-count},
        obtained by solving for the trailing term (exact because the
        trailing coefficient is a unit).
        """
        if count < 1:
            raise ValueError("count must be positive")
        m, coeffs = self.order, self.coeffs
        window = deque((Fraction(v) for v in self.initial), maxlen=m)
        out: list[Fraction] = []
        if direction == "forward":
            for _ in range(count):
                out.append(_combine(coeffs, window))
                window.append(out[-1])
        elif direction == "backward":
            if m < 1:
                raise ValueError("backward extension needs order >= 1")
            tail = coeffs[-1]
            if tail not in (1, -1):
                raise InvariantViolation(f"trailing recurrence coefficient {tail} is not a unit")
            for _ in range(count):
                # the newest value minus its other terms leaves tail*w_{oldest-1}
                newest = window.pop()
                out.append((newest - _combine(coeffs, window)) / tail)
                window.appendleft(out[-1])
        else:
            raise ValueError(f"unknown direction {direction!r}")
        return out

    def holds_for(self, expr: FibExpr, lo: int, hi: int) -> bool:
        """Check w_n = sum_k coeffs[k-1]*w_{n-k} exactly for every n in [lo, hi]."""
        if lo > hi:
            raise ValueError("empty verification range")
        m, coeffs = self.order, self.coeffs
        window: deque[Fraction] = deque(maxlen=m)  # w_{n-m} .. w_{n-1}
        for n, v in expr.canon().values(lo - m, hi):
            if n >= lo and v != _combine(coeffs, window):
                return False
            window.append(v)
        return True


def _combine(coeffs: tuple[int, ...], window: deque[Fraction]) -> Fraction:
    """sum_k coeffs[k-1]*w_{n-k}, for a window ending in w_{n-1}."""
    return sum((c * w for c, w in zip(coeffs, reversed(window))), Fraction(0))


def to_recurrence(expr: FibExpr) -> Recurrence:
    """Characteristic polynomial and initial values of an expression."""
    form = expr.canon()
    cp = char_poly(form)
    return Recurrence(cp, tuple(v for _, v in form.values(0, cp.degree - 1)))
