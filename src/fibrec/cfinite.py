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

    coeffs are the negated non-leading coefficients of the monic char_poly;
    its constant coefficient is always +-1 for nonzero sequences, which is
    what makes backward extension (and the integrality decision) exact.
    """

    order: int
    coeffs: tuple[int, ...]
    char_poly: Poly
    initial: tuple[Fraction, ...]

    def extend(self, count: int, direction: str = "forward") -> list[Fraction]:
        """Next values past the initial segment, forward or backward.

        forward: w_m ... w_{m+count-1}; backward: w_{-1} ... w_{-count},
        obtained by solving for the trailing term (exact because the
        trailing coefficient is a unit).
        """
        if count < 1:
            raise ValueError("count must be positive")
        m = self.order
        window = deque((Fraction(v) for v in self.initial), maxlen=m)
        out: list[Fraction] = []
        if direction == "forward":
            for _ in range(count):
                out.append(self._combine(window))
                window.append(out[-1])
        elif direction == "backward":
            if m < 1:
                raise ValueError("backward extension needs order >= 1")
            tail = self.coeffs[-1]
            if tail not in (1, -1):
                raise InvariantViolation(f"trailing recurrence coefficient {tail} is not a unit")
            for _ in range(count):
                # the newest value minus its other terms leaves tail*w_{oldest-1}
                newest = window.pop()
                out.append((newest - self._combine(window)) / tail)
                window.appendleft(out[-1])
        else:
            raise ValueError(f"unknown direction {direction!r}")
        return out

    def _combine(self, window: deque[Fraction]) -> Fraction:
        """sum_k coeffs[k-1]*w_{n-k}, for a window ending in w_{n-1}."""
        return sum((c * w for c, w in zip(self.coeffs, reversed(window))), Fraction(0))

    def holds_for(self, expr: FibExpr, lo: int, hi: int) -> bool:
        """Check w_n = sum_k coeffs[k-1]*w_{n-k} exactly for every n in [lo, hi]."""
        if lo > hi:
            raise ValueError("empty verification range")
        window: deque[Fraction] = deque(maxlen=self.order)  # w_{n-m} .. w_{n-1}
        for n, v in expr.canon().values(lo - self.order, hi):
            if n >= lo and v != self._combine(window):
                return False
            window.append(v)
        return True


def to_recurrence(expr: FibExpr) -> Recurrence:
    """Order, recurrence coefficients and initial values of an expression."""
    form = expr.canon()
    cp = char_poly(form)
    m = cp.degree  # char_poly is never the zero polynomial
    coeffs = tuple(int(-cp.coeffs[m - k]) for k in range(1, m + 1))
    initial = tuple(v for _, v in form.values(0, m - 1))
    return Recurrence(m, coeffs, cp, initial)


def verify_recurrence(expr: FibExpr, lo: int, hi: int) -> bool:
    """Derive the recurrence of expr and check it on [lo, hi] by evaluation."""
    return to_recurrence(expr).holds_for(expr, lo, hi)
