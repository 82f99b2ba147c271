"""Characteristic polynomials and integer recurrences for canonical forms.

One stepping loop, ``_steps``, gives every recurrence value: ``extend`` in
both directions and ``holds_for`` read it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

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

        forward: w_m ... w_{m+count-1}; backward: w_{-1} ... w_{-count}, the
        forward values of the reflected recurrence: x^m*p(1/x) over its
        leading coefficient (a unit, so it stays integral), started from the
        initial values reversed.
        """
        if count < 1:
            raise ValueError("count must be positive")
        if direction == "backward":
            if self.order < 1:
                raise ValueError("backward extension needs order >= 1")
            tail = self.coeffs[-1]
            if tail not in (1, -1):
                raise InvariantViolation(f"trailing recurrence coefficient {tail} is not a unit")
            # x^m*p(1/x) = 1 - c_1*x - ... - c_m*x^m; dividing by the unit -c_m multiplies by it
            reflected = Poly((1, *(-c for c in self.coeffs))) * -tail
            return Recurrence(reflected, self.initial[::-1]).extend(count)
        if direction != "forward":
            raise ValueError(f"unknown direction {direction!r}")
        return list(islice(_steps(self.coeffs, self.initial), count))

    def holds_for(self, expr: FibExpr, lo: int, hi: int) -> bool:
        """Check w_n = sum_k coeffs[k-1]*w_{n-k} exactly for every n in [lo, hi]."""
        if lo > hi:
            raise ValueError("empty verification range")
        # seed the steps with w_{lo-m}..w_{lo-1}, read before zip takes w_lo on;
        # each step then predicts w_n from true values up to the first mismatch
        values = (v for _, v in expr.canon().values(lo - self.order, hi))
        steps = _steps(self.coeffs, tuple(islice(values, self.order)))
        return all(v == w for v, w in zip(values, steps))


def _steps(coeffs: tuple[int, ...], initial: Iterable) -> Iterator[Fraction]:
    """w_m, w_{m+1}, ... of w_n = sum_k coeffs[k-1]*w_{n-k}, from w_0..w_{m-1}."""
    window = deque(map(Fraction, initial), maxlen=len(coeffs))  # w_{n-m} .. w_{n-1}
    while True:
        w = sum((c * v for c, v in zip(coeffs, reversed(window))), Fraction(0))
        window.append(w)
        yield w


def to_recurrence(expr: FibExpr) -> Recurrence:
    """Characteristic polynomial and initial values of an expression."""
    form = expr.canon()
    cp = char_poly(form)
    return Recurrence(cp, tuple(v for _, v in form.values(0, cp.degree - 1)))
