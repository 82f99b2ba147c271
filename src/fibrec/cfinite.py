"""Characteristic polynomials and integer recurrences for canonical forms.

A ``Recurrence`` only holds values; ``CanonForm.values`` evaluates the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Poly
from .seqform import CanonForm, FibExpr

FIB_CHAR = Poly((-1, -1, 1))  # x^2 - x - 1, the minimal polynomial of alpha


def char_poly(form: CanonForm) -> Poly:
    """Monic integer characteristic polynomial of the sequence.

    (x^2-x-1)^(D+1) with D = max(deg P0, deg P1), left out when both vanish;
    times x-1 when e != 0 and x+1 when f != 0.  The zero sequence gets 1.
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
    negated non-leading coefficients.  Its constant coefficient is +-1 for
    nonzero sequences, so it also runs backward with integer coefficients:
    integer initial values give an integer sequence on all of Z.
    """

    char_poly: Poly
    initial: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return self.char_poly.degree  # char_poly is never the zero polynomial

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(-c) for c in reversed(self.char_poly.coeffs[:-1]))


def to_recurrence(expr: FibExpr) -> Recurrence:
    """Characteristic polynomial and initial values of an expression."""
    form = expr.canon()
    cp = char_poly(form)
    return Recurrence(cp, tuple(v for _, v in form.values(0, cp.degree - 1)))
