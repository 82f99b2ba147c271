"""Characteristic polynomials and integer recurrences for canonical forms.

A ``Recurrence`` only holds values; ``CanonForm.values`` evaluates the sequence.
The initial window w_0..w_{m-1} is stepped once per form: ``to_recurrence``
and the integrality verdict (``decide``) both read it through
``_initial_window``, which keeps the finished window on the form and computes
``char_poly`` only for a finished window: a verdict may stop at its witness.

``char_poly`` reads the coefficients p_m of P = (x^2-x-1)^k, k = D+1, off
(x^2-x-1)*P' = k*(2x-1)*P: at x^m, (m+1)*p_{m+1} = (m-1-2k)*p_{m-1} +
(k-m)*p_m, from p_0 = (-1)^k and p_{-1} = 0, each division exact (Kauers and
Paule, The Concrete Tetrahedron, ch. 7).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from ._value import Value
from .exact import Poly
from .seqform import CanonForm, FibExpr


def char_poly(form: CanonForm) -> Poly:
    """Monic integer characteristic polynomial of the sequence.

    (x^2-x-1)^(D+1) with D = max(deg P0, deg P1), left out when both vanish;
    times x-1 when e != 0 and x+1 when f != 0.  The zero sequence gets 1.
    """
    k, e, f = _exponents(form)
    p = [-1 if k % 2 else 1]
    for m in range(2 * k):
        p.append(((m - 1 - 2 * k) * (p[m - 1] if m else 0) + (k - m) * p[m]) // (m + 1))
    for sign in (-1,) * e + (1,) * f:  # times x - 1, then x + 1: a shifted difference, a sum
        p = [a + sign * b for a, b in zip([0] + p, p + [0])]
    return Poly(tuple(p))


def _exponents(form: CanonForm) -> tuple[int, bool, bool]:
    """(D+1, e != 0, f != 0): ``char_poly``'s powers of x^2-x-1, x-1 and x+1."""
    d = form.fib_degree
    return 0 if d is None else d + 1, bool(form.const_e), bool(form.alt_f)


class Recurrence(Value):
    """w_n = coeffs[0]*w_{n-1} + ... + coeffs[m-1]*w_{n-m}, with w_0..w_{m-1}.

    order and coeffs are read off the monic char_poly: its degree, and its
    negated non-leading coefficients.  Its constant coefficient is +-1 for
    nonzero sequences, so it also runs backward with integer coefficients:
    integer initial values give an integer sequence on all of Z.
    """

    char_poly: Poly
    initial: tuple[Fraction, ...]

    def __init__(self, char_poly: Poly, initial: tuple[Fraction, ...]) -> None:
        self.__dict__.update(char_poly=char_poly, initial=initial)

    @property
    def order(self) -> int:
        return self.char_poly.degree  # char_poly is never the zero polynomial

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(int(-c) for c in reversed(self.char_poly.coeffs[:-1]))


def _initial_window(form: CanonForm) -> Iterator[tuple[int, Fraction]]:
    """Yield (n, w_n) for n = 0..order-1, stepping each form's window once.

    The order 2(D+1) + [e!=0] + [f!=0] is read off the form.  A scan that
    reaches the end keeps Recurrence(char_poly, values) in the form's
    ``__dict__``, beside its cached ``_scaled`` and, like it, not a field; later
    scans read the values from there.  A scan stopped early, such as an
    integrality verdict at its witness, raises no ``char_poly`` and keeps
    nothing.  So this memo is written by hand: a ``functools`` cache holds only
    a finished value, and would step the whole window before a verdict stopped.
    """
    rec = form.__dict__.get("_window_memo")
    if rec is not None:
        yield from enumerate(rec.initial)
        return
    k, e, f = _exponents(form)
    initial = []
    for n, v in form.values(0, 2 * k + e + f - 1):
        initial.append(v)
        yield n, v
    form.__dict__["_window_memo"] = Recurrence(char_poly(form), tuple(initial))


def to_recurrence(expr: FibExpr) -> Recurrence:
    """Characteristic polynomial and initial values of an expression.

    Derived once per canonical form (``_initial_window``); a second call
    returns the same Recurrence.
    """
    form = expr.canon()
    for _ in _initial_window(form):
        pass
    return form._window_memo
