"""Integrality decision: a certificate of initial values, or a witness index."""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .cfinite import _initial_window
from .seqform import FibExpr


class Integral(Value):
    """The sequence is integer at every n; the certificate is w_0..w_{m-1}."""

    certificate: tuple[int, ...]

    def __init__(self, certificate: tuple[int, ...]) -> None:
        self.__dict__["certificate"] = certificate


class NonIntegral(Value):
    """A concrete non-integer value; witness_n is the least such index >= 0."""

    witness_n: int
    value: Fraction

    def __init__(self, witness_n: int, value: Fraction) -> None:
        self.__dict__.update(witness_n=witness_n, value=value)


Verdict = Integral | NonIntegral


def is_integer_sequence(expr: FibExpr) -> Verdict:
    """Decide whether the expression is integer-valued over all of Z.

    The derived recurrence is monic with unit trailing coefficient, so an
    integer initial segment w_0..w_{m-1} propagates to every integer index
    in both directions; checking those m values is a complete decision.
    They are stepped one at a time, and the scan stops at the least
    non-integer index, so a witness at n costs n + 1 values, not m.  The
    window is the one ``to_recurrence`` derives: after either has run to the
    end, the other steps no value.
    """
    certificate = []
    for n, v in _initial_window(expr.canon()):
        if v.denominator != 1:
            return NonIntegral(n, v)
        certificate.append(v.numerator)
    return Integral(tuple(certificate))
