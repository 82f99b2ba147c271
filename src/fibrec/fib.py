"""Fibonacci numbers over all integer indices, plus index-shift helpers.

Everything here is int arithmetic.  Callers scale these ints by ``Poly``
coefficients, which are ``int`` or ``Fraction``; nothing leaves the rationals.
"""

from __future__ import annotations


def _fib_pair(n: int) -> tuple[int, int]:
    # fast doubling: (F_n, F_{n+1}) for n >= 0
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "0":
            a, b = c, d
        else:
            a, b = d, c + d
    return a, b


def fib(n: int) -> int:
    """F_n for any integer n, with F_{-n} = (-1)^(n+1) * F_n."""
    if n >= 0:
        return _fib_pair(n)[0]
    v = _fib_pair(-n)[0]
    return v if n % 2 else -v


def shift_coeffs(j: int) -> tuple[int, int]:
    """Integers (cF, cF1) with F_{n-j} = cF*F_n + cF1*F_{n-1} for every n.

    cF = (-1)^j * F_{j-1} and cF1 = (-1)^(j+1) * F_j; valid for negative j
    as well, through the negative-index rule baked into fib().
    """
    sign = -1 if j % 2 else 1
    return sign * fib(j - 1), -sign * fib(j)
