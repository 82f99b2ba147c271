"""Fibonacci numbers over all integer indices, and the shift identity's coefficients.

Everything here is int arithmetic: ``fib`` reads ``fib_pair``, and
``shift_coeffs`` reads ``fib``.  Callers scale these ints by ``Poly``
coefficients, which are ``int`` or ``Fraction``; nothing leaves the rationals.
"""

from __future__ import annotations


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for any integer n: the one fast-doubling loop, and the
    one place a negative index is mapped, by F(-m) = (-1)^(m+1) * F(m)."""
    a, b = 0, 1
    # fast doubling to (F(m), F(m+1)), with m = -n-1 below zero
    for bit in bin(n if n >= 0 else -n - 1)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "0":
            a, b = c, d
        else:
            a, b = d, c + d
    if n >= 0:
        return a, b
    return (b, -a) if n % 2 else (-b, a)


def fib(n: int) -> int:
    """F(n) for any integer n."""
    return fib_pair(n)[0]


def shift_coeffs(j: int) -> tuple[int, int]:
    """Integers (cF, cF1) with F(n-j) = cF*F(n) + cF1*F(n-1) for every n and j.

    They are F(1-j) and F(-j), by the addition formula.
    """
    return fib(1 - j), fib(-j)
