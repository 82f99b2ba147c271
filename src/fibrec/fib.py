"""Fibonacci numbers over all integer indices, and the shift identity's coefficients.

``fib`` reads ``fib_pair``, and ``shift_coeffs`` reads ``fib``; both return
ints, which callers scale by ``Poly`` coefficients (``int`` or ``Fraction``),
so the library never leaves the rationals.  ``fib_pair`` works in the type of
its ``one``: the CLI passes ``Decimal(1)`` under an exact context, so the
numbers it prints are never long ints, which CPython turns into text in
quadratic time.

``fib_pair`` doubles with two squarings per bit of the index (Takahashi 2000;
GMP's ``mpz_fib2_ui``), walking (F(k-1), F(k)) over the prefixes k of its bits:

    F(2k+1) = 4*F(k)^2 - F(k-1)^2 + 2*(-1)^k
    F(2k-1) = F(k)^2 + F(k-1)^2
    F(2k)   = F(2k+1) - F(2k-1)
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=4, typed=True)  # typed: Decimal(1) == 1, and the two hash alike
def fib_pair(n: int, one=1) -> tuple:
    """(F(n), F(n+1)) for any integer n, in the type of `one`: the one
    fast-doubling loop.  A negative index is mapped by F(-m) = (-1)^(m+1) * F(m),
    as ``seqform._reflected`` maps a combination of two Fibonacci numbers.
    A Decimal `one` needs an exact context.
    The last four are kept: ``canon`` and an int window at lo = 0 ask for the same."""
    m = n if n >= 0 else -n - 1
    a, b, sign = one, one - one, 2  # (F(k-1), F(k)) and 2*(-1)^k, from k = 0
    for bit in bin(m)[2:]:
        aa, bb = a * a, b * b
        up, down = 4 * bb - aa + sign, aa + bb  # F(2k+1), F(2k-1)
        if bit == "1":
            a, b, sign = up - down, up, -2
        else:
            a, b, sign = down, up - down, 2
    a, b = b, a + b  # (F(m), F(m+1))
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
