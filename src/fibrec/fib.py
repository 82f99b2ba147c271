"""Fibonacci numbers over all integer indices, and the one kernel of Z[phi].

A pair (a, b) is a*phi + b, phi^2 = phi + 1, and ``fib_pair(n)`` is phi^n =
F(n)*phi + F(n-1), so a*F(m+1) + b*F(m) is the phi coefficient of
(a*phi + b)*phi^m.  ``_times`` multiplies pairs, ``_trace`` reads a Lucas number
off one, and ``_powers``, ``_phi_read`` and ``_phi_sum`` carry and read them.
``fib`` and ``shift_coeffs`` return ints, which callers scale by ``Poly``
coefficients (``int`` or ``Fraction``), so the library never leaves the
rationals.  ``fib_pair`` and ``_powers`` work in the type of their ``one``: the
CLI passes ``Decimal(1)`` under an exact context, so the numbers it prints are
never long ints, which CPython turns into text in quadratic time.

``fib_pair`` doubles with two squarings per bit of the index (Takahashi 2000;
GMP's ``mpz_fib2_ui``), walking (F(k-1), F(k)) over the prefixes k of its bits:

    F(2k+1) = 4*F(k)^2 - F(k-1)^2 + 2*(-1)^k
    F(2k-1) = F(k)^2 + F(k-1)^2
    F(2k)   = F(2k+1) - F(2k-1)
"""

from __future__ import annotations

from functools import lru_cache


def fib_pair(n: int, one=1) -> tuple:
    """phi^n = F(n)*phi + F(n-1) as (F(n), F(n-1)), for any integer n, in the
    type of `one`: the one fast-doubling loop.  A negative n doubles m = 1-n,
    whose (F(m-1), F(m)) = (F(-n), F(1-n)) gives it by F(-k) = (-1)^(k+1)*F(k).
    A Decimal `one` needs an exact context."""
    m = n if n >= 0 else 1 - n
    a, b, sign = one, one - one, 2  # (F(k-1), F(k)) and 2*(-1)^k, from k = 0
    for bit in bin(m)[2:]:
        aa, bb = a * a, b * b
        up, down = 4 * bb - aa + sign, aa + bb  # F(2k+1), F(2k-1)
        if bit == "1":
            a, b, sign = up - down, up, -2
        else:
            a, b, sign = down, up - down, 2
    if n >= 0:
        return b, a
    return (a, -b) if n % 2 else (-a, b)


def fib(n: int) -> int:
    """F(n) for any integer n."""
    return fib_pair(n)[0]


def shift_coeffs(j: int) -> tuple[int, int]:
    """Integers (cF, cF1) with F(n-j) = cF*F(n) + cF1*F(n-1) for every n and j:
    F(1-j) and F(-j), by the addition formula."""
    # not fib_pair(1 - j): eval_window calls fib only here, and bench/test_bench_smoke.py counts it
    return fib(1 - j), fib(-j)


def _times(x: tuple, y: tuple) -> tuple:
    """The product of x = (a, b) and y = (c, d), read as a*phi + b and c*phi + d."""
    (a, b), (c, d) = x, y
    ac = a * c
    return ac + a * d + b * c, ac + b * d


def _trace(x: tuple) -> int:
    """The trace a + 2b of x = (a, b), a*phi + b plus its conjugate: L(n) for phi^n."""
    return x[0] + 2 * x[1]


def _reflected(k: int, a: int, b: int) -> tuple[int, int, int]:
    """(m, p, q) with m >= 0 and p*F(m+1) + q*F(m) = a*F(k+1) + b*F(k): k itself,
    or m = -k-1 for k < 0, where F(-m) = (-1)^(m+1)*F(m) makes it (-1)^m*(b, -a)."""
    if k >= 0:
        return k, a, b
    m = -k - 1
    return (m, -b, a) if m % 2 else (m, b, -a)


def _phi_read(m: int, a: int, b: int) -> int:
    """a*F(m+1) + b*F(m) for m >= 0, the phi coefficient of (a*phi + b)*phi^m,
    by one doubling of half of m and one product of half-size ints.  An odd m
    first folds one phi into the pair: (a*phi + b)*phi = (a + b)*phi + a.  For
    m = 2k, phi^k has trace L(k) (``_trace``) and norm (-1)^k, so by
    Cayley-Hamilton phi^(2k) = L(k)*phi^k - (-1)^k, and the value is
    L(k)*(a*F(k+1) + b*F(k)) - (-1)^k*a."""
    if m % 2:
        a, b, m = a + b, a, m - 1
    k = m // 2
    f_k, f_down = power = fib_pair(k)  # F(k), F(k-1)
    return _trace(power) * ((a + b) * f_k + a * f_down) + (a if k % 2 else -a)


def _phi_sum(parts: list) -> int:
    """The sum of p*F(m+1) + q*F(m), the phi coefficient of (p*phi + q)*phi^m,
    over the (m, p, q), each m >= 0, where p = q = 0 costs nothing.  Walking
    down from the highest m, the pair summed so far is carried onto the next
    lower index m' when 4*(m - m') <= m', by one product with phi^(m-m'): a
    doubling of m - m' and products by F(m - m') then cost less than a doubling
    of m.  Each group so carried is read at its lowest index by ``_phi_read``:
    one doubling of half that index and one product."""
    ordered = sorted((part for part in parts if part[1] or part[2]), reverse=True)
    ordered.append((-1, 0, 0))  # which reads the last group
    total, (top, a, b) = 0, ordered[0]
    for m, p, q in ordered[1:]:
        if 4 * (top - m) <= m:
            a, b = _times((a, b), fib_pair(top - m))
        else:
            total, a, b = total + _phi_read(top, a, b), 0, 0
        top, a, b = m, a + p, b + q
    return total


# _powers carries phi^k, as long as itself, where _phi_sum carries a sum as long as its
# span: so its factor 4 is too loose here, and 16 is timed in CHANGES.md.
_CARRY = 16


@lru_cache(maxsize=1, typed=True)  # typed: Decimal(1) == 1, and the two hash alike
def _powers(ks: tuple, one=1) -> tuple:
    """phi^k (``fib_pair``) for each k of ks, in the type of `one`: times phi^g
    from the one before when _CARRY*|g| <= |k|.  ``canon`` and an int window at
    lo = 0 share its last answer, a tuple: each passes ks and `one` by position."""
    powers = [(0 * one, one)]  # phi^0, from which only k = 0 is carried
    for k0, k in zip([0, *ks], ks):
        near = _CARRY * abs(k - k0) <= abs(k)
        powers.append(_times(powers[-1], fib_pair(k - k0, one)) if near else fib_pair(k, one))
    return tuple(powers[1:])
