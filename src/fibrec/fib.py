"""Fibonacci numbers over all integer indices, and the one kernel of Z[phi].

A pair (a, b) is a*phi + b, phi^2 = phi + 1, and ``fib_pair(n)`` is phi^n =
F(n)*phi + F(n-1), so a*F(m+1) + b*F(m) is the phi coefficient of
(a*phi + b)*phi^m.  ``_times`` multiplies pairs and ``_trace`` reads a Lucas
number off one.  ``fib`` and ``shift_coeffs`` return ints, which callers scale
by ``Poly`` coefficients (``int`` or ``Fraction``), so the library never leaves
the rationals.  ``fib_pair`` and ``_powers`` work in the type of their ``one``:
the CLI passes ``Decimal(1)`` under an exact context, so the numbers it prints
are never long ints, which CPython turns into text in quadratic time.

Which clusters share work is decided here: ``_split`` cuts a sequence into runs
by a rule, and ``_gathered`` sums a run of parts (m, a, b), by decreasing m,
onto its lowest index, by one product with phi^gap a step.  The rules, and why:
- the fold width, len(``seqform._FOLD``) = 88: ``seqform._runs`` keeps a shift
  less than it above its run's first, so each F(J-j+1) and F(J-j) about the
  run's midpoint J is below 2**30, one int digit, and ``_surely_longer`` gathers
  the reflected indices within it of the longest, so their pair stays short;
- 4*(m - m') <= m' (``_phi_sum``): a sum carried from m onto m', a doubling of
  m - m' and products by F(m - m'), costs less than a read, a doubling of m/2;
- _CARRY*|g| <= |k| (``_powers``): phi^k is carried the same way, but it is as
  long as k, not as a span, so 4 is too loose: 16 is timed in CHANGES.md.

``fib_pair`` doubles with two squarings per bit of the index (Takahashi 2000;
GMP's ``mpz_fib2_ui``), walking (F(k-1), F(k)) over the prefixes k of its bits:

    F(2k+1) = 4*F(k)^2 - F(k-1)^2 + 2*(-1)^k
    F(2k-1) = F(k)^2 + F(k-1)^2
    F(2k)   = F(2k+1) - F(2k-1)
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

_CARRY = 16  # the factor of _powers' rule


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


def _split(items, joins) -> list:
    """The runs of items, in order: an item joins the one before it when joins(run, item)."""
    runs = []
    for item in items:
        if not (runs and joins(runs[-1], item)):
            runs.append([])
        runs[-1].append(item)
    return runs


def _gathered(run: list) -> tuple:
    """The run of parts (m, a, b), by decreasing m, as one part at its lowest
    index: each pair summed so far is moved down by one product with phi^gap."""
    (top, a, b), *rest = run
    for m, p, q in rest:
        a, b = _times((a, b), fib_pair(top - m))
        top, a, b = m, a + p, b + q
    return top, a, b


def _phi_sum(parts: list) -> int:
    """The one reader of a single value: the sum of a*F(k+1) + b*F(k) over the
    (k, a, b), k any integer, where a = b = 0 costs nothing.  Each part moves to
    m >= 0 (``_reflected``), and each run of the 4*gap rule is gathered and read
    at its lowest m, an odd m first folding one phi into the pair, (a + b, a).
    For m = 2k, phi^k has trace L(k) (``_trace``) and norm (-1)^k, so phi^(2k) =
    L(k)*phi^k - (-1)^k, and the run adds L(k)*(a*F(k+1) + b*F(k)) - (-1)^k*a."""
    ordered = sorted((_reflected(*part) for part in parts if part[1] or part[2]), reverse=True)
    total = 0
    for run in _split(ordered, lambda run, part: 4 * (run[-1][0] - part[0]) <= part[0]):
        m, a, b = _gathered(run)
        if m % 2:
            a, b, m = a + b, a, m - 1
        f_k, f_down = power = fib_pair(k := m // 2)  # F(k), F(k-1)
        total += _trace(power) * ((a + b) * f_k + a * f_down) + (a if k % 2 else -a)
    return total


@lru_cache(maxsize=1, typed=True)  # typed: Decimal(1) == 1, and the two hash alike
def _powers(ks: tuple, one=1) -> tuple:
    """phi^k (``fib_pair``) for each k of ks, in the type of `one`, carried along
    each run of the _CARRY rule.  ``canon`` and an int window at lo = 0 share its
    last answer, a tuple: each passes ks and `one` by position."""
    powers = []
    for run in _split(ks, lambda run, k: _CARRY * abs(k - run[-1]) <= abs(k)):
        steps = [fib_pair(run[0], one)] + [fib_pair(k - k0, one) for k0, k in zip(run, run[1:])]
        powers += accumulate(steps, _times)
    return tuple(powers)
