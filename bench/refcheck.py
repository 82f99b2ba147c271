"""Reference arithmetic that checks fibrec's answers without sharing its code.

Everything here is written from the definitions, with a different method
wherever fibrec has one:

* Fibonacci numbers are stepped by additions from F(0) = 0, F(1) = 1, in
  both directions (F(i-1) = F(i+1) - F(i)); fibrec uses fast doubling and a
  sign rule for negative indices.
* The canonical form steps the coefficient pair of F(n-j) over the basis
  F(n), F(n-1) one shift at a time; fibrec uses a closed form in F(j-1), F(j).
* Polynomials are evaluated over a common denominator as integers.

An expression is a plain tuple ``(terms, e, f)`` where ``terms`` is a tuple
of ``(shift, coeffs)`` pairs, ``coeffs`` ascending by degree, standing for
``sum coeffs(n) * F(n - shift) + e + f * (-1)^n``.
"""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction

# Mersenne primes: the first tests template systems for full rank, and both
# fingerprint values too large to keep by the hundred
PRIMES = ((1 << 61) - 1, (1 << 89) - 1)


# --- Fibonacci numbers -------------------------------------------------------


def fib_range(lo: int, hi: int) -> list[int]:
    """[F(lo), ..., F(hi)] by stepping additions."""
    a, b = 0, 1  # F(i), F(i+1), starting at i = 0
    if lo >= 0:
        for _ in range(lo):
            a, b = b, a + b
    else:
        for _ in range(-lo):
            a, b = b - a, a
    out = []
    for _ in range(hi - lo + 1):
        out.append(a)
        a, b = b, a + b
    return out


def fib_at(indices, mod: int = 0) -> dict[int, int]:
    """F(n), or F(n) mod `mod` if given, for every n in indices.

    One forward and one backward sweep cover all the indices.
    """
    want = sorted(set(indices))
    out: dict[int, int] = {}
    a, b, i = 0, 1, 0
    for n in (n for n in want if n >= 0):
        while i < n:
            a, b = b, a + b
            if mod:
                b %= mod
            i += 1
        out[n] = a
    a, b, i = 0, 1, 0
    for n in (n for n in reversed(want) if n < 0):
        while i > n:
            a, b = b - a, a
            if mod:
                a %= mod
            i -= 1
        out[n] = a
    return out


def sympy_spot_check(values: dict[int, int]) -> bool | None:
    """Compare stepped F(n) values with sympy.fibonacci in a child process.

    The child keeps sympy's import out of the workload's memory figures.
    Values travel in hex, which the int-to-decimal digit limit does not
    cover.  Returns None when sympy is not installed.
    """
    ns = sorted(values)
    code = (
        "import sys, sympy\n"
        "for n in map(int, sys.argv[1:]):\n"
        "    v = int(sympy.fibonacci(abs(n)))\n"
        "    print(hex(v if n >= 0 or n % 2 else -v))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, ns)], capture_output=True, text=True
    )
    if proc.returncode != 0:
        if "No module named 'sympy'" in proc.stderr:
            return None
        return False
    got = [int(line, 16) for line in proc.stdout.split()]
    return got == [values[n] for n in ns]


# --- polynomials and expressions ---------------------------------------------


def strip(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def normalize(expr):
    """Merge equal shifts, drop vanishing terms, sort by shift."""
    terms, e, f = expr
    acc: dict[int, list] = {}
    for shift, coeffs in terms:
        cur = acc.setdefault(shift, [])
        for k, c in enumerate(coeffs):
            if k < len(cur):
                cur[k] += c
            else:
                cur.append(Fraction(c))
    kept = tuple((s, strip(c)) for s, c in sorted(acc.items()) if strip(c))
    return kept, Fraction(e), Fraction(f)


class IntEvaluator:
    """Exact values of an expression over a common denominator L."""

    def __init__(self, expr):
        terms, e, f = expr
        fracs = [Fraction(c) for _, cs in terms for c in cs] + [Fraction(e), Fraction(f)]
        self.den = math.lcm(*(q.denominator for q in fracs))
        L = self.den
        self.terms = [
            (shift, [int(Fraction(c) * L) for c in cs]) for shift, cs in terms
        ]
        self.e = int(Fraction(e) * L)
        self.f = int(Fraction(f) * L)

    def numerator(self, n: int, fibs) -> int:
        """L * w_n, where fibs[t] is F(n - shift) for the t-th term."""
        total = self.e + (self.f if n % 2 == 0 else -self.f)
        for (_, cs), fib in zip(self.terms, fibs):
            p, power = 0, 1
            for c in cs:
                p += c * power
                power *= n
            total += p * fib
        return total

    def window(self, lo: int, hi: int):
        """Yield (n, w_n) for lo <= n <= hi, stepping each term's F pair."""
        pairs = [fib_range(lo - s, lo - s + 1) for s, _ in self.terms]
        for n in range(lo, hi + 1):
            yield n, Fraction(self.numerator(n, [p[0] for p in pairs]), self.den)
            for p in pairs:
                p[0], p[1] = p[1], p[0] + p[1]

    def needed(self, n: int) -> set[int]:
        """Indices m of the F(m) that w_n needs."""
        return {n - s for s, _ in self.terms}

    def matches(self, n: int, value: Fraction, residues) -> bool:
        """Whether value == w_n, given L*w_n mod each fingerprint prime."""
        return all(
            (value.numerator * self.den - r * value.denominator) % p == 0
            for p, r in zip(PRIMES, residues)
        )


def shift_basis(j: int) -> tuple[int, int]:
    """(x, y) with F(n-j) = x*F(n) + y*F(n-1), stepped one shift at a time."""
    prev, cur = (1, 0), (0, 1)  # shift 0 and shift 1
    if j == 0:
        return prev
    if j > 0:
        for _ in range(j - 1):  # F(n-k) = F(n-k+2) - F(n-k+1)
            prev, cur = cur, (prev[0] - cur[0], prev[1] - cur[1])
        return cur
    for _ in range(-j):  # F(n+k) = F(n+k-1) + F(n+k-2)
        prev, cur = (prev[0] + cur[0], prev[1] + cur[1]), prev
    return prev


def canon(expr):
    """(P0, P1, e, f) with w_n = P0(n)*F(n) + P1(n)*F(n-1) + e + f*(-1)^n."""
    terms, e, f = expr
    p0: list = []
    p1: list = []
    for shift, cs in terms:
        x, y = shift_basis(shift)
        for target, m in ((p0, x), (p1, y)):
            target.extend([0] * (len(cs) - len(target)))
            for k, c in enumerate(cs):
                target[k] += c * m
    return strip(p0), strip(p1), Fraction(e), Fraction(f)


def order(form) -> int:
    """Degree of the characteristic polynomial: the recurrence's order."""
    p0, p1, e, f = form
    return 2 * max(len(p0), len(p1)) + (e != 0) + (f != 0)


def char_poly(form) -> tuple[int, ...]:
    """(x^2-x-1)^(D+1) (x-1)^[e != 0] (x+1)^[f != 0], ascending coefficients."""
    p0, p1, e, f = form
    out = [1]
    if p0 or p1:
        for _ in range(max(len(p0), len(p1))):
            out = poly_mul(out, [-1, -1, 1])
    if e:
        out = poly_mul(out, [-1, 1])
    if f:
        out = poly_mul(out, [1, 1])
    return tuple(out)


# --- the printed form --------------------------------------------------------


def join_parts(parts: list[str]) -> str:
    """Components joined with ' + ', or ' - ' before one that starts with '-'."""
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def print_poly(coeffs) -> str:
    """Monomials by descending degree, as the parser's documentation prints them."""
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[deg])
        if not c:
            continue
        if deg == 0:
            parts.append(str(c))
            continue
        mono = "n" if deg == 1 else f"n^{deg}"
        parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
    return join_parts(parts) if parts else "0"


def fib_ref(shift: int) -> str:
    if shift == 0:
        return "F(n)"
    return f"F(n-{shift})" if shift > 0 else f"F(n+{-shift})"


def print_expr(expr) -> str:
    """The expression text: ascending shifts, then the constant, then (-1)^n."""
    terms, e, f = normalize(expr)
    parts = []
    for shift, cs in terms:
        if len(cs) == 1:
            parts.append(f"{cs[0]}*{fib_ref(shift)}")
        else:
            parts.append(f"({print_poly(cs)})*{fib_ref(shift)}")
    if e:
        parts.append(str(e))
    if f:
        parts.append(f"{f}*(-1)^n")
    return join_parts(parts) if parts else "0"


# --- synthesis templates -----------------------------------------------------


def slot_basis(shape, n: int, fib_of) -> list[int]:
    """Multiplier of each template slot in w_n, in the template's slot order.

    shape is (deg_p0, deg_p1, has_const, has_alt); slots run over the F(n)
    coefficients by descending degree, then those of F(n-1), then the
    constant, then the alternating coefficient.
    """
    d0, d1, has_const, has_alt = shape
    row = [n**p * fib_of(n) for p in range(d0, -1, -1)]
    row += [n**p * fib_of(n - 1) for p in range(d1, -1, -1)]
    if has_const:
        row.append(1)
    if has_alt:
        row.append(1 if n % 2 == 0 else -1)
    return row


def slot_matrix(shape) -> list[list[int]]:
    d0, d1, has_const, has_alt = shape
    k = d0 + d1 + 2 + has_const + has_alt
    fibs = fib_range(-1, k)
    fib_of = lambda m: fibs[m + 1]
    return [slot_basis(shape, n, fib_of) for n in range(k)]


def full_rank(rows) -> bool:
    """Whether a square integer matrix is invertible modulo PRIMES[0].

    Full rank modulo a prime implies full rank over the rationals, so a
    template that passes never makes the solver report a singular system.
    """
    p = PRIMES[0]
    m = [[x % p for x in r] for r in rows]
    n = len(m)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, n):
            if m[i][c]:
                g = m[i][c] * inv % p
                m[i] = [(x - g * y) % p for x, y in zip(m[i], m[c])]
    return True


def shape_expr(shape, coeffs):
    """The expression whose template slots carry coeffs (slot order)."""
    d0, d1, has_const, has_alt = shape
    c = [Fraction(x) for x in coeffs]
    p0 = tuple(reversed(c[: d0 + 1]))
    p1 = tuple(reversed(c[d0 + 1 : d0 + d1 + 2]))
    i = d0 + d1 + 2
    e = c[i] if has_const else Fraction(0)
    f = c[i + has_const] if has_alt else Fraction(0)
    return ((0, p0), (1, p1)), e, f


def solve(rows, values) -> list[Fraction]:
    """Row-reduce [rows | values] exactly; the system must be nonsingular."""
    k = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(rows, values)]
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(k):
            if i != c and aug[i][c]:
                g = aug[i][c] / aug[c][c]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][k] / aug[i][i] for i in range(k)]


# --- machine speed -----------------------------------------------------------


def calibration_job() -> None:
    """A fixed job of the kinds of exact arithmetic fibrec does, without fibrec.

    Big-integer window stepping, Fraction Horner evaluation and Fraction
    elimination; timed between chunks, it tracks how fast the machine runs.
    """
    a129707 = (((0, (Fraction(-4, 25), Fraction(-1, 25), Fraction(1, 5))),
                (1, (0, Fraction(1, 50), Fraction(1, 10)))), 0, 0)
    for _ in IntEvaluator(a129707).window(2000, 2150):
        pass
    coeffs = [Fraction(k + 1, 2 * k + 3) for k in range(60)]
    for n in range(1, 40):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * n + c
    solve(slot_matrix((4, 4, True, True)), range(12))
