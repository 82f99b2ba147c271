"""Sequences written as rational-polynomial combinations of Fibonacci numbers.

A ``FibExpr`` is a finite formal sum

    sum_i  p_i(n) * F(n - j_i)  +  e  +  f * (-1)**n

with polynomials p_i (``Poly`` with int or Fraction coefficients), integer
shifts j_i (negative shifts, i.e. F(n+k), are first class) and rational
constants e, f.  Every shift can be eliminated with the identity

    F(n-j) = F(1-j) * F(n) + F(-j) * F(n-1),

which reduces any expression to the canonical form
P0(n)*F(n) + P1(n)*F(n-1) + e + f*(-1)^n.  Two expressions describe the
same sequence exactly when their canonical forms are componentwise equal.

Folding a shift j into P0 and P1 multiplies each coefficient of its
polynomial by F(1-j) or F(-j), about 0.209*|j| digits each, which evaluation
would carry through every step at every index.  So values are read from
*clusters*: a cluster (J, R0, R1) applies the identity about a base J,

    F(n-j) = F(J-j+1) * F(n-J) + F(J-j) * F(n-J-1),

to each run of shifts narrower than the fold width (``fib``), based at its
midpoint, so R0 and R1 keep short coefficients.

The clusters are scaled to ints once (``_scale``): each run's R0 and R1 are
summed as ints over the terms' common denominator, and the common factor of
that denominator and every sum is divided out, which leaves L.  The canonical
form is read off them (``_canon``): each coefficient of L*P0 and L*P1 sums one
product in Z[phi] per cluster, so a run whose terms cancel costs it nothing.
Every window comes from one loop, ``_numerators``: its first values sum, side by
side, one reader per cluster, which steps (F(n-J), F(n-J-1)) from phi^(lo-J) and
reads each nonzero R0 and R1 by one Horner pass per index, and the rest follow by
additions from the recurrence that the paper's (E^2-E-1)^(D+1)*(E-1)*(E+1) gives,
over what its seeds leave of the denominator.  ``CanonForm.values`` runs it on
ints, and the CLI on Decimals.  A single value, ``FibExpr.at``, runs no window:
``fib._phi_sum`` sums each cluster's a*F(k+1) + b*F(k).  That arithmetic of
Z[phi], and which clusters share work, is all in ``fib``.

Each derived value is a ``functools.cached_property``: an expression's scaled
clusters ``_scaled`` and its form ``_canon``, and a form's ``_scaled``, which
``canon`` sets to its expression's and a form built directly computes from the
one cluster (0, P0, P1).  A cache lives in the instance ``__dict__`` and is not
a field, so ``==``, ``hash`` and ``repr`` do not see it, and the classes are
frozen, so none goes stale.  ``at`` reads the scaled clusters alone, so one
value builds no form.  The CLI's digit bounds, ``_order_bound``,
``_estimated_digits`` and ``_surely_longer``, read a parsed expression and its
clusters before any long Fibonacci number is computed.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, cycle, islice, repeat, zip_longest

from ._value import Value
from .exact import Poly
from .fib import _gathered, _phi_sum, _powers, _reflected, _split, _times, shift_coeffs

# A cluster's offsets j - J, at which F(J-j+1) and F(J-j) are below 2**30 (``fib``)
_FOLD = range(-43, 45)


class ShiftTerm(Value):
    """One summand p(n) * F(n - shift); the polynomial is never zero."""

    shift: int
    poly: Poly

    def __init__(self, shift: int, poly: Poly) -> None:
        self.__dict__.update(shift=shift, poly=poly)


class FibExpr(Value):
    """Normalized expression: terms sorted by strictly increasing shift."""

    terms: tuple[ShiftTerm, ...]
    const_e: Fraction
    alt_f: Fraction

    def __init__(self, terms: tuple[ShiftTerm, ...] = (), const_e: Fraction = Fraction(0),
                 alt_f: Fraction = Fraction(0)) -> None:
        self.__dict__.update(terms=terms, const_e=const_e, alt_f=alt_f)

    @staticmethod
    def of(terms: Iterable = (), const=0, alt=0) -> "FibExpr":
        """Build a normalized expression from (shift, poly) pairs.

        Polynomials may be given as Poly instances, coefficient sequences in
        ascending degree, or bare scalars, each coefficient an int or a Fraction,
        as are const and alt; a shift must be an integer (``operator.index``).
        Duplicate shifts are merged and zero terms dropped.
        """
        acc: dict[int, Poly] = {}
        for shift, p in terms:
            if not isinstance(p, Poly):
                p = Poly(tuple(p)) if isinstance(p, (list, tuple)) else Poly((p,))
            if bad := [c for c in p.coeffs if not isinstance(c, (int, Fraction))]:
                raise TypeError(f"a coefficient must be an int or a Fraction, not {bad[0]!r}")
            shift = operator.index(shift)
            acc[shift] = acc[shift] + p if shift in acc else p
        if bad := [c for c in (const, alt) if not isinstance(c, (int, Fraction))]:
            raise TypeError(f"a constant must be an int or a Fraction, not {bad[0]!r}")
        kept = tuple(ShiftTerm(s, q) for s, q in sorted(acc.items()) if q)
        return FibExpr(kept, Fraction(const), Fraction(alt))

    def at(self, n: int) -> Fraction:
        """Exact value of the sequence at index n (any integer), from the scaled
        clusters alone, without the canonical form or a window: ``_phi_sum`` of
        each cluster's a*F(k+1) + b*F(k), k = n-J-1."""
        den, clusters, e, f = self._scaled
        parts = [(n - base - 1, r0(n) if r0 else 0, r1(n) if r1 else 0)
                 for base, r0, r1 in clusters]
        return Fraction(_phi_sum(parts) + e + (-f if n % 2 else f), den)

    def __add__(self, other: "FibExpr") -> "FibExpr":
        if not isinstance(other, FibExpr):
            return NotImplemented
        return FibExpr.of(
            [(t.shift, t.poly) for t in self.terms + other.terms],
            self.const_e + other.const_e,
            self.alt_f + other.alt_f,
        )

    def __neg__(self) -> "FibExpr":
        return self * -1

    def __sub__(self, other: "FibExpr") -> "FibExpr":
        if not isinstance(other, FibExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "FibExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        r = Fraction(scalar)
        return FibExpr.of(
            [(t.shift, t.poly * r) for t in self.terms],
            self.const_e * r,
            self.alt_f * r,
        )

    __rmul__ = __mul__

    def shifted(self, k: int) -> "FibExpr":
        """The reindexed sequence n -> self(n + k)."""
        alt = self.alt_f if k % 2 == 0 else -self.alt_f
        return FibExpr.of(
            [(t.shift - k, t.poly.taylor_shift(k)) for t in self.terms],
            self.const_e,
            alt,
        )

    @cached_property
    def _scaled(self) -> tuple:
        """``_scale`` of the runs of shifts (``_runs``), each of which sums its
        terms as R0(n)*F(n-J) + R1(n)*F(n-J-1)."""
        return _scale([(base, [(t.poly, *_near(t.shift - base)) for t in run])
                       for base, run in _runs(self.terms)], self.const_e, self.alt_f)

    def canon(self) -> "CanonForm":
        """Collapse every shift onto the F(n), F(n-1) basis; computed once."""
        return self._canon

    @cached_property
    def _canon(self) -> "CanonForm":
        """``canon``'s form, read off this expression's ``_scaled``, which it holds
        as its own.  A cluster (J, L*R0, L*R1) adds R0(n)*F(n-J) + R1(n)*F(n-J-1),
        the phi coefficient of (R0*phi + R1)*phi^-J*phi^(n-1), and P0*F(n) +
        P1*F(n-1) is that of (P0*phi + P1)*phi^(n-1): so each coefficient pair of
        (L*P0, L*P1) sums one product (``_times``) per cluster with its phi^-J
        (``_powers``), and every coefficient is a Fraction over L."""
        den, clusters, _, _ = self._scaled
        sums = []
        for (_, r0, r1), power in zip(clusters, _powers(tuple(-J for J, _, _ in clusters), 1)):
            parts = map(_times, zip_longest(r0.coeffs, r1.coeffs, fillvalue=0), repeat(power))
            sums = [(a + c, b + d)
                    for (a, b), (c, d) in zip_longest(sums, parts, fillvalue=(0, 0))]
        p0, p1 = (Poly(tuple(Fraction(pair[i], den) for pair in sums)) for i in (0, 1))
        form = CanonForm(p0, p1, self.const_e, self.alt_f)
        form.__dict__["_scaled"] = self._scaled
        return form


def _runs(terms: tuple[ShiftTerm, ...]) -> Iterator[tuple[int, list[ShiftTerm]]]:
    """Yield (J, terms) for each run of the fold width (``fib``), based at its
    midpoint J = (first + last) // 2, so that its offsets j - J lie in ``_FOLD``."""
    for run in _split(terms, lambda run, t: t.shift - run[0].shift < len(_FOLD)):
        yield (run[0].shift + run[-1].shift) // 2, run


def _near(k: int) -> tuple[int, int]:
    """(F(1-k), F(-k)) for an offset k in ``_FOLD``; at k = 0 without a Fibonacci
    number, so a lone term, the base of its own run, has none."""
    return shift_coeffs(k) if k else (1, 0)


def _abs_sum(lo: int, hi: int) -> int:
    """The sum of |n| over n = lo..hi, in closed form."""
    tri = lambda k: k * (k + 1) // 2 if k > 0 else 0  # 1 + 2 + ... + k
    return tri(hi) - tri(lo - 1) + tri(-lo) - tri(-hi - 1)


def _log10_above(k: int) -> float:
    """An upper bound on log10(k) for an int k >= 1, exact at 1; read off the
    bit length, so a 500,000-digit int never becomes a float."""
    return (k - 1).bit_length() * math.log10(2)


def _order_bound(expr: FibExpr) -> int:
    """2(D+1) + [e != 0] + [f != 0]: the terms may cancel, so the order is at most this."""
    degree = max((t.poly.degree for t in expr.terms), default=-1)
    return 2 * (degree + 1) + bool(expr.const_e) + bool(expr.alt_f)


def _estimated_digits(expr: FibExpr, lo: int, hi: int) -> int:
    """About how many digits w_lo..w_hi print with, read off the parsed expression.

    Over the coefficients' common denominator L, with M the sum of their
    numerators' magnitudes over L, D the largest degree and J the largest
    |shift|, |L*w_n| <= M * max(|lo|, |hi|, 2)^D * phi^(|n| + J), and the
    denominator of w_n divides L.  log10(phi) is about 0.209.  No Fibonacci
    number is computed, and every term but 0.209*|n| is 0 for F(n).
    """
    coeffs = [c for t in expr.terms for c in t.poly.coeffs] + [expr.const_e, expr.alt_f]
    den = math.lcm(*(c.denominator for c in coeffs))
    mag = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    degree = max((t.poly.degree for t in expr.terms), default=0)
    shift = max((abs(t.shift) for t in expr.terms), default=0)
    per_value = (0.209 * shift + degree * math.log10(max(abs(lo), abs(hi), 2))
                 + _log10_above(max(mag, 1)) + _log10_above(den))
    return round(0.209 * _abs_sum(lo, hi) + (hi - lo + 1) * per_value)


def _surely_longer(expr: FibExpr, digits: int, indices: Iterable[int], every=all) -> bool:
    """Whether `every` (all, or any for a caller that prints each) w_n, n in
    indices, surely has a reduced numerator of more than `digits` digits (over
    0..``_order_bound(expr)``-1, every initial value and, as P1(0) = w_0 - e - f,
    a canonical coefficient).  A cluster adds a*F(k+1) + b*F(k) to L*w_n, with
    (a, b) = (L*R0(n), L*R1(n)) and k = n-J-1, at most sum|coefficients| *
    max(|n|, 1)^deg * phi^(|k|+1) (``_scale``).  If the largest could pass, it
    is gathered with those of the fold width about its reflected index (``fib``),
    so F(n-J) + F(n+J) is one pair, and w_n is refused when that pair's
    ``_pair_low``, less log10(L), passes `digits` and the others' bounds plus
    |L*e| + |L*f|, each by one digit in hand."""
    den, clusters, e, f = expr._scaled
    e_f = [_log10_above(max(abs(e) + abs(f), 1))]
    sized = [(base, r0, r1, _log10_above(max(sum(map(abs, r0.coeffs + r1.coeffs)), 1)),
              max(len(r0.coeffs), len(r1.coeffs)) - 1) for base, r0, r1 in clusters]

    def longer_at(n: int) -> bool:
        log_n = math.log10(max(abs(n), 1))
        highs = [mag + deg * log_n + 0.209 * (abs(n - J - 1) + 1) for J, _, _, mag, deg in sized]
        parts = [_reflected(n - J - 1, r0, r1) for J, r0, r1, _, _ in sized]  # read if gathered
        top = highs.index(max(highs))
        near = [abs(m - parts[top][0]) < len(_FOLD) for m, _, _ in parts]
        rest = e_f + [high for high, close in zip(highs, near) if not close]
        bar = max(max(rest) + math.log10(len(rest)), digits + _log10_above(den)) + 1
        if highs[top] + math.log10(sum(near)) <= bar:
            return False
        m, a, b = _gathered(sorted((m, p(n), q(n)) for m, p, q in compress(parts, near))[::-1])
        return _pair_low(a, b, m) > bar

    return bool(sized) and every(map(longer_at, indices))


def _pair_low(a: int, b: int, k: int) -> float:
    """A lower bound on log10|a*F(k+1) + b*F(k)| for ints a, b and k >= 0; -inf for 0.
    The value is sqrt(5)^-1 * (phi^k*alpha - psi^k*alpha'), where alpha = a*phi + b
    in Z[phi] has |alpha'| <= s = |a|/phi + |b| and the norm N = b^2 + ab - a^2,
    nonzero unless a = b = 0, so it is at least (phi^k*|N|/s - s/phi^k)/sqrt(5)."""
    norm = abs(b * b + a * b - a * a)
    log_s = _log10_above(max(abs(a), abs(b))) + 0.209  # s <= phi*max(|a|, |b|), phi < 10^0.209
    low = 0.2089 * k + (norm.bit_length() - 1) * math.log10(2) - log_s  # 0.2089 < log10(phi)
    # with s/phi^k a digit below, it and sqrt(5) take less than 0.4 digits
    return low - 0.4 if norm and log_s - 0.2089 * k <= low - 1 else -math.inf


class CanonForm(Value):
    """The reduced shape P0(n)*F(n) + P1(n)*F(n-1) + e + f*(-1)^n.

    Componentwise equality of canonical forms is equality of sequences.
    """

    p0: Poly
    p1: Poly
    const_e: Fraction
    alt_f: Fraction

    def __init__(self, p0: Poly, p1: Poly, const_e: Fraction, alt_f: Fraction) -> None:
        self.__dict__.update(p0=p0, p1=p1, const_e=const_e, alt_f=alt_f)

    @property
    def fib_degree(self) -> int | None:
        """max(deg P0, deg P1), or None when the Fibonacci part vanishes."""
        return max((d for d in (self.p0.degree, self.p1.degree) if d is not None), default=None)

    @cached_property
    def _scaled(self) -> tuple:
        """``_scale`` of (0, P0, P1) alone; ``canon`` puts its expression's
        ``FibExpr._scaled`` here in its place."""
        return _scale([(0, [(self.p0, 1, 0), (self.p1, 0, 1)])], self.const_e, self.alt_f)

    def values(self, lo: int, hi: int) -> Iterator[tuple[int, Fraction]]:
        """Yield (n, w_n) for n = lo..hi, exactly; nothing when lo > hi."""
        for n, (num, den) in _numerators(self._scaled, lo, hi):
            yield n, Fraction(num, den)


def _scale(runs: list, e: Fraction, f: Fraction) -> tuple:
    """(L, ((J, L*R0, L*R1), ...), L*e, L*f), all ints over the common denominator
    L of R0, R1, e and f, for the runs (J, [(p, c0, c1), ...]), whose R0 and R1
    sum c0*p and c1*p, leaving out each run whose terms cancel, so that R0 = R1
    = 0.  The sums run on ints over the common denominator M of every p, e and
    f, and L = M/g for g = gcd(M, every coefficient of M*R0 and M*R1, M*e, M*f):
    the lcm over the coefficients v of M/gcd(M, M*v) is M/gcd(M, M*v_1, ...)."""
    den = math.lcm(e.denominator, f.denominator,
                   *(c.denominator for _, parts in runs for p, _, _ in parts for c in p.coeffs))
    # c*den as an int, without building the Fraction product
    times_den = lambda c: c.numerator * (den // c.denominator)
    clusters = []
    for base, parts in runs:
        sums = ([], [])
        for p, *factors in parts:
            coeffs = list(map(times_den, p.coeffs))
            for acc, c in zip(sums, factors):
                if c:
                    acc[:] = [x + c * y for x, y in zip_longest(acc, coeffs, fillvalue=0)]
        if any(sums[0]) or any(sums[1]):
            clusters.append((base, *sums))
    e, f = times_den(e), times_den(f)
    g = math.gcd(den, e, f, *(c for _, r0, r1 in clusters for c in r0 + r1))
    cut = lambda coeffs: Poly(tuple(c // g for c in coeffs))
    return den // g, tuple((base, cut(r0), cut(r1)) for base, r0, r1 in clusters), e // g, f // g


def _numerators(scaled: tuple, lo: int, hi: int, one=1) -> Iterator[tuple]:
    """Yield (n, (num, d)), w_n = num/d with d dividing L, for n = lo..hi: the one
    window loop.

    (L, clusters, e, f) = scaled is a form scaled by L (``_scale``), of degree D.
    The first min(count, 2(D+1) + 2) values come lazily from the clusters
    (J, r0, r1), so a scan that stops early computes no more than it reads: one
    reader per cluster (``_stepped``, seeded by phi^(lo-J) from ``_powers``), all
    summed side by side with e + f*(-1)^n, none nested in another's frame.
    The rest follow by the recurrence (``_recurred``), all in the type of `one`:
    ints for ``CanonForm.values``, and Decimals in the CLI's exact context.
    """
    den, clusters, e, f = scaled
    count = max(hi - lo + 1, 0)
    e, f = e * one, f * one  # so that a form without clusters yields that type too
    k = 1 + max((p.degree for _, r0, r1 in clusters for p in (r0, r1) if p), default=-1)
    head = range(lo, lo + min(count, 2 * k + 2))
    # x + f*(-1)^n at n = lo, lo + 1, or at lo + 2k + 2, where any value after the head is
    pair = lambda x: (x - f, x + f) if lo % 2 else (x + f, x - f)
    seeds = _powers(tuple(lo - base for base, _, _ in clusters), one)
    readers = [_stepped(r0, r1, seed, head) for (_, r0, r1), seed in zip(clusters, seeds)]
    # summed side by side: a generator wrapped around each cluster's would resume
    # one frame per cluster for each value, past the recursion limit at ~1,000
    column = map(sum, zip(islice(cycle(pair(e)), len(head)), *readers))
    top = pair(-e if k % 2 else e)
    return zip(range(lo, hi + 1), _recurred(column, den, k, top, count - len(head)))


def _stepped(r0: Poly, r1: Poly, seed: tuple, ns: range) -> Iterator:
    """Yield r0(n)*F(n-J) + r1(n)*F(n-J-1) for n in ns, from seed = phi^(n-J) =
    (F(n-J), F(n-J-1)) at the first n (``_powers``).  Each nonzero polynomial is
    read by one Horner pass per n, and a zero one is never read."""
    fn, fn1 = seed
    read = lambda p: map(p, ns) if p else repeat(0)
    for a, b in zip(read(r0), read(r1)):
        yield a * fn + b * fn1
        fn, fn1 = fn + fn1, fn


def _levels(col: Sequence) -> Iterator[Sequence]:
    """Yield col, then each level of T's difference triangle over it, T = E^2 - E - 1:
    c - b - a for each three consecutive items a, b, c of the level before."""
    while col:
        yield col
        col = [c - b - a for a, b, c in zip(col, col[1:], col[2:])]


def _recurred(head: Iterator, den: int, k: int, top: tuple, rest: int) -> Iterator:
    """Yield (u, L) for the items u = L*w_n of head, then (u/d, L/d) for `rest`
    more n.  T = E^2 - E - 1 maps e + f*(-1)^n to -e + f*(-1)^n, and
    T^k annihilates p(n)*F(n-j) for deg p < k, so T^k u cycles through top.  Each
    level z_i(m) = (T^i u)(m - 2i), i < k, starts from its last two values in the
    head, read off ``_levels``, and steps by z_i(m) = z_i(m-1) + z_i(m-2)
    + z_{i+1}(m), two additions: so the common factor d of L, top and the seeds
    divides every later u.  One loop steps the levels over blocks of values, where
    a generator per level would nest k <= 1001 frames."""
    seen = []
    for u in head:
        seen.append(u)
        yield u, den
    levels = [level[-2:] for level in islice(_levels(seen), k)]
    d = math.gcd(den, *(int(v % den) for v in chain(top, *levels)))
    levels, top = [[a // d, b // d] for a, b in levels], islice(cycle([v // d for v in top]), rest)
    while block := list(islice(top, 64)):
        for level in reversed(levels):  # z_{k-1}, fed by top, down to z_0 = u
            (a, b), stepped = level, []
            for c in block:
                a, b = b, a + b + c
                stepped.append(b)
            level[:], block = (a, b), stepped
        yield from zip(block, repeat(den // d))
