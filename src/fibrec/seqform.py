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

Every value comes from one loop, ``_numerators``: over the common denominator
of the form's coefficients, w_n is an integer combination of (F(n), F(n-1)),
a pair that steps by one addition from one ``fib_pair`` seed.
``CanonForm.values(lo, hi)`` runs it on ints, and the CLI on Decimals.  The
polynomials are read at consecutive n, so a window longer than 4*(deg + 1)
values tabulates each one by forward differences, deg additions per index
(``_tabulated``); a single value and a shorter window, which covers every
initial window of the polynomial that sets a form's order, keep Horner's
rule.  Below that length the difference table's deg+1 Horner values and
deg*(deg+1)/2 subtractions cost more than they save, and the integrality
verdict, which stops at its first non-integer value, would compute values it
never reads.

Folding a shift j into P0 and P1 multiplies each coefficient of its
polynomial by F(1-j) or F(-j), about 0.209*|j| digits each, and Horner's rule
or a difference table would carry those digits through each of its steps at
every index.  So ``FibExpr.canon`` splits the terms by those two numbers.  A
*folded* term, one whose F(1-j) and F(-j) are both below 2**30 in magnitude
(shifts -43..44), joins the polynomials Q0 and Q1 that the loop evaluates.  A
*far* term stays apart as (j, F(1-j), F(-j), p): the loop evaluates p(n) on
its own short coefficients and multiplies that by the two long numbers, once
each per index (the CLI doubles them as Decimals from j).  P0 and P1 still
sum every term.

An expression is canonicalized once: ``FibExpr.canon`` keeps its form, and
the form keeps its split into folded and far terms and ``CanonForm._scaled``
its cleared denominators, in the instance ``__dict__``; ``cfinite`` keeps the
form's stepped initial window there too.  No memo is a field, so ``==``,
``hash`` and ``repr`` do not see it; both classes are frozen, so a memo never
goes stale.  A form built directly, with no split, has no far terms.  The
CLI's digit bounds, ``_order_bound``, ``_estimated_digits``,
``_surely_longer`` and ``_surely_longer_at``, read a parsed expression
before any Fibonacci work.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, cycle, islice, repeat, tee
from operator import add, mul

from ._value import Value
from .exact import Poly
from .fib import fib_pair, shift_coeffs

# A term folds into the polynomials Q0 and Q1 when both of its shift coefficients
# are below this in magnitude, so that each fits in one int digit.
_FOLD_BOUND = 1 << 30


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
        ascending degree, or bare scalars; duplicate shifts are merged and
        zero terms dropped.
        """
        acc: dict[int, Poly] = {}
        for shift, p in terms:
            if not isinstance(p, Poly):
                p = Poly(tuple(p)) if isinstance(p, (list, tuple)) else Poly((p,))
            shift = int(shift)
            acc[shift] = acc[shift] + p if shift in acc else p
        kept = tuple(ShiftTerm(s, q) for s, q in sorted(acc.items()) if q)
        return FibExpr(kept, Fraction(const), Fraction(alt))

    def at(self, n: int) -> Fraction:
        """Exact value of the sequence at index n (any integer)."""
        return next(self.canon().values(n, n))[1]

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

    def canon(self) -> "CanonForm":
        """Collapse every shift onto the F(n), F(n-1) basis.

        Computed once per expression and kept in its ``__dict__``; the memo
        is not a field, so it takes no part in equality, hashing or repr.
        When a term is far, the form keeps its split into the folded terms'
        polynomials and the far terms (j, F(1-j), F(-j), p) in a memo of its own.
        """
        form = self.__dict__.get("_canon_memo")
        if form is not None:
            return form
        # P0 and P1 sum the parts in shift order: where a top coefficient cancels
        # midway, that order decides whether it comes back as an int or a Fraction,
        # which repr shows.  They are the folded sums themselves until the first far
        # term, so only the parts that follow a far shift below -43 are summed twice.
        p0 = p1 = Poly(())
        folded = None  # (Q0, Q1), kept apart from P0 and P1 from the first far term on
        far = []
        for t in self.terms:
            c_f, c_f1 = shift_coeffs(t.shift)
            part0, part1 = _times(t.poly, c_f), _times(t.poly, c_f1)
            if abs(c_f) >= _FOLD_BOUND or abs(c_f1) >= _FOLD_BOUND:
                folded = folded or (p0, p1)
                far.append((t.shift, c_f, c_f1, t.poly))
            elif folded:
                folded = (_plus(folded[0], part0), _plus(folded[1], part1))
            p0, p1 = _plus(p0, part0), _plus(p1, part1)
        form = self.__dict__["_canon_memo"] = CanonForm(p0, p1, self.const_e, self.alt_f)
        if far:
            form.__dict__["_split_memo"] = (*folded, tuple(far))
        return form


def _times(p: Poly, c: int) -> Poly | None:
    """p * c, skipping the product by 1 and 0: p itself for c = 1, whose
    coefficients and their types the product would repeat, and None, which
    adds nothing, for c = 0."""
    if c == 1:
        return p
    return p * c if c else None


def _plus(acc: Poly, part: Poly | None) -> Poly:
    return acc if part is None else acc + part


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


def _surely_longer(expr: FibExpr, digits: int) -> bool:
    """Whether expr is one term p(n)*F(n-j) plus e + f*(-1)^n whose initial
    values w_0..w_{m-1}, m = ``_order_bound(expr)``, and nonzero canonical
    coefficients surely have reduced numerators of more than `digits` digits.

    With L the common denominator of p's coefficients, |F(k)| >= phi^(|k|-2)
    for k != 0 puts each at least phi^(|j|-m-2)/L - |e| - |f| when p has no
    root in 0..m-1.  log10(phi) is rounded down to 0.2089, one digit is kept
    in hand for e and f, and p is evaluated only once the bound passes.
    """
    if len(expr.terms) != 1:
        return False
    m = _order_bound(expr)
    return _lone_term_longer(expr, digits, abs(expr.terms[0].shift) - m, range(m))


def _surely_longer_at(expr: FibExpr, n: int, digits: int) -> bool:
    """Whether expr is one term p(n)*F(n-j) plus e + f*(-1)^n whose value w_n
    surely has a reduced numerator of more than `digits` digits: the bound of
    ``_surely_longer`` with |n-j| in place of |j|-m, when p(n) != 0."""
    if len(expr.terms) != 1:
        return False
    return _lone_term_longer(expr, digits, abs(n - expr.terms[0].shift), (n,))


def _lone_term_longer(expr: FibExpr, digits: int, far: int, indices) -> bool:
    """Whether phi^(far-2)/L - |e| - |f| has more than `digits` digits, with
    one in hand, and the lone term's p has no root at `indices`."""
    (term,) = expr.terms
    den = math.lcm(*(c.denominator for c in term.poly.coeffs))
    low = (far - 2) * 0.2089 - _log10_above(den) - 1
    e_f = abs(expr.const_e.numerator) + abs(expr.alt_f.numerator)  # at least |e| + |f|
    return (low > digits and _log10_above(max(e_f, 1)) <= low
            and all(map(term.poly, indices)))


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
        d0, d1 = self.p0.degree, self.p1.degree
        if d0 is None:
            return d1
        if d1 is None:
            return d0
        return max(d0, d1)

    def _scaled(self) -> tuple[int, Poly, Poly, int, int, tuple]:
        """(L, L*Q0, L*Q1, L*e, L*f, far), with every part an int.

        Q0 and Q1 are the folded terms' polynomials: P0 and P1 themselves
        unless ``FibExpr.canon`` split off far terms.  far holds one
        (j, F(1-j), F(-j), L*p) per far term, and L is the common denominator
        of the coefficients of Q0, Q1, every far p, e and f.  Computed once per
        form, like ``FibExpr.canon``.
        """
        scaled = self.__dict__.get("_scaled_memo")
        if scaled is not None:
            return scaled
        q0, q1, far = self.__dict__.get("_split_memo", (self.p0, self.p1, ()))
        parts = [c for p in (q0, q1, *(p for *_, p in far)) for c in p.coeffs]
        parts += (self.const_e, self.alt_f)
        den = math.lcm(*(c.denominator for c in parts))
        # c*den as an int, without building the Fraction product
        times_den = lambda c: c.numerator * (den // c.denominator)
        poly_times_den = lambda p: Poly(tuple(map(times_den, p.coeffs)))
        scaled = self.__dict__["_scaled_memo"] = (
            den, poly_times_den(q0), poly_times_den(q1), times_den(self.const_e),
            times_den(self.alt_f), tuple((j, c, d, poly_times_den(p)) for j, c, d, p in far))
        return scaled

    def values(self, lo: int, hi: int) -> Iterator[tuple[int, Fraction]]:
        """Yield (n, w_n) for n = lo..hi, exactly; nothing when lo > hi."""
        den, q0, q1, e, f, far = self._scaled()
        for n, num in _numerators(q0, q1, e, f, far, fib_pair(lo - 1), lo, hi):
            yield n, Fraction(num, den)


def _tabulated(p: Poly, lo: int, count: int) -> Iterator:
    """Yield p(lo), ..., p(lo+count-1) in the number type of p's coefficients.

    A window of at most 4*(deg p + 1) values runs Horner's rule lazily at each
    index, so a single value or a scan that stops early evaluates no more than
    it reads.  A longer one evaluates its first deg+1 values by Horner, takes
    the leading edge Δ^k p(lo), k = 0..deg, of their difference triangle, and
    tabulates the rest by forward differences (Knuth, TAOCP vol. 2, 4.6.4):
    deg nested running sums over the constant Δ^deg p, so each index costs deg
    additions, all of them in C.
    """
    deg = p.degree
    if deg is None:
        return repeat(0, count)
    if count <= 4 * (deg + 1):
        return map(p, range(lo, lo + count))
    row = list(map(p, range(lo, lo + deg + 1)))
    edge = []
    while row:
        edge.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    steps = repeat(edge.pop())
    while edge:
        steps = accumulate(steps, initial=edge.pop())
    return islice(steps, count)


def _numerators(q0: Poly, q1: Poly, e, f, far, seed, lo: int, hi: int) -> Iterator[tuple]:
    """Yield (n, L*w_n) for n = lo..hi: the one evaluation loop.

    (q0, q1, e, f, far) is a form scaled by L (``CanonForm._scaled``) and seed
    is (F(lo-1), F(lo)).  Over the far terms (j, c, d, r), the loop takes
    (q0(n) + sum c*r(n)) * F(n) + (q1(n) + sum d*r(n)) * F(n-1) + e + f*(-1)^n,
    reading every polynomial's values from ``_tabulated``; the two sums fold
    into the q0 and q1 columns by ``map``.  A window longer than 4*(deg + 1)
    values tabulates a polynomial by forward differences, deg additions per
    index; a single value (``FibExpr.at``) and a shorter window keep Horner's
    rule.  The switch sits there because a table costs deg+1 Horner values and
    deg*(deg+1)/2 subtractions before it saves anything, and because every
    initial window, at most 2*(D+1) + 2 values, then stays lazy for the
    polynomial of degree D that sets the form's order: the integrality verdict
    computes no value past its witness.  The loop works in the number type it
    is given: ints for ``CanonForm.values``, and for the values the CLI
    prints, a seed and far pairs that ``fib_pair`` doubled as Decimals, run in
    the CLI's exact context.
    """
    fn1, fn = seed
    count = max(hi - lo + 1, 0)
    a_col, b_col = _tabulated(q0, lo, count), _tabulated(q1, lo, count)
    for _, c, d, r in far:  # each column adds c*r(n) or d*r(n), in C
        r0, r1 = tee(_tabulated(r, lo, count))
        a_col = map(add, a_col, map(mul, repeat(c), r0))
        b_col = map(add, b_col, map(mul, repeat(d), r1))
    ef = cycle((e - f, e + f) if lo % 2 else (e + f, e - f))  # e + f*(-1)^n
    for n, a, b, const in zip(range(lo, hi + 1), a_col, b_col, ef):
        yield n, a * fn + b * fn1 + const
        fn, fn1 = fn + fn1, fn
