"""Recover coefficient polynomials from initial values by exact linear algebra.

A ``Template`` fixes the shape of the target expression: the degrees of the
F(n) and F(n-1) coefficient polynomials, plus optional constant and
alternating terms.  The unknown coefficients then satisfy a square linear
system whose row n states w_n = <basis values at n> . <unknowns>.  Its
entries n^p*F(n-part) are integers (``build_system`` steps (F(n-1), F(n))
from (1, 0), one addition per row).

The solver works on the same system in the binomial basis: each column
n^p*F(n-part) becomes C(n, p)*F(n-part).  Since n^p = sum_i {p i}*i!*C(n, i),
with {p i} the Stirling numbers of the second kind, the two matrices differ
by a triangular factor with p! on its diagonal, so the binomial one has the
same rank and far shorter minors.

Its rows are then differenced.  Let E step the row index n and
S = E^2 - E - 1.  S annihilates F(n-s) as the difference operator
annihilates constants, so S^(p+1) annihilates C(n, p)*F(n-s), the C-finite
closure behind the recurrences; S takes the constant 1 to -1 and (-1)^n to
itself.  With R(n) the system's row n and its right-hand sides, row
t = 2j + r, r in {0, 1}, becomes (S^j R)(r): rows 0 and 1 stay, rows 2 and
3 become R(n+2) - R(n+1) - R(n) at n = 0 and 1, and so on.  Row t is R(t)
plus a combination of earlier rows, a unit lower triangular transform, so
the determinant and the solution do not change.  The columns are ordered
for elimination: the F(n) and F(n-1) slots by ascending power, F(n)'s
first at each power, then the constant and the alternating slot.  Row t is
then zero in every F column of power below j.  When deg P0 = deg P1 the F
columns form a block upper triangular matrix with 2 x 2 diagonal blocks;
otherwise a trailing block of about |deg P0 - deg P1| columns stays dense.

Only the right-hand sides are differenced level by level; the left block
is written in closed form, the C-finite closure at n = 0 and 1 (Kauers and
Paule, The Concrete Tetrahedron, ch. 4).  With phi and psi the roots of
x^2 - x - 1, so that x^2 - x - 1 = (x - phi)(x - psi) and
phi - psi = sqrt(5), S takes g(n)*phi^n to phi^n times
phi*D(phi*D + sqrt(5)) applied to g, D the forward difference, and
g(n)*psi^n likewise with -sqrt(5).  So S^j is phi^n times the sum over i
of C(j, i)*phi^(j+i)*sqrt(5)^(j-i)*D^(j+i), and D^(j+i) takes C(n, p) to
C(n, p-j-i), which at n = r is nonzero only for i = p-j-r..p-j.  Combining
the two conjugates by F(m) = (phi^m - psi^m)/sqrt(5) and the Lucas numbers
L(m) = phi^m + psi^m, the column C(n, p)*F(n-s) holds, with d = 2j - p
and X_d = F for even d, L for odd d,

    r = 0:  C(j, p-j) * 5^(d//2) * X_d(p-s)
    r = 1:  C(j, p-j) * 5^(d//2) * X_d(p+1-s)
            + C(j, p-j-1) * 5^((d+1)//2) * X_(d+1)(p-s),

where a term whose binomial has its lower index outside 0..j is absent:
the entry is 0 unless j <= p <= 2j + 1.  The constant column holds (-1)^j
and the alternating column (-1)^r.  That is O(k^2) integer entries, where
the difference triangle takes about k^3/4 updates.  An F column depends on
its (part, p) alone, never on the template or the values, so ``_column``
builds it once per process over all of its rows 0..2p+1, and a system
takes the entries in its rows.  That memo holds the columns that solves
asked for: at most (P+1)(P+4) int pairs, P the highest power asked for,
which a balanced template of degree P holds in its own system anyway.  A
column reads its Fibonacci and Lucas numbers off one ``fib_pair``.

With the values' common denominator cleared, ``_solve_blocks`` solves the
system in integers.  Its 2 x 2 pair blocks, of determinant +-5^p, need no
elimination; only the trailing block goes through fraction-free forward
elimination (Bareiss 1968, ``_eliminate``), whose rows with a zero in the
pivot column wait, for one exact division, until they are next used.  One
back substitution (Nakos, Turner and Williams 1997) then walks the trailing
rows and the pair blocks, carrying each right-hand column as the integers
D*x over a denominator D of its own that grows only as its solution needs,
not to the determinant's 0.29*k^2 bits.  A solved column goes back to slot
order, then to monomial coefficients by one integer Horner pass per part
over the falling factorials n(n-1)..(n-d+1), whose last factor n is a
shift; each becomes a ``Fraction``.  ``symbolic_inverse`` transposes the
solved columns of the identity into rows.

Three refusals come before the system is built, and read the template
alone.  A template past MAX_UNKNOWNS is refused.  A lone F(n) part, or a
lone F(n-1) part of degree >= 1, is singular: row 0 or row 1 of its
differenced system is zero, and differencing is unit lower triangular; no
other shape of degree <= 20 has a zero row.  And a template whose degrees
differ keeps a dense trailing block, whose elimination dominates: one whose
``_work`` passes that of MAX_UNKNOWNS unknowns in equal degrees is refused.

Slot order is defined once, by ``Template.slots``: the reading order of the
written-out expression, that is F(n) coefficients by descending degree, then
F(n-1) coefficients by descending degree, then the constant, then the
alternating coefficient.  ``Template.slot_names`` names them a, b, c, ...
in that order, and ``unknowns``, ``build_system`` and ``expr_from`` all read
it; the solver's elimination order is a permutation of it, undone before
``_to_monomial``.

``theorem_solution`` builds the four guaranteed-integer families:

    1: (a*n+b)*F(n) + (c*n+d)*F(n-1)                  params d, z=(z1..z3)
    2: (a*n^2+b*n+c)*F(n) + (d*n^2+e*n+f)*F(n-1)      params f, z=(z1..z5)
    3: (a*n^2+b*n+c)*F(n) + (d*n+e)*F(n-1)            params e, z=(z1..z4)
    4: (a*n+b)*F(n) + (c*n+d)*F(n-1) + e + f*(-1)^n   params w=(w0..w5)

All four are solved from their initial values by the general solver;
families 1-3 give them as w_0 and z_i = w_i - F_{i-1}*w_0.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache, cached_property
from math import ceil, comb, gcd, lcm, log2
from operator import index, itemgetter, mul
from types import MappingProxyType

from ._value import Value
from .exact import Poly
from .fib import _times, _trace, fib, fib_pair
from .seqform import FibExpr, ShiftTerm, _levels

# in equal degrees k = 302 takes 0.02-0.03 s, 402 0.03-0.05 s and 602 0.11-0.18 s (2-core
# x86-64 VM); the cap dates from a back substitution of det-sized numbers that took 5 s at 302
MAX_UNKNOWNS = 300


class DegenerateTemplateError(ValueError):
    """The template's linear system is singular."""


class Template(Value):
    """Shape of a synthesis target; degree None means the slot is absent."""

    deg_p0: int | None
    deg_p1: int | None
    has_const: bool
    has_alt: bool

    def __init__(self, deg_p0: int | None = None, deg_p1: int | None = None,
                 has_const: bool = False, has_alt: bool = False) -> None:
        # a degree must be an integer (``operator.index``), as a shift is in FibExpr.of
        deg_p0, deg_p1 = (None if d is None else index(d) for d in (deg_p0, deg_p1))
        if not (isinstance(has_const, bool) and isinstance(has_alt, bool)):
            raise TypeError(f"has_const and has_alt must be bools, not {has_const!r}, {has_alt!r}")
        self.__dict__.update(deg_p0=deg_p0, deg_p1=deg_p1, has_const=has_const, has_alt=has_alt)
        for d in (deg_p0, deg_p1):
            if d is not None and d < 0:
                raise ValueError("polynomial degree must be >= 0 or None")
        if self.unknowns < 1:
            raise ValueError("template has no unknowns")

    @property
    def _degrees(self) -> tuple[int | None, ...]:
        """Degree of each part, None when absent; see slots for the parts."""
        return (self.deg_p0, self.deg_p1, 0 if self.has_const else None,
                0 if self.has_alt else None)

    @cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """(part, power) of each unknown, in slot order.

        Part 0 multiplies F(n), part 1 F(n-1), part 2 is the constant and
        part 3 the alternating term; within a part, powers descend.
        """
        return tuple((part, p) for part, d in enumerate(self._degrees) if d is not None
                     for p in range(d, -1, -1))

    @property
    def unknowns(self) -> int:
        # counted, not listed: a huge degree must fail the value-count check at once
        return sum(d + 1 for d in self._degrees if d is not None)

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(map(chr, range(ord("a"), ord("a") + self.unknowns)))

    def expr_from(self, coeffs: Sequence) -> FibExpr:
        """Assemble the expression whose slots carry the given coefficients."""
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != self.unknowns:
            raise ValueError(f"expected {self.unknowns} coefficients, got {len(vals)}")
        return _assemble(self.slots, vals)


def _assemble(slots: tuple[tuple[int, int], ...], vals: list[Fraction]) -> FibExpr:
    """The normalized expression whose slots carry vals, one Fraction per slot."""
    parts: tuple[list[Fraction], ...] = ([], [], [], [])
    for (part, _), c in zip(slots, vals):
        parts[part].append(c)
    polys = (Poly(tuple(reversed(p))) for p in parts[:2])  # powers descend in a part
    terms = tuple(ShiftTerm(shift, p) for shift, p in enumerate(polys) if p)
    return FibExpr(terms, *(p[0] if p else Fraction(0) for p in parts[2:]))  # e, f: one slot


FAMILY_TEMPLATES = {
    1: Template(1, 1),
    2: Template(2, 2),
    3: Template(2, 1),
    4: Template(1, 1, has_const=True, has_alt=True),
}


class SynthSolution(Value):
    """Solved expression plus the named slot coefficients that built it, read-only."""

    expr: FibExpr
    coefficients: MappingProxyType[str, Fraction]

    def __init__(self, expr: FibExpr, coefficients: dict[str, Fraction]) -> None:
        self.__dict__.update(expr=expr, coefficients=MappingProxyType(dict(coefficients)))

    def __hash__(self) -> int:
        return hash((self.expr, tuple(self.coefficients.items())))


def build_system(template: Template) -> list[list[int]]:
    """k x k matrix M with M[n][slot] = multiplier of that slot in w_n."""
    slots = template.slots
    rows = []
    fn1, fn = 1, 0  # (F(n-1), F(n)) at n = 0
    for n in range(len(slots)):
        base = (fn, fn1, 1, -1 if n % 2 else 1)
        rows.append([n**p * base[part] for part, p in slots])
        fn1, fn = fn, fn + fn1
    return rows


def _eliminate(aug: list[list[int]], width: int) -> tuple[int, list[list[int]]]:
    """Fraction-free forward elimination (Bareiss 1968) of the left width x
    width block of aug, in integers.  Returns (det, aug): det, the last pivot,
    is the block's determinant up to sign, and row i of aug holds U[i][i:]
    followed by its right-hand sides, U the upper triangular factor.  The
    caller back-substitutes.  Consumes aug.

    Step c of plain Bareiss turns each row v below the pivot row w into
    (p*v - f*w) / p', where p is the pivot, f the row's entry in column c and
    p' the previous pivot (1 at step 0).  A row with f = 0 would only be
    rescaled by p/p'.  Here it is left as it is, with s, the step before which
    it was last brought up to date: over the skipped steps the factors
    telescope to p'/q, with q the pivot before step s.  When the row is next
    used it catches up in the same pass: as the pivot row it becomes v*p'/q,
    and with f != 0 it becomes (p*v - f*w)/q.  Both are the rows plain
    Bareiss reaches, whose entries are minors of aug (Sylvester's identity)
    and so integers; every division is exact, and (det, U) are the ones
    plain Bareiss returns.  A row whose entries in the next columns are zero
    therefore costs nothing until its first nonzero column.
    """
    # Only the rows below the pivot change, and only right of it, so row i ends
    # as U[i][i:] followed by its right-hand sides.  The pivot is the first
    # nonzero entry top-down: deterministic, and magnitude is irrelevant under
    # exact arithmetic.
    divisors = [1]  # divisors[s]: the pivot before step s, by which step s divides
    since = [0] * width  # aug[r] holds columns since[r].. as they stood before step since[r]
    for col in range(width):
        for piv in range(col, width):
            if aug[piv][col - since[piv]]:
                break
        else:
            raise DegenerateTemplateError("the template's linear system is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        since[col], since[piv] = since[piv], since[col]
        row, s = aug[col], since[col]
        if s < col:
            prev, q = divisors[col], divisors[s]
            row = aug[col] = [v * prev // q for v in row[col - s:]]
        p, *head = row
        for r in range(col + 1, width):
            row, s = aug[r], since[r]
            f = row[col - s]
            if f:
                q = divisors[s]
                aug[r] = [(p * v - f * w) // q for v, w in zip(row[col - s + 1:], head)]
                since[r] = col + 1
        divisors.append(p)
    return divisors[-1], aug


def _to_monomial(template: Template, y: Iterable[int]) -> list[tuple[int, int]]:
    """Take one solved column from the C(n, p) basis to the n^p basis.

    y holds each slot's C(n, p) coefficient, in slot order.  Returns (x, s)
    per slot, where x/s is the slot's n^p coefficient and s = d! for the
    slot's part of degree d.  Each part takes one integer Horner pass over
    the falling factorials n(n-1)..(n-p+1) = p!*C(n, p), with coefficient p
    scaled by d!/p!.
    """
    out = []
    ys = iter(y)
    for d in template._degrees:
        if d is None:
            continue
        acc, scale = [next(ys)], 1  # powers descend
        for i in range(d - 1, -1, -1):
            scale *= i + 1  # d!/i!
            # acc*(n - i) + scale*y_i: the leading coefficient stays, each
            # other one loses i times the one above it (at i = 0, a shift)
            acc.append(scale * next(ys) - i * acc[-1])
            if i:
                for q in range(len(acc) - 2, 0, -1):
                    acc[q] -= i * acc[q - 1]
        out += [(x, scale) for x in acc]  # scale is d! now
    return out


@cache
def _column(part: int, p: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (row, entry) pairs, by ascending row, of the differenced
    column C(n, p)*F(n-part), part 0 or 1, over all of its rows 0..2p+1.

    By the closed form in the module docstring: with s = part, d = 2j - p
    and X_d the Fibonacci numbers for even d and the Lucas numbers for odd
    d, row t = 2j + r holds

        r = 0:  C(j, p-j) * 5^(d//2) * X_d(p-s)
        r = 1:  C(j, p-j) * 5^(d//2) * X_d(p+1-s)
                + C(j, p-j-1) * 5^((d+1)//2) * X_(d+1)(p-s),

    a term whose binomial has its lower index outside 0..j being absent, so
    the entry is 0 unless j <= p <= 2j + 1.  A column depends on (part, p)
    alone, so each is built once per process.
    """
    power = fib_pair(p - part)  # phi^q, q = p - part, and phi^(q+1) give F and L at q and q+1
    (f0, l0), (f1, l1) = ((x[0], _trace(x)) for x in (power, _times(power, (1, 0))))
    # d = 2j - p has the parity of p: X_d is one sequence all down the column
    # and X_(d+1) the other, and 5^((d+1)//2) is 5^(d//2) times 5 for odd d.
    # 5^(d//2) is 1 at j = ceil(p/2) and grows by 5 per j.
    x0, x1, y0, up = (l0, l1, f0, 5) if p % 2 else (f0, f1, l0, 1)
    pairs = [(p, f0)] if p % 2 else []  # row p, with j = (p-1)//2 and r = 1: F(p-s)
    five = 1
    for j in range((p + 1) // 2, p + 1):
        a = comb(j, p - j) * five
        v = a * x1
        if j < p:
            v += comb(j, p - j - 1) * five * up * y0
        pairs += ((2 * j, a * x0), (2 * j + 1, v))
        five *= 5
    return tuple(filter(itemgetter(1), pairs))


def _system(slots: tuple[tuple[int, int], ...],
            columns: Iterable[Sequence[int]]) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """(cols, aug): the binomial system of the slots, differenced, in elimination order.

    cols holds the slots (part, p) in column order: the F(n) and F(n-1)
    slots by ascending power, F(n)'s first at each power, then the constant
    and the alternating slot.  With R(n) the system's row n followed by the
    nth item of each right-hand column, row t = 2j + r of aug is (S^j R)(r),
    where S = E^2 - E - 1, E steps n and r is 0 or 1.  Each right-hand
    column takes the first two items of each of its ``_levels``.  Each F
    column's entries are ``_column``'s, those in rows below the system's
    size; the constant column holds (-1)^j and the alternating column
    (-1)^r.  Every entry is an int.
    """
    cols = sorted(slots, key=lambda s: (s[0] > 1, s[1], s[0]))
    k = len(cols)
    aug = [[0] * k for _ in cols]
    for b in columns:
        for row, v in zip(aug, [d for level in _levels(b) for d in level[:2]]):
            row.append(v)
    for c, (part, p) in enumerate(cols):
        if part > 1:
            bit = 2 if part == 2 else 1  # (-1)^j for the constant, (-1)^r for (-1)^n
            for t, row in enumerate(aug):
                row[c] = -1 if t & bit else 1
            continue
        for t, v in _column(part, p):
            if t >= k:
                break
            aug[t][c] = v
    return cols, aug


def _solve_blocks(aug: list[list[int]], k: int, pairs: int) -> list[tuple[int, list[int]]]:
    """Solve the left k x k block of ``_system``'s aug against each later
    column: per column (D, y), D a common denominator of its solution x and
    y the integers D*x_i.  aug is left as it is.

    pairs is the number of powers that both F parts have, min(deg P0, deg P1)
    + 1 (0 when a part is absent).  Row t = 2j + r of aug is zero in every F
    column of power below j, so the first h = 2*pairs rows and columns are
    block upper triangular and the rows past h are zero in those columns.
    Diagonal block p, rows 2p and 2p+1 against the columns of power p, is
    5^(p//2)*[[X(p), X(p-1)], [X(p+1), X(p)]], X the Fibonacci numbers for
    even p and the Lucas numbers for odd p, so its determinant q is +-5^p by
    Cassini's identity and its Lucas analogue L(p)^2 - L(p-1)*L(p+1) = +-5.
    Only the trailing block, rows and columns h.., goes to ``_eliminate``.

    The one back substitution walks the trailing rows from the last with D
    ``_eliminate``'s det, so each division by U[i][i] is exact by Cramer's
    rule, and then divides D and y by their gcd.  Each pair block, from the last,
    is one 2 x 2 Cramer step: with g the gcd of q and its numerators q*D*x_i
    and q*D*x_(i+1), D and the earlier y are multiplied by q/g alone.  So a
    product is a short entry times a number of the answer's length.
    """
    h, w = 2 * pairs, k - 2 * pairs
    det, rows = _eliminate([row[h:] for row in aug[h:]], w)
    ys = [[] for _ in aug[0][k:]]  # per column, D*x_j from j = k-1 down
    for i in range(w - 1, -1, -1):
        row = rows[i]
        u = row[w - 1 - i:0:-1]  # U[i][w-1], ..., U[i][i+1]
        for y, b in zip(ys, row[w - i:]):
            y.append((det * b - sum(map(mul, u, y))) // row[0])
    gs = [gcd(det, *y) for y in ys]
    dens, ys = [det // g for g in gs], [[v // g for v in y] for g, y in zip(gs, ys)]
    for i in range(h - 2, -1, -2):
        top, bottom = aug[i], aug[i + 1]
        (a, b), (c, d) = top[i:i + 2], bottom[i:i + 2]
        q = a * d - b * c
        ut, ub = top[k - 1:i + 1:-1], bottom[k - 1:i + 1:-1]  # columns k-1, ..., i+2
        for n, (den, y, bt, bb) in enumerate(zip(dens, ys, top[k:], bottom[k:])):
            r0 = den * bt - sum(map(mul, ut, y))
            r1 = den * bb - sum(map(mul, ub, y))
            x0, x1 = d * r0 - b * r1, a * r1 - c * r0
            g = gcd(x0, x1, q)
            if (s := q // g) != 1:
                dens[n], y[:] = den * s, [s * v for v in y]
            y += x1 // g, x0 // g
    return [(den, y[::-1]) for den, y in zip(dens, ys)]


# a product of two b-bit ints costs about b^log2(3) steps (Karatsuba), so one of
# two numbers of k^2 bits costs about k^(_POWER - 2)
_POWER = 2 + 2 * log2(3)


def _work(template: Template) -> float:
    """Estimated cost of solving the template's system: k^_POWER for k
    unknowns in equal degrees.

    The k^_POWER term is a back substitution of about k^2 products of two
    numbers of det's length, some k^2 bits.  ``_solve_blocks`` carries short
    numbers instead, so the term overstates a solve in equal degrees many
    times over; it stays as the scale in which the refusal is stated.  When
    the degrees of the two F parts differ by g, forward elimination also
    meets a dense trailing block of g columns, the powers past the lower
    degree m (-1 for an absent part): about g(g-1)(g-2)/8 entry updates,
    none for g < 3, on entries of some (3m + 3 + g/2)^2 bits, their size
    midway through the block.  The weight 16 of an update against a product
    is fitted to timings of shapes with k = 62..300.
    """
    d0, d1 = (-1 if d is None else d for d in template._degrees[:2])
    g, m = abs(d0 - d1), min(d0, d1)
    dense = g * (g - 1) * (g - 2) * (3 * m + 3 + g / 2) ** (_POWER - 2)
    return template.unknowns**_POWER + 2 * dense


def _solve(template: Template,
           columns: Iterable[Sequence[int]]) -> list[tuple[int, list[tuple[int, int]]]]:
    """(D, ys) per right-hand column, one item per row: ``_solve_blocks``'s D and
    its column taken to ``_to_monomial``'s list.  The module docstring's three
    refusals come first, read off the template alone."""
    k = template.unknowns
    if k > MAX_UNKNOWNS:
        raise ValueError(f"template has {k} unknowns, more than {MAX_UNKNOWNS}")
    parts = [part for part, d in enumerate(template._degrees) if d is not None]
    if parts == [0] or parts == [1] and k > 1:  # differenced row 0, or row 1, is zero
        raise DegenerateTemplateError("the template's linear system is singular")
    work = _work(template)
    if work > MAX_UNKNOWNS**_POWER:
        raise ValueError(f"template has {k} unknowns whose unequal degrees cost as much as "
                         f"{ceil(work ** (1 / _POWER))}, more than {MAX_UNKNOWNS}")
    cols, aug = _system(template.slots, columns)
    pairs = 1 + min(-1 if d is None else d for d in template._degrees[:2])
    where = sorted(range(k), key=lambda c: (cols[c][0], -cols[c][1]))  # column of each slot
    return [(den, _to_monomial(template, map(y.__getitem__, where)))
            for den, y in _solve_blocks(aug, k, pairs)]


def solve_template(template: Template, values: Sequence) -> SynthSolution:
    """Unique exact coefficients reproducing w_0..w_{k-1} = values, none a float."""
    values = list(values)
    if floats := [v for v in values if isinstance(v, float)]:
        raise TypeError(f"a value must be exact, not the float {floats[0]!r}")
    vals = [v if isinstance(v, int) else Fraction(v) for v in values]
    k = template.unknowns
    if len(vals) != k:
        raise ValueError(f"template needs {k} values, got {len(vals)}")
    den = lcm(*(v.denominator for v in vals))
    ((d, column),) = _solve(template, [[v.numerator * (den // v.denominator) for v in vals]])
    coeffs = [Fraction(x, scale * d * den) for x, scale in column]
    return SynthSolution(_assemble(template.slots, coeffs), dict(zip(template.slot_names, coeffs)))


def symbolic_inverse(template: Template) -> list[list[Fraction]]:
    """Exact inverse of build_system: maps (w_0..w_{k-1}) to the slot vector."""
    k = template.unknowns
    identity = ([0] * i + [1] + [0] * (k - 1 - i) for i in range(k))  # lazy: unbuilt past the cap
    columns = [[Fraction(x, scale * d) for x, scale in y] for d, y in _solve(template, identity)]
    return [list(row) for row in zip(*columns)]


def _int_params(name: str, vals: Sequence, want: int) -> list[int]:
    out = list(vals)
    if len(out) != want:
        raise ValueError(f"{name} must have {want} entries, got {len(out)}")
    for v in out:
        if not isinstance(v, int):
            raise ValueError(f"{name} entries must be integers, got {v!r}")
    return out


def theorem_solution(which: int, *, d=None, e=None, f=None, z=None, w=None) -> SynthSolution:
    """Coefficients and expression of a family instance; integer params make it integral."""
    if which not in FAMILY_TEMPLATES:
        raise ValueError(f"unknown family {which!r} (expected 1, 2, 3 or 4)")
    template = FAMILY_TEMPLATES[which]
    k = template.unknowns
    if which == 4:
        if any(p is not None for p in (d, e, f, z)):
            raise ValueError("family 4 takes only w=(w0..w5)")
        if w is None:
            raise ValueError("family 4 needs w=(w0..w5)")
        return solve_template(template, _int_params("w", w, k))
    if w is not None:
        raise ValueError(f"family {which} does not take w")
    # the trailing slot is the base parameter, which equals w_0
    base_name = template.slot_names[-1]
    named = {"d": d, "e": e, "f": f}
    base = named.pop(base_name)
    if any(v is not None for v in named.values()):
        raise ValueError(f"family {which} takes only {base_name} and z")
    if base is None or z is None:
        raise ValueError(f"family {which} needs {base_name} and z=(z1..z{k - 1})")
    if not isinstance(base, int):
        raise ValueError(f"{base_name} must be an integer, got {base!r}")
    zs = _int_params("z", z, k - 1)
    return solve_template(template, [base] + [zi + fib(i) * base for i, zi in enumerate(zs)])
