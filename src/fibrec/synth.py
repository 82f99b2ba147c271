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

With the values' common denominator cleared, the system is solved in
integers by fraction-free forward elimination (Bareiss 1968) and
fraction-free back substitution (Nakos, Turner and Williams 1997).  The
elimination leaves a row whose pivot-column entry is 0 as it is and brings
it up to date with one exact division when it is next used (``_eliminate``
says why that division is exact), so the zero blocks cost nothing: a
balanced system takes about one row update per column, where plain Bareiss
updates every row below the pivot.  Each right-hand side is one column
from the caller to the coefficients, which ``symbolic_inverse`` transposes
into rows.  A solved column goes back to slot order, then to monomial
coefficients by one integer Horner pass per part over the falling factorials
n(n-1)..(n-d+1), whose last factor n is a shift; each becomes a ``Fraction``.

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
from math import ceil, comb, lcm, log2
from operator import itemgetter, mul
from types import MappingProxyType

from ._value import Value
from .exact import Poly
from .fib import _times, _trace, fib, fib_pair
from .seqform import FibExpr, ShiftTerm, _levels

# det has about 0.29*k^2 bits: k = 302 took 5 s, 402 took 17 s, 2,002 ran out of memory
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
    """Solve the left width x width block of aug against each later column.

    Fraction-free forward elimination (Bareiss 1968), then fraction-free back
    substitution (Nakos, Turner and Williams 1997), all in integers.  Returns
    (det, xs): det is the block's determinant up to sign, and xs has one list
    per right-hand column holding det*x_i for each unknown i, an integer by
    Cramer's rule.  Consumes aug.

    Step c of plain Bareiss turns each row v below the pivot row w into
    (p*v - f*w) / p', where p is the pivot, f the row's entry in column c and
    p' the previous pivot (1 at step 0).  A row with f = 0 would only be
    rescaled by p/p'.  Here it is left as it is, with s, the step before which
    it was last brought up to date: over the skipped steps the factors
    telescope to p'/q, with q the pivot before step s.  When the row is next
    used it catches up in the same pass: as the pivot row it becomes v*p'/q,
    and with f != 0 it becomes (p*v - f*w)/q.  Both are the rows plain
    Bareiss reaches, whose entries are minors of aug (Sylvester's identity)
    and so integers; every division is exact, and (det, xs) are the ones
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
    # Fraction-free back substitution: with x'_j = det*x_j,
    # x'_i = (det*b_i - sum_{j>i} U[i][j]*x'_j) / U[i][i], and the division is
    # exact because x'_i is an integer.
    det = divisors[-1]
    xs = [[] for _ in range(len(aug[-1]) - 1)]  # one per column, x'_{k-1} first
    for i in range(width - 1, -1, -1):
        row = aug[i]
        u = row[width - 1 - i:0:-1]  # U[i][k-1], ..., U[i][i+1]
        for x, b in zip(xs, row[width - i:]):
            x.append((det * b - sum(map(mul, u, x))) // row[0])
    return det, [x[::-1] for x in xs]


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


# a product of two b-bit ints costs about b^log2(3) steps (Karatsuba), so one of
# two numbers of k^2 bits costs about k^(_POWER - 2)
_POWER = 2 + 2 * log2(3)


def _work(template: Template) -> float:
    """Estimated cost of ``_eliminate`` on the template's system: k^_POWER for
    k unknowns in equal degrees.

    Back substitution takes about k^2 products of numbers of det's length,
    some k^2 bits.  When the degrees of the two F parts differ by g, forward
    elimination also meets a dense trailing block of g columns, the powers
    past the lower degree m (-1 for an absent part): about g(g-1)(g-2)/8
    entry updates, none for g < 3, on entries of some (3m + 3 + g/2)^2 bits,
    their size midway through the block.  The weight 16 of an update against
    a product is fitted to timings of shapes with k = 62..300.
    """
    d0, d1 = (-1 if d is None else d for d in template._degrees[:2])
    g, m = abs(d0 - d1), min(d0, d1)
    dense = g * (g - 1) * (g - 2) * (3 * m + 3 + g / 2) ** (_POWER - 2)
    return template.unknowns**_POWER + 2 * dense


def _solve(template: Template,
           columns: Iterable[Sequence[int]]) -> tuple[int, list[list[tuple[int, int]]]]:
    """(det, ys) for the system against each right-hand column, one item per
    row: det as ``_eliminate`` gives it, and per column ``_to_monomial``'s list.
    The module docstring's three refusals come first, read off the template alone."""
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
    det, xs = _eliminate(aug, k)
    where = sorted(range(k), key=lambda c: (cols[c][0], -cols[c][1]))  # column of each slot
    return det, [_to_monomial(template, map(x.__getitem__, where)) for x in xs]


def solve_template(template: Template, values: Sequence) -> SynthSolution:
    """Unique exact coefficients reproducing w_0..w_{k-1} = values."""
    vals = [v if isinstance(v, int) else Fraction(v) for v in values]
    k = template.unknowns
    if len(vals) != k:
        raise ValueError(f"template needs {k} values, got {len(vals)}")
    den = lcm(*(v.denominator for v in vals))
    det, (column,) = _solve(template, [[v.numerator * (den // v.denominator) for v in vals]])
    coeffs = [Fraction(x, scale * det * den) for x, scale in column]
    return SynthSolution(_assemble(template.slots, coeffs), dict(zip(template.slot_names, coeffs)))


def symbolic_inverse(template: Template) -> list[list[Fraction]]:
    """Exact inverse of build_system: maps (w_0..w_{k-1}) to the slot vector."""
    k = template.unknowns
    identity = ([0] * i + [1] + [0] * (k - 1 - i) for i in range(k))  # lazy: unbuilt past the cap
    det, ys = _solve(template, identity)
    return [[Fraction(x, scale * det) for x, scale in row] for row in zip(*ys)]


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
