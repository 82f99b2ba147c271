"""Recover coefficient polynomials from initial values by exact linear algebra.

A ``Template`` fixes the shape of the target expression: the degrees of the
F(n) and F(n-1) coefficient polynomials, plus optional constant and
alternating terms.  The unknown coefficients then satisfy a square linear
system whose row n states w_n = <basis values at n> . <unknowns>.  Its
entries n^p*F(n-part) are integers (``build_system`` steps (F(n-1), F(n))
from (1, 0), one addition per row), so it is solved by fraction-free
Gauss-Jordan elimination (Bareiss 1968) in integers, with the values'
common denominator cleared first and one exact division at the end.

Slot order is defined once, by ``Template.slots``: the reading order of the
written-out expression, that is F(n) coefficients by descending degree, then
F(n-1) coefficients by descending degree, then the constant, then the
alternating coefficient.  Slots are named a, b, c, ... in that order, and
``unknowns``, ``build_system`` and ``expr_from`` all read it.

``theorem_solution`` builds the four guaranteed-integer families:

    1: (a*n+b)*F(n) + (c*n+d)*F(n-1)                  params d, z=(z1..z3)
    2: (a*n^2+b*n+c)*F(n) + (d*n^2+e*n+f)*F(n-1)      params f, z=(z1..z5)
    3: (a*n^2+b*n+c)*F(n) + (d*n+e)*F(n-1)            params e, z=(z1..z4)
    4: (a*n+b)*F(n) + (c*n+d)*F(n-1) + e + f*(-1)^n   params w=(w0..w5)

All four are solved from their initial values by the general solver;
families 1-3 give them as w_0 and z_i = w_i - F_{i-1}*w_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .fib import fib
from .seqform import FibExpr


class DegenerateTemplateError(ValueError):
    """The template's linear system is singular."""


@dataclass(frozen=True)
class Template:
    """Shape of a synthesis target; degree None means the slot is absent."""

    deg_p0: int | None = None
    deg_p1: int | None = None
    has_const: bool = False
    has_alt: bool = False

    def __post_init__(self) -> None:
        for d in (self.deg_p0, self.deg_p1):
            if d is not None and d < 0:
                raise ValueError("polynomial degree must be >= 0 or None")
        if self.unknowns < 1:
            raise ValueError("template has no unknowns")

    @property
    def _degrees(self) -> tuple[int | None, ...]:
        """Degree of each part, None when absent; see slots for the parts."""
        return (self.deg_p0, self.deg_p1, 0 if self.has_const else None,
                0 if self.has_alt else None)

    @property
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
        return tuple(chr(ord("a") + i) for i in range(self.unknowns))

    def expr_from(self, coeffs: Sequence) -> FibExpr:
        """Assemble the expression whose slots carry the given coefficients."""
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != self.unknowns:
            raise ValueError(f"expected {self.unknowns} coefficients, got {len(vals)}")
        parts: tuple[list[Fraction], ...] = ([], [], [], [])
        for (part, _), c in zip(self.slots, vals):
            parts[part].append(c)
        # powers descend within a part, and FibExpr.of takes them ascending
        p0, p1, const, alt = parts
        return FibExpr.of([(0, p0[::-1]), (1, p1[::-1])], sum(const), sum(alt))


FAMILY_TEMPLATES = {
    1: Template(1, 1),
    2: Template(2, 2),
    3: Template(2, 1),
    4: Template(1, 1, has_const=True, has_alt=True),
}


@dataclass(frozen=True)
class SynthSolution:
    """Solved expression plus the named slot coefficients that built it."""

    expr: FibExpr
    coefficients: dict[str, Fraction]


def build_system(template: Template) -> list[list[int]]:
    """k x k matrix M with M[n][slot] = multiplier of that slot in w_n."""
    rows = []
    fn1, fn = 1, 0  # (F(n-1), F(n)) at n = 0
    for n in range(template.unknowns):
        base = (fn, fn1, 1, -1 if n % 2 else 1)
        rows.append([n**p * base[part] for part, p in template.slots])
        fn1, fn = fn, fn + fn1
    return rows


def _eliminate(aug: list[list[int]], width: int) -> int:
    """Fraction-free Gauss-Jordan on the left width columns, in place.

    Returns the last pivot, the determinant of that block up to sign.  On
    return every row r carries that pivot in column r, and the rest of the
    block is zero; the other columns hold that pivot times the block's
    inverse applied to them.
    """
    # Bareiss's one-step update: the previous pivot divides p*v - f*w exactly,
    # because every entry is then a minor of the original rows.  Pivot choice
    # is the first nonzero entry top-down: deterministic, and magnitude is
    # irrelevant under exact arithmetic.
    prev = 1
    for col in range(width):
        piv = next((r for r in range(col, len(aug)) if aug[r][col]), None)
        if piv is None:
            raise DegenerateTemplateError("the template's linear system is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        for r in range(len(aug)):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * v - f * w) // prev for v, w in zip(aug[r], aug[col])]
        prev = p
    return prev


def solve_template(template: Template, values: Sequence) -> SynthSolution:
    """Unique exact coefficients reproducing w_0..w_{k-1} = values."""
    vals = [Fraction(v) for v in values]
    k = template.unknowns
    if len(vals) != k:
        raise ValueError(f"template needs {k} values, got {len(vals)}")
    den = lcm(*(v.denominator for v in vals))
    aug = [row + [v.numerator * (den // v.denominator)]
           for row, v in zip(build_system(template), vals)]
    scale = _eliminate(aug, k) * den
    coeffs = [Fraction(row[k], scale) for row in aug]
    return SynthSolution(template.expr_from(coeffs), dict(zip(template.slot_names, coeffs)))


def symbolic_inverse(template: Template) -> list[list[Fraction]]:
    """Exact inverse of build_system: maps (w_0..w_{k-1}) to the slot vector."""
    k = template.unknowns
    aug = [row + [int(i == j) for j in range(k)] for i, row in enumerate(build_system(template))]
    det = _eliminate(aug, k)
    return [[Fraction(v, det) for v in row[k:]] for row in aug]


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
