"""Shared test helpers: worked-example expressions and seeded random generators."""

from __future__ import annotations

import random
from fractions import Fraction

from fibrec import FAMILY_TEMPLATES, FibExpr, Poly, fib, solve_template, theorem_solution

F = Fraction


def ref_at(expr: FibExpr, n: int) -> Fraction:
    """Reference value sum_i p_i(n)*F(n-j_i) + e + f*(-1)^n, term by term.

    Independent of the canonical form: no shift identity and no stepping,
    just one fast-doubling F per term, so tests can check the evaluator.
    """
    total = Fraction(expr.const_e)
    total += expr.alt_f if n % 2 == 0 else -expr.alt_f
    for t in expr.terms:
        total += t.poly(n) * fib(n - t.shift)
    return total


def brute_scan(expr: FibExpr, lo: int, hi: int) -> int | None:
    """First n in lo..hi whose ref_at value is not an integer (None if all are).

    Reads ref_at, not CanonForm.values, so it checks the integrality
    verdict against an evaluator that shares no code with it.
    """
    return next((n for n in range(lo, hi + 1) if ref_at(expr, n).denominator != 1), None)


def assert_recurrence_holds(rec, expr: FibExpr, lo: int, hi: int) -> None:
    """Assert that rec describes expr: w_0..w_{m-1} and each w_n on lo..hi.

    Checks w_n = sum_k coeffs[k-1]*w_{n-k} on ref_at values, not on
    CanonForm.values, which gave rec.initial; a negative lo checks the
    recurrence backward too.
    """
    w = {n: ref_at(expr, n) for n in range(min(lo - rec.order, 0), max(hi, rec.order) + 1)}
    assert rec.initial == tuple(w[n] for n in range(rec.order))
    for n in range(lo, hi + 1):
        predicted = sum(c * w[n - k] for k, c in enumerate(rec.coeffs, start=1))
        assert w[n] == predicted, f"the recurrence fails at n={n}"


# number of parts in all compositions of n+1 with no 1s:
#   (2n+3)/5 * F(n) - n/5 * F(n-1)
A010049 = FibExpr.of([(0, [F(3, 5), F(2, 5)]), (1, [0, F(-1, 5)])])

# inversions in Fibonacci binary words:
#   (5n^2-n-4)/25 * F(n) + (5n^2+n)/50 * F(n-1)
A129707 = FibExpr.of(
    [(0, [F(-4, 25), F(-1, 25), F(1, 5)]), (1, [0, F(1, 50), F(1, 10)])]
)

# the quadratic/linear worked example:
#   (5n^2-43n+88)/50 * F(n) + (14n+50)/50 * F(n-1)
QUAD_LIN = FibExpr.of([(0, [F(88, 50), F(-43, 50), F(1, 10)]), (1, [1, F(7, 25)])])

# full linear family worked example:
#   (4n-4)/5 * F(n) + 3n/5 * F(n-1) + 1/2 - 1/2*(-1)^n
WALKS_W = FibExpr.of(
    [(0, [F(-4, 5), F(4, 5)]), (1, [0, F(3, 5)])], const=F(1, 2), alt=F(-1, 2)
)

# its shift by one index (domino walks on the 2xn board):
#   4n/5 * F(n+1) + (3n+3)/5 * F(n) + 1/2 + 1/2*(-1)^n
A054454 = FibExpr.of(
    [(-1, [0, F(4, 5)]), (0, [F(3, 5), F(3, 5)])], const=F(1, 2), alt=F(1, 2)
)
A054454_TEXT = "4n/5*F(n+1) + (3n+3)/5*F(n) + 1/2 + 1/2*(-1)^n"

# Leonardo numbers: 2*F(n) + 2*F(n-1) - 1
LEONARDO_EXPR = FibExpr.of([(0, 2), (1, 2)], const=-1)

EXAMPLE_EXPRS = {
    "a010049": A010049,
    "a129707": A129707,
    "quad_lin": QUAD_LIN,
    "walks_w": WALKS_W,
    "a054454": A054454,
    "leonardo": LEONARDO_EXPR,
}

DENOMS = (1, 2, 3, 5, 10, 25, 50)


def rand_fraction(rng: random.Random, span: int = 9, denoms=DENOMS) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denoms))


def rand_poly(rng: random.Random, max_deg: int = 2) -> Poly:
    return Poly(tuple(rand_fraction(rng) for _ in range(rng.randint(0, max_deg) + 1)))


def rand_expr(rng: random.Random, max_terms: int = 3, max_deg: int = 2) -> FibExpr:
    terms = [
        (rng.randint(-4, 6), rand_poly(rng, max_deg))
        for _ in range(rng.randint(0, max_terms))
    ]
    const = rand_fraction(rng) if rng.random() < 0.5 else 0
    alt = rand_fraction(rng) if rng.random() < 0.5 else 0
    return FibExpr.of(terms, const, alt)


def rand_int_expr(rng: random.Random, max_deg: int = 2) -> FibExpr:
    """Integer-coefficient expression: integer-valued at every index."""
    terms = [
        (
            rng.randint(-3, 5),
            Poly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, max_deg + 1)))),
        )
        for _ in range(rng.randint(0, 3))
    ]
    return FibExpr.of(terms, rng.randint(-9, 9), rng.randint(-9, 9))


def rand_family_instance(rng: random.Random, span: int = 30) -> FibExpr:
    """A guaranteed-integer expression from a random family with random params."""
    which = rng.randint(1, 4)
    pick = lambda: rng.randint(-span, span)
    if which == 1:
        return theorem_solution(1, d=pick(), z=(pick(), pick(), pick())).expr
    if which == 2:
        return theorem_solution(2, f=pick(), z=tuple(pick() for _ in range(5))).expr
    if which == 3:
        return theorem_solution(3, e=pick(), z=tuple(pick() for _ in range(4))).expr
    return theorem_solution(4, w=tuple(pick() for _ in range(6))).expr


def rand_perturbed_instance(rng: random.Random) -> FibExpr:
    """Solve a family on integer values, then nudge one coefficient rationally."""
    template = FAMILY_TEMPLATES[rng.randint(1, 4)]
    values = [rng.randint(-30, 30) for _ in range(template.unknowns)]
    coeffs = list(solve_template(template, values).coefficients.values())
    slot = rng.randrange(len(coeffs))
    coeffs[slot] += Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))
    return template.expr_from(coeffs)
