"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact arithmetic, so every tolerance is zero.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from binet_oracle import QuadRat, binet, conj_poly, degree, fib_part_at
from conftest import (
    A010049,
    A054454,
    A054454_TEXT,
    A129707,
    EXAMPLE_EXPRS,
    QUAD_LIN,
    WALKS_W,
    assert_recurrence_holds,
    brute_scan,
    rand_expr,
    rand_family_instance,
    rand_perturbed_instance,
)
from enumerators import compositions_parts_count, fibonacci_word_inversions, leonardo

from fibrec import (
    FAMILY_TEMPLATES,
    Integral,
    Poly,
    build_system,
    fib,
    format_expr,
    is_integer_sequence,
    load_fixtures,
    parse,
    render_bfile,
    entry_from_bfile,
    search_local,
    solve_template,
    symbolic_inverse,
    theorem_solution,
    to_recurrence,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPT {number:02d}] {name}: FAIL")
        raise
    print(f"[ACCEPT {number:02d}] {name}: PASS")


def test_01_shift_identity():
    with criterion(1, "shift identity on [-12,12]^2"):
        for j in range(-12, 13):
            sign = -1 if j % 2 else 1
            c_f, c_f1 = sign * fib(j - 1), -sign * fib(j)
            for n in range(-12, 13):
                assert fib(n - j) == c_f * fib(n) + c_f1 * fib(n - 1)


def test_02_characteristic_polynomials_bit_exact():
    with criterion(2, "characteristic polynomial powers"):
        base = Poly((-1, -1, 1))
        assert (base ** 2).coeffs == (1, 2, -1, -2, 1)
        assert (base ** 3).coeffs == (-1, -3, 0, 5, 0, -3, 1)


def test_03_recurrence_derivation():
    with criterion(3, "recurrence coefficients and orders"):
        assert to_recurrence(A010049).coeffs == (2, 1, -2, -1)
        assert to_recurrence(A129707).coeffs == (3, 0, -5, 0, 3, 1)
        assert to_recurrence(QUAD_LIN).coeffs == (3, 0, -5, 0, 3, 1)
        assert to_recurrence(WALKS_W).order == 6
        for name, expr in EXAMPLE_EXPRS.items():
            rec = to_recurrence(expr)
            assert_recurrence_holds(rec, expr, -40, 40)


def test_04_theorem_reproduction():
    with criterion(4, "worked examples and printed inverse rows"):
        sol = solve_template(FAMILY_TEMPLATES[1], [0, 1, 1, 3])
        assert list(sol.coefficients.values()) == [F(2, 5), F(3, 5), F(-1, 5), 0]

        # family 2 with f=0, z=(0,1,4,12,31) means w = (0,0,1,4,12,31)
        sol = solve_template(FAMILY_TEMPLATES[2], [0, 0, 1, 4, 12, 31])
        assert sol.expr == A129707
        assert list(sol.coefficients.values()) == [
            F(1, 5), F(-1, 25), F(-4, 25), F(1, 10), F(1, 50), 0,
        ]

        sol = solve_template(FAMILY_TEMPLATES[3], [1, 1, 2, 2, 4])
        assert sol.expr == QUAD_LIN
        assert list(sol.coefficients.values()) == [
            F(1, 10), F(-43, 50), F(44, 25), F(7, 25), 1,
        ]

        sol = solve_template(FAMILY_TEMPLATES[4], [0, 1, 2, 6, 12, 26])
        assert list(sol.coefficients.values()) == [
            F(4, 5), F(-4, 5), F(3, 5), 0, F(1, 2), F(-1, 2),
        ]

        # symbolic inverses reproduce the closed-form rows after substituting
        # z_i = w_i - F_{i-1} * w_0 (families 1..3)
        closed = {
            1: [((-1, -3, 2), 5), ((6, 3, -2), 5), ((-2, 4, -1), 5)],
            2: [
                ((-1, 3, 1, -3, 1), 10),
                ((-5, -75, 15, 45, -17), 50),
                ((30, 30, -10, -15, 6), 25),
                ((3, -4, -3, 4, -1), 10),
                ((-45, 80, 15, -40, 11), 50),
            ],
            3: [
                ((2, -1, -2, 1), 10),
                ((-56, -7, 66, -23), 50),
                ((48, 6, -28, 9), 25),
                ((-6, 18, -9, 2), 25),
            ],
        }
        for which, rows in closed.items():
            template = FAMILY_TEMPLATES[which]
            k = template.unknowns
            inv = symbolic_inverse(template)
            for slot, (zrow, den) in enumerate(rows):
                wrow = [F(0)] * k
                for i, c in enumerate(zrow, start=1):
                    wrow[i] += F(c, den)
                    wrow[0] -= F(c * fib(i - 1), den)
                assert inv[slot] == wrow, (which, slot)
            assert inv[k - 1] == [F(1)] + [F(0)] * (k - 1)


def test_05_family_four_typo_exposed():
    with criterion(5, "printed c/d rows of the sixth-order family are wrong"):
        printed = [
            [F(c, 5) for c in (3, 2, -7, -1, 4, -1)],
            [F(c, 5) for c in (-3, -2, -3, 6, 6, -4)],
            [F(c, 5) for c in (-4, -1, 11, -2, -7, -3)],
            [F(c) for c in (0, 2, 1, 2, -1, 0)],
            [F(c, 2) for c in (1, 3, 1, -3, -1, 1)],
            [F(c, 2) for c in (1, 1, -3, -1, 3, -1)],
        ]
        m = build_system(FAMILY_TEMPLATES[4])
        inv = symbolic_inverse(FAMILY_TEMPLATES[4])
        ident = [[F(int(i == j)) for j in range(6)] for i in range(6)]

        def matmul(a, b):
            return [
                [sum(a[i][t] * b[t][j] for t in range(6)) for j in range(6)]
                for i in range(len(a))
            ]

        assert matmul(inv, m) == ident
        assert matmul(printed, m) != ident
        assert matmul([printed[2]], m)[0] != ident[2]
        assert matmul([printed[3]], m)[0] != ident[3]
        assert matmul([inv[2]], m)[0] == ident[2]
        assert matmul([inv[3]], m)[0] == ident[3]

        # the derived rows are the printed ones with one sign flipped each
        assert inv[2] == [F(c, 5) for c in (-4, -1, 11, -2, -7, 3)]
        assert inv[3] == [F(c) for c in (0, -2, 1, 2, -1, 0)]
        assert inv[0] == printed[0] and inv[1] == printed[1]
        assert inv[4] == printed[4] and inv[5] == printed[5]

        # and they reproduce the worked example where the printed rows fail
        w = [0, 1, 2, 6, 12, 26]
        assert sum(c * v for c, v in zip(inv[2], w)) == F(3, 5)
        assert sum(c * v for c, v in zip(inv[3], w)) == 0
        assert sum(c * v for c, v in zip(printed[2], w)) == F(-153, 5)
        assert sum(c * v for c, v in zip(printed[3], w)) == 4


def test_06_quad_linear_sequence_values():
    with criterion(6, "quadratic/linear example values at n = 0..10"):
        expected = (1, 1, 2, 2, 4, 7, 15, 32, 69, 146, 303)
        assert tuple(QUAD_LIN.at(n) for n in range(11)) == expected


def test_07_combinatorial_oracles():
    with criterion(7, "enumerators match formulas (and expose the bad reindex)"):
        start = time.monotonic()
        for n in range(19):
            assert compositions_parts_count(n) == A010049.at(n)
        for n in range(21):
            assert fibonacci_word_inversions(n) == A129707.at(n)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"oracles took {elapsed:.1f}s"

        intermediate = parse("(5n^2-37n+50)/50*F(n) + (4n-4)/50*F(n-1)")
        value = intermediate.at(4)  # the index that is supposed to give a(1)
        assert value == F(-3, 5)
        assert value.denominator > 1
        assert value != fibonacci_word_inversions(1)


def test_08_walks_and_leonardo():
    with criterion(8, "shift-by-one matches the walks formula; Leonardo identity"):
        constructed = theorem_solution(4, w=(0, 1, 2, 6, 12, 26)).expr
        assert constructed.shifted(1).canon() == parse(A054454_TEXT).canon()
        assert constructed.shifted(1).canon() == A054454.canon()

        lhs = parse("2*F(n) + 2*F(n-1) - 1")
        for n in range(31):
            assert lhs.at(n) == leonardo(n)


def test_09_decision_agrees_with_brute_force():
    with criterion(9, "decision vs brute scan on 200 randomized expressions"):
        rng = random.Random(20260810)
        for i in range(200):
            expr = rand_family_instance(rng) if i % 2 == 0 else rand_perturbed_instance(rng)
            verdict = is_integer_sequence(expr)
            witness = brute_scan(expr, -40, 40)
            assert isinstance(verdict, Integral) == (witness is None), format_expr(expr)


def test_10_randomized_properties():
    with criterion(10, "Binet, conjugacy, degrees, parse/print, synth round trips"):
        rng = random.Random(424242)

        for _ in range(200):
            expr = rand_expr(rng)
            split = q_alpha, q_beta = binet(expr)
            assert q_beta == conj_poly(q_alpha)
            assert degree(q_alpha) == degree(q_beta)  # d_alpha = d_beta
            for n in range(-8, 9):
                fib_part = expr.at(n) - expr.const_e - (
                    expr.alt_f if n % 2 == 0 else -expr.alt_f
                )
                assert fib_part_at(split, n) == QuadRat(fib_part, 0)

        for _ in range(500):
            expr = rand_expr(rng)
            assert parse(format_expr(expr)) == expr

        for template in FAMILY_TEMPLATES.values():
            for _ in range(100):
                values = [rng.randint(-50, 50) for _ in range(template.unknowns)]
                sol = solve_template(template, values)
                assert [sol.expr.at(n) for n in range(template.unknowns)] == values
                assert isinstance(is_integer_sequence(sol.expr), Integral)


def test_11_oeis_fixtures():
    with criterion(11, "local OEIS search and b-file round trips"):
        hits = search_local([0, 1, 1, 2, 3, 5, 8])
        assert [h.entry.a_number for h in hits] == ["A000045"]
        hits = search_local([1, 1, 3, 5, 9, 15])
        assert [h.entry.a_number for h in hits] == ["A001595"]
        assert search_local([1, 1, 2, 2, 4, 7, 15, 32, 69]) == []
        for a_number, entry in load_fixtures().items():
            assert entry_from_bfile(a_number, render_bfile(entry)) == entry
