"""Characteristic polynomials, recurrence derivation, verification, extension."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from conftest import (
    A010049,
    A054454,
    A129707,
    EXAMPLE_EXPRS,
    QUAD_LIN,
    WALKS_W,
    rand_expr,
    rand_int_expr,
    ref_at,
)

from fibrec import (
    FibExpr,
    InvariantViolation,
    Poly,
    Recurrence,
    char_poly,
    parse,
    to_recurrence,
)

QUARTIC = Poly((1, 2, -1, -2, 1))  # (x^2-x-1)^2
SEXTIC = Poly((-1, -3, 0, 5, 0, -3, 1))  # (x^2-x-1)^3


def test_char_poly_examples():
    assert char_poly(A010049.canon()) == QUARTIC
    assert char_poly(A129707.canon()) == SEXTIC
    assert char_poly(QUAD_LIN.canon()) == SEXTIC

    full = char_poly(WALKS_W.canon())
    assert full.degree == 6
    assert full == QUARTIC * Poly((-1, 1)) * Poly((1, 1))


def test_char_poly_minimality_at_spectral_level():
    assert char_poly(FibExpr().canon()) == Poly((1,))
    assert char_poly(FibExpr.of([], const=F(1, 2)).canon()) == Poly((-1, 1))
    assert char_poly(FibExpr.of([], alt=3).canon()) == Poly((1, 1))
    assert char_poly(FibExpr.of([], const=1, alt=1).canon()) == Poly((-1, 0, 1))
    # no (x-1)/(x+1) factors when e/f vanish
    assert char_poly(FibExpr.of([(0, [1])]).canon()) == Poly((-1, -1, 1))


def test_to_recurrence_examples():
    rec = to_recurrence(A010049)
    assert rec.order == 4
    assert rec.coeffs == (2, 1, -2, -1)
    assert rec.initial == (0, 1, 1, 3)

    assert to_recurrence(A129707).coeffs == (3, 0, -5, 0, 3, 1)
    assert to_recurrence(QUAD_LIN).coeffs == (3, 0, -5, 0, 3, 1)

    zero = to_recurrence(FibExpr())
    assert (zero.order, zero.coeffs, zero.initial) == (0, (), ())


def test_verify_recurrence_examples():
    assert to_recurrence(A010049).holds_for(A010049, 4, 40)
    assert to_recurrence(A054454).holds_for(A054454, 6, 40)
    corrupted = dataclasses.replace(to_recurrence(A010049), char_poly=Poly((1, 2, -1, -3, 1)))
    assert corrupted.coeffs == (3, 1, -2, -1)
    assert not corrupted.holds_for(A010049, 4, 10)
    with pytest.raises(ValueError):
        to_recurrence(A010049).holds_for(A010049, 10, 4)


def test_holds_for_checks_every_index_of_the_window():
    fib_rec = to_recurrence(FibExpr.of([(0, [1])]))  # w_n = w_{n-1} + w_{n-2}
    rng = random.Random(3)
    for _ in range(40):
        e = rand_expr(rng)
        lo = rng.randint(-30, 30)
        expected = ref_at(e, lo) == ref_at(e, lo - 1) + ref_at(e, lo - 2)
        assert fib_rec.holds_for(e, lo, lo) == expected
        assert to_recurrence(e).holds_for(e, lo, lo)


def test_verify_recurrence_all_examples():
    for name, expr in EXAMPLE_EXPRS.items():
        rec = to_recurrence(expr)
        assert rec.holds_for(expr, rec.order, 40), name


def test_extend_forward_examples():
    assert to_recurrence(A010049).extend(3) == [5, 10, 18]
    assert to_recurrence(QUAD_LIN).extend(5) == [15, 32, 69, 146, 303]


def test_extend_backward_fibonacci():
    rec = to_recurrence(FibExpr.of([(0, [1])]))
    assert rec.initial == (0, 1)
    assert rec.extend(4, "backward") == [1, -1, 2, -3]
    # order 1: x - 1 and x + 1 are their own reflections
    for text, initial, backward in (("3", (3,), [3, 3, 3]), ("2*(-1)^n", (2,), [-2, 2, -2])):
        rec = to_recurrence(parse(text))
        assert rec.initial == initial
        assert rec.extend(3, "backward") == backward


def test_extend_zero_sequence_forward():
    assert to_recurrence(FibExpr()).extend(3) == [0, 0, 0]


def test_extend_argument_validation():
    rec = to_recurrence(A010049)
    with pytest.raises(ValueError):
        rec.extend(0)
    with pytest.raises(ValueError):
        rec.extend(2, "sideways")
    with pytest.raises(ValueError):
        to_recurrence(FibExpr()).extend(1, "backward")


def test_extend_backward_requires_unit_trailing_coefficient():
    bogus = Recurrence(Poly((-2, 1)), (F(1),))  # w_n = 2*w_{n-1}
    assert (bogus.order, bogus.coeffs) == (1, (2,))
    with pytest.raises(InvariantViolation):
        bogus.extend(1, "backward")


def test_extend_matches_evaluation_both_directions():
    rng = random.Random(79)
    for _ in range(25):
        e = rand_expr(rng)
        rec = to_recurrence(e)
        fwd = rec.extend(10, "forward")
        assert fwd == [e.at(n) for n in range(rec.order, rec.order + 10)]
        if rec.order >= 1:
            bwd = rec.extend(10, "backward")
            assert bwd == [e.at(-n) for n in range(1, 11)]


def test_order_law():
    rng = random.Random(83)
    checked = 0
    while checked < 40:
        e = rand_expr(rng)
        c = e.canon()
        if c.fib_degree is None:
            continue
        expected = 2 * (c.fib_degree + 1) + (c.const_e != 0) + (c.alt_f != 0)
        assert to_recurrence(e).order == expected
        checked += 1


def test_constant_term_is_a_unit():
    rng = random.Random(89)
    for _ in range(60):
        rec = to_recurrence(rand_expr(rng))
        if rec.order >= 1:
            assert abs(rec.char_poly.coeffs[0]) == 1
            assert rec.coeffs[-1] in (1, -1)


def test_integer_initials_propagate_both_ways():
    rng = random.Random(97)
    for _ in range(20):
        e = rand_int_expr(rng)
        rec = to_recurrence(e)
        assert all(v.denominator == 1 for v in rec.initial)
        for v in rec.extend(100, "forward"):
            assert v.denominator == 1
        if rec.order >= 1:
            for v in rec.extend(100, "backward"):
                assert v.denominator == 1
