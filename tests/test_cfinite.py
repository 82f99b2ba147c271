"""Characteristic polynomials and recurrence derivation, checked against ref_at."""

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
    assert_recurrence_holds,
    brute_scan,
    rand_expr,
    rand_family_instance,
    rand_int_expr,
    ref_at,
)

from fibrec import (
    CanonForm,
    FibExpr,
    Integral,
    Poly,
    Recurrence,
    char_poly,
    format_expr,
    is_integer_sequence,
    parse,
    to_recurrence,
)
from fibrec.parser import MAX_EXPONENT

FIB_CHAR = Poly((-1, -1, 1))  # x^2 - x - 1, the minimal polynomial of alpha
QUARTIC = Poly((1, 2, -1, -2, 1))  # (x^2-x-1)^2
SEXTIC = Poly((-1, -3, 0, 5, 0, -3, 1))  # (x^2-x-1)^3


def test_char_poly_examples():
    assert char_poly(A010049.canon()) == QUARTIC
    assert char_poly(A129707.canon()) == SEXTIC
    assert char_poly(QUAD_LIN.canon()) == SEXTIC

    full = char_poly(WALKS_W.canon())
    assert full.degree == 6
    assert full == QUARTIC * Poly((-1, 1)) * Poly((1, 1))


def _char_poly_at(d, e, f):
    """char_poly of a form of degree d (None: no F term), with e != 0 and f != 0 as given."""
    p0 = Poly(()) if d is None else Poly((0,) * d + (F(1, 3),))
    return char_poly(CanonForm(p0, Poly(()), F(e, 7), F(-f, 2)))


def test_char_poly_matches_schoolbook_power():
    # char_poly steps a coefficient recurrence; the reference is Poly.__mul__,
    # stepped by one factor x^2-x-1 per degree and checked against Poly.__pow__
    # at a few degrees, with x-1 and x+1 multiplied in for every e and f
    factors = {
        (e, f): Poly((-1, 1) if e else (1,)) * Poly((1, 1) if f else (1,))
        for e in (0, 1) for f in (0, 1)
    }
    power = Poly((1,))
    for d in [None, *range(301)]:
        if d is not None:
            power = power * FIB_CHAR
            if d in (0, 1, 2, 7, 63, 64, 127, 300):
                assert power == FIB_CHAR ** (d + 1)
        for (e, f), factor in factors.items():
            got = _char_poly_at(d, e, f)
            assert got == power * factor, (d, e, f)
            assert all(type(c) is int for c in got.coeffs)


def test_char_poly_steps_by_one_factor_up_to_max_exponent():
    # past the schoolbook test's D = 300, up to MAX_EXPONENT: one more degree
    # is one more factor x^2-x-1
    for d in (300, 511, 512, MAX_EXPONENT - 1, MAX_EXPONENT):
        for e in (0, 1):
            for f in (0, 1):
                got = _char_poly_at(d, e, f)
                assert got == _char_poly_at(d - 1, e, f) * FIB_CHAR, (d, e, f)
                assert got.degree == 2 * (d + 1) + e + f
                assert all(type(c) is int for c in got.coeffs)


def test_char_poly_minimality_at_spectral_level():
    assert char_poly(FibExpr().canon()) == Poly((1,))
    assert char_poly(FibExpr.of([], const=F(1, 2)).canon()) == Poly((-1, 1))
    assert char_poly(FibExpr.of([], alt=3).canon()) == Poly((1, 1))
    assert char_poly(FibExpr.of([], const=1, alt=1).canon()) == Poly((-1, 0, 1))
    # no (x-1)/(x+1) factors when e/f vanish
    assert char_poly(FibExpr.of([(0, [1])]).canon()) == Poly((-1, -1, 1))


def test_char_poly_is_minimal_by_hankel_rank():
    # a recurrence of order k leaves every Hankel matrix (w_{i+j}) of rank
    # <= k, so rank m on the (m+1)x(m+1) one says that no recurrence is
    # shorter than char_poly's, and rank < m+1 agrees that it is one
    sympy = pytest.importorskip("sympy")
    rng = random.Random(113)
    exprs = [*EXAMPLE_EXPRS.values(), FibExpr(), FibExpr.of([], const=2, alt=F(1, 3))]
    exprs += [rand_expr(rng, max_deg=3) for _ in range(15)]
    exprs += [rand_int_expr(rng, max_deg=3) for _ in range(10)]
    exprs += [rand_family_instance(rng) for _ in range(5)]
    for e in exprs:
        m = to_recurrence(e).order
        w = [ref_at(e, n) for n in range(2 * m + 1)]
        w = [sympy.Rational(v.numerator, v.denominator) for v in w]
        hankel = sympy.Matrix(m + 1, m + 1, lambda i, j: w[i + j])
        assert hankel.rank() == m, format_expr(e)


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
    assert_recurrence_holds(to_recurrence(A010049), A010049, -40, 40)
    assert_recurrence_holds(to_recurrence(A054454), A054454, -40, 40)
    corrupted = Recurrence(Poly((1, 2, -1, -3, 1)), to_recurrence(A010049).initial)
    assert corrupted.coeffs == (3, 1, -2, -1)
    with pytest.raises(AssertionError, match="fails at n=4"):
        assert_recurrence_holds(corrupted, A010049, 4, 10)
    with pytest.raises(AssertionError):
        assert_recurrence_holds(corrupted, A010049, -40, -1)


def test_verify_recurrence_all_examples():
    for expr in EXAMPLE_EXPRS.values():
        assert_recurrence_holds(to_recurrence(expr), expr, -40, 40)


def _window(expr: FibExpr, lo: int, hi: int) -> list:
    return [v for _, v in expr.canon().values(lo, hi)]


def test_extend_forward_examples():
    # the values just past the initial segment w_0..w_{m-1}
    assert _window(A010049, 4, 6) == [5, 10, 18]
    assert _window(QUAD_LIN, 6, 10) == [15, 32, 69, 146, 303]


def test_extend_backward_fibonacci():
    e = FibExpr.of([(0, [1])])
    assert to_recurrence(e).initial == (0, 1)
    assert _window(e, -4, -1)[::-1] == [1, -1, 2, -3]  # w_-1 .. w_-4
    # order 1: a constant (x - 1) and an alternating sequence (x + 1)
    for text, initial, backward in (("3", (3,), [3, 3, 3]), ("2*(-1)^n", (2,), [-2, 2, -2])):
        e = parse(text)
        assert to_recurrence(e).initial == initial
        assert _window(e, -3, -1)[::-1] == backward


def test_extend_zero_sequence_forward():
    assert _window(FibExpr(), 0, 2) == [0, 0, 0]


def test_extend_matches_evaluation_both_directions():
    rng = random.Random(79)
    for _ in range(25):
        e = rand_expr(rng)
        rec = to_recurrence(e)
        assert_recurrence_holds(rec, e, -10, rec.order + 9)
        assert _window(e, -10, rec.order + 9) == [ref_at(e, n) for n in range(-10, rec.order + 10)]


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
    # the unit trailing coefficient carries integer initials to every index of Z
    rng = random.Random(97)
    ints = [rand_int_expr(rng) for _ in range(20)]
    assert all(isinstance(is_integer_sequence(e), Integral) for e in ints)
    families = [rand_family_instance(rng) for _ in range(20)]  # rational coefficients
    for e in ints + families + [rand_expr(rng) for _ in range(40)]:
        if isinstance(is_integer_sequence(e), Integral):
            assert brute_scan(e, -100, 100) is None
