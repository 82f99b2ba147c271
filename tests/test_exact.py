"""Kernel tests: polynomial normalization/arithmetic, and the Q(sqrt(5)) oracle."""

import math
import random
from fractions import Fraction as F

import pytest
from binet_oracle import ALPHA, BETA, SQRT5, QuadRat

from fibrec import Poly


def test_normalization_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()
    assert Poly(()) == Poly((0, 0, 0))
    assert Poly([F(0), F(1)]).coeffs == (0, F(1))
    assert Poly((0, 3, 0, F(0), 0)).coeffs == (0, 3)
    assert Poly(x for x in (2, 0, 1, 0)).coeffs == (2, 0, 1)
    # one slice, not one per zero: 10^6 zeros take about 0.1 s, not half an hour
    assert Poly((1,) + (0,) * 10**6).coeffs == (1,)
    assert Poly((0,) * 10**6) == Poly(())


def test_zero_poly_degree_is_absent():
    assert Poly(()).degree is None
    assert Poly((5,)).degree == 0
    assert Poly((0, 0, 3)).degree == 2
    assert not Poly(())
    assert Poly((1,))


def test_eval_examples():
    assert Poly((F(3, 5), F(2, 5)))(5) == F(13, 5)
    assert Poly(())(7) == 0
    assert Poly((0, 0, 1))(-3) == 9


def test_taylor_shift_examples():
    assert Poly((0, 0, 1)).taylor_shift(3) == Poly((9, 6, 1))
    p = Poly((F(50, 50), F(-37, 50), F(5, 50)))
    assert p.taylor_shift(3) == Poly((F(-16, 50), F(-7, 50), F(5, 50)))
    assert p.taylor_shift(0) == p
    assert Poly(()).taylor_shift(11) == Poly(())


def test_taylor_shift_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        p = Poly(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))))
        k = rng.randint(-20, 20)
        assert p.taylor_shift(k).taylor_shift(-k) == p


def test_pow_examples():
    base = Poly((-1, -1, 1))
    assert (base ** 2).coeffs == (1, 2, -1, -2, 1)
    assert (base ** 3).coeffs == (-1, -3, 0, 5, 0, -3, 1)
    assert base ** 0 == Poly((1,))
    assert Poly(()) ** 0 == Poly((1,))
    with pytest.raises(ValueError):
        base ** -1


def test_pow_additivity():
    rng = random.Random(11)
    for _ in range(40):
        b = Poly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 4))))
        j, k = rng.randint(0, 4), rng.randint(0, 4)
        assert b ** (j + k) == (b ** j) * (b ** k)


def test_poly_ring_basics():
    p = Poly((1, 2))
    q = Poly((-1, -2))
    assert p + q == Poly(())
    assert p - p == Poly(())
    assert p * Poly(()) == Poly(())
    assert 3 * p == Poly((3, 6))
    assert p * F(1, 2) == Poly((F(1, 2), 1))


def _rand_quad(rng):
    return QuadRat(
        F(rng.randint(-9, 9), rng.randint(1, 9)),
        F(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_quadrat_root_relations():
    assert ALPHA * BETA == -1
    assert ALPHA + BETA == 1
    assert ALPHA * ALPHA == ALPHA + 1
    assert ALPHA * ALPHA == QuadRat(F(3, 2), F(1, 2))
    assert ALPHA * (ALPHA - 1) == 1  # 1/alpha = alpha - 1, which root_pow relies on
    assert BETA * (BETA - 1) == 1
    assert SQRT5 * SQRT5 == 5
    assert ALPHA.conj() == BETA


def test_quadrat_conjugation_properties():
    rng = random.Random(13)
    for _ in range(100):
        q, w = _rand_quad(rng), _rand_quad(rng)
        assert q.conj().conj() == q
        assert (q * w).conj() == q.conj() * w.conj()
        assert (q + w).conj() == q.conj() + w.conj()


def test_quadrat_mixed_scalar_arithmetic():
    assert QuadRat(1, 0) == 1
    assert QuadRat(F(1, 2), 0) == F(1, 2)
    assert F(1, 2) * SQRT5 == QuadRat(0, F(1, 2))
    assert 2 + SQRT5 == QuadRat(2, 1)
    assert SQRT5 != 0
    assert not QuadRat(0, 0)
    for r in (0, 1, -7, F(1, 2), F(-22, 7), F(10**30 + 1, 3)):
        assert QuadRat(r) == r and QuadRat(r, 0) == F(r)
        assert QuadRat(r, 1) != r


def test_fraction_chains_stay_reduced():
    # fuzz the Rational invariants: gcd(|num|, den) = 1 and den >= 1 persist
    rng = random.Random(17)
    x = F(1)
    for _ in range(300):
        y = F(rng.randint(-20, 20), rng.randint(1, 20))
        op = rng.randrange(4)
        if op == 0:
            x = x + y
        elif op == 1:
            x = x - y
        elif op == 2:
            x = x * y
        elif y:
            x = x / y
        assert x.denominator >= 1
        assert math.gcd(abs(x.numerator), x.denominator) == 1
