"""Brute-force enumerators versus the closed formulas they certify."""

from fractions import Fraction as F

from conftest import A010049, A129707, LEONARDO_EXPR
from enumerators import compositions_parts_count, fibonacci_word_inversions, leonardo

from fibrec import fib, parse


def test_compositions_examples():
    assert compositions_parts_count(0) == 0
    assert compositions_parts_count(3) == 3
    assert compositions_parts_count(5) == 10


def test_compositions_match_formula():
    for n in range(19):
        assert compositions_parts_count(n) == A010049.at(n)


def test_inversions_examples():
    assert fibonacci_word_inversions(0) == 0
    assert fibonacci_word_inversions(1) == 0
    assert fibonacci_word_inversions(2) == 1
    assert fibonacci_word_inversions(3) == 4
    assert fibonacci_word_inversions(4) == 12


def test_inversions_match_formula():
    for n in range(21):
        assert fibonacci_word_inversions(n) == A129707.at(n)


def test_reindexed_intermediate_formula_disagrees():
    # The widely-quoted intermediate form (5n^2-37n+50)/50*F(n)+(4n-4)/50*F(n-1)
    # is supposed to give a(n-3), but it does not: at n = 4 (which should be
    # a(1)) it evaluates to the non-integer -3/5, while enumeration gives
    # a(1) = 0 and a(4) = 12.  The final formula is the trustworthy one.
    intermediate = parse("(5n^2-37n+50)/50*F(n) + (4n-4)/50*F(n-1)")
    assert intermediate.at(4) == F(-3, 5)
    assert intermediate.at(4).denominator > 1
    assert intermediate.at(4) != fibonacci_word_inversions(1)
    assert intermediate.at(4) != fibonacci_word_inversions(4)
    reindexed = intermediate.shifted(3)
    assert reindexed.at(1) == F(-3, 5)
    assert reindexed.canon() != A129707.canon()


def test_leonardo_examples():
    assert leonardo(0) == 1
    assert leonardo(1) == 1
    assert leonardo(2) == 3
    assert leonardo(5) == 15


def test_leonardo_fibonacci_identity():
    for n in range(31):
        assert leonardo(n) == 2 * fib(n) + 2 * fib(n - 1) - 1
        assert leonardo(n) == LEONARDO_EXPR.at(n)
    assert leonardo(100_000) == 2 * fib(100_000) + 2 * fib(99_999) - 1
