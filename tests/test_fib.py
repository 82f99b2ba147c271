"""Fibonacci indexing, shift-identity coefficients, and fib against alpha powers."""

import random
from decimal import Decimal, Inexact, Rounded, localcontext

from binet_oracle import ALPHA, BETA, QuadRat, root_pow

import fibrec.cli as cli
from fibrec import fib, shift_coeffs
from fibrec.fib import _CARRY, _powers, _times, _trace, fib_pair


def naive_fib_table(lo: int, hi: int) -> dict[int, int]:
    # independent oracle: run the defining recurrence upward and downward
    table = {0: 0, 1: 1}
    for n in range(2, hi + 1):
        table[n] = table[n - 1] + table[n - 2]
    for n in range(-1, lo - 1, -1):
        table[n] = table[n + 2] - table[n + 1]
    return table


def test_fib_examples():
    assert fib(10) == 55
    assert fib(-4) == -3
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(-1) == 1


def test_fib_matches_naive_recurrence():
    table = naive_fib_table(-50, 50)
    for n in range(-50, 51):
        assert fib(n) == table[n]


def test_fib_pair_matches_naive_recurrence():
    table = naive_fib_table(-300, 301)
    for n in range(-299, 302):
        assert fib_pair(n) == (table[n], table[n - 1])


def _bit_boundary_indices():
    # the doubling loop branches on each bit of |n| (of -n-1 below zero)
    for k in range(19):
        for m in (2**k - 1, 2**k, 2**k + 1):
            yield from (m, -m)
    for bits in range(2, 19):
        alternating = int("10" * (bits // 2) + "1" * (bits % 2), 2)
        yield from (alternating, -alternating, alternating >> 1, -(alternating >> 1))


# both sides of 0 and of 10^5, where the doubling loop runs 17 bits
_FAR = [sign * (10**5 + i) for sign in (1, -1) for i in range(4)]


def test_fib_pair_matches_alpha_powers():
    # alpha^n = (L(n) + F(n)*sqrt(5))/2, by square-and-multiply, not fast doubling;
    # the pair (a, b) of phi^n is a*alpha + b
    for n in {-4097, -1001, -1000, 1000, 1001, 4097, *_FAR, *_bit_boundary_indices()}:
        (a, b), power = fib_pair(n), root_pow(ALPHA, n)
        assert (a, b) == (2 * power.s, 2 * root_pow(ALPHA, n - 1).s), n
        assert a * ALPHA + b == power, n


def test_fib_pair_cassini_at_far_indices():
    for n in (-200_000, -199_999, 199_999, 200_000):
        now, prev = fib_pair(n)
        assert fib_pair(n + 1)[1] == now
        assert prev * fib_pair(n + 1)[0] - now * now == (-1) ** (n % 2), n


def test_powers_are_alpha_powers_in_ints_and_decimals():
    # 1 apart near +-10^5 are carried, the jumps across 0 and near it doubled
    ks = [-7, -1, 0, 3, 40, 41, 2000, 2100, *_FAR, 4097, 4096, -4097]
    assert {_CARRY * abs(k - k0) <= abs(k) for k0, k in zip([0, *ks], ks)} == {True, False}
    expected = [root_pow(ALPHA, k) for k in ks]
    ints = _powers(tuple(ks))
    assert type(ints) is tuple and len(ints) == len(ks)
    for k, (a, b), power in zip(ks, ints, expected):
        assert a * ALPHA + b == power, k
    with localcontext(cli._EXACT) as exact:  # the same ks, so typed=True keeps them apart
        decimals = _powers(tuple(ks), Decimal(1))
        assert not (exact.flags[Inexact] or exact.flags[Rounded])
    for k, pair, power in zip(ks, decimals, expected):
        assert {type(x) for x in pair} == {Decimal}, k
        a, b = map(int, pair)
        assert a * ALPHA + b == power, k


def test_times_is_the_product_in_q_sqrt5():
    rng = random.Random(4801)
    signed = lambda bits: rng.choice((-1, 1)) * rng.getrandbits(bits)
    pairs = [(0, 0), (1, 0), (0, 1), (1, -1), fib_pair(10**5), fib_pair(-(10**5 + 3))]
    pairs += [(signed(bits), signed(bits)) for bits in (3, 30, 300, 3000) for _ in range(4)]
    for x in pairs:
        for y in pairs:
            c, d = _times(x, y)
            assert c * ALPHA + d == (x[0] * ALPHA + x[1]) * (y[0] * ALPHA + y[1]), (x, y)
    assert _times(fib_pair(10**5), fib_pair(-(10**5 + 3))) == fib_pair(-3)


def test_trace_of_phi_n_is_the_lucas_number():
    # alpha^n + beta^n = L(n) is twice the rational part of alpha^n
    for n in {*range(-300, 301), *_FAR, *_bit_boundary_indices()}:
        assert _trace(fib_pair(n)) == 2 * root_pow(ALPHA, n).r, n


def test_fib_pair_doubles_exactly_in_decimals():
    # the CLI's context, in which any rounding raises Inexact or Rounded
    indices = {*range(-2000, 2001), 10**5, -(10**5)}
    for k in range(18):
        indices |= {2**k - 1, 2**k + 1, -(2**k - 1), -(2**k + 1)}
    with localcontext(cli._EXACT) as exact:
        for n in sorted(indices):
            # the same digits and sign, exponent 0, and a zero is never -0
            got = [x.as_tuple() for x in fib_pair(n, Decimal(1))]
            assert got == [Decimal(x).as_tuple() for x in fib_pair(n)], n
        assert not (exact.flags[Inexact] or exact.flags[Rounded])


def test_fib_recurrence_property():
    for n in range(-50, 51):
        assert fib(n) == fib(n - 1) + fib(n - 2)


def test_fib_negative_index_rule():
    for n in range(0, 40):
        assert fib(-n) == (1 if n % 2 else -1) * fib(n)


def test_fib_large_index_fast():
    v = fib(10_000)
    assert v % 10 == 5  # spot digit, and the call returns instantly
    assert len(str(v)) == 2090


def test_shift_coeffs_examples():
    assert shift_coeffs(0) == (1, 0)
    assert shift_coeffs(2) == (1, -1)
    assert shift_coeffs(-1) == (1, 1)
    assert shift_coeffs(-2) == (2, 1)
    assert shift_coeffs(-3) == (3, 2)


def test_shift_identity_property():
    rng = random.Random(20261020)
    far = [rng.choice((-1, 1)) * rng.randint(16, 10**5) for _ in range(6)] + [10**5, -(10**5)]
    for j in [*range(-15, 16), *far]:
        c_f, c_f1 = shift_coeffs(j)
        for n in [*range(-15, 16), j - 1, j, j + 1]:
            assert fib(n - j) == c_f * fib(n) + c_f1 * fib(n - 1)


def test_alpha_pow_multiplicativity():
    for root in (ALPHA, BETA):
        powers = {n: root_pow(root, n) for n in range(-20, 21)}
        for m in range(-20, 21):
            for n in range(-20, 21):
                if -20 <= m + n <= 20:
                    assert powers[m] * powers[n] == powers[m + n]


def test_alpha_pow_binet_difference():
    # alpha^n - beta^n has no rational part and carries exactly F_n * sqrt(5);
    # both powers come from square-and-multiply, so fib() is checked, not used
    for n in list(range(-30, 31)) + [-1001, 1000, 4097]:
        a = root_pow(ALPHA, n)
        assert a.conj() == root_pow(BETA, n)
        assert a - root_pow(BETA, n) == QuadRat(0, fib(n))
