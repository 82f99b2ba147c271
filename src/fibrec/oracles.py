"""Brute-force enumerators used as independent cross-checks.

These deliberately build the combinatorial objects one by one instead of
using any closed form, so they can confirm (or refute) formula values.
The two enumerators are capped at n <= 25 to keep them at desk scale, and
the Leonardo recurrence at n <= 100,000: its n additions of numbers with
about 0.21*n digits make its time grow as n^2.
"""

from __future__ import annotations

MAX_ENUM = 25
MAX_LEONARDO = 100_000


def _check(n: int, cap: int = MAX_ENUM) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise ValueError(f"oracle capped at n <= {cap}")


def compositions_parts_count(n: int) -> int:
    """Total number of parts over all compositions of n+1 with no part 1."""
    _check(n)
    total = 0

    def walk(remaining: int, parts: int) -> None:
        nonlocal total
        if remaining == 0:
            total += parts
            return
        for part in range(2, remaining + 1):
            walk(remaining - part, parts + 1)

    walk(n + 1, 0)
    return total


def fibonacci_word_inversions(n: int) -> int:
    """Sum of inversions over all binary words of length n with no two adjacent 1s.

    An inversion is a pair of positions i < j carrying 1 at i and 0 at j.
    """
    _check(n)
    total = 0
    word: list[int] = []

    def walk() -> None:
        nonlocal total
        if len(word) == n:
            ones = 0
            inversions = 0
            for bit in word:
                if bit:
                    ones += 1
                else:
                    inversions += ones
            total += inversions
            return
        word.append(0)
        walk()
        word.pop()
        if not word or word[-1] == 0:
            word.append(1)
            walk()
            word.pop()

    walk()
    return total


def leonardo(n: int) -> int:
    """L_0 = L_1 = 1 and L_n = L_{n-1} + L_{n-2} + 1, computed directly."""
    _check(n, cap=MAX_LEONARDO)
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b + 1
    return a
