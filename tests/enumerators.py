"""Test oracle: brute-force enumerators for the paper's worked examples.

These deliberately build the combinatorial objects one by one instead of
using any closed form, so they can confirm (or refute) formula values:
A010049 (parts in compositions with no part 1), A129707 (inversions in
Fibonacci words) and the Leonardo numbers A001595.  The first two take time
exponential in n; the tests call them for n <= 20.
"""

from __future__ import annotations


def compositions_parts_count(n: int) -> int:
    """Total number of parts over all compositions of n+1 with no part 1."""
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
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b + 1
    return a
