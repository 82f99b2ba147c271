#!/usr/bin/env python3
"""Regenerate the bundled OEIS fixture b-files from fibrec's own formulas.

The Leonardo numbers, read off their formula, are checked against the plain
recurrence in ``tests/enumerators.py`` before they are written.

Run from the repository root:  python3 scripts/gen_fixtures.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the checkout's fibrec, installed or not
sys.path.insert(1, str(ROOT / "tests"))

from enumerators import leonardo  # noqa: E402
from fibrec import OeisEntry, fib, parse, render_bfile, theorem_solution  # noqa: E402

LAST = 40
FIXTURES = SRC / "fibrec" / "fixtures"


def first_terms(expr) -> tuple[int, ...]:
    return tuple(int(v) for _, v in expr.canon().values(0, LAST))


def main() -> None:
    a010049 = theorem_solution(1, d=0, z=(1, 1, 3)).expr
    a129707 = theorem_solution(2, f=0, z=(0, 1, 4, 12, 31)).expr
    a054454 = theorem_solution(4, w=(0, 1, 2, 6, 12, 26)).expr.shifted(1)
    a001595 = tuple(int(parse("2*F(n) + 2*F(n-1) - 1").at(n)) for n in range(LAST + 1))
    if a001595 != tuple(leonardo(n) for n in range(LAST + 1)):
        raise SystemExit("the Leonardo formula disagrees with its recurrence")

    entries = [
        (
            OeisEntry("A000045", 0, tuple(fib(n) for n in range(LAST + 1))),
            ["A000045: Fibonacci numbers, generated by fibrec.fib(n)"],
        ),
        (
            OeisEntry("A001595", 0, a001595),
            [
                "A001595: Leonardo numbers, generated by fibrec from the formula",
                "  fibrec eval '2*F(n) + 2*F(n-1) - 1' --from 0 --to 40",
                "cross-checked against the recurrence L(n) = L(n-1) + L(n-2) + 1",
            ],
        ),
        (
            OeisEntry("A010049", 0, first_terms(a010049)),
            [
                "A010049: generated by fibrec from the verified formula",
                "  fibrec eval '(2/5*n + 3/5)*F(n) + (-1/5*n)*F(n-1)' --from 0 --to 40",
                "cross-checked against the compositions enumerator for n <= 18",
            ],
        ),
        (
            OeisEntry("A129707", 0, first_terms(a129707)),
            [
                "A129707: generated by fibrec from the verified formula",
                "  fibrec eval '(1/5*n^2 - 1/25*n - 4/25)*F(n) + (1/10*n^2 + 1/50*n)*F(n-1)' --from 0 --to 40",
                "cross-checked against the word-inversions enumerator for n <= 20",
            ],
        ),
        (
            OeisEntry("A054454", 0, first_terms(a054454)),
            [
                "A054454: generated by fibrec from the verified formula",
                "  fibrec eval '(4/5*n)*F(n+1) + (3/5*n + 3/5)*F(n) + 1/2 + 1/2*(-1)^n' --from 0 --to 40",
            ],
        ),
    ]

    FIXTURES.mkdir(parents=True, exist_ok=True)
    for entry, comments in entries:
        path = FIXTURES / f"b{entry.a_number[1:]}.txt"
        path.write_text(render_bfile(entry, comments))
        print(f"wrote {path} ({len(entry.terms)} terms)")


if __name__ == "__main__":
    main()
