"""Golden CLI corpus: seeded argv lists, and each run's exit code and output hashes.

``cases()`` draws about a thousand argv lists from a fixed seed.  They cover
all seven subcommands in both views, exit codes 0, 2 and 3, values that
start with "-", negative windows, shifts up to +-2000, singular ``synth``
templates and the refusals at MAX_INDEX, MAX_EXPONENT and the digit
budgets.  ``run(argv)`` calls ``cli.main`` in process and returns one row:
argv, exit code, sha256 of stdout and of stderr, and for a ``--json`` run
the sorted key paths of its document.

Every argv is one that argparse accepts, and every failure is a message of
fibrec's own ("error: ..."), so no row depends on argparse's wording, which
differs between Python versions.

Write the corpus with ``PYTHONPATH=src python tests/golden_cli.py``;
``tests/test_golden_cli.py`` replays it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import random

from fibrec.cli import main

SEED = 20_241_013
CORPUS = pathlib.Path(__file__).with_name("golden_cli.jsonl")
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "fibrec" / "fixtures"


def key_paths(doc, prefix: str = "") -> set[str]:
    """Every key path of a JSON document; list elements add "[]" to the path."""
    paths: set[str] = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(value, path)
    elif isinstance(doc, list):
        for value in doc:
            paths |= key_paths(value, prefix + "[]")
    return paths


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    row = {
        "argv": argv,
        "exit": code,
        "stdout_sha256": _sha(out.getvalue()),
        "stderr_sha256": _sha(err.getvalue()),
    }
    if "--json" in argv:
        text = out.getvalue()
        row["json_keys"] = sorted(key_paths(json.loads(text))) if text else []
    return row


# --- expression text --------------------------------------------------------


def _rational(rng: random.Random, span: int = 9) -> str:
    num = rng.randint(1, span)
    return str(num) if rng.random() < 0.6 else f"{num}/{rng.choice((2, 3, 5, 7, 10, 25))}"


def _poly(rng: random.Random, max_deg: int) -> str:
    """A coefficient: a number, a monomial, or a parenthesised sum, maybe over k."""
    shape = rng.random()
    if max_deg == 0 or shape < 0.3:
        return _rational(rng)
    if shape < 0.5:
        power = rng.randint(1, max_deg)
        return f"{_rational(rng)}n" + (f"^{power}" if power > 1 else "")
    parts = []
    for power in range(rng.randint(1, max_deg), -1, -1):
        if rng.random() < 0.7:
            mono = _rational(rng) + ("" if power == 0 else "n" if power == 1 else f"n^{power}")
            parts.append(("-" if rng.random() < 0.4 else "+") + mono)
    body = "".join(parts).lstrip("+") or "1"
    return f"({body})" + (f"/{rng.choice((2, 3, 5, 50))}" if rng.random() < 0.4 else "")


def _shift(rng: random.Random) -> int:
    return rng.randint(-2000, 2000) if rng.random() < 0.1 else rng.randint(-6, 6)


def _expr(rng: random.Random, max_deg: int = 3, integer: bool = False) -> str:
    """A random expression; integer=True keeps every coefficient an integer."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        k = _shift(rng)
        ref = "F(n)" if k == 0 else f"F(n{-k:+d})"
        if integer:
            power = rng.randint(0, max_deg)
            coef = str(rng.randint(1, 9)) + ("" if power == 0 else f"n^{power}")
        else:
            coef = _poly(rng, max_deg)
        terms.append(ref if rng.random() < 0.15 else f"{coef}*{ref}")
    if rng.random() < 0.4:
        terms.append(str(rng.randint(1, 9)) if integer else _rational(rng))
    if rng.random() < 0.4:
        terms.append(f"{rng.randint(1, 9) if integer else _rational(rng)}*(-1)^n")
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return ("-" + text) if rng.random() < 0.2 else text


def _view(rng: random.Random, argv: list[str]) -> list[str]:
    return argv + ["--json"] if rng.random() < 0.5 else argv


def _ints(values) -> str:
    return ",".join(map(str, values))


def _bfile(name: str) -> list[int]:
    lines = (FIXTURES / name).read_text().splitlines()
    return [int(line.split()[1]) for line in lines if line and not line.startswith("#")]


# --- the corpus -------------------------------------------------------------

# Cheap at any version, each one a named bound: the window and shift limits,
# the exponent limit, the --json window budget, three canonically-zero
# expressions (F(n) - F(n-1) - F(n-2) = 0) whose parsed degrees and shifts
# alone put them past the digit budget, and the zero sequence, whose order-0
# recurrence prints empty lists.
_ZERO_HIGH_DEGREE = "n^1000*F(n) - n^1000*F(n-1) - n^1000*F(n-2)"
_ZERO_FAR_SHIFT = "n^1000*F(n-50000) - n^1000*F(n-50001) - n^1000*F(n-50002)"
FIXED = [
    ["eval", "F(n)", "--from", "-10000001", "--to", "0"],
    ["eval", "F(n)", "--from", "0", "--to", "10000001", "--json"],
    ["eval", "F(n)", "--from", "99999999999999999999", "--to", "99999999999999999999"],
    ["eval", "F(n+10000001)", "--to", "0"],
    ["eval", "F(n-10000001)", "--to", "0", "--json"],
    ["canon", "n^1001*F(n)"],
    ["rec", "n^1001*F(n)", "--json"],
    ["canon", "n^1000*F(n)", "--json"],
    ["eval", "F(n)", "--to", "100000", "--json"],
    ["eval", "F(n)", "--from", "3", "--to", "1"],
    ["eval", _ZERO_HIGH_DEGREE, "--from", "0", "--to", "5000", "--json"],
    ["rec", _ZERO_FAR_SHIFT],
    ["check", _ZERO_FAR_SHIFT, "--json"],
    ["rec", "0"],
    ["eval", "F(n-1000)", "--from", "-1000", "--to", "-990", "--json"],
    ["eval", "F(n+2000)", "--from", "-2000", "--to", "-1990"],
    ["rec", "F(n-2000) + F(n+2000)", "--json"],
    ["eval", "-F(n)", "--from", "-5", "--to", "5"],
    ["check", "-n/2*F(n)"],
    ["eval", "F(q)"],
    ["eval", "2n"],
    ["eval", "(n+1)^2*F(n)"],
    ["eval", "F(n)/0"],
    ["synth", "--values", "1"],
    ["synth", "--deg0", "-1", "--values", "1"],
    ["synth", "--deg0", "1000000000000", "--values", "1"],
    ["synth", "--deg0", "1", "--deg1", "1", "--values", "1,2,3"],
    ["synth", "--deg0", "1", "--values", "1,x"],
    ["theorem", "1", "--z", "1,1,3"],
    ["theorem", "4", "--d", "1", "--w", "0,1,2,6,12,26"],
    ["theorem", "4"],
    ["theorem", "2", "--f", "1", "--z", "1,2", "--json"],
    ["theorem", "3", "--d", "1", "--z", "1,1,1,2"],
    ["theorem", "1", "--d", "1", "--z", "1,1/2,3"],
    ["oeis", "1,1,2"],
    ["oeis", "0,1,x"],
    ["oeis", "0,1,1,2,3,5", "--timeout", "0"],
    ["oeis", "0,1,1,2,3,5", "--timeout", "nan", "--json"],
    ["oeis", "0,1,1,2,3,5", "--timeout", "inf"],
    ["oeis", "0,1,1,2,3,5", "--timeout", "86401"],
]


def _eval(rng: random.Random) -> list[str]:
    lo = rng.randint(-30, 30)
    if rng.random() < 0.1:
        lo = rng.choice((-1, 1)) * rng.randint(1900, 2100)
    hi = lo + rng.randint(0, 25)
    return _view(rng, ["eval", _expr(rng), "--from", str(lo), "--to", str(hi)])


def _synth(rng: random.Random) -> list[str]:
    deg0 = rng.choice((None, 0, 1, 2, 3))
    deg1 = rng.choice((None, 0, 1, 2))
    const, alt = rng.random() < 0.3, rng.random() < 0.3
    if deg0 is None and deg1 is None and not (const or alt):
        deg0 = 1
    k = sum(d + 1 for d in (deg0, deg1) if d is not None) + const + alt
    if rng.random() < 0.1:
        k += rng.choice((-1, 1))
    values = [_rational(rng, 40) if rng.random() < 0.2 else str(rng.randint(-40, 40))
              for _ in range(k)]
    argv = ["synth"]
    for name, deg in (("--deg0", deg0), ("--deg1", deg1)):
        if deg is not None:
            argv += [name, str(deg)]
    argv += ["--const"] * const + ["--alt"] * alt + ["--values", ",".join(values)]
    return _view(rng, argv)


def _theorem(rng: random.Random) -> list[str]:
    which = rng.randint(1, 4)
    pick = lambda: rng.randint(-30, 30)
    if which == 4:
        argv = ["theorem", "4", "--w", _ints(pick() for _ in range(6))]
    else:
        base, zs = {1: ("--d", 3), 2: ("--f", 5), 3: ("--e", 4)}[which]
        if rng.random() < 0.1:
            zs += rng.choice((-1, 1))
        argv = ["theorem", str(which), base, str(pick()), "--z", _ints(pick() for _ in range(zs))]
    return _view(rng, argv)


def _oeis(rng: random.Random, sequences: list[list[int]]) -> list[str]:
    if rng.random() < 0.6:
        terms = rng.choice(sequences)
        start = rng.randint(0, 10)
        prefix = terms[start : start + rng.randint(4, 9)]
    else:
        prefix = [rng.randint(-5, 30) for _ in range(rng.randint(4, 8))]
    argv = ["oeis", _ints(prefix)]
    if rng.random() < 0.2:
        argv += ["--timeout", str(rng.choice((1, 2.5, 86400)))]
    return _view(rng, argv)


def cases() -> list[list[str]]:
    rng = random.Random(SEED)
    sequences = [_bfile(p.name) for p in sorted(FIXTURES.glob("b*.txt"))]
    drawn = (
        [_eval(rng) for _ in range(260)]
        + [_view(rng, ["canon", _expr(rng, max_deg=6)]) for _ in range(120)]
        + [_view(rng, ["rec", _expr(rng)]) for _ in range(140)]
        + [_view(rng, ["check", _expr(rng, integer=rng.random() < 0.4)]) for _ in range(140)]
        + [_synth(rng) for _ in range(120)]
        + [_theorem(rng) for _ in range(80)]
        + [_oeis(rng, sequences) for _ in range(60)]
    )
    return FIXED + drawn


if __name__ == "__main__":
    rows = [run(argv) for argv in cases()]
    CORPUS.write_text("".join(json.dumps(row) + "\n" for row in rows))
    codes = sorted({row["exit"] for row in rows})
    print(f"wrote {len(rows)} rows to {CORPUS}; exit codes {codes}")
