"""Command-line front end.

Subcommands: eval, canon, rec, check, synth, theorem, oeis, oracle.  Every
subcommand accepts --json for a single machine-readable document on stdout.
Each command returns its answer values, not their text; main renders only
the view it prints, so each printed value becomes text once.

Exit codes: 0 success; 1 internal error; 2 parse or usage error;
3 NON-INTEGER verdict from `check`; 4 network failure in `oeis --remote`.
A reader that closes stdout early (`fibrec eval ... | head -1`) is not an
error: fibrec stops writing, prints nothing on stderr and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable

from .cfinite import to_recurrence
from .decide import NonIntegral, is_integer_sequence
from .oeis import OeisLookupError, search_local, search_remote
from .oracles import compositions_parts_count, fibonacci_word_inversions, leonardo
from .parser import MAX_INDEX, format_expr, format_poly, parse
from .synth import Template, solve_template, theorem_solution

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NONINTEGER = 3
EXIT_NETWORK = 4

# (exit code, JSON payload without "command", text lines on demand).  Commands
# return answer values, not text: main writes the payload as JSON, each Fraction
# as its str, or else calls for the text lines, so a value becomes text once.
_Output = tuple[int, dict, Callable[[], Iterable[str]]]

REMOTE_ENV = "FIBREC_OEIS_REMOTE"
# Longest --timeout (a day): 0 makes the socket non-blocking, inf overflows it.
_MAX_TIMEOUT = 86_400

# Longest value the CLI will print.  Turning an int into text is quadratic
# in CPython: 500,000 digits take about 4 s, F(10^7)'s 2.1 million about a minute.
MAX_DIGITS = 500_000

# Most digits that `eval --json` may hold: its document is written whole, so
# every value sits in memory at once.  F(n) has about 0.209*|n| digits (log10
# of the golden ratio); 20 million, F(0)..F(13800), take about 1 s and 75 MB.
MAX_JSON_DIGITS = 20_000_000

# argparse reads a word that starts with "-" as an option unless it matches
# this pattern.  Every option here but -h is "--name", so a list such as
# "-1,2,3" or an expression such as "-F(n)" can be read as a value.
_VALUE_MATCHER = re.compile(r"^-[^-]")


def _number_list(text: str, kind=int) -> list:
    """Comma-separated ints, or rationals when kind is Fraction."""
    try:
        return [kind(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        what = "integer list" if kind is int else "list of rationals"
        raise ValueError(f"expected a comma-separated {what}, got {text!r}") from None


def _abs_sum(lo: int, hi: int) -> int:
    """The sum of |n| over n = lo..hi, in closed form."""
    tri = lambda k: k * (k + 1) // 2 if k > 0 else 0  # 1 + 2 + ... + k
    return tri(hi) - tri(lo - 1) + tri(-lo) - tri(-hi - 1)


def _cmd_eval(args) -> _Output:
    if args.start > args.stop:
        raise ValueError("--from must be <= --to")
    if max(abs(args.start), abs(args.stop)) > MAX_INDEX:
        raise ValueError(f"--from and --to must lie within +-{MAX_INDEX}")
    if args.json:
        digits = round(0.209 * _abs_sum(args.start, args.stop))
        if digits > MAX_JSON_DIGITS:
            raise ValueError(
                f"--json would hold about {digits} digits at once, more than "
                f"{MAX_JSON_DIGITS}; the text output streams"
            )
    values = parse(args.expr).canon().values(args.start, args.stop)
    payload = {
        "expression": args.expr,
        "from": args.start,
        "to": args.stop,
    }
    if args.json:
        payload["values"] = [{"n": n, "value": v} for n, v in values]
    # text output streams one line per value
    return EXIT_OK, payload, lambda: (f"{n} {v}" for n, v in values)


def _cmd_canon(args) -> _Output:
    form = parse(args.expr).canon()
    payload = {
        "expression": args.expr,
        # a coefficient may be an int, which JSON must still write as "1"
        "p0": [Fraction(c) for c in form.p0.coeffs],
        "p1": [Fraction(c) for c in form.p1.coeffs],
        "e": form.const_e,
        "f": form.alt_f,
    }
    return EXIT_OK, payload, lambda: [
        f"P0 = {format_poly(form.p0)}",
        f"P1 = {format_poly(form.p1)}",
        f"e  = {form.const_e}",
        f"f  = {form.alt_f}",
    ]


def _cmd_rec(args) -> _Output:
    rec = to_recurrence(parse(args.expr))
    payload = {
        "expression": args.expr,
        "order": rec.order,
        "char_poly": [int(c) for c in rec.char_poly.coeffs],
        "coefficients": rec.coeffs,
        "initial": rec.initial,
    }
    return EXIT_OK, payload, lambda: [
        f"order: {rec.order}",
        f"characteristic polynomial: {format_poly(rec.char_poly, var='x')}",
        f"coefficients: {', '.join(map(str, rec.coeffs))}",
        f"initial values: {', '.join(map(str, rec.initial))}",
    ]


def _cmd_check(args) -> _Output:
    verdict = is_integer_sequence(parse(args.expr))
    if isinstance(verdict, NonIntegral):
        payload = {
            "expression": args.expr,
            "integral": False,
            "witness_n": verdict.witness_n,
            "value": verdict.value,
        }
        return EXIT_NONINTEGER, payload, lambda: [
            f"NON-INTEGER witness: n={verdict.witness_n} value={verdict.value}"
        ]
    payload = {"expression": args.expr, "integral": True, "certificate": verdict.certificate}
    return EXIT_OK, payload, lambda: [
        f"INTEGER certificate: {', '.join(map(str, verdict.certificate))}"
    ]


def _solution_output(extra: dict, solution) -> _Output:
    text = format_expr(solution.expr)
    payload = {**extra, "coefficients": solution.coefficients, "expression": text}
    return EXIT_OK, payload, lambda: [
        text, *(f"{k} = {v}" for k, v in solution.coefficients.items())
    ]


def _cmd_synth(args) -> _Output:
    template = Template(args.deg0, args.deg1, args.const, args.alt)
    values = _number_list(args.values, Fraction)
    solution = solve_template(template, values)
    extra = {"template": dataclasses.asdict(template), "values": values}
    return _solution_output(extra, solution)


def _cmd_theorem(args) -> _Output:
    params: dict[str, object] = {}
    for name in ("d", "e", "f"):
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    if args.z is not None:
        params["z"] = tuple(_number_list(args.z))
    if args.w is not None:
        params["w"] = tuple(_number_list(args.w))
    solution = theorem_solution(args.which, **params)
    return _solution_output({"which": args.which, "params": params}, solution)


def _cmd_oeis(args) -> _Output:
    if not 0 < args.timeout <= _MAX_TIMEOUT:  # also false for nan
        raise ValueError(f"--timeout must be more than 0 and at most {_MAX_TIMEOUT} seconds")
    prefix = _number_list(args.terms)
    if args.remote:
        if os.environ.get(REMOTE_ENV, "").lower() not in ("1", "true", "yes"):
            raise ValueError(
                f"remote lookup needs both --remote and {REMOTE_ENV}=1 in the environment"
            )
        hits = search_remote(prefix, timeout=args.timeout)
        source = "remote"
    else:
        hits = search_local(prefix)
        source = "local"
    payload = {
        "prefix": prefix,
        "source": source,
        "hits": [
            {
                "a_number": h.entry.a_number,
                "offset": h.entry.offset,
                "match_start": h.match_start,
            }
            for h in hits
        ],
    }
    return EXIT_OK, payload, lambda: [
        f"{h.entry.a_number} offset={h.entry.offset} match_start={h.match_start}"
        for h in hits
    ] or ["no matches"]


_ORACLES = {
    "compositions": compositions_parts_count,
    "inversions": fibonacci_word_inversions,
    "leonardo": leonardo,
}


def _cmd_oracle(args) -> _Output:
    value = _ORACLES[args.kind](args.n)
    payload = {"kind": args.kind, "n": args.n, "value": value}
    return EXIT_OK, payload, lambda: [str(value)]


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fibrec",
        description="Exact arithmetic for sequences built from Fibonacci numbers "
        "with rational polynomial coefficients.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        # set after -h exists: an option that matched would turn the pattern off
        p._negative_number_matcher = _VALUE_MATCHER
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(func=func)
        return p

    p = command("eval", "evaluate an expression on an index range", _cmd_eval)
    p.add_argument("expr")
    p.add_argument("--from", dest="start", type=int, default=0)
    p.add_argument("--to", dest="stop", type=int, default=10)

    p = command("canon", "reduce to P0*F(n) + P1*F(n-1) + e + f*(-1)^n", _cmd_canon)
    p.add_argument("expr")

    p = command("rec", "derive order, characteristic polynomial and recurrence", _cmd_rec)
    p.add_argument("expr")

    p = command("check", "decide integrality (exit 3 when non-integer)", _cmd_check)
    p.add_argument("expr")

    p = command("synth", "recover coefficients from initial values", _cmd_synth)
    p.add_argument("--deg0", type=int, default=None, help="degree of the F(n) polynomial")
    p.add_argument("--deg1", type=int, default=None, help="degree of the F(n-1) polynomial")
    p.add_argument("--const", action="store_true", help="include a constant term")
    p.add_argument("--alt", action="store_true", help="include an alternating term")
    p.add_argument("--values", required=True, help="comma-separated w_0..w_{k-1}")

    p = command("theorem", "build one of the four integer families", _cmd_theorem)
    p.add_argument("which", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--f", type=int, default=None)
    p.add_argument("--z", default=None, help="comma-separated z parameters")
    p.add_argument("--w", default=None, help="comma-separated w_0..w_5 (family 4)")

    p = command("oeis", "match a prefix against bundled OEIS fixtures", _cmd_oeis)
    p.add_argument("terms", help="comma-separated sequence prefix (>= 4 terms)")
    p.add_argument("--remote", action="store_true",
                   help=f"query oeis.org (also needs {REMOTE_ENV}=1)")
    p.add_argument("--timeout", type=float, default=10.0)

    p = command("oracle", "run a brute-force enumerator", _cmd_oracle)
    p.add_argument("kind", choices=sorted(_ORACLES))
    p.add_argument("n", type=int)

    return top


def main(argv: list[str] | None = None) -> int:
    argparser = _build_argparser()
    try:
        args = argparser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # the interpreter refuses a longer value before converting any of it
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        code, payload, lines = args.func(args)
        if args.json:
            print(json.dumps({"command": args.command, **payload}, indent=2, default=str))
        else:
            for line in lines():
                print(line)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OeisLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except ValueError as exc:
        if "for integer string conversion" in str(exc):
            exc = f"a value has more than {MAX_DIGITS} digits"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    raise SystemExit(main())
