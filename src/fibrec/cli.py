"""Command-line front end.

Subcommands: eval, canon, rec, check, synth, theorem, oeis.  Every
subcommand accepts --json for a single machine-readable document on stdout.
Each command returns its answer values, not their text; main renders only
the view it prints, so each printed value becomes text once, in time near
linear in its length.  `eval` yields its values one line at a time, rendered
from Decimals; main writes every command's text in prints of about 64 KiB.
Every other number, in text, in a formatted polynomial or expression and in
JSON, is written by parser._text.  The digit budget's limits and refusal texts
are CLI policy; its bounds are read off the parsed expression by seqform.

Exit codes: 0 success; 1 internal error; 2 parse or usage error;
3 NON-INTEGER verdict from `check`; 4 network failure in `oeis --remote`.
A reader that closes stdout early (`fibrec eval ... | head -1`) is not an
error: fibrec stops writing, prints nothing on stderr and exits 0.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .cfinite import to_recurrence
from .decide import NonIntegral, is_integer_sequence
from .exact import Poly
from .oeis import OeisLookupError, search_local, search_remote
from .parser import (_EXACT, _SPLIT_BITS, MAX_INDEX, _text, _to_decimal, format_expr,
                     format_poly, parse)
from .seqform import FibExpr, _estimated_digits, _numerators, _order_bound, _surely_longer
from .synth import Template, solve_template, theorem_solution

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NONINTEGER = 3
EXIT_NETWORK = 4

# (exit code, JSON payload without "command", text lines on demand).  Commands
# return answer values, not text: main writes the payload as JSON, each Fraction
# and long int through _text, or else calls for the text lines, so a value
# becomes text once.
_Output = tuple[int, dict, Callable[[], Iterable[str]]]

REMOTE_ENV = "FIBREC_OEIS_REMOTE"
# Longest --timeout (a day): 0 makes the socket non-blocking, inf overflows it.
_MAX_TIMEOUT = 86_400

# Longest value the CLI will print, in every view, and longest number it
# reads.  main sets the interpreter's int-to-str digit limit to MAX_DIGITS,
# which bounds every int read from text and every value that parser._text
# writes; _rendered refuses at the same length.  Values become text in time
# near linear in their length.  Before any long Fibonacci number, each command
# refuses what seqform._surely_longer can show long among the values it prints:
# `rec` any initial value, `check` and `canon` all of them (one witness, or
# coefficients, may print), and `eval` its first value, or with --json also its
# last, so `rec "n*F(n-10000000)"` is refused at once.
MAX_DIGITS = 500_000
_TOO_LONG = "a value has more than {} digits"  # the refusal past MAX_DIGITS, formatted when raised

# The decimal exponent of a rational written as Fraction reads it, such as
# "-1.5e+3".  Fraction builds 10**exponent before anything can refuse the
# value, in time that grows about 40-fold per decade: 1e10000000 takes 12 s.
_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)[\d_]*(?:\.[\d_]*)?[eE][-+]?([\d_]+)\s*\Z")

# Most digits that `eval --json` may hold, or the initial values of `rec` and
# `check`: the JSON document is written whole, and the initial values are all
# computed before any is printed, so every value sits in memory at once.  The
# initial-value estimate also bounds the canonical form that `canon` prints
# (seqform._estimated_digits).
# 20 million digits, F(0)..F(13800), take about 1 s and 75 MB.
MAX_JSON_DIGITS = 20_000_000

# Most Fibonacci work a command may start, in Fibonacci numbers at MAX_INDEX,
# counted as one doubling of about (0.7*|k| bits)^log2(3) steps (synth._work) per
# cluster about a base J (seqform), at k = lo-J-1, lo the window's first n, or 0
# for the initial values and canon.  fib._powers carries a near cluster's pair
# from its neighbour's instead, so the count is an upper bound.  The digit budgets
# pass far clusters with short values, such as 200 shifts 2,000 apart near 2*10^6.
# Calibrated on timed cases (CHANGES.md): `check "n*F(n-10000000) + 1/2"` costs 1.
MAX_FIB_WORK = 2
_TOO_MUCH_WORK = (f"its shifts would take more work than {MAX_FIB_WORK} Fibonacci numbers "
                  f"at index {MAX_INDEX}")

# argparse reads a word that starts with "-" as an option unless it matches
# this pattern.  Every option here but -h is "--name", so a list such as
# "-1,2,3" or an expression such as "-F(n)" can be read as a value.
_VALUE_MATCHER = re.compile(r"^-[^-]")


def _number_list(text: str, kind=int) -> list:
    """Comma-separated ints, or rationals when kind is Fraction."""
    parts = text.split(",")
    if kind is Fraction:
        for part in parts:
            exponent = _EXPONENT.match(part)
            digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
            if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
                raise ValueError(_TOO_LONG.format(MAX_DIGITS))
    try:
        return [kind(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        if "for integer string conversion" in str(exc):
            raise  # past main's digit limit: main refuses it as every long value
        what = "integer list" if kind is int else "list of rationals"
        raise ValueError(f"expected a comma-separated {what}, got {text!r}") from None


def _parse_bounded(text: str, holding: str, printed=all, window: range | None = None,
                   ends=None) -> FibExpr:
    """Parse an expression, refusing it before any Fibonacci work when its values
    w_n, n in `window` (by default its initial values, which bound its canonical
    form too), would pass MAX_JSON_DIGITS, or when `printed` (all, or any for a
    command that prints every one) of those at `ends` (by default all of them)
    would surely pass MAX_DIGITS, or when seeding its clusters at the window's
    first n would pass MAX_FIB_WORK.  `holding` names what the initial values
    would fill, with {} for their count; with a window, it is the whole message,
    with {} for the estimate and the limit, or empty for no MAX_JSON_DIGITS
    refusal."""
    expr = parse(text)
    if window is None:
        window = range(_order_bound(expr))
        holding = holding.format(len(window)) + " would hold about {} digits, more than {}"
    digits = _estimated_digits(expr, window.start, window.stop - 1) if holding else 0
    if digits > MAX_JSON_DIGITS:
        raise ValueError(holding.format(digits, MAX_JSON_DIGITS))
    if _surely_longer(expr, MAX_DIGITS, window if ends is None else ends, printed):
        raise ValueError(_TOO_LONG.format(MAX_DIGITS))
    seeds = (abs(window.start - base - 1) / MAX_INDEX for base, _, _ in expr._scaled[1])
    if sum(k ** math.log2(3) for k in seeds) > MAX_FIB_WORK:
        raise ValueError(_TOO_MUCH_WORK)
    return expr


def _rendered(expr: FibExpr, lo: int, hi: int) -> Iterator[tuple[int, str]]:
    """Yield (n, str(w_n)) for n = lo..hi, each value written as str(Fraction)
    would; run it in an exact context such as _EXACT, as main does.

    The numerators L*w_n step as Decimals, which become text in time near
    linear in their length, from the expression's scaled clusters, not from
    the canonical form, whose coefficients a far shift makes long.  A value
    whose reduced numerator passes MAX_DIGITS digits is refused, as _text
    refuses it under main's digit limit, after the values before it.
    """
    den, clusters, e, f = expr._scaled
    # the seeds double as Decimals, and only L and long input coefficients
    # convert: a short one stays an int, which Horner's rule runs faster on
    dec = lambda x: x if x.bit_length() <= _SPLIT_BITS else _to_decimal(x)
    dec_poly = lambda p: Poly(tuple(map(dec, p.coeffs)))
    scaled = (den, tuple((base, dec_poly(r0), dec_poly(r1)) for base, r0, r1 in clusters),
              dec(e), dec(f))
    big = {den: dec(den)}  # each denominator the loop yields, L or a divisor of it
    for n, (num, d) in _numerators(scaled, lo, hi, decimal.Decimal(1)):
        if not num:  # "0", never the "-0" that Decimal can hold
            yield n, "0"
            continue
        g = math.gcd(int(num % (big.get(d) or big.setdefault(d, dec(d)))), d) if d > 1 else 1
        if g > 1:
            num, d = num // g, d // g
        if num.adjusted() >= MAX_DIGITS:
            raise ValueError(_TOO_LONG.format(MAX_DIGITS))
        yield n, str(num) if d == 1 else f"{num!s}/{d}"


def _cmd_eval(args) -> _Output:
    if args.start > args.stop:
        raise ValueError("--from must be <= --to")
    if max(abs(args.start), abs(args.stop)) > MAX_INDEX:
        raise ValueError(f"--from and --to must lie within +-{MAX_INDEX}")
    holding = "--json would hold about {} digits at once, more than {}; the text output streams"
    # text streams up to the first value that fails, and --json prints every value or none
    expr = _parse_bounded(args.expr, holding if args.json else "", any,
                          range(args.start, args.stop + 1),
                          (args.start, args.stop) if args.json else (args.start,))
    values = _rendered(expr, args.start, args.stop)
    payload = {
        "expression": args.expr,
        "from": args.start,
        "to": args.stop,
    }
    if args.json:
        payload["values"] = [{"n": n, "value": v} for n, v in values]
    return EXIT_OK, payload, lambda: (f"{n} {v}" for n, v in values)


def _cmd_canon(args) -> _Output:
    form = _parse_bounded(args.expr, "up to {} coefficients of the canonical form").canon()
    payload = {
        "expression": args.expr,
        "p0": form.p0.coeffs,
        "p1": form.p1.coeffs,
        "e": form.const_e,
        "f": form.alt_f,
    }
    return EXIT_OK, payload, lambda: [
        f"P0 = {format_poly(form.p0)}",
        f"P1 = {format_poly(form.p1)}",
        f"e  = {_text(form.const_e)}",
        f"f  = {_text(form.alt_f)}",
    ]


def _listed(label: str, values) -> str:
    """The line "label: v, w, ...", or "label:" with no trailing space for no values."""
    return f"{label}: {', '.join(map(_text, values))}".rstrip()


def _cmd_rec(args) -> _Output:
    rec = to_recurrence(_parse_bounded(args.expr, "up to {} initial values", any))
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
        _listed("coefficients", rec.coeffs),
        _listed("initial values", rec.initial),
    ]


def _cmd_check(args) -> _Output:
    verdict = is_integer_sequence(_parse_bounded(args.expr, "up to {} initial values"))
    if isinstance(verdict, NonIntegral):
        payload = {
            "expression": args.expr,
            "integral": False,
            "witness_n": verdict.witness_n,
            "value": verdict.value,
        }
        return EXIT_NONINTEGER, payload, lambda: [
            f"NON-INTEGER witness: n={verdict.witness_n} value={_text(verdict.value)}"
        ]
    payload = {"expression": args.expr, "integral": True, "certificate": verdict.certificate}
    return EXIT_OK, payload, lambda: [_listed("INTEGER certificate", verdict.certificate)]


def _solution_output(extra: dict, solution) -> _Output:
    coefficients = {k: _text(v) for k, v in solution.coefficients.items()}
    text = format_expr(solution.expr)
    payload = {**extra, "coefficients": coefficients, "expression": text}
    return EXIT_OK, payload, lambda: [text, *(f"{k} = {v}" for k, v in coefficients.items())]


def _cmd_synth(args) -> _Output:
    template = Template(args.deg0, args.deg1, args.const, args.alt)
    values = _number_list(args.values, Fraction)
    solution = solve_template(template, values)
    shape = {"deg_p0": template.deg_p0, "deg_p1": template.deg_p1,
             "has_const": template.has_const, "has_alt": template.has_alt}
    extra = {"template": shape, "values": values}
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


# json.dumps writes an int with str, in time quadratic in its length, so
# _held swaps each int longer than _SPLIT_BITS bits for the string "\0<i>",
# which JSON writes as "\u0000<i>", and main puts the int's digits from _text
# in its place: a JSON number is just its digits.  No payload string holds a
# NUL: the parser refuses one in an expression, and fibrec writes the rest.
_HELD = re.compile(r'"\\u0000(\d+)"')


def _held(x, longs: list[str]):
    """x with each int longer than _SPLIT_BITS bits replaced by the
    placeholder of its text, which is appended to longs."""
    if isinstance(x, dict):
        return {k: _held(v, longs) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_held(v, longs) for v in x]
    if isinstance(x, int) and x.bit_length() > _SPLIT_BITS:
        longs.append(_text(x))
        return f"\0{len(longs) - 1}"
    return x


@functools.cache  # built at the first main call, not at import
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

    return top


# About how much text main joins from a command's lines and writes with one print.
_BLOCK_CHARS = 1 << 16


def main(argv: list[str] | None = None) -> int:
    argparser = _build_argparser()
    try:
        args = argparser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # the interpreter's limit bounds every number read from text, and _text
    # refuses a longer value as str does, before converting any of it
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        with decimal.localcontext(_EXACT):  # a copy, this call's own
            code, payload, lines = args.func(args)
            if args.json:
                import json

                longs: list[str] = []
                doc = {"command": args.command, **_held(payload, longs)}
                text = json.dumps(doc, indent=2, default=_text)
                print(_HELD.sub(lambda m: longs[int(m[1])], text) if longs else text)
            else:  # the lines before a failure print before it propagates
                block: list[str] = []
                size = 0
                try:
                    for line in lines():
                        block.append(line)
                        size += len(line)
                        if size >= _BLOCK_CHARS:
                            print("\n".join(block))
                            block, size = [], 0
                finally:
                    if block:
                        print("\n".join(block))
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
            exc = _TOO_LONG.format(MAX_DIGITS)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    raise SystemExit(main())
