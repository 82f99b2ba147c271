"""One differential property over the CLI: on seeded random expressions,
`eval`, `canon`, `rec` and `check` print, in text and in --json, exactly
what the library computes, or refuse with exit 2 exactly where a value they
would print is too long.

The expected text lines and JSON documents are both built from the library
(``CanonForm.values``, ``canon()``, ``to_recurrence``,
``is_integer_sequence``), so each text line also equals the matching JSON
value.  With ``MAX_DIGITS`` patched to 1,000 each expression is moved to
shifts near 4,786, where F has 1,000 digits, so refusals and their boundary
are generated too.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from conftest import rand_expr, rand_family_instance, rand_int_expr, rand_perturbed_instance

import fibrec.cli as cli
from fibrec import NonIntegral, format_expr, format_poly, is_integer_sequence, parse, to_recurrence

GENERATORS = (rand_expr, rand_int_expr, rand_family_instance, rand_perturbed_instance)


def _printed(command, text, lo, hi):
    """(values the command prints, text lines, JSON document), from the library."""
    expr = parse(text)
    if command == "eval":
        values = list(expr.canon().values(lo, hi))
        doc = {"from": lo, "to": hi, "values": [{"n": n, "value": str(v)} for n, v in values]}
        return [v for _, v in values], [f"{n} {v}" for n, v in values], doc
    if command == "canon":
        form = expr.canon()
        doc = {"p0": [str(Fraction(c)) for c in form.p0.coeffs],
               "p1": [str(Fraction(c)) for c in form.p1.coeffs],
               "e": str(form.const_e), "f": str(form.alt_f)}
        lines = [f"P0 = {format_poly(form.p0)}", f"P1 = {format_poly(form.p1)}",
                 f"e  = {form.const_e}", f"f  = {form.alt_f}"]
        return [*form.p0.coeffs, *form.p1.coeffs, form.const_e, form.alt_f], lines, doc
    if command == "rec":
        rec = to_recurrence(expr)
        doc = {"order": rec.order, "char_poly": list(rec.char_poly.coeffs),
               "coefficients": list(rec.coeffs), "initial": [str(v) for v in rec.initial]}
        # an empty list, at order 0, leaves "label:" alone
        lines = [f"order: {rec.order}",
                 f"characteristic polynomial: {format_poly(rec.char_poly, var='x')}",
                 f"coefficients: {', '.join(map(str, rec.coeffs))}".rstrip(),
                 f"initial values: {', '.join(map(str, rec.initial))}".rstrip()]
        return [*rec.char_poly.coeffs, *rec.initial], lines, doc
    verdict = is_integer_sequence(expr)
    if isinstance(verdict, NonIntegral):
        doc = {"integral": False, "witness_n": verdict.witness_n, "value": str(verdict.value)}
        return [verdict.value], [
            f"NON-INTEGER witness: n={verdict.witness_n} value={verdict.value}"], doc
    doc = {"integral": True, "certificate": list(verdict.certificate)}
    return list(verdict.certificate), [
        f"INTEGER certificate: {', '.join(map(str, verdict.certificate))}".rstrip()], doc


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_views_match_library(capsys, text, lo, hi, limit, bound):
    """Run each command in both views; bound is 10**limit, the least value
    too long to print."""
    too_long = lambda v: max(abs(Fraction(v).numerator), Fraction(v).denominator) >= bound
    for command in ("eval", "canon", "rec", "check"):
        window = ("--from", str(lo), "--to", str(hi)) if command == "eval" else ()
        code, out, err = _run(capsys, command, text, *window)
        code_json, out_json, err_json = _run(capsys, command, text, *window, "--json")
        case = (command, text, lo, hi)
        assert code in (0, 2, 3) and (code_json, err_json) == (code, err), case
        values, lines, doc = _printed(command, text, lo, hi)
        if any(map(too_long, values)):
            assert code == 2 and err == f"error: a value has more than {limit} digits\n", case
            assert out_json == "", case
            # eval's text streams: the lines before the refused value are out
            printed = len(list(itertools.takewhile(lambda v: not too_long(v), values)))
            assert out.splitlines() == (lines[:printed] if command == "eval" else []), case
            continue
        integral = command != "check" or doc["integral"]
        assert (code, err) == (0 if integral else 3, ""), case
        assert out.splitlines() == lines, case
        assert json.loads(out_json) == {"command": command, "expression": text, **doc}, case


@pytest.mark.parametrize("patched", [False, True], ids=["max-digits", "max-digits-1000"])
def test_cli_views_agree_with_the_library(capsys, monkeypatch, patched):
    if patched:
        monkeypatch.setattr(cli, "MAX_DIGITS", 1000)
    limit = cli.MAX_DIGITS
    bound = 10**limit
    rng = random.Random(97)
    for generate in GENERATORS:
        for _ in range(80):
            expr = generate(rng)
            if patched:  # F(n -+ 4700..4850) on 0..order-1: about 980 to 1,015 digits
                expr = expr.shifted(rng.choice((-1, 1)) * rng.randint(4700, 4850))
            lo = rng.randint(-30, 30)
            _assert_views_match_library(capsys, format_expr(expr), lo, lo + rng.randint(0, 8),
                                        limit, bound)
