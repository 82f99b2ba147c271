"""`eval` renders from Decimal numerators: the same text as str(Fraction), faster.

Each printed window is checked against ``CanonForm.values`` written with
``str``: the same loop on ints, and Fraction's own text.  The int-to-Decimal
conversion is checked against ``Decimal(int)``.
"""

import importlib
import itertools
import json
import random
import subprocess
import sys
from decimal import Decimal, Inexact, localcontext

import pytest
from conftest import rand_expr, rand_int_expr, ref_at

import fibrec.cli as cli
from fibrec import fib, format_expr, parse
from fibrec.parser import _power


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expected_lines(text: str, lo: int, hi: int) -> str:
    return "".join(f"{n} {v}\n" for n, v in parse(text).canon().values(lo, hi))


def assert_window_matches(capsys, text: str, lo: int, hi: int) -> None:
    code, out, err = run_cli(capsys, "eval", text, "--from", str(lo), "--to", str(hi))
    assert (code, err) == (0, ""), (text, lo, hi)
    assert out == expected_lines(text, lo, hi), (text, lo, hi)


def test_random_expressions_render_as_fractions(capsys):
    rng = random.Random(2024)
    for _ in range(120):
        text = format_expr(rand_expr(rng))
        length = rng.choice((1, 2, 7, 30))
        lo = rng.randint(-6000, 6000 - length + 1)
        assert_window_matches(capsys, text, lo, lo + length - 1)


def test_window_edges_render_as_fractions(capsys):
    rng = random.Random(7)
    for lo, hi in ((-6000, -5990), (5990, 6000), (-20, 20)):
        for _ in range(4):
            assert_window_matches(capsys, format_expr(rand_expr(rng)), lo, hi)


def test_integer_expressions_render_as_ints(capsys):
    # L = 1: no denominator is ever printed
    rng = random.Random(11)
    for _ in range(40):
        text = format_expr(rand_int_expr(rng))
        lo = rng.randint(-3000, 3000)
        assert_window_matches(capsys, text, lo, lo + 9)
        assert "/" not in expected_lines(text, lo, lo + 9)


@pytest.mark.parametrize(
    "text, lo, hi",
    [
        ("F(n)", -3, 3),  # F(0) = 0
        ("-F(n)", -3, 3),
        ("-n*F(n) - n*F(n-1)", -2, 2),  # zero at n = 0 from a negative coefficient
        ("F(n) - F(n-1) - F(n-2)", -5, 5),  # every value 0
        ("-1/2 + 1/2*(-1)^n", -4, 4),  # 0 at even n, -1 at odd
        ("n/2*F(n)", -12, 12),  # L = 2: reduces to an int at even n and at 3 | n
        ("4n/5*F(n+1) + (3n+3)/5*F(n) + 1/2 + 1/2*(-1)^n", -15, 15),  # L = 10, integer values
        ("(5n^2-n-4)/25*F(n) + (5n^2+n)/50*F(n-1)", -30, 30),  # L = 50, integer values
        ("n/6*F(n) + 1/3", 100, 140),  # reductions by 2, 3 and 6
        ("n/10*F(n)", 4760, 4780),
    ],
)
def test_zeros_and_reducible_denominators(capsys, text, lo, hi):
    assert_window_matches(capsys, text, lo, hi)


@pytest.mark.parametrize(
    "text",
    [
        "F(n-2000)",
        "F(n+2000)",
        "3/7*n*F(n+2000) - F(n-1999) + 2",
        "(n^2-1)/4*F(n-2000) + n/3*F(n+1500)",
    ],
)
@pytest.mark.parametrize("lo", [-2010, -5, 1995, 4000])
def test_far_shifts_render_as_fractions(capsys, text, lo):
    assert_window_matches(capsys, text, lo, lo + 15)


@pytest.mark.parametrize(
    "text",
    [
        "F(n+44) - n*F(n-45)",  # 89 shifts wide: two runs, each past the fold bound about 0
        "n/3*F(n+43) + (n^2-1)/4*F(n-44) + 1/2",  # 87 wide: one run, based at 0
        "(2n+1)/6*F(n-1000) + n*F(n+1) - 1/3*(-1)^n",
        "n^3/5*F(n-20000) + (2n-1)/3*F(n+15000) + 7/2",
    ],
)
@pytest.mark.parametrize("lo", [-20_010, -3, 0, 19_995])
def test_far_terms_render_as_fractions(capsys, text, lo):
    # against a reference that shares no code with the loop: one fib() per term
    code, out, err = run_cli(capsys, "eval", text, "--from", str(lo), "--to", str(lo + 9))
    assert (code, err) == (0, "")
    e = parse(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cli.MAX_DIGITS)  # as the CLI does: some values pass 4,300 digits
    try:
        expected = "".join(f"{n} {ref_at(e, n)}\n" for n in range(lo, lo + 10))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected


def test_far_shift_coefficients_double_as_decimals(capsys, conversions):
    # F(-2999) and F(-3000) have 627 digits: doubled as Decimals, never converted
    code, out, err = run_cli(capsys, "eval", "n*F(n-3000) + 1/2", "--from", "0", "--to", "30")
    assert (code, err) == (0, "")
    assert out == expected_lines("n*F(n-3000) + 1/2", 0, 30)
    assert conversions == []
    # a long coefficient from the input text is the one number that converts
    text = f"{10**700}*n*F(n-3000) + 1/2"
    code, out, err = run_cli(capsys, "eval", text, "--from", "0", "--to", "30")
    assert (code, err) == (0, "")
    assert out == expected_lines(text, 0, 30)
    assert conversions == [2 * 10**700]


def test_to_decimal_equals_decimal_of_int():
    ints = [0, 1, -1]
    for k in (*range(1, 70), *range(1000, 1050), 2047, 2048, 2049, 4096, 65_537, 300_000):
        ints += [2**k - 1, 2**k, 2**k + 1, -(2**k - 1), -(2**k), -(2**k + 1)]
    for n in (*range(0, 2000, 37), 1500, 6000, 10_000, 31_337, 65_536, 100_000):
        ints += [fib(n), -fib(n)]
    with localcontext(cli._EXACT):
        for x in ints:
            # the same digits, sign and exponent 0, with one cache of powers throughout
            assert cli._to_decimal(x).as_tuple() == Decimal(x).as_tuple(), x
    # the last conversion's first split, 2^h above _SPLIT_BITS bits, is a cached key
    h = ints[-1].bit_length() // 2
    info = _power.cache_info()
    assert h > cli._SPLIT_BITS and _power(h) == 2**h
    assert _power.cache_info()[:2] == (info.hits + 1, info.misses)
    assert info.maxsize is not None and info.currsize <= info.maxsize  # bounded
    # a power is exact whatever the context of the call that caches it
    _power.cache_clear()
    assert _power(3 * cli._SPLIT_BITS) == 2 ** (3 * cli._SPLIT_BITS)


def test_exact_context_refuses_to_round():
    with localcontext(cli._EXACT), pytest.raises(Inexact):
        Decimal("1.5").to_integral_exact()


@pytest.fixture
def max_digits_1000(monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIGITS", 1000)  # the interpreter allows 0 or > 640


@pytest.fixture
def conversions(monkeypatch):
    """Count the ints converted to Decimal."""
    seen = []
    original = cli._to_decimal

    def counting(x):
        seen.append(x)
        return original(x)

    monkeypatch.setattr(cli, "_to_decimal", counting)
    return seen


def test_an_operand_past_max_digits_is_never_converted(capsys, max_digits_1000, conversions):
    # F(5000) has 1,045 digits; the values F(n - 5000) near n = 5000 are small,
    # and the operands F(-5000), F(-4999), F(4999), F(5000) double as Decimals
    code, out, err = run_cli(capsys, "eval", "F(n-5000)", "--from", "5000", "--to", "5000")
    assert (code, out, err) == (0, "5000 0\n", "")
    assert conversions == []


def test_carried_seeds_step_as_decimals(monkeypatch, conversions):
    # 1,200 clusters 88 apart, read at 10^5: every seed but the nearest is carried
    # from its neighbour's by a product with phi^-88, all Decimals, none converted
    kernel = importlib.import_module("fibrec.fib")
    asked, fib_pair = [], kernel.fib_pair
    spy = lambda k, one=1: asked.append((k, type(one))) or fib_pair(k, one)
    monkeypatch.setattr(kernel, "fib_pair", spy)
    e = parse(" + ".join(f"F(n-{88 * i})" for i in range(1200)))
    with localcontext(cli._EXACT):
        got = list(cli._rendered(e, 100_000, 100_010))
    assert conversions == [] and {one for _, one in asked} == {Decimal}
    assert len(asked) == 1200 and sum(k == -88 for k, _ in asked) > 1000
    # the values pass the int-to-str limit: compared as Decimals, which read ints whole
    ints = [(n, Decimal(v.numerator)) for n, v in e.canon().values(100_000, 100_010)]
    assert [(n, Decimal(text)) for n, text in got] == ints


def test_printable_operands_step_decimals(capsys, max_digits_1000, conversions):
    code, out, err = run_cli(capsys, "eval", "F(n)", "--from", "4000", "--to", "4001")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [len(line.split()[1]) for line in lines] == [836, 836]
    assert out == expected_lines("F(n)", 4000, 4001)
    assert conversions == []  # the seed F(3999), F(4000) doubles as Decimals


@pytest.mark.parametrize(
    "text, lo, hi",
    [
        ("F(n)", 4775, 4795),  # F(4786) has 1,000 digits and F(4787) 1,001
        ("-F(n) + 1/3", 4775, 4795),
        # at n = 4770 the reduced numerator 477*F(n) has 1,000 digits, L*w_n 1,001
        ("n/10*F(n)", 4760, 4780),
        ("1/3*F(n)", 0, 4800),  # refused at n = 4787, about 36 blocks of text in
    ],
)
def test_the_digit_cap_falls_where_str_refuses(capsys, max_digits_1000, text, lo, hi):
    expected, refused = [], False
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        for n, v in parse(text).canon().values(lo, hi):
            try:
                expected.append(f"{n} {v}\n")
            except ValueError:
                refused = True
                break
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused and expected
    if text.startswith("n/10"):
        assert expected[-1].startswith("4770 ") and len(str(4770 * fib(4770))) == 1001
    for view in ((), ("--json",)):
        code, out, err = run_cli(capsys, "eval", text, "--from", str(lo), "--to", str(hi), *view)
        assert (code, err) == (2, "error: a value has more than 1000 digits\n")
        assert out == ("" if view else "".join(expected))


def values_as_text(text: str, lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, str(w_n)) from CanonForm.values, str allowed the CLI's digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cli.MAX_DIGITS)
    try:
        return [(n, str(v)) for n, v in parse(text).canon().values(lo, hi)]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def prints(monkeypatch):
    """The text of each print that main makes to stdout."""
    seen = []

    def spy(*args, **kwargs):
        if "file" not in kwargs:
            seen.append(args[0])
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", spy, raising=False)
    return seen


def assert_cut_at_the_line_that_fills_it(chunks: list[str]) -> None:
    assert len(chunks) >= 3
    for chunk in chunks[:-1]:
        sizes = [len(line) for line in chunk.split("\n")]
        assert sum(sizes[:-1]) < cli._BLOCK_CHARS <= sum(sizes)


def assert_both_views_print(capsys, prints, argv, expected) -> None:
    """The text view in prints cut where their lines fill them, and --json, of expected."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"{n} {v}" for n, v in expected]
    assert_cut_at_the_line_that_fills_it(prints)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == [{"n": n, "value": v} for n, v in expected]


@pytest.mark.parametrize(
    "text, lo, hi",
    [
        ("(2n+3)/5*F(n) - n/5*F(n-1)", -3000, 3000),  # about 29 prints of text
        ("F(n) + 1/3", 320_000, 320_002),  # each value is longer than a print
    ],
)
def test_blocks_join_to_the_values_line_by_line(capsys, prints, text, lo, hi):
    expected = values_as_text(text, lo, hi)
    with localcontext(cli._EXACT):  # as main runs it
        assert list(cli._rendered(parse(text), lo, hi)) == expected
    assert_both_views_print(capsys, prints, ["eval", text, "--from", str(lo), "--to", str(hi)],
                            expected)


def test_every_command_writes_its_short_text_in_one_print(capsys, prints):
    code, out, err = run_cli(capsys, "rec", "(2n+3)/5*F(n) - n/5*F(n-1)")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4
    assert prints == [out[:-1]]


def test_a_failure_past_the_first_block_prints_the_lines_before_it(capsys, monkeypatch):
    original = cli._numerators  # the loop that both views read

    def fail_after_1500(*args):
        yield from itertools.islice(original(*args), 1500)
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "_numerators", fail_after_1500)
    code, out, err = run_cli(capsys, "eval", "F(n)", "--to", "3000")
    assert (code, err) == (1, "internal error: RuntimeError('stop')\n")
    assert out == "".join(f"{n} {v}\n" for n, v in values_as_text("F(n)", 0, 1499))
    assert len(out) > 3 * 2**16  # more text than three blocks hold


def test_a_value_past_max_digits_is_refused_unconverted(capsys, max_digits_1000, conversions):
    # as F(10^7) is at MAX_DIGITS = 500,000: the operands F(4999), F(5000) are too long
    code, out, err = run_cli(capsys, "eval", "F(n)", "--from", "5000", "--to", "5000")
    assert (code, out, err) == (2, "", "error: a value has more than 1000 digits\n")
    assert conversions == []


def test_the_parser_is_built_once_per_process(capsys):
    argv = ["eval", "n/2*F(n) + 1/3", "--from", "-3", "--to", "3"]
    cli._build_argparser.cache_clear()
    json_run = run_cli(capsys, *argv, "--json")
    text_run = run_cli(capsys, *argv)
    info = cli._build_argparser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for view, run in ((["--json"], json_run), ([], text_run)):
        fresh = subprocess.run(
            [sys.executable, "-m", "fibrec", *argv, *view], capture_output=True, text=True
        )
        assert run == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_importing_the_cli_builds_no_parser():
    code = "import fibrec.cli as c; print(c._build_argparser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_long_coefficients_step_as_decimal_differences(capsys, conversions, prints):
    # 10^400 passes _SPLIT_BITS, so R0 = 10^400*n^2 + 1 steps its differences as
    # Decimals in the exact context, where any rounding would raise; n*F(n-500),
    # more than 87 shifts away, is a run of its own, whose R0 = 3n stays an int
    text, lo, hi = f"({10**400}*n^2+1)/3*F(n) + n*F(n-500)", -20, 600
    expected = values_as_text(text, lo, hi)
    with localcontext(cli._EXACT):  # as main runs it
        assert list(cli._rendered(parse(text), lo, hi)) == expected
    assert conversions == [10**400]
    assert_both_views_print(capsys, prints, ["eval", text, "--from", str(lo), "--to", str(hi)],
                            expected)
