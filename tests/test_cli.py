"""CLI behaviour: output shapes, exit codes, JSON documents."""

import importlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import rand_fraction

from fibrec import FibExpr, Poly, format_expr, format_poly, parse, to_recurrence
from fibrec.cli import MAX_DIGITS, MAX_FIB_WORK, _number_list, _parse_bounded, main
from fibrec.parser import MAX_INDEX
from fibrec.seqform import _estimated_digits, _order_bound, _surely_longer


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "(2n+3)/5*F(n) - n/5*F(n-1)", "--from", "0", "--to", "6"
    )
    assert code == 0
    values = [line.split()[1] for line in out.strip().splitlines()]
    assert values == ["0", "1", "1", "3", "5", "10", "18"]


def test_eval_negative_range(capsys):
    code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", "-4", "--to", "4")
    assert code == 0
    values = [line.split()[1] for line in out.strip().splitlines()]
    assert values == ["-3", "2", "-1", "1", "0", "1", "1", "2", "3"]


def test_eval_constant_rational(capsys):
    code, out, _ = run_cli(capsys, "eval", "1/2", "--from", "0", "--to", "2")
    assert code == 0
    assert [line.split()[1] for line in out.strip().splitlines()] == ["1/2"] * 3


def test_exact_values_past_the_int_to_str_digit_limit(capsys):
    # F(30000) has 6,270 digits, above the interpreter's default limit of 4,300
    a, b = 0, 1
    for _ in range(30000):
        a, b = b, a + b
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", "30000", "--to", "30000")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"30000 {a}\n"
        assert len(str(a)) == 6270
    finally:
        sys.set_int_max_str_digits(limit)
    code, _, _ = run_cli(capsys, "rec", "F(n-30000)")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit


def test_values_past_max_digits_are_refused(capsys, monkeypatch):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)  # the interpreter allows 0 or > 640
    limit = sys.get_int_max_str_digits()
    # F(10000) has 2,090 digits
    for argv in (
        ("eval", "F(n)", "--from", "10000", "--to", "10000"),
        ("eval", "F(n)", "--from", "10000", "--to", "10000", "--json"),
        ("rec", "F(n-10000)", "--json"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: a value has more than 1000 digits\n")
        assert sys.get_int_max_str_digits() == limit
    code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", "4000", "--to", "4000")
    assert code == 0 and len(out) == len("4000 ") + 836 + 1


@pytest.mark.parametrize("command, label, key", [
    ("rec", "initial values", "initial"),
    ("check", "INTEGER certificate", "certificate"),
])
def test_initial_values_at_max_digits_print(capsys, monkeypatch, command, label, key):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)  # the interpreter allows 0 or > 640
    # F(4786) has 1,000 digits and F(4787) 1,001; w_0 of F(n-k) is F(-k)
    initial = [str(v) for v in to_recurrence(parse("F(n-4786)")).initial]
    assert len(initial[0]) == len("-") + 1000
    code, out, err = run_cli(capsys, command, "F(n-4786)")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"{label}: {', '.join(initial)}"
    code, out, err = run_cli(capsys, command, "F(n-4786)", "--json")
    assert (code, err) == (0, "")
    assert [str(v) for v in json.loads(out)[key]] == initial  # rec writes strings, check ints
    for view in ((), ("--json",)):
        code, out, err = run_cli(capsys, command, "F(n-4787)", *view)
        assert (code, out, err) == (2, "", "error: a value has more than 1000 digits\n")


def test_eval_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "F(n)", "--from", "3", "--to", "1")
    assert code == 2
    assert "--from" in err


@pytest.fixture
def no_fib(monkeypatch):
    """Make every Fibonacci evaluation fail, so any work at all exits 1, not 2."""

    def boom(n):
        raise AssertionError(f"fib_pair({n}) was called")

    # the package re-exports the function fib, which hides the module fibrec.fib
    monkeypatch.setattr(importlib.import_module("fibrec.fib"), "fib_pair", boom)


def test_huge_shift_is_rejected_before_any_work(capsys, no_fib):
    code, out, err = run_cli(capsys, "eval", "F(n+99999999999999999999)", "--to", "0")
    assert (code, out) == (2, "")
    assert "shift larger than 10000000 (at offset 4)" in err


@pytest.mark.parametrize(
    "bounds",
    [
        ("--from", "99999999999999999999", "--to", "99999999999999999999"),
        ("--from", "-10000001", "--to", "0"),
        ("--from", "0", "--to", "10000001"),
    ],
)
def test_huge_index_is_rejected_before_any_work(capsys, no_fib, bounds):
    code, out, err = run_cli(capsys, "eval", "F(n)", *bounds)
    assert (code, out) == (2, "")
    assert "--from and --to must lie within +-10000000" in err


def test_huge_template_is_rejected_before_any_work(capsys, no_fib):
    # listing the 10**12 + 1 unknowns would exhaust memory before the count check
    code, out, err = run_cli(capsys, "synth", "--deg0", "1000000000000", "--values", "1")
    assert (code, out) == (2, "")
    assert "template needs 1000000000001 values, got 1" in err


def test_a_template_past_the_unknowns_cap_is_refused_before_solving(capsys, monkeypatch):
    # 600 unknowns ran past 60 s before the cap; 2,002 ran out of memory
    synth = importlib.import_module("fibrec.synth")
    monkeypatch.setattr(synth, "_eliminate", lambda *args: pytest.fail("_eliminate was called"))
    monkeypatch.setattr(synth, "_solve_blocks", lambda *args: pytest.fail("_solve_blocks was called"))
    values = ",".join(["1"] * 600)
    code, out, err = run_cli(capsys, "synth", "--deg0", "299", "--deg1", "299", "--values", values)
    assert (code, out) == (2, "")
    assert err == f"error: template has 600 unknowns, more than {synth.MAX_UNKNOWNS}\n"


@pytest.mark.parametrize("argv, k, message", [
    # a lone F(n) part: row 0 is zero; --deg0 255 ran past 100 s
    (("--deg0", "255"), 256, "the template's linear system is singular"),
    # 35 s under the cap on unknowns
    (("--deg0", "150", "--deg1", "50"), 202,
     "template has 202 unknowns whose unequal degrees cost as much as 430, more than 300"),
])
def test_a_singular_or_lopsided_template_is_refused_before_elimination(
        capsys, monkeypatch, argv, k, message):
    synth = importlib.import_module("fibrec.synth")
    monkeypatch.setattr(synth, "_eliminate", lambda *args: pytest.fail("_eliminate was called"))
    monkeypatch.setattr(synth, "_solve_blocks", lambda *args: pytest.fail("_solve_blocks was called"))
    values = ",".join(map(str, range(k)))
    code, out, err = run_cli(capsys, "synth", *argv, "--values", values)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_the_no_fib_fixture_catches_work(capsys, no_fib):
    # F(0) at the index bound: F(n) there is refused before any work
    code, _, _ = run_cli(capsys, "eval", "F(n+10000000)", "--from", "-10000000", "--to", "-10000000")
    assert code == 1


def test_eval_text_output_streams(capsys, monkeypatch):
    import fibrec.cli

    original = fibrec.cli._numerators  # the loop that both views read

    def two_then_fail(*args):
        values = original(*args)
        yield next(values)
        yield next(values)
        raise RuntimeError("stop")

    monkeypatch.setattr(fibrec.cli, "_numerators", two_then_fail)
    code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", "5", "--to", "9")
    assert code == 1
    assert out == "5 5\n6 8\n"  # printed before the window was finished
    code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", "5", "--to", "9", "--json")
    assert (code, out) == (1, "")


def test_eval_json_window_is_bounded_before_any_work(capsys, no_fib):
    # F(0)..F(100000) hold about 10^9 digits, and --json holds them all at once
    code, out, err = run_cli(capsys, "eval", "F(n)", "--to", "100000", "--json")
    assert (code, out) == (2, "")
    assert err == (
        "error: --json would hold about 1045010450 digits at once, "
        "more than 20000000; the text output streams\n"
    )
    # the text view streams, so it starts work (exit 1 under no_fib) on the same window
    code, _, _ = run_cli(capsys, "eval", "F(n)", "--to", "100000")
    assert code == 1


def test_eval_json_budget_sums_every_index_in_closed_form(capsys, monkeypatch, no_fib):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_JSON_DIGITS", 100)
    for lo, hi in ((0, 30), (-30, 0), (-20, 20), (0, 31), (-31, 0), (-23, 22), (5, 32)):
        estimate = 0.209 * sum(abs(n) for n in range(lo, hi + 1))
        code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", str(lo), "--to", str(hi), "--json")
        # refused windows exit 2 with nothing printed; accepted ones reach fib (exit 1)
        assert (code, out) == ((2, "") if estimate > 100 else (1, "")), (lo, hi)


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "F(n-1000000)", "--to", "100", "--json"),
        ("rec", "n^1000*F(n-1000000)"),
        ("rec", "n^1000*F(n-1000000)", "--json"),
        ("check", "n^1000*F(n-1000000)"),
        ("check", "n^1000*F(n-1000000)", "--json"),
        # the canonical form has 2002 coefficients of about 209,000 digits each
        ("canon", "n^1000*F(n-1000000)"),
        ("canon", "n^1000*F(n-1000000)", "--json"),
    ],
)
def test_shifts_and_degrees_count_in_the_digit_budget(capsys, no_fib, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "more than 20000000" in err


@pytest.mark.parametrize(
    "command, holding",
    [
        ("rec", "initial values"),
        ("check", "initial values"),
        ("canon", "coefficients of the canonical form"),
    ],
)
def test_each_budget_refusal_names_what_its_command_holds(capsys, no_fib, command, holding):
    code, out, err = run_cli(capsys, command, "n^1000*F(n-1000000)")
    assert (code, out) == (2, "")
    assert err == (
        f"error: up to 2002 {holding} would hold about 425445724 digits, more than 20000000\n"
    )


@pytest.mark.parametrize("window, printed", [
    (("--from", "1000000", "--to", "1000000"), "1000000 0"),
    (("--to", "0"), "0 0"),
])
def test_eval_builds_no_canonical_form_and_passes_no_budget_for_one(capsys, monkeypatch,
                                                                     window, printed):
    # the canonical form would hold 2002 coefficients of about 209,000 digits each;
    # eval steps its one cluster from one seed, F(0) or F(-1000001), and prints 0
    monkeypatch.setattr(FibExpr, "canon", lambda self: pytest.fail("canon was called"))
    assert run_cli(capsys, "eval", "n^1000*F(n-1000000)", *window) == (0, printed + "\n", "")


def test_rec_is_refused_when_any_initial_value_is_surely_long(capsys, no_fib):
    # w_0 = 0, but rec prints w_1 = F(-9999999) too, which has about 2.1 million digits
    start = time.perf_counter()
    got = run_cli(capsys, "rec", "n*F(n-10000000)")
    assert time.perf_counter() - start < 1
    assert got == (2, "", f"error: a value has more than {MAX_DIGITS} digits\n")


def test_rec_refuses_two_far_clusters_of_one_length_before_any_far_work(capsys, monkeypatch):
    fib_pair = importlib.import_module("fibrec.fib").fib_pair

    def guarded(k, one=1):
        assert abs(k) <= 10**6, f"fib_pair({k}) was called"
        return fib_pair(k, one)

    monkeypatch.setattr(importlib.import_module("fibrec.fib"), "fib_pair", guarded)
    got = run_cli(capsys, "rec", "F(n-10000000) + F(n+10000000)")
    assert got == (2, "", f"error: a value has more than {MAX_DIGITS} digits\n")


# 200 clusters 2,000 apart near 2*10^6: each value has about 418,000 digits,
# so no digit budget refuses them, but their seeds cost 13 Fibonacci numbers at
# MAX_INDEX, which `rec` would run for about 40 s
_FAR_CLUSTERS = " + ".join(f"F(n-{2000000 - 2000 * i})" for i in range(200))
_TOO_MUCH_WORK = (f"error: its shifts would take more work than {MAX_FIB_WORK} Fibonacci "
                  f"numbers at index {MAX_INDEX}\n")


@pytest.mark.parametrize("argv", [
    ("rec", _FAR_CLUSTERS),
    ("check", _FAR_CLUSTERS, "--json"),
    ("canon", _FAR_CLUSTERS),
    ("eval", _FAR_CLUSTERS, "--to", "0"),
])
def test_far_clusters_are_refused_by_their_fibonacci_work(capsys, no_fib, argv):
    start = time.perf_counter()
    got = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == (2, "", _TOO_MUCH_WORK)


def test_the_work_bound_accepts_1200_near_clusters_and_far_shifts(capsys):
    # the bound canon, rec and check apply, which computes no long Fibonacci number;
    # test_every_command_reads_1200_clusters runs the first case end to end
    near = " + ".join(f"F(n-{88 * i})" for i in range(1200))
    for text in (near, "n*F(n-10000000) + 1/2", "F(n-5000000) + F(n+5000000) + 1/3"):
        assert _parse_bounded(text, "up to {} initial values") == parse(text)
    # eval seeds each cluster at its first n, within 200,001 of every shift here
    n = 1800000
    code, out, err = run_cli(capsys, "eval", _FAR_CLUSTERS, "--from", str(n), "--to", str(n))
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the value has about 42,000 digits
    try:
        assert out == f"{n} {parse(_FAR_CLUSTERS).at(n)}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_order_bound_counts_the_constant_and_the_alternating_part(capsys, no_fib):
    for text, order in (("n^1000*F(n-1000000) + 1", 2003), ("n^1000*F(n-1000000) - (-1)^n", 2003),
                        ("n^1000*F(n-1000000) + 1/2 + 2*(-1)^n", 2004)):
        code, out, err = run_cli(capsys, "rec", text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: up to {order} initial values would hold about "), err


def test_digit_estimate_is_never_far_below_the_printed_digits():
    rng = random.Random(13)
    for _ in range(250):
        terms = [
            (rng.randint(-300, 300) if rng.random() < 0.3 else rng.randint(-6, 6),
             Poly(tuple(rand_fraction(rng, 10**rng.randint(0, 6), (1, 3, 7, 10, 10**9))
                        for _ in range(rng.randint(1, 7)))))
            for _ in range(rng.randint(0, 3))
        ]
        const = rand_fraction(rng) if rng.random() < 0.5 else 0
        alt = rand_fraction(rng) if rng.random() < 0.5 else 0
        expr = FibExpr.of(terms, const, alt)
        lo = rng.randint(-400, 400)
        hi = lo + rng.randint(0, 40)
        printed = sum(ch.isdigit() for _, v in expr.canon().values(lo, hi) for ch in str(v))
        assert _estimated_digits(expr, lo, hi) >= printed - 2 * (hi - lo + 1), (expr, lo, hi)


@pytest.mark.parametrize("command", ["rec", "check", "canon"])
def test_a_lone_far_term_is_refused_before_it_is_computed(capsys, command):
    # computing the 2.1-million-digit values that the printer refuses takes seconds,
    # for one far term or for several in one cluster
    texts = ["F(n-10000000)", "F(n-10000000) + F(n-9999999)",
             "F(n-10000000) - F(n-9999999) + F(n-9999997)"]
    for text, view in itertools.product(texts, ((), ("--json",))):
        start = time.perf_counter()
        got = run_cli(capsys, command, text, *view)
        assert time.perf_counter() - start < 1
        assert got == (2, "", f"error: a value has more than {MAX_DIGITS} digits\n")


def initially_longer(expr, digits=MAX_DIGITS):
    """The bound as rec, check and canon ask it: over every initial value."""
    return _surely_longer(expr, digits, range(_order_bound(expr)))


def rand_poly(rng):
    """A nonzero polynomial of degree 0..2 with coefficients of up to 5 digits."""
    poly = Poly(())
    while not poly:
        poly = Poly(tuple(rand_fraction(rng, 10**rng.randint(0, 4),
                                        (1, 3, 7, 10**rng.randint(0, 5)))
                          for _ in range(rng.randint(1, 3))))
    return poly


def test_the_lone_term_bound_refuses_only_what_it_can_show(monkeypatch):
    assert initially_longer(parse("F(n-10000000)"))
    assert initially_longer(parse("-3/7*F(n+10000000) + 1/2 - 5*(-1)^n"))
    # w_0 = 1/2: p(n) = n has a root in the initial window
    assert not initially_longer(parse("n*F(n-10000000) + 1/2"))
    # F(n-2500000) has about 522,000 digits at n = 0, 1, 2: an e of 500,001 digits
    # is shorter, and one of 600,001 digits is left to the printer
    assert initially_longer(FibExpr.of([(2_500_000, 1)], 10**500_000))
    assert not initially_longer(FibExpr.of([(2_500_000, 1)], 10**600_000))
    # a short cluster beside a far one, several terms in one far cluster, and a
    # shorter far cluster on the other side
    assert initially_longer(parse("F(n-10000000) + F(n)"))
    assert initially_longer(parse("F(n-10000000) + F(n-9999999)"))
    assert initially_longer(parse("F(n-10000000) - F(n-9999999) + F(n-9999997)"))
    assert initially_longer(parse("F(n-10000000) + n*F(n+3000000)"))
    # clusters of one length may cancel: w_0 = F(-10000000) + F(10000000) = 0
    assert not initially_longer(parse("F(n-10000000) + F(n+10000000)"))
    # within one cluster, R0 = n^3 - n^3 = 0 and R1 = -n^3 + n^3 = 0: every value is 0
    assert not initially_longer(parse("n^3*F(n-300000) - n^3*F(n-300001) - n^3*F(n-300002)"))
    # the polynomials are evaluated only once the bound passes: here it is about 3,760 digits
    monkeypatch.setattr(Poly, "__call__", lambda p, n: pytest.fail("p was evaluated"))
    assert not initially_longer(parse("n^1000*F(n-20000)"))


@pytest.mark.parametrize("command", ["rec", "check", "canon"])
def test_a_lone_term_is_refused_at_the_patched_limit(capsys, monkeypatch, no_fib, command):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)
    for view in ((), ("--json",)):
        got = run_cli(capsys, command, "F(n-10000)", *view)
        assert got == (2, "", "error: a value has more than 1000 digits\n")


def test_what_the_lone_term_bound_cannot_refuse_still_prints(capsys, monkeypatch):
    import fibrec.cli

    # the same decisions as for F(n-10000000), at a limit where each value costs little
    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)
    assert run_cli(capsys, "check", "n*F(n-10000) + 1/2") == (
        3, "NON-INTEGER witness: n=0 value=1/2\n", "")
    # a cluster whose terms cancel is 0 at every index
    cancelling = "n^3*F(n-300000) - n^3*F(n-300001) - n^3*F(n-300002)"
    assert run_cli(capsys, "check", cancelling) == (0, "INTEGER certificate:\n", "")
    assert run_cli(capsys, "eval", cancelling, "--to", "3") == (0, "0 0\n1 0\n2 0\n3 0\n", "")
    # eval prints only its window, so it asks the bound about nothing else
    asked = []
    bound = fibrec.cli._surely_longer
    monkeypatch.setattr(fibrec.cli, "_surely_longer", lambda expr, digits, indices, every: (
        asked.append(tuple(indices)) or bound(expr, digits, indices, every)))
    assert run_cli(capsys, "eval", "F(n-10000)", "--from", "10000", "--to", "10000") == (
        0, "10000 0\n", "")
    assert asked == [(10000,)]


def test_digit_bound_below_a_lone_term_refuses_only_what_the_printer_refuses(capsys, monkeypatch):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)  # F(4786) has 1,000 digits
    rng = random.Random(31)
    constant = lambda: rng.choice((0, rand_fraction(rng), 10**rng.randint(985, 1005)))

    def lone_terms():
        # F(n-+j) alone, where the bound is tightest: late from j = 4787, early from 4796
        yield from (f"F(n{sign}{j})" for j in range(4780, 4800) for sign in "-+")
        for _ in range(80):
            poly = rand_poly(rng)
            if rng.random() < 0.3:  # a root in or just past the initial window
                poly = poly * Poly((-rng.randint(0, 9), 1))
            e, f = constant(), constant()
            shift = rng.choice((-1, 1)) * rng.randint(4700, 4880)
            yield format_expr(FibExpr.of([(shift, poly)], e, f))

    def clusters():
        # several terms in one far cluster, and a far cluster on each side
        yield from ("F(n-4800) + F(n-4799)", "F(n-4800) - F(n-4799) + F(n-4797)",
                    "F(n-4800) + F(n+4800)", "F(n-4790) + F(n+4810)",
                    "n^3*F(n-4790) - n^3*F(n-4791) - n^3*F(n-4792)")
        for _ in range(50):
            base = rng.choice((-1, 1)) * rng.randint(4700, 4880)
            terms = [(base + k, rand_poly(rng)) for k in rng.sample(range(45), rng.randint(2, 3))]
            if rng.random() < 0.4:
                terms.append((-base + rng.randint(-20, 20), rand_poly(rng)))
            yield format_expr(FibExpr.of(terms, constant(), constant()))

    runs = {"early": 0, "late": 0, "printed": 0}
    for text in itertools.chain(lone_terms(), clusters()):
        early = initially_longer(parse(text), 1000)
        for command in ("rec", "check", "canon"):
            for view in ((), ("--json",)):
                got = run_cli(capsys, command, text, *view)
                with monkeypatch.context() as m:
                    m.setattr(fibrec.cli, "_surely_longer", lambda *args: False)
                    late = run_cli(capsys, command, text, *view)
                assert got == late, (command, text, view)
                assert not early or got[0] == 2, (command, text, view)
                runs["early" if early else "late" if got[0] == 2 else "printed"] += 1
    # the boundary is crossed: early refusals, late-only refusals and printed values all occur
    assert min(runs.values()) > 30, runs


def test_reflected_clusters_are_refused_only_where_their_values_are_long():
    # F(1437) has 300 digits; the values are computed at this limit to check each answer
    rng = random.Random(41)
    constant = lambda: rng.choice((0, rand_fraction(rng), 10**rng.randint(290, 310)))

    def exprs():
        # far clusters on either side of the initial window, which may cancel there
        texts = ("F(n-1500) + F(n+1500)", "F(n-1500) - F(n+1500)", "F(n-1501) + F(n+1500)",
                 "n*F(n-1480) + n*F(n+1480)", "F(n-1440) + F(n+1440) + F(n)")
        yield from map(parse, texts)
        for _ in range(150):
            base = rng.randint(1250, 1450)
            poly = rand_poly(rng)
            other = poly * rng.choice((1, -1)) if rng.random() < 0.5 else rand_poly(rng)
            terms = [(base + rng.randint(0, 40), poly), (-base - rng.randint(-2, 80), other)]
            if rng.random() < 0.3:  # a third cluster, short or far
                terms.append((rng.choice((rng.randint(-6, 6), -base - 400, base + 300)),
                              rand_poly(rng)))
            yield FibExpr.of(terms, constant(), constant())
        for _ in range(60):
            # a chain of 3-5 clusters on one side, 40-130 apart: the gathered set is
            # those within the fold width of the longest, summed at its lowest index
            side, shift, terms = rng.choice((1, -1)), rng.randint(1250, 1450), []
            for _ in range(rng.randint(3, 5)):
                terms.append((side * shift, rand_poly(rng)))
                shift += rng.randint(40, 130)
            yield FibExpr.of(terms, constant(), constant())

    runs = {(every.__name__, outcome): 0 for every in (all, any)
            for outcome in ("refused", "long", "kept")}
    for expr in exprs():
        indices = range(_order_bound(expr))
        long = [len(str(abs(expr.at(n).numerator))) > 300 for n in indices]
        for every in (all, any):
            refused = _surely_longer(expr, 300, indices, every)
            assert not refused or every(long), (format_expr(expr), every.__name__)
            runs[every.__name__, "refused" if refused else "long" if every(long) else "kept"] += 1
    assert min(runs.values()) > 20, runs
    # w_1 = L(1500), 314 digits, read as one pair: one cluster alone could not show it
    assert _surely_longer(parse("F(n-1500) + F(n+1500)"), 300, range(2), any)


@pytest.mark.parametrize("argv", [
    ("F(n-10000000)", "--to", "0"),
    ("F(n-10000000)", "--to", "0", "--json"),
    ("F(n)", "--from", "-10000000", "--to", "-10000000"),
    ("F(n)", "--from", "10000000", "--to", "10000000", "--json"),
    # --json prints no value unless all print, so its last one counts too
    ("n*F(n-10000000)", "--to", "1", "--json"),
    ("-3/7*F(n+10000000) + 1/2 - 5*(-1)^n", "--to", "3"),
])
def test_a_surely_long_window_is_refused_before_it_is_computed(capsys, no_fib, argv):
    start = time.perf_counter()
    got = run_cli(capsys, "eval", *argv)
    assert time.perf_counter() - start < 1
    assert got == (2, "", f"error: a value has more than {MAX_DIGITS} digits\n")


def test_the_window_bound_refuses_only_what_it_can_show(monkeypatch):
    at = lambda text, n: _surely_longer(parse(text) if isinstance(text, str) else text,
                                        MAX_DIGITS, (n,))
    assert at("F(n-10000000)", 0)
    assert at("F(n-10000000)", 20_000_000)
    assert not at("F(n-10000000)", 10_000_000)
    assert not at("F(n-10000000)", 7_700_000)  # F(2300000): about 480,000 digits
    # p(n) = n - 5 has its root at n = 5 only
    assert not at("(n-5)*F(n-10000000)", 5)
    assert at("(n-5)*F(n-10000000)", 6)
    assert at("F(n-10000000) + F(n)", 0)
    assert at("F(n-10000000) + F(n-9999999)", 0)  # F(n-9999998)
    assert not at("F(n-10000000) + F(n-9999999)", 9_999_998)
    # clusters on opposite sides: equal at n = 0, where they cancel, and one far
    # longer at n = 5000000
    assert not at("F(n-10000000) + F(n+10000000)", 0)
    assert at("F(n-10000000) + F(n+10000000)", 5_000_000)
    assert not at("n^3*F(n-300000) - n^3*F(n-300001) - n^3*F(n-300002)", 9_000_000)
    # an e of 2^7000000, about 2,107,000 digits, is as long as F(-10000000)
    assert not at(FibExpr.of([(10_000_000, 1)], 1 << 7_000_000), 0)
    # the polynomials are evaluated only once the bound passes
    monkeypatch.setattr(Poly, "__call__", lambda p, n: pytest.fail("p was evaluated"))
    assert not at("n^1000*F(n-20000)", 0)


def test_what_the_window_bound_cannot_refuse_still_prints(capsys, monkeypatch):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)  # F(4786) has 1,000 digits
    # the text view checks only its first value: the short ones before F(4787) print
    code, out, err = run_cli(capsys, "eval", "F(n)", "--from", "4780", "--to", "4800")
    assert (code, err) == (2, "error: a value has more than 1000 digits\n")
    assert [line.split()[0] for line in out.splitlines()] == [str(n) for n in range(4780, 4787)]
    assert run_cli(capsys, "eval", "(n-6000)*F(n)", "--from", "6000", "--to", "6000") == (
        0, "6000 0\n", "")


def test_window_bound_refuses_only_what_the_printer_refuses(capsys, monkeypatch):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)  # F(4786) has 1,000 digits
    rng = random.Random(37)
    constant = lambda: rng.choice((0, rand_fraction(rng), 10**rng.randint(985, 1005)))

    def windows():
        # F(n) alone, where the bound is tightest: late from |n| = 4787, early from 4794
        yield from (("F(n)", n, n) for n in range(4780, 4800))
        yield from (("F(n)", -n, -n + 1) for n in range(4780, 4800))
        for _ in range(90):
            poly = rand_poly(rng)
            shift = rng.randint(-30, 30)
            lo = shift + rng.choice((-1, 1)) * rng.randint(4770, 4830)
            if rng.random() < 0.3:  # a root at the window's start
                poly = poly * Poly((-lo, 1))
            e, f = constant(), constant()
            yield format_expr(FibExpr.of([(shift, poly)], e, f)), lo, lo + rng.randint(0, 3)
        # several terms in one cluster, and a far cluster on each side of the window
        yield from (("F(n-4800) + F(n-4799)", 0, 3), ("F(n-4800) + F(n+4800)", 0, 3),
                    ("F(n-4800) + F(n+4800)", 15, 15),
                    ("n^3*F(n-4790) - n^3*F(n-4791) - n^3*F(n-4792)", 0, 3))
        for _ in range(60):
            base = rng.randint(-30, 30)
            terms = [(base + k, rand_poly(rng)) for k in rng.sample(range(45), rng.randint(2, 3))]
            lo = base + rng.choice((-1, 1)) * rng.randint(4770, 4830)
            if rng.random() < 0.5:  # as far from the window on its other side
                terms.append((2 * lo - base + rng.randint(-20, 20), rand_poly(rng)))
            text = format_expr(FibExpr.of(terms, constant(), constant()))
            yield text, lo, lo + rng.randint(0, 3)

    runs = {"early": 0, "late": 0, "printed": 0}
    for text, lo, hi in windows():
        for view, ends in (((), (lo,)), (("--json",), (lo, hi))):
            argv = ("eval", text, "--from", str(lo), "--to", str(hi), *view)
            got = run_cli(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(fibrec.cli, "_surely_longer", lambda *args: False)
                late = run_cli(capsys, *argv)
            assert got == late, argv
            early = any(_surely_longer(parse(text), 1000, (n,)) for n in ends)
            assert not early or got[0] == 2, argv
            runs["early" if early else "late" if got[0] == 2 else "printed"] += 1
    # the boundary is crossed: early refusals, late-only refusals and printed windows all occur
    assert min(runs.values()) > 30, runs


def test_list_options_keep_their_error_texts(capsys):
    code, _, err = run_cli(capsys, "synth", "--deg0", "1", "--values", "1,x")
    assert code == 2
    assert "expected a comma-separated list of rationals, got '1,x'" in err
    code, _, err = run_cli(capsys, "synth", "--deg0", "1", "--values", "1,1/0")
    assert code == 2
    assert "expected a comma-separated list of rationals, got '1,1/0'" in err
    code, _, err = run_cli(capsys, "theorem", "1", "--d", "1", "--z", "1,1/2,3")
    assert code == 2
    assert "expected a comma-separated integer list, got '1,1/2,3'" in err
    code, _, err = run_cli(capsys, "oeis", "0,1,x")
    assert code == 2
    assert "expected a comma-separated integer list, got '0,1,x'" in err


def test_an_over_long_number_in_a_list_option_is_refused_as_every_long_value(capsys):
    # in-process, since one argv string may hold at most 128 KiB on Linux; the list
    # is not echoed back, and every other malformed list keeps its text (above)
    big = "7" * (MAX_DIGITS + 100_001)
    for argv in (("oeis", f"1,1,1,{big}"), ("synth", "--deg0", "0", "--values", big),
                 ("theorem", "4", "--w", f"1,1,1,1,1,{big}")):
        assert run_cli(capsys, *argv) == (2, "", f"error: a value has more than {MAX_DIGITS} digits\n")


@pytest.mark.parametrize(
    "argv, code, first_line",
    [
        pytest.param(
            ("synth", "--deg0", "1", "--deg1", "1", "--values", "-1,2,3,4"), 0,
            "(-4/5*n + 14/5)*F(n) + (7/5*n - 1)*F(n-1)", id="synth-values",
        ),
        pytest.param(
            ("theorem", "1", "--d", "0", "--z", "-1,1,3"), 0,
            "(4/5*n - 9/5)*F(n) + (3/5*n)*F(n-1)", id="theorem-z",
        ),
        pytest.param(
            ("theorem", "4", "--w", "-1,1,2,6,12,26"), 0,
            "(1/5*n - 1/5)*F(n) + (7/5*n)*F(n-1) - 1*(-1)^n", id="theorem-w",
        ),
        pytest.param(("oeis", "-1,1,-2,3"), 0, "no matches", id="oeis-terms"),
        pytest.param(("eval", "-F(n)", "--from", "3", "--to", "3"), 0, "3 -2", id="eval-expr"),
        pytest.param(
            ("check", "-n/2*F(n)"), 3, "NON-INTEGER witness: n=1 value=-1/2", id="check-expr"
        ),
        pytest.param(("eval", "F(n)", "--from", "-2", "--to", "-2"), 0, "-2 -1", id="eval-from"),
    ],
)
def test_values_may_start_with_a_minus(capsys, argv, code, first_line):
    got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "")
    assert out.splitlines()[0] == first_line


def test_options_are_still_options(capsys):
    code, out, err = run_cli(capsys, "synth", "--deg0", "1", "--values", "--json")
    assert (code, out) == (2, "")
    assert "argument --values: expected one argument" in err
    code, out, err = run_cli(capsys, "eval", "F(n)", "-x")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: -x" in err
    for argv in (("eval", "-h"), ("synth", "-h"), ("-h",)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: fibrec")


def test_parse_error_exit_code_and_offset(capsys):
    code, _, err = run_cli(capsys, "eval", "F(q)", "--from", "0", "--to", "1")
    assert code == 2
    assert "offset" in err


def test_canon_output(capsys):
    code, out, _ = run_cli(capsys, "canon", "F(n-2)")
    assert code == 0
    assert "P0 = 1" in out
    assert "P1 = -1" in out


def test_rec_output(capsys):
    code, out, _ = run_cli(capsys, "rec", "(2n+3)/5*F(n) - n/5*F(n-1)")
    assert code == 0
    assert "order: 4" in out
    assert "coefficients: 2, 1, -2, -1" in out
    assert "x^4 - 2*x^3 - x^2 + 2*x + 1" in out
    assert "initial values: 0, 1, 1, 3" in out


def test_check_integer(capsys):
    code, out, _ = run_cli(capsys, "check", "(2n+3)/5*F(n) - n/5*F(n-1)")
    assert code == 0
    assert "INTEGER certificate: 0, 1, 1, 3" in out


def test_an_order_0_recurrence_prints_its_empty_lists_without_a_trailing_space(capsys):
    rec = "order: 0\ncharacteristic polynomial: 1\ncoefficients:\ninitial values:\n"
    assert run_cli(capsys, "rec", "0") == (0, rec, "")
    assert run_cli(capsys, "check", "0") == (0, "INTEGER certificate:\n", "")


def test_every_command_reads_1200_clusters(capsys):
    # shifts 88 apart, so each starts its own run: a window that nested one
    # generator per cluster passed the recursion limit at about 1,000
    text = " + ".join(f"F(n-{88 * i})" for i in range(1200))
    for command in ("rec", "check", "canon"):
        assert run_cli(capsys, command, text)[0] == 0
    values = parse(text).canon().values(0, 3)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # each value has about 22,000 digits
    try:
        expected = "".join(f"{n} {v}\n" for n, v in values)
    finally:
        sys.set_int_max_str_digits(limit)
    assert run_cli(capsys, "eval", text, "--to", "3") == (0, expected, "")


def test_check_non_integer_exit_code(capsys):
    code, out, _ = run_cli(capsys, "check", "n/2*F(n)")
    assert code == 3
    assert "NON-INTEGER witness: n=1 value=1/2" in out


def test_theorem_worked_example(capsys):
    code, out, _ = run_cli(capsys, "theorem", "3", "--e", "1", "--z", "1,1,1,2")
    assert code == 0
    assert out.splitlines()[0] == "(1/10*n^2 - 43/50*n + 44/25)*F(n) + (7/25*n + 1)*F(n-1)"


def test_theorem_family_four(capsys):
    code, out, _ = run_cli(capsys, "theorem", "4", "--w", "0,1,2,6,12,26", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {
        "a": "4/5",
        "b": "-4/5",
        "c": "3/5",
        "d": "0",
        "e": "1/2",
        "f": "-1/2",
    }
    assert parse(doc["expression"]).at(5) == 26


def test_theorem_missing_params_usage_error(capsys):
    code, _, err = run_cli(capsys, "theorem", "1", "--z", "1,1,3")
    assert code == 2
    assert "needs" in err


def test_synth_command(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--deg0", "1", "--deg1", "1", "--values", "0,1,1,3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"a": "2/5", "b": "3/5", "c": "-1/5", "d": "0"}
    assert doc["expression"] == "(2/5*n + 3/5)*F(n) + (-1/5*n)*F(n-1)"


@pytest.mark.parametrize("value", ["1e10000000", "1e-10000000"])
def test_synth_refuses_a_huge_exponent_before_building_the_value(capsys, value):
    # Fraction alone takes about 12 s to build 10**10000000
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "synth", "--deg0", "0", "--values", value)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a value has more than {MAX_DIGITS} digits\n"


def test_synth_refuses_a_coefficient_past_max_digits_before_printing_it(capsys):
    # writing the 500,001-digit coefficient out, only to have it refused, takes seconds
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "synth", "--deg1", "0", "--values", f"1e{MAX_DIGITS}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a value has more than {MAX_DIGITS} digits\n"


def test_synth_coefficients_at_max_digits_print(capsys, monkeypatch):
    import fibrec.cli

    monkeypatch.setattr(fibrec.cli, "MAX_DIGITS", 1000)
    # 10**1000 - 1 and 10**1000 have the same bit length; only the first fits
    for value, fits in (("9" * 1000, True), ("1e1000", False), ("1/" + "9" * 1000, True),
                        ("1e-1000", False), ("-" + "9" * 1000, True), ("-1e1000", False)):
        for json_flag in ((), ("--json",)):
            code, out, err = run_cli(capsys, "synth", "--deg1", "0", "--values", value, *json_flag)
            if fits:
                assert (code, err) == (0, "") and out
            else:
                assert (code, out, err) == (2, "", "error: a value has more than 1000 digits\n")


def test_value_exponent_bound():
    assert _number_list("1.5e3, -2E-0_2,3/4", Fraction) == [1500, Fraction(-1, 50), Fraction(3, 4)]
    assert _number_list(f"1e{MAX_DIGITS}", Fraction) == [10**MAX_DIGITS]
    assert _number_list(f"1e-000{MAX_DIGITS}", Fraction) == [Fraction(1, 10**MAX_DIGITS)]
    too_long = (f"1e{MAX_DIGITS + 1}", f" -.5E-{MAX_DIGITS + 1} ", "2,1e1_000_000", "1e" + "9" * 10**6)
    for text in too_long:
        with pytest.raises(ValueError, match=f"^a value has more than {MAX_DIGITS} digits$"):
            _number_list(text, Fraction)
    # not a number at all, whatever its tail
    with pytest.raises(ValueError, match="expected a comma-separated list of rationals"):
        _number_list("x1e99999999", Fraction)


def test_synth_round_trips_through_parse(capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--deg0", "2", "--deg1", "2", "--values", "0,0,1,4,12,31", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    expr = parse(doc["expression"])
    assert [expr.at(n) for n in range(6)] == [0, 0, 1, 4, 12, 31]


def test_oeis_local_hit(capsys):
    code, out, _ = run_cli(capsys, "oeis", "0,1,1,2,3,5,8")
    assert code == 0
    assert "A000045" in out


def test_oeis_local_miss(capsys):
    code, out, _ = run_cli(capsys, "oeis", "1,1,2,2,4,7,15,32,69")
    assert code == 0
    assert "no matches" in out


def test_oeis_remote_is_gated(capsys, monkeypatch):
    monkeypatch.delenv("FIBREC_OEIS_REMOTE", raising=False)
    code, _, err = run_cli(capsys, "oeis", "0,1,1,2", "--remote")
    assert code == 2
    assert "FIBREC_OEIS_REMOTE" in err


def test_oeis_network_failure_exit_code(capsys, monkeypatch):
    from fibrec import OeisTransportError
    from fibrec import cli as cli_module

    monkeypatch.setenv("FIBREC_OEIS_REMOTE", "1")

    def boom(prefix, timeout):
        raise OeisTransportError("no route to oeis.org")

    monkeypatch.setattr(cli_module, "search_remote", boom)
    code, _, err = run_cli(capsys, "oeis", "0,1,1,2", "--remote")
    assert code == 4
    assert "no route" in err


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e10"])
def test_oeis_timeout_out_of_range_is_usage_error(capsys, monkeypatch, timeout):
    from fibrec import cli as cli_module

    monkeypatch.setenv("FIBREC_OEIS_REMOTE", "1")

    def never(prefix, timeout):
        raise AssertionError("search_remote was called")

    monkeypatch.setattr(cli_module, "search_remote", never)
    code, out, err = run_cli(capsys, "oeis", "0,1,1,2", "--remote", "--timeout", timeout)
    assert (code, out) == (2, "")
    assert "--timeout must be more than 0 and at most 86400 seconds" in err


def test_there_is_no_oracle_command(capsys):
    # the enumerators are test oracles (tests/enumerators.py), not subcommands
    code, out, _ = run_cli(capsys, "oracle", "leonardo", "5")
    assert (code, out) == (2, "")


def test_eval_json_schema(capsys):
    code, out, _ = run_cli(capsys, "eval", "F(n)", "--from", "0", "--to", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "eval"
    assert doc["values"] == [
        {"n": 0, "value": "0"},
        {"n": 1, "value": "1"},
        {"n": 2, "value": "1"},
        {"n": 3, "value": "2"},
    ]


def test_check_json_schema(capsys):
    code, out, _ = run_cli(capsys, "check", "n/2*F(n)", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc == {
        "command": "check",
        "expression": "n/2*F(n)",
        "integral": False,
        "witness_n": 1,
        "value": "1/2",
    }


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_closed_pipe_is_not_an_error():
    # the reader takes one line and closes its end while eval is still streaming
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibrec", "eval", "F(n)", "--to", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert (first, err) == (b"0 0\n", b"")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fibrec", "eval", "F(n)", "--from", "0", "--to", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert [line.split()[1] for line in proc.stdout.strip().splitlines()] == [
        "0",
        "1",
        "1",
        "2",
        "3",
        "5",
    ]


_WORKED = "(2n+3)/5*F(n) - n/5*F(n-1)"


@pytest.mark.parametrize(
    "argv, doc",
    [
        pytest.param(
            ("canon", "F(n)"),
            {"command": "canon", "expression": "F(n)", "p0": ["1"], "p1": [], "e": "0", "f": "0"},
            id="canon",
        ),
        pytest.param(
            ("rec", _WORKED),
            {
                "command": "rec",
                "expression": _WORKED,
                "order": 4,
                "char_poly": [1, 2, -1, -2, 1],
                "coefficients": [2, 1, -2, -1],
                "initial": ["0", "1", "1", "3"],
            },
            id="rec",
        ),
        pytest.param(
            ("check", _WORKED),
            {
                "command": "check",
                "expression": _WORKED,
                "integral": True,
                "certificate": [0, 1, 1, 3],
            },
            id="check",
        ),
        pytest.param(
            ("eval", "n/3*F(n)", "--from", "-1", "--to", "1"),
            {
                "command": "eval",
                "expression": "n/3*F(n)",
                "from": -1,
                "to": 1,
                "values": [
                    {"n": -1, "value": "-1/3"},
                    {"n": 0, "value": "0"},
                    {"n": 1, "value": "1/3"},
                ],
            },
            id="eval",
        ),
        pytest.param(
            ("oeis", "0,1,1,2"),
            {
                "command": "oeis",
                "prefix": [0, 1, 1, 2],
                "source": "local",
                "hits": [{"a_number": "A000045", "offset": 0, "match_start": 0}],
            },
            id="oeis",
        ),
        pytest.param(
            ("synth", "--deg1", "0", "--values", "1/2"),
            {
                "command": "synth",
                "template": {"deg_p0": None, "deg_p1": 0, "has_const": False, "has_alt": False},
                "values": ["1/2"],
                "coefficients": {"a": "1/2"},
                "expression": "1/2*F(n-1)",
            },
            id="synth",
        ),
        pytest.param(
            ("theorem", "1", "--d", "0", "--z", "1,1,3"),
            {
                "command": "theorem",
                "which": 1,
                "params": {"d": 0, "z": [1, 1, 3]},
                "coefficients": {"a": "2/5", "b": "3/5", "c": "-1/5", "d": "0"},
                "expression": "(2/5*n + 3/5)*F(n) + (-1/5*n)*F(n-1)",
            },
            id="theorem",
        ),
    ],
)
def test_json_documents_are_pinned(capsys, argv, doc):
    # compared as text, so key order and value types (1 against "1" or true) count
    assert run_cli(capsys, *argv, "--json") == (0, json.dumps(doc, indent=2) + "\n", "")


@pytest.mark.parametrize(
    "argv, conversions",
    [
        (("rec", _WORKED), 4),  # the initial values 0, 1, 1, 3
        (("rec", _WORKED, "--json"), 4),
        (("canon", _WORKED), 5),  # 2/5, 3/5 and -1/5 in the polynomials, e, f
        (("canon", _WORKED, "--json"), 6),  # the zero coefficient of P1 is listed too
        (("check", "F(n-30000)", "--json"), 2),  # two long ints that JSON would write with str
    ],
    ids=["rec", "rec-json", "canon", "canon-json", "check-json-long"],
)
def test_each_printed_rational_becomes_text_once(capsys, monkeypatch, argv, conversions):
    import fibrec.cli
    import fibrec.parser

    calls = []
    to_text, to_format, write = Fraction.__str__, Fraction.__format__, fibrec.parser._text

    def counting(self):
        calls.append(self)
        return to_text(self)

    def formatting(self, spec):
        return str(self) if not spec else to_format(self, spec)

    def writing(x):
        # a short int, such as an index or a coefficient of x^2 - x - 1, is
        # not a rational value; JSON writes those itself
        if isinstance(x, Fraction) or x.bit_length() > fibrec.parser._SPLIT_BITS:
            calls.append(x)
        return write(x)

    # every number becomes text through parser._text, which the CLI imports;
    # a stray str(Fraction) still counts.  An f-string calls __format__ with
    # an empty spec, object's before 3.12 and Fraction's own after; either way
    # send it to __str__, so each counts once
    monkeypatch.setattr(Fraction, "__str__", counting)
    monkeypatch.setattr(Fraction, "__format__", formatting)
    for module in (fibrec.parser, fibrec.cli):
        monkeypatch.setattr(module, "_text", writing)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == conversions


@pytest.mark.parametrize("text", ["F(n-30000)", "n/3*F(n-30000)+1/2"])
def test_text_and_json_views_agree_on_long_values(capsys, text):
    # F(-30000) has 6,270 digits: past _SPLIT_BITS and the interpreter's
    # default limit of 4,300 digits, so every long value takes the Decimal path
    views = {}
    for command in ("canon", "rec", "check"):
        code, out, err = run_cli(capsys, command, text)
        code_json, out_json, err_json = run_cli(capsys, command, text, "--json")
        assert code == code_json and err == err_json == "" and code in (0, 3)
        # "P0 = ...", "e  = ..." or "initial values: ..." by its label
        pairs = (line.split(": " if ": " in line else " = ", 1) for line in out.splitlines())
        views[command] = {label.strip(): value for label, value in pairs}, out_json
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        canon, canon_json = views["canon"]
        doc = json.loads(canon_json)
        for key in ("p0", "p1"):
            poly = Poly(tuple(Fraction(c) for c in doc[key]))
            assert canon[key.upper()] == format_poly(poly)
            assert max(map(len, doc[key])) > 6000
        assert (canon["e"], canon["f"]) == (doc["e"], doc["f"])
        rec, rec_json = views["rec"]
        doc = json.loads(rec_json)
        assert rec["initial values"] == ", ".join(doc["initial"])
        assert rec["coefficients"] == ", ".join(map(str, doc["coefficients"]))
        assert rec["characteristic polynomial"] == format_poly(Poly(tuple(doc["char_poly"])), "x")
        check, check_json = views["check"]
        doc = json.loads(check_json)
        if doc["integral"]:
            assert check["INTEGER certificate"] == ", ".join(map(str, doc["certificate"]))
            assert max(len(str(c)) for c in doc["certificate"]) > 6000
        else:
            assert check["NON-INTEGER witness"] == f"n={doc['witness_n']} value={doc['value']}"
        initial = json.loads(rec_json)["initial"]
        assert to_recurrence(parse(text)).initial == tuple(map(Fraction, initial))
    finally:
        sys.set_int_max_str_digits(limit)
