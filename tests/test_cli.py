"""CLI behaviour: output shapes, exit codes, JSON documents."""

import importlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from fibrec import parse
from fibrec.cli import main


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


def test_eval_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "F(n)", "--from", "3", "--to", "1")
    assert code == 2
    assert "--from" in err


@pytest.fixture
def no_fib(monkeypatch):
    """Make every Fibonacci evaluation fail, so any work at all exits 1, not 2."""

    def boom(n):
        raise AssertionError(f"fib({n}) was called")

    # the package re-exports the function fib, which hides the module fibrec.fib
    for module in ("fibrec.fib", "fibrec.seqform"):
        monkeypatch.setattr(importlib.import_module(module), "fib", boom)


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


def test_the_no_fib_fixture_catches_work(capsys, no_fib):
    code, _, _ = run_cli(capsys, "eval", "F(n)", "--from", "-10000000", "--to", "-10000000")
    assert code == 1


def test_eval_text_output_streams(capsys, monkeypatch):
    from fibrec.seqform import CanonForm

    original = CanonForm.values

    def two_then_fail(self, lo, hi):
        values = original(self, lo, hi)
        yield next(values)
        yield next(values)
        raise RuntimeError("stop")

    monkeypatch.setattr(CanonForm, "values", two_then_fail)
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


def test_oracle_commands(capsys):
    assert run_cli(capsys, "oracle", "leonardo", "5")[1].strip() == "15"
    assert run_cli(capsys, "oracle", "compositions", "5")[1].strip() == "10"
    assert run_cli(capsys, "oracle", "inversions", "4")[1].strip() == "12"


def test_oracle_cap_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "inversions", "26")
    assert code == 2
    assert "capped" in err
    code, out, err = run_cli(capsys, "oracle", "leonardo", "100001")
    assert (code, out) == (2, "")
    assert "capped at n <= 100000" in err


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
            ("oracle", "leonardo", "5"),
            {"command": "oracle", "kind": "leonardo", "n": 5, "value": 15},
            id="oracle",
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
    ],
    ids=["rec", "rec-json", "canon", "canon-json"],
)
def test_each_printed_rational_becomes_text_once(capsys, monkeypatch, argv, conversions):
    calls = []
    to_text, to_format = Fraction.__str__, Fraction.__format__

    def counting(self):
        calls.append(self)
        return to_text(self)

    def formatting(self, spec):
        return str(self) if not spec else to_format(self, spec)

    # an f-string calls __format__ with an empty spec, object's before 3.12 and
    # Fraction's own after; either way send it to __str__, so each counts once
    monkeypatch.setattr(Fraction, "__str__", counting)
    monkeypatch.setattr(Fraction, "__format__", formatting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == conversions
