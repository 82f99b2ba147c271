"""Integrality decision versus a brute-force scan of term-by-term values."""

import importlib
import random
from fractions import Fraction as F

import pytest

from conftest import (
    A010049,
    EXAMPLE_EXPRS,
    QUAD_LIN,
    brute_scan,
    rand_expr,
    rand_family_instance,
    rand_int_expr,
    rand_perturbed_instance,
    ref_at,
)

from fibrec import FibExpr, Integral, NonIntegral, is_integer_sequence, parse, to_recurrence
from fibrec import CanonForm, cfinite, seqform


def test_integral_examples():
    assert is_integer_sequence(A010049) == Integral((0, 1, 1, 3))
    assert is_integer_sequence(QUAD_LIN) == Integral((1, 1, 2, 2, 4, 7))
    assert is_integer_sequence(FibExpr()) == Integral(())


def test_non_integral_example():
    verdict = is_integer_sequence(FibExpr.of([(0, [0, F(1, 2)])]))
    assert verdict == NonIntegral(1, F(1, 2))


def test_witness_is_least_non_negative():
    # w_0 integer, w_1 and w_2 not: the reported witness must be 1
    e = FibExpr.of([(0, [F(1, 3)])])
    verdict = is_integer_sequence(e)
    assert isinstance(verdict, NonIntegral)
    assert verdict.witness_n == 1
    assert verdict.value == F(1, 3)


def test_brute_scan_examples():
    assert brute_scan(A010049, -40, 40) is None
    assert brute_scan(FibExpr.of([(0, [0, F(1, 2)])]), -10, 10) == -7
    assert brute_scan(FibExpr(), -5, 5) is None


def test_counterexample_reevaluates_to_reported_value():
    rng = random.Random(101)
    seen = 0
    while seen < 20:
        e = rand_perturbed_instance(rng)
        verdict = is_integer_sequence(e)
        if isinstance(verdict, NonIntegral):
            assert e.at(verdict.witness_n) == verdict.value
            assert verdict.value.denominator > 1
            seen += 1


def test_family_instances_are_always_integral():
    rng = random.Random(103)
    for _ in range(40):
        e = rand_family_instance(rng)
        assert isinstance(is_integer_sequence(e), Integral)


def test_decision_agrees_with_brute_scan():
    rng = random.Random(107)
    for i in range(60):
        e = rand_family_instance(rng) if i % 2 == 0 else rand_perturbed_instance(rng)
        verdict = is_integer_sequence(e)
        witness = brute_scan(e, -40, 40)
        assert isinstance(verdict, Integral) == (witness is None)


def _reference_verdict(expr: FibExpr):
    """The full-window scan: derive every initial value, then look for a non-integer."""
    rec = to_recurrence(expr)
    for n, v in enumerate(rec.initial):
        if v.denominator != 1:
            return NonIntegral(n, v)
    return Integral(tuple(int(v) for v in rec.initial))


def _assert_same_verdict(expr: FibExpr):
    got, want = is_integer_sequence(expr), _reference_verdict(expr)
    assert type(got) is type(want)
    assert got == want  # witness_n and value, or the certificate
    if isinstance(got, Integral):
        assert all(type(c) is int for c in got.certificate)


def test_verdict_matches_full_window_scan():
    rng = random.Random(109)
    generators = (rand_expr, rand_int_expr, rand_family_instance, rand_perturbed_instance)
    for i in range(400):
        _assert_same_verdict(generators[i % 4](rng))
    for expr in EXAMPLE_EXPRS.values():
        _assert_same_verdict(expr)
    _assert_same_verdict(FibExpr())
    assert is_integer_sequence(FibExpr()) == Integral(())


def _counted_steps(monkeypatch) -> list:
    """The indices seqform._numerators steps from here on, in order."""
    stepped = []
    numerators = seqform._numerators

    def counting(*args):
        for item in numerators(*args):
            stepped.append(item[0])
            yield item

    monkeypatch.setattr(seqform, "_numerators", counting)
    return stepped


def test_verdict_stops_at_its_witness(monkeypatch):
    # m = 2002 initial values, but w_1 = F(19999)/3 + 1 is already no integer
    stepped = _counted_steps(monkeypatch)
    verdict = is_integer_sequence(parse("n^1000/3*F(n-20000)+n^1000*F(n)"))
    assert isinstance(verdict, NonIntegral)
    assert verdict.witness_n == 1
    assert len(stepped) <= verdict.witness_n + 1


_INTEGRAL_TEXTS = (
    "(2n+3)/5*F(n) - n/5*F(n-1)",
    "(5n^2-43n+88)/50*F(n) + (14n+50)/50*F(n-1)",
    "n^3*F(n-1000) + 2*F(n+3) + 5 - 3*(-1)^n",  # a far term, e and f
    "0",
)


def _assert_form_unchanged(expr: FibExpr):
    form = expr.canon()
    built = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)  # no memo at all
    assert form == built and hash(form) == hash(built) and repr(form) == repr(built)


def test_recurrence_and_verdict_step_one_window(monkeypatch):
    stepped = _counted_steps(monkeypatch)
    for text in _INTEGRAL_TEXTS:
        for verdict_first in (False, True):
            e = parse(text)
            stepped.clear()
            if verdict_first:
                verdict, rec = is_integer_sequence(e), to_recurrence(e)
            else:
                rec, verdict = to_recurrence(e), is_integer_sequence(e)
            assert stepped == list(range(rec.order)), text
            assert isinstance(verdict, Integral)
            assert verdict.certificate == rec.initial
            assert all(type(c) is int for c in verdict.certificate)
            again = to_recurrence(e)
            assert again is rec and again.initial is rec.initial
            assert is_integer_sequence(e) == verdict
            assert stepped == list(range(rec.order))  # nothing stepped again
            _assert_form_unchanged(e)


def test_a_verdict_at_its_witness_leaves_the_window_whole(monkeypatch):
    stepped = _counted_steps(monkeypatch)
    for text, witness in (("(n^3+1)/2*F(n) + F(n-2)", 2), ("n^4/3*F(n-70) + n^4*F(n+2) + 1/2", 0)):
        e = parse(text)
        stepped.clear()
        verdict = is_integer_sequence(e)
        assert isinstance(verdict, NonIntegral) and verdict.witness_n == witness
        assert stepped == list(range(witness + 1))
        rec = to_recurrence(e)  # the partial scan kept nothing: all m values now
        assert stepped[witness + 1:] == list(range(rec.order))
        assert rec == _reference_recurrence(text)
        assert rec.initial[witness] == verdict.value
        assert is_integer_sequence(e) == verdict
        _assert_form_unchanged(e)


def test_a_verdict_at_its_witness_raises_no_characteristic_polynomial(monkeypatch):
    # the window's length is read off the form; char_poly waits for a whole window
    for text, witness in (("n^1000/3*F(n-20000)+n^1000*F(n)", 1),
                          ("(n^3+1)/2*F(n) + F(n-2)", 2), ("n^4/3*F(n-70) + n^4*F(n+2) + 1/2", 0)):
        e = parse(text)
        with monkeypatch.context() as m:
            m.setattr(cfinite, "char_poly", lambda form: pytest.fail("char_poly was called"))
            verdict = is_integer_sequence(e)
        assert isinstance(verdict, NonIntegral) and verdict.witness_n == witness
        if e.canon().fib_degree < 1000:  # a whole window of degree 1000 takes seconds
            assert to_recurrence(e) == to_recurrence(parse(text))


def test_a_far_verdict_doubles_once(monkeypatch):
    # canon's phi^-J and the window's seed at n = 0 are one answer of _powers
    kernel = importlib.import_module("fibrec.fib")
    fib_pair, asked = kernel.fib_pair, []
    monkeypatch.setattr(kernel, "fib_pair", lambda k, one=1: asked.append(k) or fib_pair(k, one))
    verdict = is_integer_sequence(parse("n*F(n-100000) + 1/2"))
    assert verdict == NonIntegral(0, F(1, 2))
    assert asked.count(-100000) == 1


def _reference_recurrence(text: str):
    """The recurrence of a fresh parse, from values computed one index at a time."""
    fresh = parse(text)
    rec = to_recurrence(fresh)
    assert rec.initial == tuple(ref_at(fresh, n) for n in range(rec.order))
    return rec
