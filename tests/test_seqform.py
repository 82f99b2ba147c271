"""FibExpr evaluation, canonicalization and closure ops.

Values are checked against two evaluators that share no code with
``CanonForm.values``: ``conftest.ref_at`` (one fib() per term) and the
Binet split of ``binet_oracle`` (powers of alpha and beta in Q(sqrt(5))).
"""

import importlib
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from binet_oracle import ALPHA, QuadRat, binet, conj_poly, degree, fib_part_at, root_pow
from conftest import (
    A010049,
    DENOMS,
    QUAD_LIN,
    WALKS_W,
    rand_expr,
    rand_fraction,
    rand_int_expr,
    rand_poly,
    ref_at,
)

import fibrec.cli as cli
from fibrec import (
    CanonForm,
    FibExpr,
    Integral,
    NonIntegral,
    Poly,
    fib,
    format_expr,
    is_integer_sequence,
    parse,
    shift_coeffs,
    to_recurrence,
)
from fibrec.fib import _phi_sum
from fibrec.seqform import ShiftTerm, _near, _numerators, _runs


def test_evaluate_examples():
    assert A010049.at(3) == 3
    assert QUAD_LIN.at(6) == 15
    assert FibExpr().at(12) == 0
    assert FibExpr().at(-12) == 0


def test_evaluate_can_be_non_integer():
    half_n = FibExpr.of([(0, [0, F(1, 2)])])
    assert half_n.at(1) == F(1, 2)


def test_normalization_merges_and_drops():
    e = FibExpr.of([(2, [1]), (2, [2]), (0, [0]), (5, Poly(()))])
    assert len(e.terms) == 1
    assert e.terms[0].shift == 2
    assert e.terms[0].poly == Poly((3,))
    cancel = FibExpr.of([(1, [0, 1]), (1, [0, -1])])
    assert cancel == FibExpr()


def test_of_refuses_a_shift_or_coefficient_it_would_change():
    # int(shift) would read 1.9 and 3/2 as F(n-1), and at and canon fail on a float coefficient
    for shift in (1.9, F(3, 2), F(1), 1.0, "1"):
        with pytest.raises(TypeError):
            FibExpr.of([(shift, [1])])
    for poly in ([0.5], 0.5, [1, Decimal(2)], Poly((1, 0.5)), [F(1, 2), 1.0, 3]):
        with pytest.raises(TypeError, match="int or a Fraction"):
            FibExpr.of([(0, poly)])
    # Fraction(0.1) is 3602879701896397/36028797018963968, and Fraction(inf) overflows
    for const in (0.1, float("inf"), float("nan"), Decimal("0.1"), "1/2", 1j):
        for given in ({"const": const}, {"alt": const}):
            with pytest.raises(TypeError, match=re.escape(f"int or a Fraction, not {const!r}")):
                FibExpr.of([(0, [1])], **given)
    # an integer shift of any index type, and int or Fraction coefficients however given
    e = FibExpr.of([(True, [2, F(1, 3)]), (-1, Poly((F(-1, 2),))), (0, 7)], True, F(1, 2))
    assert e == FibExpr.of([(1, Poly((2, F(1, 3)))), (-1, [F(-1, 2)]), (0, [7])], 1, F(1, 2))
    assert e.at(3) == ref_at(e, 3) == 3 * 1 - F(1, 2) * 3 + 7 * 2 + 1 - F(1, 2)


def test_canonicalize_examples():
    c = FibExpr.of([(2, [1])]).canon()
    assert c == CanonForm(Poly((1,)), Poly((-1,)), F(0), F(0))

    # 4n/5*F(n+1) + (3n+3)/5*F(n) collapses to ((7n+3)/5, 4n/5)
    e = FibExpr.of([(-1, [0, F(4, 5)]), (0, [F(3, 5), F(3, 5)])])
    c = e.canon()
    assert c.p0 == Poly((F(3, 5), F(7, 5)))
    assert c.p1 == Poly((0, F(4, 5)))

    canonical = FibExpr.of([(0, [1, 2]), (1, [3])], const=5, alt=7)
    c = canonical.canon()
    assert (c.p0, c.p1, c.const_e, c.alt_f) == (Poly((1, 2)), Poly((3,)), 5, 7)


def _from_canon(c: CanonForm) -> FibExpr:
    """The canonical form written back as an expression in F(n) and F(n-1)."""
    return FibExpr.of([(0, c.p0), (1, c.p1)], c.const_e, c.alt_f)


def test_canonicalize_preserves_values():
    rng = random.Random(31)
    for _ in range(40):
        e = rand_expr(rng)
        back = _from_canon(e.canon())
        for n in range(-30, 31):
            assert ref_at(e, n) == ref_at(back, n)


def test_canonical_form_is_faithful():
    rng = random.Random(37)
    for _ in range(80):
        e1, e2 = rand_expr(rng), rand_expr(rng)
        c1, c2 = e1.canon(), e2.canon()
        degs = [d for d in (c1.fib_degree, c2.fib_degree) if d is not None]
        span = 2 * max(degs, default=0) + 4
        if c1 == c2:
            assert all(ref_at(e1, n) == ref_at(e2, n) for n in range(span + 1))
        else:
            assert any(ref_at(e1, n) != ref_at(e2, n) for n in range(span + 1))


def _values_match_reference(e, lo, hi):
    got = list(e.canon().values(lo, hi))
    assert got == [(n, ref_at(e, n)) for n in range(lo, hi + 1)]


def test_values_match_reference_on_random_windows():
    rng = random.Random(43)
    for _ in range(150):
        e = rand_expr(rng, max_deg=4)
        lo = rng.randint(-40, 10)
        _values_match_reference(e, lo, lo + rng.randint(0, 40))  # crosses 0 often
        lo = rng.randint(-300, -50)
        _values_match_reference(e, lo, lo + rng.randint(0, 20))  # wholly negative
        n = rng.randint(-60, 60)
        _values_match_reference(e, n, n)
        assert list(e.canon().values(n, n - 1)) == []
        assert list(e.canon().values(5, -5)) == []


@pytest.mark.parametrize(
    "e",
    [
        FibExpr(),
        FibExpr.of([], const=F(-7, 3)),
        FibExpr.of([], alt=F(5, 2)),
        FibExpr.of([], const=F(1, 2), alt=F(1, 2)),
        FibExpr.of([(3, [F(1, 7)])]),
        FibExpr.of([(-5, [0, 0, 2])], const=4, alt=-1),
    ],
    ids=["zero", "constant", "alternating", "const-and-alt", "one-shift", "integer"],
)
def test_values_match_reference_on_degenerate_forms(e):
    _values_match_reference(e, -25, 25)
    _values_match_reference(e, 0, 0)
    _values_match_reference(e, -1, -1)


def test_values_with_integer_coefficients():
    rng = random.Random(44)
    for _ in range(40):
        e = rand_int_expr(rng, max_deg=3)  # common denominator 1
        _values_match_reference(e, -30, 30)
        assert all(v.denominator == 1 for _, v in e.canon().values(-30, 30))


def test_at_matches_reference_far_out():
    rng = random.Random(45)
    exprs = [A010049, QUAD_LIN, WALKS_W] + [rand_expr(rng) for _ in range(5)]
    for e in exprs:
        for n in (10**5, -(10**5), 99_991, -77_777, 12_345):
            assert e.at(n) == ref_at(e, n)


def test_at_computes_only_what_it_reads(monkeypatch):
    # the canonical form of F(n-10000000) holds F(10^7) and F(10^7+1); the
    # value at 10^7 needs F(-1) and F(0) alone
    fib_pair = importlib.import_module("fibrec.fib").fib_pair

    def guarded(k, one=1):
        assert abs(k) <= 10**6, f"fib_pair({k}) was called"
        return fib_pair(k, one)

    monkeypatch.setattr(importlib.import_module("fibrec.fib"), "fib_pair", guarded)
    e = parse("F(n-10000000)")
    assert e.at(10_000_000) == 0
    assert "_canon" not in vars(e)


def test_add_examples():
    two_terms = FibExpr.of([(0, [1])]) + FibExpr.of([(1, [1])])
    assert [t.shift for t in two_terms.terms] == [0, 1]

    n_fn = FibExpr.of([(0, [0, 1])])
    assert n_fn + (-1 * n_fn) == FibExpr()


def test_subtract_negate_and_print():
    rng = random.Random(53)
    for _ in range(20):
        e1, e2 = rand_expr(rng), rand_expr(rng)
        diff = e1 - e2
        for n in range(-6, 7):
            assert diff.at(n) == e1.at(n) - e2.at(n)
            assert (-e1).at(n) == -e1.at(n)
    assert A010049 - A010049 == FibExpr()
    assert -A010049 == A010049 * -1
    assert format_expr(A010049) == "(2/5*n + 3/5)*F(n) + (-1/5*n)*F(n-1)"
    with pytest.raises(TypeError):
        A010049 - 1


def test_add_commutes_with_evaluate_and_canon():
    rng = random.Random(41)
    for _ in range(40):
        e1, e2 = rand_expr(rng), rand_expr(rng)
        s = e1 + e2
        for n in range(-10, 11):
            assert s.at(n) == e1.at(n) + e2.at(n)
        assert s.canon().p0 == e1.canon().p0 + e2.canon().p0
        assert s.canon().p1 == e1.canon().p1 + e2.canon().p1


def test_scale_examples():
    fn = FibExpr.of([(0, [1])])
    assert (fn * 2).at(6) == 16
    e = rand_expr(random.Random(43))
    assert e * 0 == FibExpr()
    assert ((e * 3) * F(1, 3)) == e


def test_scale_commutes_with_evaluate():
    rng = random.Random(47)
    for _ in range(30):
        e = rand_expr(rng)
        r = F(rng.randint(-9, 9), rng.randint(1, 9))
        scaled = e * r
        for n in range(-8, 9):
            assert scaled.at(n) == r * e.at(n)


def test_shift_index_examples():
    fn1 = FibExpr.of([(0, [1])]).shifted(1)
    assert fn1.terms[0].shift == -1
    assert fn1.terms[0].poly == Poly((1,))

    e = rand_expr(random.Random(53))
    assert e.shifted(5).shifted(-5) == e


def test_shift_index_commutes_with_evaluate():
    rng = random.Random(59)
    for _ in range(30):
        e = rand_expr(rng)
        k = rng.randint(-6, 6)
        v = e.shifted(k)
        for n in range(-8, 9):
            assert v.at(n) == e.at(n + k)


def test_shift_index_alternating_sign():
    e = FibExpr.of([], alt=F(1, 2))
    assert e.shifted(1).alt_f == F(-1, 2)
    assert e.shifted(2).alt_f == F(1, 2)


def test_binet_examples():
    q_alpha, q_beta = binet(FibExpr.of([(0, [1])]))
    assert q_alpha == (QuadRat(0, F(1, 5)),)
    assert q_beta == (QuadRat(0, F(-1, 5)),)

    q_alpha, q_beta = binet(FibExpr.of([(1, [1])]))
    assert q_alpha == (QuadRat(F(1, 2), F(-1, 10)),)
    assert q_beta == (QuadRat(F(1, 2), F(1, 10)),)

    q_alpha, q_beta = binet(A010049)
    assert degree(q_alpha) == degree(q_beta) == 1


def _far_exprs(rng, count):
    """Expressions with shifts up to +-2000, the first reaching both ends."""
    out = []
    for i in range(count):
        shifts = [-2000, 2000] if i == 0 else []
        shifts += [rng.randint(-2000, 2000) for _ in range(rng.randint(1, 3))]
        terms = [(j, rand_poly(rng)) for j in shifts]
        out.append(FibExpr.of(terms, rand_fraction(rng), rand_fraction(rng)))
    return out


def test_binet_soundness():
    rng = random.Random(61)
    exprs = [A010049, QUAD_LIN, WALKS_W] + [rand_expr(rng) for _ in range(25)]
    cases = [(e, range(-20, 21)) for e in exprs]
    cases += [(e, [-500, 500] + rng.sample(range(-500, 501), 6)) for e in _far_exprs(rng, 8)]
    for e, indices in cases:
        split = binet(e)
        for n in indices:
            fib_part = e.at(n) - e.const_e - (e.alt_f if n % 2 == 0 else -e.alt_f)
            assert fib_part_at(split, n) == QuadRat(fib_part, 0)


def test_binet_conjugacy_and_equal_degrees():
    rng = random.Random(67)
    for e in [rand_expr(rng) for _ in range(60)] + _far_exprs(rng, 10):
        q_alpha, q_beta = binet(e)
        assert q_beta == conj_poly(q_alpha)
        assert degree(q_alpha) == degree(q_beta)


def test_binet_degree_law():
    # q_alpha = (P0 + P1/alpha)/sqrt(5), and 1/alpha is irrational, so the
    # leading terms of P0 and P1 cannot cancel: deg q_alpha = max(deg P0, deg P1)
    rng = random.Random(71)
    checked = 0
    while checked < 40:
        e = rand_expr(rng)
        c = e.canon()
        if c.fib_degree is None:
            continue
        assert degree(binet(e)[0]) == c.fib_degree
        checked += 1


def test_binet_invariant_under_canonicalization():
    rng = random.Random(73)
    for _ in range(25):
        e = rand_expr(rng)
        assert binet(e) == binet(_from_canon(e.canon()))


def test_same_sequence_examples():
    fn2 = FibExpr.of([(2, [1])])
    diff = FibExpr.of([(0, [1]), (1, [-1])])
    assert fn2.canon() == diff.canon()

    assert FibExpr.of([(0, [0, 1])]).canon() != FibExpr.of([(1, [0, 1])]).canon()

    telescoped = FibExpr.of([(0, [0, -1]), (1, [0, 1]), (2, [0, 1])])
    assert telescoped.canon() == FibExpr().canon()


def _fresh(e: FibExpr) -> FibExpr:
    """An equal expression built from the fields alone, so nothing is memoized."""
    return FibExpr(e.terms, e.const_e, e.alt_f)


def test_canon_memo_is_invisible():
    texts = [
        "(2n+3)/5*F(n) - n/5*F(n-1) + 1/2*F(n+7) + 3 - 1/4*(-1)^n",
        "(2n+3)/5*F(n) - n/5*F(n-1000) + 1/2*F(n+45) + 3 - 1/4*(-1)^n",  # two far terms
    ]
    for text in texts:
        e = parse(text)
        form = e.canon()
        assert e.canon() is form
        assert form._scaled is e._scaled
        fresh = parse(text)
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
        assert form == fresh.canon() and hash(form) == hash(fresh.canon())
        assert repr(form) == repr(fresh.canon())
        built = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)  # no cluster memo
        assert form == built and hash(form) == hash(built) and repr(form) == repr(built)


def test_derived_expressions_do_not_inherit_a_memo():
    rng = random.Random(61)
    for _ in range(40):
        e, g = rand_expr(rng), rand_expr(rng)
        ce, cg = e.canon(), g.canon()  # memoize both before deriving
        k = rng.randint(-6, 6)
        rebuilt = FibExpr.of([(t.shift, t.poly) for t in e.terms], e.const_e, e.alt_f)
        for derived in (e + g, e * 3, -e, e.shifted(k), rebuilt):
            assert derived.canon() == _fresh(derived).canon()
        assert (e + g).canon() == CanonForm(ce.p0 + cg.p0, ce.p1 + cg.p1,
                                            ce.const_e + cg.const_e, ce.alt_f + cg.alt_f)
        assert (e * 3).canon() == CanonForm(ce.p0 * 3, ce.p1 * 3, ce.const_e * 3, ce.alt_f * 3)
        assert (-e).canon() == CanonForm(ce.p0 * -1, ce.p1 * -1, -ce.const_e, -ce.alt_f)
        assert rebuilt.canon() == ce and rebuilt.canon() is not ce
        assert all(e.shifted(k).at(n) == ref_at(e, n + k) for n in range(-4, 5))


# Shifts on both sides of the fold bound (F(1-j) and F(-j) below 2**30 in
# magnitude for j = -43..44), far ones, and runs that span up to 87 shifts.
# `far`: whether a form built from P0 and P1 alone, one cluster at J = 0,
# multiplies some term by a factor of 2**30 or more.
_FAR_CASES = [
    ("F(n+44)", True),
    ("F(n+43)", False),
    ("n*F(n-44)", False),
    ("n*F(n-45)", True),
    ("(n^2-1)/4*F(n+44) + n/3*F(n-45) - F(n+43) + 2/7 - 1/3*(-1)^n", True),
    ("3/7*n*F(n-1000) + F(n+1) - 1", True),
    ("(n+1)/2*F(n+1000) - n/2*F(n-1000) + (n^2+5)/3*F(n-7)", True),
    ("n^3/5*F(n-20000) + (2n-1)/3*F(n+15000) + 1/2*(-1)^n", True),
    ("(n^2+n)/6*F(n+20000) + n*F(n-19999) + F(n)", True),
    ("n*F(n+100) - F(n+60) + (n^2+1)/3*F(n+57) + F(n-3)", True),
    ("F(n+43) - n*F(n-44)", False),
    ("F(n+44) - n*F(n-44)", True),
    ("F(n-30) + n/2*F(n-100)", True),
    ("(n^2+1)/3*F(n-1000) - F(n-1060)", True),
]

# The bases of each case's clusters, in order.
_RUN_BASES = {
    "F(n+44)": [-44],
    "F(n+43)": [-43],
    "n*F(n-44)": [44],
    "n*F(n-45)": [45],
    "(n^2-1)/4*F(n+44) + n/3*F(n-45) - F(n+43) + 2/7 - 1/3*(-1)^n": [-44, 45],  # 89 wide
    "3/7*n*F(n-1000) + F(n+1) - 1": [-1, 1000],
    "(n+1)/2*F(n+1000) - n/2*F(n-1000) + (n^2+5)/3*F(n-7)": [-1000, 7, 1000],
    "n^3/5*F(n-20000) + (2n-1)/3*F(n+15000) + 1/2*(-1)^n": [-15000, 20000],
    "(n^2+n)/6*F(n+20000) + n*F(n-19999) + F(n)": [-20000, 0, 19999],
    # offsets -21, 19 and 22 about -79, and F(n-3), 103 above F(n+100), alone
    "n*F(n+100) - F(n+60) + (n^2+1)/3*F(n+57) + F(n-3)": [-79, 3],
    "F(n+43) - n*F(n-44)": [0],  # 87 wide
    "F(n+44) - n*F(n-44)": [-44, 44],  # 88 wide
    "F(n-30) + n/2*F(n-100)": [65],
    "(n^2+1)/3*F(n-1000) - F(n-1060)": [1030],
}


def _run_bases(e: FibExpr) -> list[int]:
    """The bases of e's clusters, as its form holds them, each run checked
    against the rule: at most 87 wide, based at its midpoint, its offsets in
    -43..44, where F(J-j+1) and F(J-j) are below 2**30 in magnitude."""
    runs = list(_runs(e.terms))
    assert [t for _, run in runs for t in run] == list(e.terms)
    for base, run in runs:
        assert run[-1].shift - run[0].shift <= 87
        assert base == (run[0].shift + run[-1].shift) // 2
        for t in run:
            assert -43 <= t.shift - base <= 44
            assert max(map(abs, shift_coeffs(t.shift - base))) < 2**30
    bases = [base for base, _, _ in e._scaled[1]]
    assert bases == [base for base, _, _ in e.canon()._scaled[1]]
    assert set(bases) <= {base for base, _ in runs}  # a run whose terms cancel has no cluster
    return bases


def _folds_long(e: FibExpr) -> bool:
    """Whether folding e's terms about J = 0, as P0 and P1 do, multiplies some
    term by a factor of 2**30 or more."""
    return any(max(map(abs, shift_coeffs(t.shift))) >= 2**30 for t in e.terms)


@pytest.mark.parametrize("text, far", _FAR_CASES)
@pytest.mark.parametrize("lo", [-20_050, -7, 0, 19_990, 123_456])
def test_far_terms_give_the_values_of_a_fresh_form(text, far, lo):
    e = parse(text)
    assert _run_bases(e) == _RUN_BASES[text]
    assert _folds_long(e) == far
    form = e.canon()
    fresh = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)  # one cluster, at J = 0
    assert [base for base, _, _ in fresh._scaled[1]] == [0]
    hi = lo + 12
    got = list(form.values(lo, hi))
    assert got == list(fresh.values(lo, hi))
    assert [(n, e.at(n)) for n in range(lo, hi + 1)] == got
    assert got == [(n, ref_at(e, n)) for n in range(lo, hi + 1)]


def test_the_fold_bound_falls_between_44_and_45():
    # F(44) < 2**30 <= F(45): the offsets -43..44 keep both factors F(1-k) and
    # F(-k) short, so a run spans at most 87 shifts
    assert fib(44) < 2**30 <= fib(45) and abs(fib(-44)) < 2**30 <= abs(fib(-45))
    for lo in (-20_000, -60, -44, -43, 0, 7, 999):
        for width in range(80, 96):
            e = FibExpr.of([(lo, [F(1, 3), 1]), (lo + width, [2])])
            expected = [lo + width // 2] if width <= 87 else [lo, lo + width]
            assert _run_bases(e) == expected, (lo, width)
    for j in range(-60, 61):
        e = FibExpr.of([(j, [F(1, 3), 1])])
        assert _run_bases(e) == [j] and _folds_long(e) == (not -43 <= j <= 44), j
        assert e._scaled[1] == ((j, Poly((1, 3)), Poly(())),)  # a lone term keeps its polynomial


def test_small_shifts_have_no_far_terms():
    rng = random.Random(79)
    exprs = [A010049, QUAD_LIN, WALKS_W] + [rand_expr(rng, max_deg=4) for _ in range(200)]
    exprs += [FibExpr.of([(-6, [0, 0, 0, 0, 0, 1]), (6, [F(-2, 3)]), (k, [0, 1])])
              for k in range(-6, 7)]
    for e in exprs:
        assert all(abs(t.shift) <= 6 for t in e.terms)
        mid = [(e.terms[0].shift + e.terms[-1].shift) // 2] if e.terms else []
        assert _run_bases(e) == mid and not _folds_long(e)


def test_a_far_shift_keeps_horner_coefficients_short():
    # folded into P0 and P1, every coefficient would be about F(20000), 13,879 bits
    e = parse("n^120*F(n-20000) + n*F(n-20044) - F(n-20045) + F(n+20000) + F(n)")
    form = e.canon()
    assert min(abs(int(c)).bit_length() for c in form.p0.coeffs + form.p1.coeffs if c) > 13_000
    # a lone term keeps its own polynomial; n^120*F(n-20000), n*F(n-20044) and
    # F(n-20045) make one run, based at its midpoint 20022, at offsets -22, 22 and 23
    den, clusters, _, _ = form._scaled
    assert den == 1
    n120 = Poly((*[0] * 120, 1))
    assert clusters[2] == (20022, n120 * fib(23) + Poly((-fib(-22), fib(-21))),
                           n120 * fib(22) + Poly((-fib(-23), fib(-22))))
    assert clusters[:2] == ((-20000, Poly((1,)), Poly(())), (0, Poly((1,)), Poly(())))
    assert _run_bases(e) == [-20000, 0, 20022]
    assert max(abs(c).bit_length() for _, r0, r1 in clusters for c in r0.coeffs + r1.coeffs) <= 31
    assert [e.at(n) for n in (-3, 20_044, 40_001)] == [ref_at(e, n) for n in (-3, 20_044, 40_001)]


def _bases_before(terms) -> list[int]:
    """The base of each term's cluster by the rule that the runs replace, kept as
    their reference: J = 0 for the shifts -43..44; every other shift, in increasing
    order, joins the last cluster if its base lies at most 44 below, or starts one."""
    fold = range(-43, 45)
    bases, base = [], 0  # the last base away from 0, which is never 0
    for t in terms:
        if t.shift not in fold and (not base or t.shift - base > fold[-1]):
            base = t.shift
        bases.append(0 if t.shift in fold else base)
    return bases


def _shift_sets(rng, count):
    """Sorted sets of 1..8 shifts: near 0, at every scale of the old fold bound,
    spans of 80..100 anywhere, and runs far from 0."""
    pools = [range(-20, 21), range(-60, 61), range(-150, 151), [*range(-50, 51), *range(900, 1200)]]
    for i in range(count):
        if i % 5 == 4:  # a span of 80..100 at a random place, with shifts inside it
            lo, width = rng.randint(-3000, 3000), rng.randint(80, 100)
            inner = rng.sample(range(lo + 1, lo + width), rng.randint(0, 6))
            yield sorted({lo, lo + width, *inner})
        else:
            pool = pools[i % 5]
            yield sorted(rng.sample(pool, rng.randint(1, min(8, len(pool)))))


def test_runs_keep_offsets_short_and_make_no_more_clusters_than_the_rule_they_replace():
    rng = random.Random(97)
    fewer = 0
    for shifts in _shift_sets(rng, 12_000):
        terms = tuple(ShiftTerm(j, Poly((1,))) for j in shifts)
        runs = list(_runs(terms))
        assert [t for _, run in runs for t in run] == list(terms)
        for base, run in runs:
            assert base == (run[0].shift + run[-1].shift) // 2, shifts
            assert all(-43 <= t.shift - base <= 44 for t in run), shifts
        before = len(set(_bases_before(terms)))
        assert len(runs) <= before, shifts
        fewer += len(runs) < before
    assert fewer > 1000  # merging happens, not just ties


def test_canon_reads_one_fibonacci_pair_per_run(monkeypatch):
    # runs {-43, 30, 44}, {100} and {1000, 1060}; the old rule made four clusters
    text = "F(n+43) - n*F(n-44) + (n^2+1)/3*F(n-30) - F(n-100) + n*F(n-1000) - F(n-1060)"
    kernel = importlib.import_module("fibrec.fib")
    fib_pair, asked = kernel.fib_pair, []
    e = parse(text)
    e._scaled  # its shift coefficients read fib, which reads fib_pair too
    monkeypatch.setattr(kernel, "fib_pair", lambda k, one=1: asked.append(k) or fib_pair(k, one))
    form = e.canon()
    assert asked == [0, -100, -1030]
    assert len(set(_bases_before(e.terms))) == 4
    assert _run_bases(e) == [0, 100, 1030]
    assert (form.p0, form.p1) == _shift_order_sums(e)
    _values_match_reference(e, -300, 300)


def _shift_order_sums(e: FibExpr) -> tuple[Poly, Poly]:
    """P0 and P1 with every term's shift coefficients multiplied in, in shift
    order, in whatever cluster."""
    p0 = p1 = Poly(())
    for t in e.terms:
        c, d = shift_coeffs(t.shift)
        p0, p1 = p0 + t.poly * c, p1 + t.poly * d
    return p0, p1


def _is_shift_order_sums_in_fractions(e: FibExpr) -> bool:
    """The form of e has P0 and P1 equal to the shift-order sums and every
    coefficient a Fraction."""
    form = e.canon()
    return ((form.p0, form.p1) == _shift_order_sums(e)
            and all(type(c) is F for c in form.p0.coeffs + form.p1.coeffs))


@pytest.mark.parametrize("shifts", [(0,), (1,), (0, 1), (1, 0), (0, 2), (1, 2), (-1, 0, 1, 2)])
def test_canon_keeps_values_and_types_where_it_skips_products_by_0_and_1(shifts):
    # shift 0 has coefficients (1, 0) and shift 1 has (0, 1); int and Fraction
    # input coefficients, and a top power that cancels, all come out as Fractions
    polys = (
        Poly((1, F(1, 2), 0, -3, F(5, 7))),
        Poly((F(2), -1, 4, 0, F(-5, 7))),
        Poly((0, 3, F(-1, 3))),
    )
    e = FibExpr.of(list(zip(shifts, polys * 2)))
    assert _is_shift_order_sums_in_fractions(e)
    assert (e.canon().const_e, e.canon().alt_f) == (e.const_e, e.alt_f)


def test_canon_keeps_the_coefficient_types_of_the_shift_order_sums():
    # n*F(n+50) comes first; the parts of the shifts 0 and 2 after it cancel in P0,
    # which still holds Fractions only
    exprs = [parse("n*F(n+50) + n/2*F(n) - n/2*F(n-2)"), parse("F(n) + F(n-50)")]
    rng = random.Random(83)
    coeff = lambda: rng.choice([0, 1, -2, F(1, 2), F(-1, 2), F(3)])
    for _ in range(300):
        shifts = rng.sample([-60, -50, -45, -2, -1, 0, 1, 2, 3, 45, 50, 60], rng.randint(1, 5))
        exprs.append(FibExpr.of([(j, [coeff() for _ in range(rng.randint(1, 3))])
                                 for j in shifts]))
    for e in exprs:
        assert _is_shift_order_sums_in_fractions(e), format_expr(e)


def test_a_run_that_cancels_costs_its_form_no_long_doubling(monkeypatch):
    # n^3*(F(n-j) - F(n-j-1) - F(n-j-2)) = 0: its run leaves no cluster, so the
    # form reads no Fibonacci number near F(3000000)
    fib_pair = importlib.import_module("fibrec.fib").fib_pair

    def guarded(k, one=1):
        assert abs(k) <= 10**6, f"fib_pair({k}) was called"
        return fib_pair(k, one)

    monkeypatch.setattr(importlib.import_module("fibrec.fib"), "fib_pair", guarded)
    e = parse("n^3*F(n-3000000) - n^3*F(n-3000001) - n^3*F(n-3000002) + F(n)")
    assert e.canon() == parse("F(n)").canon()


def _head(deg):
    """2(D+1) + 2: how many values of a window come from the clusters, for a
    largest cluster degree D (-1 when there is no cluster)."""
    return 2 * ((-1 if deg is None else deg) + 1) + 2


def _stepping_expr(rng, deg, bound):
    """An expression with 0-4 clusters, based more than 87 apart, whose largest
    polynomial degree is deg (no cluster when deg is None), with coefficients
    of numerator up to bound, and e and f each zero or not."""
    terms, base = [], rng.randint(-3000, 3000)
    for i in range(0 if deg is None else rng.randint(1, 4)):
        base += rng.randint(128, 2000)  # each run lies in base..base+40
        for _ in range(rng.randint(1, 2)):
            top = deg if i == 0 else rng.randint(0, deg)
            coeffs = [F(rng.randint(-bound, bound), rng.choice(DENOMS)) for _ in range(top + 1)]
            coeffs[-1] = coeffs[-1] or F(1)
            terms.append((base + rng.randint(0, 40), Poly(tuple(coeffs))))
    pick = lambda: rng.choice((F(0), _nonzero_fraction(rng)))
    return FibExpr.of(terms, pick(), pick())


def _window_matches_reference(e, lo, count, as_decimal):
    hi = lo + count - 1
    expected = [(n, ref_at(e, n)) for n in range(lo, hi + 1)]
    if as_decimal:  # as main runs it
        with localcontext(cli._EXACT):
            assert list(cli._rendered(e, lo, hi)) == [(n, str(v)) for n, v in expected]
    else:
        form = e.canon()
        assert list(form.values(lo, hi)) == expected
        assert list(CanonForm(form.p0, form.p1, form.const_e, form.alt_f).values(lo, hi)) == expected


@pytest.mark.parametrize("as_decimal", [False, True], ids=["int", "decimal"])
@pytest.mark.parametrize("deg", [None, *range(13)])
def test_tabulated_matches_horner(deg, as_decimal):
    # every window's values, from the clusters and then from the recurrence, against
    # ref_at, which reads each term's polynomial by Horner's rule: Decimal coefficients
    # where cli._rendered converts them, past 1024 bits, at every count on both sides
    # of the head, where the recurrence takes over
    rng = random.Random(3500 + 100 * as_decimal + (-1 if deg is None else deg))
    head = _head(deg)
    for _ in range(4):
        e = _stepping_expr(rng, deg, 10**400 if as_decimal else 10**6)
        assert max((p.degree for _, r0, r1 in e._scaled[1] for p in (r0, r1) if p),
                   default=None) == deg
        lo = rng.randint(-500, 500)
        for count in (0, 1, head - 1, head, head + 1, 3 * head):
            _window_matches_reference(e, lo, count, as_decimal)
    if deg:  # w_7 = 0, in the head and past it, where the Decimal r0(7)*F(7-J) is -0
        e = FibExpr.of([(301, Poly((-7 * 10**400, 10**400)) * Poly((0, 1)) ** (deg - 1))])
        assert ref_at(e, 7) == 0 and fib(7 - 301) < 0 and e._scaled[1][0][0] == 301
        with localcontext(cli._EXACT):
            assert (Decimal(0) * Decimal(fib(7 - 301))).is_signed()
        for lo in (7, 6 - head):
            _window_matches_reference(e, lo, 3 * head, as_decimal)


def test_values_past_the_head_come_over_what_the_seeds_leave_of_l():
    # the recurrence has integer coefficients, so a factor of L that divides the
    # seeds and the 2-cycle divides every later L*w_n: an integer sequence comes
    # over 1 there, and 1/3 more over 3, with L = 15 and every L*w_n = 5 (mod 15)
    head = _head(1)
    for text, after in (("(2n+3)/5*F(n) - n/5*F(n-1)", 1),
                        ("(2n+3)/5*F(n) - n/5*F(n-1) + 1/3", 3)):
        e = parse(text)
        got = list(_numerators(e._scaled, -10, 30))
        assert [d for _, (_, d) in got] == [e._scaled[0]] * head + [after] * (41 - head)
        assert [(n, F(*q)) for n, q in got] == [(n, ref_at(e, n)) for n in range(-10, 31)]


def test_a_window_past_the_largest_degree_steps_every_level():
    # n^1000, the parser's largest power, gives 1001 levels: a frame per level
    # would pass the interpreter's recursion limit
    e = parse("n^1000*F(n)")
    got = list(e.canon().values(0, 2006))
    assert got[-3:] == [(n, ref_at(e, n)) for n in range(2004, 2007)]


def _nonzero_fraction(rng):
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMS))


def test_long_windows_match_reference():
    # 100-400 values: all but the first 2(D+1) + 2 <= 16 come from the recurrence
    rng = random.Random(89)
    for i in range(16):
        terms = [(rng.randint(-43, 44), rand_poly(rng, max_deg=6))
                 for _ in range(rng.randint(1, 3))]
        if i % 4:  # far runs beside the one about 0, on both sides
            terms += [(rng.choice((-1, 1)) * rng.randint(45, 3000), rand_poly(rng, max_deg=5))
                      for _ in range(rng.randint(1, 2))]
        e = FibExpr.of(terms, _nonzero_fraction(rng), _nonzero_fraction(rng))
        bases = _run_bases(e)
        assert _folds_long(e) == (i % 4 != 0)
        assert len(bases) == 1 or i % 4  # shifts in -43..44 make one run
        lo = rng.randint(-700, 300)
        _values_match_reference(e, lo, lo + rng.randint(99, 399))
    # shaped like the benchmark's derive_check: degree 120 and Fraction coefficients
    # at two shifts of one run, so that R0 and R1 are both nonzero and wide
    poly = lambda deg: Poly(tuple(rand_fraction(rng, 9, (1, 2, 3, 5, 7, 11))
                                  for _ in range(deg)) + (_nonzero_fraction(rng),))
    shifts = rng.sample(range(-6, 7), 2)
    e = FibExpr.of([(shifts[0], poly(120)), (shifts[1], poly(60))], _nonzero_fraction(rng))
    (_, r0, r1), = e._scaled[1]
    assert r0 and r1 and max(r0.degree, r1.degree) == 120
    lo = rng.randint(-200, 0)
    _values_match_reference(e, lo, lo + 299)


@pytest.fixture
def horner_calls(monkeypatch):
    """Record (polynomial, n) for every Poly.__call__."""
    calls = []
    horner = Poly.__call__

    def counting(self, n):
        calls.append((self, n))
        return horner(self, n)

    monkeypatch.setattr(Poly, "__call__", counting)
    return calls


def test_a_verdict_builds_no_difference_table(horner_calls):
    verdict = is_integer_sequence(parse("n^1000/3*F(n-20000)+n^1000*F(n)"))
    assert isinstance(verdict, NonIntegral) and verdict.witness_n == 1
    assert horner_calls and {n for _, n in horner_calls} <= {0, 1}
    evaluated = [(id(p), n) for p, n in horner_calls]
    assert len(evaluated) == len(set(evaluated))  # each polynomial once per index


def test_a_single_value_evaluates_each_polynomial_once(horner_calls):
    texts = [text for text, _ in _FAR_CASES]
    for text in texts + ["(n^9+1)/3*F(n) - n^4*F(n-1) + 1/2 - 1/5*(-1)^n"]:
        e = parse(text)
        form = e.canon()
        den, clusters, _, _ = form._scaled
        polys = [p for _, r0, r1 in clusters for p in (r0, r1) if p]
        for n in (-777, 0, 12_345):
            expected = ref_at(e, n)  # which evaluates each term's polynomial itself
            horner_calls.clear()
            assert e.at(n) == expected
            assert sorted(id(p) for p, _ in horner_calls) == sorted(map(id, polys))
            assert {m for _, m in horner_calls} == {n}



def test_a_window_reads_each_run_once_per_head_index(horner_calls):
    # (n^3+1)/7*F(n) + n/3*F(n-1) make one run with two nonzero polynomials, each
    # read by one Horner pass per head index; n^5*F(n-100) makes a run whose R1 is
    # 0, which is never read; past the head, the recurrence reads none
    e = parse("(n^3+1)/7*F(n) + n/3*F(n-1) + n^5*F(n-100) + 1/2 - 1/5*(-1)^n")
    form = e.canon()
    _, ((_, r0, r1), (_, lone, zero)), _, _ = form._scaled
    assert r0 and r1 and lone and not zero
    head = _head(5)
    for lo, count in [(-300, 1000), (-300, 0), (5, 1), (7, head - 1), (7, head), (7, head + 1)]:
        expected = [(n, ref_at(e, n)) for n in range(lo, lo + count)]
        horner_calls.clear()  # the parser and ref_at read polynomials too
        assert list(form.values(lo, lo + count - 1)) == expected
        read = list(range(lo, lo + min(count, head)))
        for p in (r0, r1, lone):
            assert [n for q, n in horner_calls if q is p] == read
        assert len(horner_calls) == 3 * len(read)
    # the same where the CLI turns a long coefficient into a Decimal
    wide = FibExpr.of([(0, [10**400, 0, 3]), (1, [0, 5])])
    expected = [(n, str(ref_at(wide, n))) for n in range(-3, 4)]
    with localcontext(cli._EXACT):
        horner_calls.clear()
        assert list(cli._rendered(wide, -3, 3)) == expected
    assert sorted(n for _, n in horner_calls) == sorted(2 * list(range(-3, 4)))


def test_a_window_sums_1200_clusters_side_by_side():
    # shifts 88 apart, so each starts its own run: a window that nested one
    # generator per cluster passed the recursion limit at about 1,000
    e = parse(" + ".join(f"F(n-{88 * i})" for i in range(1200)))
    assert len(e._scaled[1]) == 1200
    assert to_recurrence(e).order == 2
    assert isinstance(is_integer_sequence(e), Integral)
    for lo in (-2, 105510):  # about the lowest and the highest shift
        assert list(e.canon().values(lo, lo + 3)) == [(n, e.at(n)) for n in range(lo, lo + 4)]
    assert e.at(1) == ref_at(e, 1)


def _power_reads(ks: list[int]) -> list[int]:
    """The fib_pair indices that the carry rule reads for phi^k, k in ks in order:
    phi^g, g = k - k' for the k' before (0 before the first), when 16*|g| <= |k|,
    else phi^k itself, where phi^g = (F(g), F(g-1)) is fib_pair(g)."""
    return [k - k0 if 16 * abs(k - k0) <= abs(k) else k for k0, k in zip([0, *ks], ks)]


_CARRIED_CASES = [
    # 88 apart: canon carries from k = -1,408 on, the window at 10^5 all but the nearest
    ([88 * i for i in range(1200)], 100_000),
    # 2,000 apart near 2*10^6: canon carries all but the first, the window those at
    # k >= 32,000, where F(n - j) itself stays short
    ([2_000_000 - 2000 * i for i in range(25)], 1_999_990),
    # 100,000 apart: 16 gaps pass 10^6, so nothing is carried
    ([100_000 * i for i in range(1, 11)], 1_000_000),
]


@pytest.mark.parametrize("shifts, lo", _CARRIED_CASES)
def test_canon_and_windows_carry_powers_by_the_gap_rule(monkeypatch, shifts, lo):
    kernel = importlib.import_module("fibrec.fib")
    fib_pair, asked = kernel.fib_pair, []
    e = parse(" + ".join(f"F(n-{j})" for j in shifts))
    bases = [base for base, _, _ in e._scaled[1]]
    monkeypatch.setattr(kernel, "fib_pair", lambda k, one=1: asked.append(k) or fib_pair(k, one))
    assert bases == sorted(shifts)
    form = e.canon()
    to_recurrence(e)  # its initial values read the int window at lo = 0, canon's powers
    assert asked == _power_reads([-base for base in bases])
    asked.clear()
    window = list(form.values(lo, lo + 1))
    assert asked == _power_reads([lo - base for base in bases])
    assert window == [(lo, ref_at(e, lo)), (lo + 1, e.at(lo + 1))]
    built = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)
    assert list(built.values(lo, lo)) == window[:1]
    assert to_recurrence(e).initial == (e.at(0), e.at(1))


def test_the_carry_cases_cover_both_sides_of_the_rule():
    sides = set()
    for shifts, lo in _CARRIED_CASES:
        for ks in ([-j for j in sorted(shifts)], [lo - j for j in sorted(shifts)]):
            reads = _power_reads(ks)
            sides |= {read == k for read, k in zip(reads[1:], ks[1:])}
    assert sides == {True, False}


def test_carried_windows_match_binet_far_from_zero():
    # 41 clusters, 150 apart and one 3,000 below them: the windows near +-10^5
    # carry every seed but the first, canon only those past 2,400
    terms = [(150 * i, [i, -1]) for i in range(40)] + [(-3000, [F(1, 3), 0, 2])]
    e = FibExpr.of(terms, F(1, 2), -1)
    assert len(e._scaled[1]) == 41
    split, form = binet(e), e.canon()
    built = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)
    for lo in (100_000, -100_003):
        values = list(form.values(lo, lo + 3))
        assert values == list(built.values(lo, lo + 3))
        for n, v in values:
            fib_part = v - e.const_e - (e.alt_f if n % 2 == 0 else -e.alt_f)
            assert fib_part_at(split, n) == QuadRat(fib_part, 0), n


def _sums(parts) -> tuple[Poly, Poly]:
    """(sum c0*p, sum c1*p) over the parts (p, c0, c1), in Fractions."""
    r0 = r1 = Poly(())
    for p, c0, c1 in parts:
        r0, r1 = r0 + p * c0, r1 + p * c1
    return r0, r1


def _scale_by_fractions(clusters, e, f) -> tuple:
    """The reference for ``_scale``: (L, ((J, L*R0, L*R1), ...), L*e, L*f) from the
    clusters (J, R0, R1) with R0 and R1 summed in Fractions (``_sums``), L the
    common denominator of their coefficients and of e and f, leaving out each
    cluster whose terms cancel."""
    clusters = [c for c in clusters if c[1] or c[2]]
    parts = [c for _, r0, r1 in clusters for c in r0.coeffs + r1.coeffs] + [e, f]
    den = math.lcm(*(c.denominator for c in parts))
    times_den = lambda c: c.numerator * (den // c.denominator)
    poly_times_den = lambda p: Poly(tuple(map(times_den, p.coeffs)))
    return (den, tuple((base, poly_times_den(r0), poly_times_den(r1))
                       for base, r0, r1 in clusters), times_den(e), times_den(f))


def _cancelling_expr(rng) -> FibExpr:
    """1-3 runs, each holding p*(F(n-j) - F(n-j-1) - F(n-j-2)) = 0, and maybe one
    more term that survives it, with denominators that share factors; e and f
    are zero or not."""
    frac = lambda: rand_fraction(rng, 6, (1, 2, 3, 4, 6, 12))
    poly = lambda: Poly(tuple(frac() for _ in range(rng.randint(1, 4))))
    terms = []
    for _ in range(rng.randint(1, 3)):
        j, p = rng.randint(-3000, 3000), poly()
        terms += [(j, p), (j + 1, -p), (j + 2, -p)]
        if rng.random() < 0.5:
            terms.append((j + rng.randint(0, 2), poly()))
    pick = lambda: rng.choice((F(0), frac()))
    return FibExpr.of(terms, pick(), pick())


def test_scaled_sums_in_ints_give_the_clusters_of_fraction_sums():
    rng = random.Random(3601)
    exprs = [FibExpr(), parse("F(n) - F(n-1) - F(n-2)"), parse("F(n) - F(n-1) - F(n-2) + 1/3"),
             parse("1/6*F(n-5) - 1/6*F(n-6) + 1/3*F(n-7) + 1/4"), A010049, QUAD_LIN, WALKS_W]
    exprs += [rand_expr(rng, max_deg=4) for _ in range(150)]
    exprs += [_cancelling_expr(rng) for _ in range(150)]
    exprs += _far_exprs(rng, 30)
    cancelled = 0
    for e in exprs:
        runs = list(_runs(e.terms))
        clusters = [(base, *_sums((t.poly, *_near(t.shift - base)) for t in run))
                    for base, run in runs]
        expected = _scale_by_fractions(clusters, e.const_e, e.alt_f)
        assert repr(e._scaled) == repr(expected), format_expr(e)
        cancelled += len(e._scaled[1]) < len(runs)
        form = e.canon()
        built = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)
        assert repr(built._scaled) == repr(_scale_by_fractions(((0, form.p0, form.p1),),
                                                                form.const_e, form.alt_f))
    assert cancelled > 100


def _reflected_index(n: int, base: int) -> int:
    """The index m >= 0 at which a cluster based at J is read at n: n-J-1, or J-n."""
    return max(n - base - 1, base - n)


def _fold_exprs(rng, count):
    """(expr, n): 2-4 single-term runs whose reflected indices at n, from the
    lowest up, lie index//4 or index//4 + 1 apart, each on either side of n."""
    for _ in range(count):
        n = rng.choice((-1, 1)) * rng.randint(0, 60_000)
        m, terms = rng.randint(400, 40_000), []
        for _ in range(rng.randint(2, 4)):
            base = rng.choice((n - 1 - m, n + m))  # k = m, or k = -m-1
            terms.append((base, rand_poly(rng, max_deg=3) or Poly((1,))))
            m += m // 4 + rng.randint(0, 1)
        yield FibExpr.of(terms, rand_fraction(rng), rand_fraction(rng)), n


def _fold_reads(e: FibExpr, n: int) -> list[int]:
    """The fib_pair indices that the fold rule reads for e at n: walking down the
    reflected indices, phi^(m-m') when 4*(m - m') <= m', else m // 2 for the
    group's lowest index m, which ``_phi_sum`` doubles to read the group."""
    ms = sorted((_reflected_index(n, base) for base, r0, r1 in e._scaled[1]
                 if r0(n) or r1(n)), reverse=True) + [-1]
    return [top - m if 4 * (top - m) <= m else top // 2 for top, m in zip(ms, ms[1:])]


def test_at_folds_runs_by_the_gap_rule_and_matches_the_reference(monkeypatch):
    rng = random.Random(3602)
    cases = list(_fold_exprs(rng, 40))
    for j in (1, 2, 44, 45, 1000, 20_000):  # F(n-J) + F(n+J) and F(n-J) - F(n+J)
        for sign in (1, -1):
            e = FibExpr.of([(j, [1]), (-j, [sign])])
            cases += [(e, n) for n in (-j - 1, -j, -7, -1, 0, 1, 2, j, j + 1, 3 * j, 50_001)]
    for text, _ in _FAR_CASES:
        cases += [(parse(text), n)
                  for n in (-123_457, -20_000, -45, -1, 0, 1, 44, 19_999, 200_000)]
    for e, _ in cases:
        e._scaled  # its shift coefficients read fib, which reads fib_pair too
    kernel = importlib.import_module("fibrec.fib")
    fib_pair, asked = kernel.fib_pair, []
    monkeypatch.setattr(kernel, "fib_pair", lambda k, one=1: asked.append(k) or fib_pair(k, one))
    carried = apart = 0
    for e, n in cases:
        asked.clear()
        got = e.at(n)
        assert asked == _fold_reads(e, n), (format_expr(e), n)  # before ref_at's fib reads
        assert got == ref_at(e, n), (format_expr(e), n)
        ms = sorted(_reflected_index(n, base) for base, _, _ in e._scaled[1])
        carried += any(4 * (b - a) <= a for a, b in zip(ms, ms[1:]))
        apart += any(4 * (b - a) > a for a, b in zip(ms, ms[1:]))
    assert carried > 100 and apart > 100


def test_phi_read_is_a_times_f_m_plus_1_plus_b_times_f_m():
    rng = random.Random(3701)
    far = [rng.randint(-200_001, 200_000) for _ in range(200)] + [-200_001, 200_000]
    assert {m % 4 for m in far if m >= 0} == {m % 4 for m in far if m < 0} == {0, 1, 2, 3}
    ms = list(range(-301, 301)) + far  # a negative m is read at its reflected -m-1
    signed = lambda bits: rng.choice((-1, 1)) * rng.getrandbits(bits)
    for m in ms:
        power = root_pow(ALPHA, m)  # phi^m in Q(sqrt(5)), by square-and-multiply
        pairs = [(0, 0), (1, -1), (signed(2000), 0), (0, signed(2000)),
                 (signed(2000), signed(2000)), (signed(rng.randint(1, 2000)), signed(30))]
        for a, b in pairs:
            # a*F(m+1) + b*F(m) is the phi coefficient of (a*phi + b)*phi^m: twice its sqrt(5) part
            assert _phi_sum([(m, a, b)]) == 2 * ((a * ALPHA + b) * power).s, (m, a, b)


@pytest.mark.parametrize("text", [
    "(n+1)/2*F(n+1000) - n/2*F(n-1000) + (n^2+5)/3*F(n-7) + 1/3",
    "n^3/5*F(n-20000) + (2n-1)/3*F(n+15000) + 1/2*(-1)^n",
    "(n^2+n)/6*F(n+20000) + n*F(n-19999) + F(n) - 2/7",
    "F(n-1000) + F(n+1000) - n*F(n-1001)",  # one group at 10^5, both reflected at -10^5
    "F(n) + n*F(n-200005) - 3/2*F(n+200003) + 1/2 - (-1)^n",  # F(n) and a reflected run
])
def test_at_far_out_matches_the_binet_oracle(text):
    e = parse(text)
    split = binet(e)
    for n in (sign * (10**5 + i) for sign in (1, -1) for i in range(4)):
        fib_part = e.at(n) - e.const_e - (e.alt_f if n % 2 == 0 else -e.alt_f)
        assert fib_part_at(split, n) == QuadRat(fib_part, 0), (text, n)
