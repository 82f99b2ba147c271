"""The value classes behave as the frozen dataclasses they replace.

Each class gets a ``@dataclass(frozen=True)`` twin with the same name, fields,
defaults and checks, built here as the oracle: repr, equality, hashing,
pattern matching, construction and immutability must agree with it.
"""

import dataclasses
import inspect
import itertools
import re
from fractions import Fraction

import pytest

from fibrec import (
    FAMILY_TEMPLATES,
    CanonForm,
    FibExpr,
    Integral,
    NonIntegral,
    OeisEntry,
    OeisHit,
    Poly,
    Recurrence,
    ShiftTerm,
    SynthSolution,
    Template,
    is_integer_sequence,
    load_fixtures,
    parse,
    search_local,
    solve_template,
    to_recurrence,
)


def _strip_zeros(self):
    c = tuple(self.coeffs)
    while c and not c[-1]:
        c = c[:-1]
    object.__setattr__(self, "coeffs", c)


def _check_template(self):
    for d in (self.deg_p0, self.deg_p1):
        if d is not None and d < 0:
            raise ValueError("polynomial degree must be >= 0 or None")
    degrees = (self.deg_p0, self.deg_p1, 0 if self.has_const else None,
               0 if self.has_alt else None)
    if sum(d + 1 for d in degrees if d is not None) < 1:
        raise ValueError("template has no unknowns")


def _check_entry(self):
    if not re.match(r"\AA\d{6}\Z", self.a_number):
        raise ValueError(f"bad A-number {self.a_number!r}")
    object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
    if not self.terms:
        raise ValueError(f"{self.a_number}: entry has no terms")


def _twin(cls, fields, post_init=None):
    namespace = {"__post_init__": post_init} if post_init else {}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


_ZERO = Fraction(0)
TWINS = {
    Poly: _twin(Poly, [("coeffs", tuple, ())], _strip_zeros),
    ShiftTerm: _twin(ShiftTerm, ["shift", "poly"]),
    FibExpr: _twin(FibExpr, [("terms", tuple, ()), ("const_e", Fraction, _ZERO),
                             ("alt_f", Fraction, _ZERO)]),
    CanonForm: _twin(CanonForm, ["p0", "p1", "const_e", "alt_f"]),
    Recurrence: _twin(Recurrence, ["char_poly", "initial"]),
    Integral: _twin(Integral, ["certificate"]),
    NonIntegral: _twin(NonIntegral, ["witness_n", "value"]),
    Template: _twin(Template, [("deg_p0", object, None), ("deg_p1", object, None),
                               ("has_const", bool, False), ("has_alt", bool, False)],
                    _check_template),
    SynthSolution: _twin(SynthSolution, ["expr", "coefficients"]),
    OeisEntry: _twin(OeisEntry, ["a_number", "offset", "terms"], _check_entry),
    OeisHit: _twin(OeisHit, ["entry", "match_start"]),
}


def _fields(value) -> dict:
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(TWINS[type(value)])}


def twin(value):
    """The dataclass twin of a value, built from its fields alone."""
    return TWINS[type(value)](**_fields(value))


def _samples() -> list:
    text = "(2n+3)/5*F(n) - n/5*F(n-1000) + 3 - 1/4*(-1)^n"
    memoized = parse(text)
    form = memoized.canon()  # memos on the expression and on the form
    rec = to_recurrence(memoized)
    fresh = parse(text)
    solution = solve_template(FAMILY_TEMPLATES[1], [0, 1, 1, 2])
    hits = search_local([0, 1, 1, 2, 3])
    return [
        Poly(), Poly((1, 2)), Poly((1, 2, 0)), Poly((Fraction(1), 2)), Poly((0, Fraction(1, 2))),
        Integral((1, 2)),  # the same field tuple as Poly((1, 2))
        ShiftTerm(0, Poly((1, 2))), ShiftTerm(1, Poly((1, 2))),
        memoized, fresh, FibExpr(), parse("F(n-1)"),
        form, fresh.canon(), CanonForm(form.p0, form.p1, form.const_e, form.alt_f),
        rec, Recurrence(rec.char_poly, rec.initial), Recurrence(Poly((1,)), ()),
        is_integer_sequence(parse("F(n)")), is_integer_sequence(parse("n/2*F(n)")),
        NonIntegral(1, Fraction(1, 2)),
        Template(1, 1), Template(1, 1, True, True), FAMILY_TEMPLATES[4], Template(None, 0),
        solution, solve_template(Template(1, 1), [0, 1, 1, 2]),
        load_fixtures()["A000045"], OeisEntry("A000045", 0, (0, 1, 1, 2)), *hits,
        OeisHit(OeisEntry("A000045", 0, (0, 1, 1, 2)), 0),
    ]


SAMPLES = _samples()


def test_every_class_has_samples():
    assert {type(v) for v in SAMPLES} == set(TWINS)


def test_match_args_and_signature_match_the_twin():
    def shape(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    for cls, twin_cls in TWINS.items():
        assert cls.__match_args__ == twin_cls.__match_args__, cls
        assert shape(cls) == shape(twin_cls), cls
    match is_integer_sequence(parse("n/2*F(n)")):
        case NonIntegral(n, value):
            assert (n, value) == (1, Fraction(1, 2))
        case _:
            pytest.fail("NonIntegral(n, value) did not match")


def test_repr_and_hash_match_the_twin():
    for value in SAMPLES:
        assert repr(value) == repr(twin(value))
        if isinstance(value, SynthSolution):  # the twin's mapping proxy is unhashable
            expected = hash((value.expr, tuple(value.coefficients.items())))
        else:
            expected = hash(twin(value))
        assert hash(value) == expected


def test_synth_solution_is_frozen_in_its_coefficients():
    given = {"a": Fraction(2, 5), "b": Fraction(3, 5), "c": Fraction(-1, 5), "d": Fraction(0)}
    sol = solve_template(FAMILY_TEMPLATES[1], [0, 1, 1, 3])
    with pytest.raises(TypeError):
        sol.coefficients["a"] = 0
    assert sol.coefficients == given and list(sol.coefficients) == list(given)
    built = SynthSolution(sol.expr, given)
    given["a"] = Fraction(0)  # the solution keeps its own copy
    assert built == sol and hash(built) == hash(sol) and len({built, sol}) == 1


def test_equality_matches_the_twin_across_classes():
    twins = [twin(v) for v in SAMPLES]
    for (a, ta), (b, tb) in itertools.product(zip(SAMPLES, twins), repeat=2):
        assert (a == b) is (ta == tb), (a, b)
        assert (a != b) is (ta != tb), (a, b)
    for a, ta in zip(SAMPLES, twins):
        assert a != ta and not a == ta  # equality is type-strict both ways


def test_memos_are_invisible():
    text = "n/5*F(n-1000) + (2n+3)/5*F(n) - 1/4*(-1)^n"
    memoized, fresh = parse(text), parse(text)
    form = memoized.canon()
    to_recurrence(memoized)
    assert {"_canon", "_scaled"} <= set(vars(memoized))
    assert not {"_canon", "_scaled"} & set(vars(fresh))
    assert {"_scaled", "_window_memo"} <= set(vars(form))
    assert vars(form)["_scaled"] is vars(memoized)["_scaled"]
    assert [base for base, _, _ in vars(memoized)["_scaled"][1]] == [0, 1000]
    built = CanonForm(form.p0, form.p1, form.const_e, form.alt_f)
    for a, b in ((memoized, fresh), (form, fresh.canon()), (form, built)):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def _outcome(make):
    try:
        return "ok", repr(make())
    except (TypeError, ValueError) as exc:
        # TypeError texts name the __init__, so only their type is compared
        return type(exc), str(exc) if isinstance(exc, ValueError) else None


def test_construction_matches_the_twin():
    for value in SAMPLES:
        cls, fields = type(value), _fields(value)
        assert cls(**fields) == value and cls(*fields.values()) == value
    for cls, twin_cls in TWINS.items():
        width = len(cls.__match_args__)
        calls = [((), {}), (tuple(range(width + 1)), {}), ((), {"bogus": 1})]
        for args, kwargs in calls:
            assert _outcome(lambda: cls(*args, **kwargs)) == \
                _outcome(lambda: twin_cls(*args, **kwargs)), (cls, args, kwargs)
    defaults = [
        (Poly, (), {}), (Poly, ([1, 0, 0],), {}), (Poly, ((0, 0),), {}),
        (FibExpr, (), {}), (FibExpr, (), {"alt_f": Fraction(1, 2)}),
        (Template, (1,), {}), (Template, (), {"deg_p1": 0, "has_alt": True}),
        (OeisEntry, ("A000045", 1), {"terms": ["1", 1, 2]}),
    ]
    for cls, args, kwargs in defaults:
        outcome = _outcome(lambda: cls(*args, **kwargs))
        assert outcome[0] == "ok" and outcome == _outcome(lambda: TWINS[cls](*args, **kwargs))


def test_value_errors_match_the_twin():
    bad = [
        (Template, (-1, 0)), (Template, (0, -2)), (Template, (None, None)),
        (Template, (None, None, False, False)),
        (OeisEntry, ("A12", 0, (1,))), (OeisEntry, ("B000045", 0, (1,))),
        (OeisEntry, ("A000045", 0, ())), (OeisEntry, ("A000045", 0, [])),
    ]
    for cls, args in bad:
        outcome = _outcome(lambda: cls(*args))
        assert outcome[0] is ValueError and outcome == _outcome(lambda: TWINS[cls](*args))


def test_assignment_and_deletion_raise_as_for_the_twin():
    for value in SAMPLES:
        tv = twin(value)
        for name in (*value.__match_args__, "other"):
            for change in (lambda v: setattr(v, name, 0), lambda v: delattr(v, name)):
                with pytest.raises(AttributeError) as got:
                    change(value)
                with pytest.raises(AttributeError) as want:
                    change(tv)
                assert str(got.value) == str(want.value)
        assert repr(value) == repr(tv)  # nothing was changed
