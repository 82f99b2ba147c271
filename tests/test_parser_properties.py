"""Property tests of the parser: grammar-generated input and arbitrary text."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fibrec import FibExpr, ParseError, Poly, format_expr, parse  # noqa: E402
from fibrec.parser import _offsets, _tokenize  # noqa: E402

# deterministic runs: the suite gives the same verdict every time
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _gap(draw) -> str:
    return draw(st.sampled_from(("", "", " ")))


@st.composite
def rationals(draw):
    """(text, value) for rational := ["-"] natural ["/" natural]."""
    num = draw(st.integers(0, 60))
    den = draw(st.integers(1, 12))
    neg = draw(st.booleans())
    text = f"{num}/{_gap(draw)}{den}" if den != 1 or draw(st.booleans()) else str(num)
    return ("-" if neg else "") + text, F(-num if neg else num, den)


@st.composite
def polyterms(draw, constant: bool):
    """(text, Poly) for one polyterm; only rationals when constant."""
    text, value = draw(rationals())
    if constant or draw(st.booleans()):
        return text, Poly((value,))
    power = draw(st.integers(0, 6))
    mono = "n" + (f"^{_gap(draw)}{power}" if power != 1 or draw(st.booleans()) else "")
    if draw(st.booleans()):  # bare n or -n
        value = F(draw(st.sampled_from((1, -1))))
        text = "-" if value < 0 else ""
    else:
        text += draw(st.sampled_from(("", "*", " ", " * ")))
    return text + mono, Poly((0,) * power + (value,))


@st.composite
def coefs(draw, constant: bool = False):
    """(text, Poly) for coef := polyfactor ["/" natural]."""
    text, value = draw(polyterms(constant))
    if draw(st.booleans()):  # "(" polysum ")"
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from("+-"))
            more, part = draw(polyterms(constant))
            text += f"{_gap(draw)}{op}{_gap(draw)}{more}"
            value = value + part if op == "+" else value - part
        text = f"({text})"
    if draw(st.booleans()):
        den = draw(st.integers(1, 12))
        text += f"/{den}"
        value = value * F(1, den)
    return text, value


@st.composite
def fibrefs(draw):
    """(text, shift) for fibref := "F(" "n" [("+"|"-") natural] ")"."""
    k = draw(st.integers(0, 40))
    op = draw(st.sampled_from(("", "+", "-")))
    if not op:
        return "F(n)", 0
    return f"F({_gap(draw)}n{_gap(draw)}{op}{_gap(draw)}{k})", (-k if op == "+" else k)


def _factor(draw, constant: bool):
    if draw(st.booleans()):
        return "", Poly((1,))
    text, value = draw(coefs(constant))
    return text + draw(st.sampled_from(("", "*", " * "))), value


@st.composite
def expressions(draw):
    """(text, FibExpr) for a grammar-valid expression and what it must parse to."""
    terms, const, alt = [], F(0), F(0)
    text = draw(st.sampled_from(("", "", "+", "-")))
    sign = -1 if text == "-" else 1
    for i in range(draw(st.integers(1, 4))):
        if i:
            op = draw(st.sampled_from("+-"))
            text += f"{_gap(draw)}{op}{_gap(draw)}"
            sign = -1 if op == "-" else 1
        kind = draw(st.sampled_from(("fib", "fib", "alt", "const")))
        if kind == "fib":
            prefix, value = _factor(draw, constant=False)
            ref, shift = draw(fibrefs())
            text += prefix + ref
            terms.append((shift, value * sign))
        elif kind == "alt":
            prefix, value = _factor(draw, constant=True)
            text += prefix + "(-1)^n"
            alt += value(0) * sign
        else:
            more, value = draw(coefs(constant=True))
            text += more
            const += value(0) * sign
    return text, FibExpr.of(terms, const, alt)


@PROPERTY
@given(expressions())
def test_grammar_strings_parse_and_round_trip(case):
    text, expected = case
    assert parse(text) == expected
    printed = format_expr(expected)
    assert parse(printed) == expected
    assert format_expr(parse(printed)) == printed


@PROPERTY
@given(expressions(), st.data())
def test_whitespace_between_tokens_only_shifts_offsets(case, data):
    text, _ = case
    toks, offsets = _tokenize(text), _offsets(text)
    assert len(offsets) == len(toks)
    # a gap before each token; the second end token sits where the first does
    gaps = data.draw(st.lists(st.text(" \t\n\r\x0b\x0c\u3000", max_size=3),
                              min_size=len(toks) - 1, max_size=len(toks) - 1))
    gaps.append("")
    spaced, last, shift, expected = "", 0, 0, []
    for pos, gap in zip(offsets, gaps):
        spaced += text[last:pos] + gap
        last = pos
        shift += len(gap)
        expected.append(pos + shift)
    spaced += text[last:]
    assert _tokenize(spaced) == toks
    assert _offsets(spaced) == expected


@PROPERTY
@given(st.one_of(st.text(), st.text(alphabet="0123456789nF()+-*/^ x.")))
def test_arbitrary_text_raises_only_parse_error(text):
    try:
        expr = parse(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert parse(format_expr(expr)) == expr
