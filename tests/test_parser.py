"""Expression-language parsing, printing, error offsets, fuzz totality."""

import contextlib
import random
import sys
from fractions import Fraction as F

import pytest

from conftest import A010049, A054454, A054454_TEXT, QUAD_LIN, rand_expr

import fibrec.parser
from fibrec import FibExpr, ParseError, Poly, format_expr, format_poly, parse
from fibrec.parser import _SPLIT_BITS, _text


def test_parse_worked_examples():
    assert parse("(2n+3)/5*F(n) - n/5*F(n-1)") == A010049
    assert parse(A054454_TEXT) == A054454
    assert parse("(5n^2-43n+88)/50*F(n) + (14n+50)/50*F(n-1)") == QUAD_LIN


def test_parse_bare_fib():
    e = parse("F(n)")
    assert e == FibExpr.of([(0, [1])])
    assert parse("F(n+1)") == FibExpr.of([(-1, [1])])
    assert parse("F(n-3)") == FibExpr.of([(3, [1])])


def test_parse_constants_and_alternating():
    assert parse("1/2") == FibExpr.of([], const=F(1, 2))
    assert parse("1/2*(-1)^n") == FibExpr.of([], alt=F(1, 2))
    assert parse("(-1)^n") == FibExpr.of([], alt=1)
    assert parse("3 - 2*(-1)^n") == FibExpr.of([], const=3, alt=-2)


def test_parse_merges_duplicate_shifts():
    assert parse("F(n) + 2*F(n)") == FibExpr.of([(0, [3])])
    assert parse("n*F(n) - n*F(n)") == FibExpr()


def test_parse_is_whitespace_insensitive():
    dense = parse("(2n+3)/5*F(n)-n/5*F(n-1)")
    spaced = parse("  ( 2 n + 3 ) / 5 * F( n )  -  n / 5 * F( n - 1 ) ")
    assert dense == spaced == A010049


def test_parse_implicit_multiplication():
    assert parse("2F(n)") == parse("2*F(n)")
    assert parse("2n*F(n)") == parse("2*n*F(n)")
    assert parse("4n/5*F(n+1)") == FibExpr.of([(-1, [0, F(4, 5)])])


def test_parse_leading_sign():
    assert parse("-F(n)") == FibExpr.of([(0, [-1])])
    assert parse("+2*F(n)") == FibExpr.of([(0, [2])])
    assert parse("-n/5*F(n-1)") == FibExpr.of([(1, [0, F(-1, 5)])])


def test_parse_exponents():
    assert parse("n^2*F(n)") == FibExpr.of([(0, [0, 0, 1])])
    assert parse("(3n^2-n)/2*F(n-1)") == FibExpr.of([(1, [0, F(-1, 2), F(3, 2)])])
    assert parse("2n^0*F(n)") == FibExpr.of([(0, [2])])


def test_parse_exponent_cap():
    # dense polynomials: absurd exponents are rejected instead of allocated
    with pytest.raises(ParseError) as info:
        parse("n^99999999999*F(n)")
    assert info.value.offset == 2


def test_parse_shift_cap():
    # F(10^7) is large but finite; a larger shift is refused, not evaluated
    assert parse("F(n-10000000)") == FibExpr.of([(10_000_000, [1])])
    assert parse("F(n+10000000)") == FibExpr.of([(-10_000_000, [1])])
    with pytest.raises(ParseError) as info:
        parse("2*F(n-10000001)")
    assert info.value.offset == 6
    assert info.value.message == "shift larger than 10000000"


_BAD_INPUTS = [
    ("", 0, "expected a coefficient"),  # empty input: no term
    # shift argument must be n +- integer
    ("F(3)", 2, "expected 'n' as the F argument (shift must be n, n+k or n-k)"),
    ("F(n", 3, "expected ')' closing F("),  # unterminated
    ("F(n*2)", 3, "expected ')' closing F("),  # bad shift syntax
    ("F n", 2, "expected '(' after F"),
    ("F(n+)", 4, "expected an integer offset inside F(n...)"),
    ("2*", 2, "expected F(...) or (-1)^n after '*'"),  # '*' must be followed by F or (-1)^n
    ("2*3", 2, "expected F(...) or (-1)^n after '*'"),
    # bare non-constant polynomial term
    ("n + F(n)", 0, "a term without F(n...) must be constant"),
    # non-constant coefficient on the alternating part
    ("n*(-1)^n", 0, "the coefficient of (-1)^n must be constant"),
    ("1/0", 2, "zero denominator"),
    ("(n+1)/0*F(n)", 6, "zero denominator"),
    ("1/n*F(n)", 2, "expected a denominator"),
    ("(-)*F(n)", 2, "expected a number or 'n' after '-'"),
    # the '+' or '-' between polynomial terms is not the next term's own sign
    ("(n - )*F(n)", 5, "expected a coefficient"),
    ("(3 - *n)*F(n)", 5, "expected a coefficient"),
    ("(n + -)*F(n)", 6, "expected a number or 'n' after '-'"),
    ("- -F(n)", 3, "expected a number or 'n' after '-'"),
    # exponent must be a natural literal
    ("n^-1*F(n)", 2, "expected a non-negative integer exponent"),
    # '^' only on n and (-1)
    ("(n+1)^2*F(n)", 5, "'^' may follow only 'n' or the literal '(-1)'"),
    # not the alternating literal: stray '^' after a group
    ("(-1)^2", 4, "'^' may follow only 'n' or the literal '(-1)'"),
    # products are not in the language
    ("F(n) * F(n)", 5, "expected '+' or '-' between terms"),
    ("F(n) + @", 7, "unexpected character '@'"),  # unknown character
    # offsets count characters, so non-ASCII whitespace counts once
    ("\xa0@", 1, "unexpected character '@'"),
    ("(2n+3", 5, "expected ')'"),  # unterminated group
    ("F(n) F(n)", 5, "expected '+' or '-' between terms"),  # missing separator
    # digits are ASCII only, though str.isdigit() accepts these two
    ("F(n-\u0663)", 4, "unexpected character '\u0663'"),
    ("n\xb2*F(n)", 1, "unexpected character '\xb2'"),
    # a character that starts no token wins over an earlier grammar error
    ("F(n)) @", 6, "unexpected character '@'"),
]


# each case is named by its input and offset alone, so a reworded message keeps its name
@pytest.mark.parametrize(
    "bad,offset,message", _BAD_INPUTS, ids=[f"{bad}-{offset}" for bad, offset, _ in _BAD_INPUTS]
)
def test_parse_errors_carry_offsets(bad, offset, message):
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert info.value.offset == offset
    assert info.value.message == message
    assert 0 <= info.value.offset <= len(bad)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)
def test_numbers_past_the_int_to_str_digit_limit_are_parse_errors():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the int-to-str digit limit is switched off")
    digits = "1" * (limit + 1)
    for text, offset in ((digits, 0), ("F(n-" + digits + ")", 4), ("n^" + digits, 2)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset
        assert info.value.message == f"a number has more than {limit} digits"
    assert parse("1" * limit) == FibExpr.of([], const=int("1" * limit))


def test_print_worked_examples():
    assert format_expr(A010049) == "(2/5*n + 3/5)*F(n) + (-1/5*n)*F(n-1)"
    assert format_expr(QUAD_LIN) == "(1/10*n^2 - 43/50*n + 44/25)*F(n) + (7/25*n + 1)*F(n-1)"
    assert format_expr(FibExpr()) == "0"


def test_print_component_shapes():
    assert format_expr(FibExpr.of([(0, [1])])) == "1*F(n)"
    assert format_expr(FibExpr.of([(-2, [2])])) == "2*F(n+2)"
    assert format_expr(FibExpr.of([(0, [-2]), (1, [1])])) == "-2*F(n) + 1*F(n-1)"
    assert format_expr(FibExpr.of([], const=F(-1, 2), alt=1)) == "-1/2 + 1*(-1)^n"
    assert format_expr(FibExpr.of([(0, [0, -1])], alt=F(-1, 2))) == "(-n)*F(n) - 1/2*(-1)^n"
    assert format_expr(A054454) == "(4/5*n)*F(n+1) + (3/5*n + 3/5)*F(n) + 1/2 + 1/2*(-1)^n"


def test_format_poly_var():
    assert format_poly(Poly((1, 2, -1, -2, 1)), var="x") == "x^4 - 2*x^3 - x^2 + 2*x + 1"
    assert format_poly(Poly(())) == "0"


@contextlib.contextmanager
def _digit_limit(limit: int):
    """The interpreter's int-to-str digit limit set to limit for the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _long_rationals(rng) -> list:
    """Seeded ints and Fractions of both signs whose parts have 1,023 to 1,025
    bits, around _SPLIT_BITS, or up to about 20,000 digits (66,439 bits)."""
    sizes = [1, 64, _SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1]
    sizes += [rng.randint(_SPLIT_BITS + 2, 66_439) for _ in range(8)]
    size = lambda: rng.choice(sizes)
    nat = lambda bits: rng.getrandbits(bits) | 1 << (bits - 1)  # exactly that many bits
    values = []
    for bits in sizes[2:]:
        k = nat(bits)
        values += [k, -k, F(k, nat(size()) | 1), F(-nat(size()), k | 1)]
    values += [F(rng.choice((-1, 1)) * nat(size()), nat(size())) for _ in range(40)]
    assert any(type(v) is F and v.denominator.bit_length() > _SPLIT_BITS for v in values)
    return values


def test_text_writes_as_str_does():
    with _digit_limit(0):
        for x in _long_rationals(random.Random(149)):
            assert _text(x) == str(x), x


def test_text_refuses_where_str_refuses(monkeypatch):
    converted = []
    to_decimal = fibrec.parser._to_decimal
    counting = lambda k: converted.append(k) or to_decimal(k)
    monkeypatch.setattr(fibrec.parser, "_to_decimal", counting)
    nines, ten = 10**700 - 1, 10**700
    with _digit_limit(700):
        for x in (nines, -nines, F(nines, 7), F(-1, nines)):
            assert _text(x) == str(x)
        # 10**700 converts before it is refused, 2**10**6 is refused unconverted
        for x in (ten, -ten, F(ten, 7), F(-1, ten), F(nines, ten), 2**10**6, F(-1, 2**10**6)):
            with pytest.raises(ValueError, match="for integer string conversion") as refused:
                str(x)
            with pytest.raises(ValueError) as info:
                _text(x)
            assert str(info.value) == str(refused.value)
    assert 2**10**6 not in converted and ten in converted


def test_format_long_coefficients_as_str_does(monkeypatch):
    rng = random.Random(151)
    values = _long_rationals(rng)
    pick = lambda: rng.choice((*values, 0, 1, -1, F(1, 2)))
    polys = [Poly(tuple(pick() for _ in range(rng.randint(1, 4)))) for _ in range(12)]
    exprs = [FibExpr.of([(rng.randint(-9, 9), p) for p in rng.sample(polys, 3)], pick(), pick())
             for _ in range(6)]
    with _digit_limit(0):
        got = [format_poly(p) for p in polys] + [format_poly(p, var="x") for p in polys]
        got += [format_expr(e) for e in exprs]
        monkeypatch.setattr(fibrec.parser, "_text", str)  # as format_poly and format_expr wrote
        assert got == ([format_poly(p) for p in polys] + [format_poly(p, var="x") for p in polys]
                       + [format_expr(e) for e in exprs])
    assert max(map(len, got)) > 20_000


def _monomial_text(rng, q: F, power: int) -> str:
    """One polyterm for q*n^power, in one of the spellings the grammar allows."""
    sign = "-" if q < 0 else ""
    num = f"{abs(q.numerator)}" + (f"/{q.denominator}" if q.denominator > 1 else "")
    if power == 0:
        return sign + num
    var = "n" if power == 1 and rng.random() < 0.5 else f"n^{power}"
    if abs(q) == 1 and rng.random() < 0.5:
        return sign + var
    return f"{sign}{num}{rng.choice(('', '*'))}{var}"


def test_polysum_matches_monomial_poly_sums():
    # The parser adds one coefficient per term; summing each monomial as a
    # Poly is the reference, coefficient types included (int 0 where no term
    # landed, a Fraction where one did, even one that cancelled below the top).
    rng = random.Random(139)
    for _ in range(600):
        top = rng.randint(0, 8)
        terms = []
        for _ in range(rng.randint(1, 10)):
            power = rng.choice((top, rng.randint(0, top)))
            q = F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            if terms and rng.random() < 0.3:  # cancel an earlier term exactly
                _, q, power = rng.choice(terms)
                terms.append(("-", q, power))
            else:
                terms.append((rng.choice("+-"), q, power))
        text = _monomial_text(rng, terms[0][1], terms[0][2])
        expected = Poly((0,) * terms[0][2] + (terms[0][1],))
        if terms[0][0] == "-":
            text = "-" + text if not text.startswith("-") else text[1:]
            expected = Poly(()) - expected
        for op, q, power in terms[1:]:
            text += f" {op} {_monomial_text(rng, q, power)}"
            mono = Poly((0,) * power + (q,))
            expected = expected + mono if op == "+" else expected - mono
        got = parse(f"({text})*F(n)")
        assert repr(got) == repr(FibExpr.of([(0, expected)])), text


def test_round_trip_500_random_expressions():
    rng = random.Random(127)
    for _ in range(500):
        e = rand_expr(rng)
        back = parse(format_expr(e))
        assert back == e
        assert back.canon() == e.canon()


def test_fuzz_totality_printable():
    rng = random.Random(131)
    alphabet = "0123456789nF()+-*/^ .x"
    for _ in range(800):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 28)))
        try:
            parse(s)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(s)


def test_fuzz_totality_random_bytes():
    rng = random.Random(137)
    for _ in range(400):
        s = "".join(chr(rng.randrange(256)) for _ in range(rng.randint(0, 20)))
        try:
            parse(s)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(s)
