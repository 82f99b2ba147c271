"""Parse and print the textual expression language.

Grammar (EBNF; whitespace is insignificant everywhere):

    expr       := ["+"|"-"] term (("+"|"-") term)*
    term       := [coef ["*"]] fibref | [coef ["*"]] altref | coef
    fibref     := "F(" "n" [("+"|"-") natural] ")"
    altref     := "(-1)^n"
    coef       := polyfactor ["/" natural]
    polyfactor := rational | monomial | "(" polysum ")"
    polysum    := polyterm (("+"|"-") polyterm)*
    polyterm   := rational ["*"] ["n" ["^" natural]] | ["-"] "n" ["^" natural]
    rational   := ["-"] natural ["/" natural]

A trailing "/ natural" after a parenthesised polynomial divides every
coefficient, so "(5n^2-43n+88)/50" reads the way it is written.  Implicit
multiplication is allowed ("2n", "n/5*F(n-1)"); "^" may follow only "n"
and the literal "(-1)"; exponents are capped at MAX_EXPONENT (polynomials
are dense) and F shifts at MAX_INDEX.  A term without an F(...) or (-1)^n
factor must be constant (it lands in the expression's constant slot).
Every rejection raises ParseError carrying the offset of the offending
position, counted in characters of the input string.

Tokens are plain strings: one regular expression finds them all, after one
search has rejected any character that starts no token, and the grammar walks
the list by index, comparing token text.  Tokens carry no offsets; a
rejection turns its token's index into an offset with one more pass over the
text, so only a ParseError pays for offsets.

Every number that fibrec prints, in format_poly, format_expr and the CLI's
text and JSON, becomes text through _text: str for a short one, a Decimal
conversion for a long one, in time near linear in its length either way.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .exact import Poly
from .seqform import FibExpr


class ParseError(ValueError):
    """Rejection of an input string, with the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


MAX_EXPONENT = 1000
MAX_INDEX = 10**7  # largest |shift| in F(n+-k); F(10^7) has about 2.1 million digits

# Each match skips the whitespace before its token and captures the token:
# "(-1)^n" whole (before "(" alone, as alternatives are tried in order), a run
# of ASCII digits, or one symbol.  _BAD finds the first character that no
# token may hold; \s matches what str.isspace() accepts, and [0-9] is ASCII
# only, where str.isdigit() would also accept superscript and Arabic-Indic digits.
_TOKEN = re.compile(r"\s*(\(\s*-\s*1\s*\)\s*\^\s*n|[0-9]+|[nF+\-*/^()])")
_BAD = re.compile(r"[^\s0-9nF+\-*/^()]")


def _tokenize(text: str) -> list[str]:
    """The tokens of text as strings, then two end tokens, each the empty string.

    A character that starts no token raises ParseError before any grammar
    runs, so it wins over a grammar error earlier in the text.  A number is a
    token whose first character is a digit, and "(-1)^n" is the one token
    longer than a character that starts with "(".
    """
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    # two end tokens: looking one past the last token reads the second, so a
    # lookahead needs no bounds check (the index never moves past the first)
    return _TOKEN.findall(text) + ["", ""]


def _offsets(text: str) -> list[int]:
    """The character offset of each token of _tokenize(text), end tokens included.

    Only a ParseError needs an offset, so the grammar keeps token indices
    and turns one into an offset with this single pass when it raises.
    """
    return [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)] * 2


def _is_nat(tok: str) -> bool:
    return "0" <= tok[:1] <= "9"  # the end token's "" is below "0"


def _is_alt(tok: str) -> bool:
    return len(tok) > 1 and tok[0] == "("


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def error(self, message: str, at: int) -> ParseError:
        """The ParseError to raise for the token at index `at`."""
        return ParseError(message, _offsets(self.text)[at])

    def expect(self, tok: str, what: str) -> None:
        if self.toks[self.i] != tok:
            raise self.error(f"expected {what}", self.i)
        self.i += 1

    def natural(self, what: str) -> int:
        tok = self.toks[self.i]
        try:
            value = int(tok)  # refuses every token that is not a number
        except ValueError:
            if not _is_nat(tok):
                raise self.error(f"expected {what}", self.i) from None
            # longer than the interpreter's int-to-str digit limit
            limit = sys.get_int_max_str_digits()
            raise self.error(f"a number has more than {limit} digits", self.i) from None
        self.i += 1
        return value

    # --- grammar productions -------------------------------------------

    def run(self) -> FibExpr:
        terms: list[tuple[int, Poly]] = []
        const = Fraction(0)
        alt = Fraction(0)
        sep = self.toks[0]  # an optional sign before the first term
        if sep in ("+", "-"):
            self.i = 1
        while True:
            tag, shift, coeff = self.term()
            if sep == "-":
                coeff = -coeff
            if tag == "fib":
                terms.append((shift, coeff))
            elif tag == "alt":
                alt += coeff(0)
            else:
                const += coeff(0)
            sep = self.toks[self.i]
            if not sep:
                break
            if sep not in ("+", "-"):
                raise self.error("expected '+' or '-' between terms", self.i)
            self.i += 1
        return FibExpr.of(terms, const, alt)

    def term(self) -> tuple[str, int, Poly]:
        start = self.i
        tok = self.toks[start]
        starred = False
        if tok == "F" or _is_alt(tok):
            coeff = Poly((1,))
        else:
            coeff = self.coef()
            starred = self.toks[self.i] == "*"
            if starred:
                self.i += 1
        tok = self.toks[self.i]
        if tok == "F":
            return "fib", self.fibref(), coeff
        if _is_alt(tok):
            self.i += 1
            return "alt", 0, self._constant(coeff, start, "(-1)^n")
        if starred:
            raise self.error("expected F(...) or (-1)^n after '*'", self.i)
        return "const", 0, self._constant(coeff, start, None)

    def _constant(self, coeff: Poly, start: int, of: str | None) -> Poly:
        if coeff.degree not in (None, 0):
            if of is None:
                raise self.error("a term without F(n...) must be constant", start)
            raise self.error(f"the coefficient of {of} must be constant", start)
        return coeff

    def coef(self) -> Poly:
        toks = self.toks
        if toks[self.i] == "(":
            self.i += 1
            coeff = self.polysum()
            self.expect(")", "')'")
            if toks[self.i] == "^":
                raise self.error("'^' may follow only 'n' or the literal '(-1)'", self.i)
        else:
            power, q = self.polyterm()
            coeff = Poly((0,) * power + (q,))
        if toks[self.i] == "/":
            coeff = coeff * Fraction(1, self.denominator())
        return coeff

    def denominator(self) -> int:
        """Take '/' and the natural after it, which must not be zero."""
        self.i += 1
        at = self.i
        den = self.natural("a denominator")
        if den == 0:
            raise self.error("zero denominator", at)
        return den

    def polysum(self) -> Poly:
        """The sum of the polyterms, adding one coefficient per term.

        The list holds what adding each monomial as a Poly would: a Fraction
        at every power that a term reached, int 0 at the others, and never a
        zero on top, so a cancelled top power and the zeros below it drop.
        """
        toks = self.toks
        coeffs: list = []
        sign = 1
        while True:
            power, q = self.polyterm(sign)
            if q:  # a zero monomial is the zero Poly, which adds nothing
                if power >= len(coeffs):
                    coeffs += [0] * (power - len(coeffs))
                    coeffs.append(q)
                elif not coeffs[power]:  # 0 + q is q, a Fraction either way
                    coeffs[power] = q
                else:
                    coeffs[power] += q
                    while coeffs and not coeffs[-1]:
                        coeffs.pop()
            tok = toks[self.i]
            if tok not in ("+", "-"):
                return Poly(coeffs)
            self.i += 1
            sign = -1 if tok == "-" else 1

    def polyterm(self, sign: int = 1) -> tuple[int, Fraction]:
        """(power, coefficient) of one monomial, its coefficient times sign."""
        toks = self.toks
        tok = toks[self.i]
        negated = tok == "-"
        if negated:
            self.i += 1
            tok = toks[self.i]
            sign = -sign
        if tok == "n":
            return self._power(), Fraction(sign)
        if not _is_nat(tok):
            what = "a number or 'n' after '-'" if negated else "a coefficient"
            raise self.error(f"expected {what}", self.i)
        num = sign * self.natural("a number")
        if toks[self.i] == "/" and _is_nat(toks[self.i + 1]):
            q = Fraction(num, self.denominator())
        else:
            q = Fraction(num)
        tok = toks[self.i]
        if tok == "*" and toks[self.i + 1] == "n":
            self.i += 1
            tok = "n"
        return (self._power(), q) if tok == "n" else (0, q)

    def _power(self) -> int:
        """Take 'n', where the caller stands, and an optional '^' exponent; return the power."""
        self.i += 1
        power = 1
        if self.toks[self.i] == "^":
            self.i += 1
            at = self.i
            power = self.natural("a non-negative integer exponent")
            if power > MAX_EXPONENT:
                # polynomials are dense; an absurd exponent would allocate
                # that many coefficients
                raise self.error(f"exponent larger than {MAX_EXPONENT}", at)
        return power

    def fibref(self) -> int:
        self.expect("F", "'F'")
        self.expect("(", "'(' after F")
        self.expect("n", "'n' as the F argument (shift must be n, n+k or n-k)")
        shift = 0
        op = self.toks[self.i]
        if op in ("+", "-"):
            self.i += 1
            at = self.i
            off = self.natural("an integer offset inside F(n...)")
            if off > MAX_INDEX:
                # fast doubling on an absurd shift would not finish
                raise self.error(f"shift larger than {MAX_INDEX}", at)
            shift = -off if op == "+" else off
        self.expect(")", "')' closing F(")
        return shift


def parse(text: str) -> FibExpr:
    """Parse the expression language into a FibExpr; ParseError on rejection."""
    return _Parser(text).run()


# Decimal arithmetic in which any rounding raises instead of dropping a digit.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = _EXACT.traps[decimal.Rounded] = True

# str and Decimal(int) convert an int of at most this many bits faster than
# splitting it further, and a coefficient that short stays an int.  Its 309
# digits are fewer than any digit limit the interpreter accepts (0 or more
# than 640), so str never refuses an int this short.
_SPLIT_BITS = 1024


@lru_cache(maxsize=64)
def _power(w: int) -> decimal.Decimal:
    """2^w as a Decimal, exact whatever the caller's context: above _SPLIT_BITS
    bits, the product in _EXACT of two powers that are cached too.  One
    conversion of a number of up to 7,000,000 bits reads about 20 of them, so
    64 hold those of three, and the cache keeps about as many digits as the
    longest number converted."""
    if w <= _SPLIT_BITS:
        return decimal.Decimal(1 << w)
    half = w // 2
    return _EXACT.multiply(_power(half), _power(w - half))


def _to_decimal(x: int) -> decimal.Decimal:
    """x as an equal Decimal, in time near that of one multiply; run it in an
    exact context such as _EXACT.

    Decimal(int), like str(int), takes time quadratic in the length of x (3.7 s
    for F(2,000,000), against 0.14 s here; CPython 3.11, 2-core VM).  Here x of w
    bits splits into hi*2^h + lo with h = w//2, and each half converts in turn
    (Brent and Zimmermann, Modern Computer Arithmetic, 1.7; CPython 3.12's
    _pylong.int_to_decimal).  Each 2^h comes from ``_power``'s cache.
    """

    def split(x: int, w: int) -> decimal.Decimal:
        if w <= _SPLIT_BITS:
            return decimal.Decimal(x)
        half = w // 2
        hi = x >> half
        return split(x - (hi << half), half) + split(hi, w - half) * _power(half)

    return -split(-x, (-x).bit_length()) if x < 0 else split(x, x.bit_length())


def _text(x: int | Fraction) -> str:
    """x written as str(Fraction(x)) writes it, in time near linear in its length.

    A numerator and a denominator of at most _SPLIT_BITS bits are written with
    str; longer ones convert as Decimals (``_to_decimal``).  Either
    part of more digits than sys.get_int_max_str_digits() allows raises the
    ValueError that str raises, and one with more bits than that many digits
    can hold is refused before it converts.
    """
    num, den = x.numerator, x.denominator
    if num.bit_length() <= _SPLIT_BITS and den.bit_length() <= _SPLIT_BITS:
        return str(num) if den == 1 else f"{num}/{den}"
    limit = sys.get_int_max_str_digits() or math.inf  # 0 is no limit
    parts = []
    with decimal.localcontext(_EXACT):
        for k in (num,) if den == 1 else (num, den):
            d = _to_decimal(k) if k.bit_length() <= limit * math.log2(10) + 1 else None
            if d is None or d.adjusted() >= limit:
                raise ValueError(
                    f"Exceeds the limit ({limit} digits) for integer string conversion; "
                    "use sys.set_int_max_str_digits() to increase the limit"
                )
            parts.append(str(d))
    return "/".join(parts)


def _join_signed(parts: list[str]) -> str:
    """Join with ' + ', or with ' - ' before a part that starts with '-'."""
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def format_poly(p: Poly, var: str = "n") -> str:
    """Monomials in descending degree, joined with ' + ' / ' - '."""
    if not p:
        return "0"
    parts: list[str] = []
    for deg in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[deg]
        if not c:
            continue
        if deg == 0:
            parts.append(_text(c))
            continue
        base = var if deg == 1 else f"{var}^{deg}"
        if c == 1:
            parts.append(base)
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{_text(c)}*{base}")
    return _join_signed(parts)


def format_expr(expr: FibExpr) -> str:
    """Deterministic text form, re-parseable by parse().

    Terms come in ascending shift order, polynomial factors are
    parenthesised unless constant, then the constant, then the alternating
    part.  Components whose rendering starts with '-' are joined with ' - '.
    """
    comps: list[str] = []
    for t in expr.terms:
        ref = f"F(n{-t.shift:+d})" if t.shift else "F(n)"
        if t.poly.degree == 0:
            comps.append(f"{_text(t.poly.coeffs[0])}*{ref}")
        else:
            comps.append(f"({format_poly(t.poly)})*{ref}")
    if expr.const_e:
        comps.append(_text(expr.const_e))
    if expr.alt_f:
        comps.append(f"{_text(expr.alt_f)}*(-1)^n")
    return _join_signed(comps) if comps else "0"
