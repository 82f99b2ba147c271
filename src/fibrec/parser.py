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
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

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

# Each match skips the whitespace before its token.  Alternatives are tried
# in order, so "(-1)^n" is one token before "(" is one, and "bad" is any other
# character that is not whitespace.  \s matches what str.isspace() accepts;
# [0-9] is ASCII only.
_TOKEN = re.compile(
    r"\s*(?:(?P<alt>\(\s*-\s*1\s*\)\s*\^\s*n)|(?P<nat>[0-9]+)|(?P<sym>[nF+\-*/^()])|(?P<bad>\S))"
)


class _Tok(NamedTuple):
    kind: str  # 'nat' 'n' 'F' 'alt' '+' '-' '*' '/' '^' '(' ')' 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", m.start(kind))
        # tuple.__new__ skips the Python-level __new__ that NamedTuple defines
        toks.append(tuple.__new__(_Tok, (tok if kind == "sym" else kind, tok, m.start(kind))))
    # two end tokens: peek(1) at the last token reads the second, so peek
    # needs no bounds check (take never moves past the first)
    toks += [_Tok("end", "", len(text))] * 2
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.i + ahead]

    def take(self) -> _Tok:
        tok = self.toks[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.take()

    def natural(self, what: str) -> int:
        tok = self.expect("nat", what)
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int-to-str digit limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"a number has more than {limit} digits", tok.pos) from None

    # --- grammar productions -------------------------------------------

    def run(self) -> FibExpr:
        terms: list[tuple[int, Poly]] = []
        const = Fraction(0)
        alt = Fraction(0)
        sep = self.peek()  # an optional sign before the first term
        if sep.kind in ("+", "-"):
            self.take()
        while True:
            tag, shift, coeff = self.term()
            if sep.kind == "-":
                coeff = -coeff
            if tag == "fib":
                terms.append((shift, coeff))
            elif tag == "alt":
                alt += coeff(0)
            else:
                const += coeff(0)
            sep = self.take()
            if sep.kind == "end":
                break
            if sep.kind not in ("+", "-"):
                raise ParseError("expected '+' or '-' between terms", sep.pos)
        return FibExpr.of(terms, const, alt)

    def term(self) -> tuple[str, int, Poly]:
        start = self.peek().pos
        starred = False
        if self.peek().kind in ("F", "alt"):
            coeff = Poly((1,))
        else:
            coeff = self.coef()
            starred = self.peek().kind == "*"
            if starred:
                self.take()
        kind = self.peek().kind
        if kind == "F":
            return "fib", self.fibref(), coeff
        if kind == "alt":
            self.take()
            return "alt", 0, self._constant(coeff, start, "(-1)^n")
        if starred:
            raise ParseError("expected F(...) or (-1)^n after '*'", self.peek().pos)
        return "const", 0, self._constant(coeff, start, None)

    @staticmethod
    def _constant(coeff: Poly, start: int, of: str | None) -> Poly:
        if coeff.degree not in (None, 0):
            if of is None:
                raise ParseError("a term without F(n...) must be constant", start)
            raise ParseError(f"the coefficient of {of} must be constant", start)
        return coeff

    def coef(self) -> Poly:
        if self.peek().kind == "(":
            self.take()
            coeff = self.polysum()
            self.expect(")", "')'")
            if self.peek().kind == "^":
                raise ParseError("'^' may follow only 'n' or the literal '(-1)'", self.peek().pos)
        else:
            power, q = self.polyterm()
            coeff = Poly((0,) * power + (q,))
        if self.peek().kind == "/":
            coeff = coeff * Fraction(1, self.denominator())
        return coeff

    def denominator(self) -> int:
        """Take '/' and the natural after it, which must not be zero."""
        self.take()
        pos = self.peek().pos
        den = self.natural("a denominator")
        if den == 0:
            raise ParseError("zero denominator", pos)
        return den

    def polysum(self) -> Poly:
        """The sum of the polyterms, adding one coefficient per term.

        The list holds what adding each monomial as a Poly would: a Fraction
        at every power that a term reached, int 0 at the others, and never a
        zero on top, so a cancelled top power and the zeros below it drop.
        """
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
            if self.peek().kind not in ("+", "-"):
                return Poly(coeffs)
            sign = -1 if self.take().kind == "-" else 1

    def polyterm(self, sign: int = 1) -> tuple[int, Fraction]:
        """(power, coefficient) of one monomial, its coefficient times sign."""
        negated = self.peek().kind == "-"
        if negated:
            self.take()
            sign = -sign
        tok = self.peek()
        if tok.kind == "n":
            return self._power(), Fraction(sign)
        if tok.kind != "nat":
            what = "a number or 'n' after '-'" if negated else "a coefficient"
            raise ParseError(f"expected {what}", tok.pos)
        q = self.rational(sign)
        if self.peek().kind == "n":
            return self._power(), q
        if self.peek().kind == "*" and self.peek(1).kind == "n":
            self.take()
            return self._power(), q
        return 0, q

    def _power(self) -> int:
        """Take 'n' and an optional '^' exponent; return the power."""
        self.expect("n", "'n'")
        power = 1
        if self.peek().kind == "^":
            self.take()
            pos = self.peek().pos
            power = self.natural("a non-negative integer exponent")
            if power > MAX_EXPONENT:
                # polynomials are dense; an absurd exponent would allocate
                # that many coefficients
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", pos)
        return power

    def rational(self, sign: int) -> Fraction:
        num = sign * self.natural("a number")
        if self.peek().kind == "/" and self.peek(1).kind == "nat":
            return Fraction(num, self.denominator())
        return Fraction(num)

    def fibref(self) -> int:
        self.expect("F", "'F'")
        self.expect("(", "'(' after F")
        self.expect("n", "'n' as the F argument (shift must be n, n+k or n-k)")
        shift = 0
        if self.peek().kind in ("+", "-"):
            op = self.take()
            pos = self.peek().pos
            off = self.natural("an integer offset inside F(n...)")
            if off > MAX_INDEX:
                # fast doubling on an absurd shift would not finish
                raise ParseError(f"shift larger than {MAX_INDEX}", pos)
            shift = -off if op.kind == "+" else off
        self.expect(")", "')' closing F(")
        return shift


def parse(text: str) -> FibExpr:
    """Parse the expression language into a FibExpr; ParseError on rejection."""
    return _Parser(text).run()


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
            parts.append(str(c))
            continue
        base = var if deg == 1 else f"{var}^{deg}"
        if c == 1:
            parts.append(base)
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{c}*{base}")
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
            comps.append(f"{t.poly.coeffs[0]}*{ref}")
        else:
            comps.append(f"({format_poly(t.poly)})*{ref}")
    if expr.const_e:
        comps.append(str(expr.const_e))
    if expr.alt_f:
        comps.append(f"{expr.alt_f}*(-1)^n")
    return _join_signed(comps) if comps else "0"
