"""fibrec: exact arithmetic for Fibonacci-combination integer sequences.

The central object is a sequence of the form

    w_n = sum_i p_i(n) * F(n - j_i) + e + f * (-1)**n

with rational polynomial coefficients.  The package canonicalizes such
expressions, derives their integer recurrences, decides whether they are
integer-valued over all of Z, recovers coefficients from initial values,
parses/prints a small text language for them, and cross-checks everything
against brute-force enumerators and bundled OEIS b-files.
"""

from .cfinite import Recurrence, char_poly, to_recurrence
from .decide import Integral, NonIntegral, Verdict, is_integer_sequence
from .exact import Poly
from .fib import fib, shift_coeffs
from .oeis import (
    OeisEntry,
    OeisFormatError,
    OeisHit,
    OeisLookupError,
    OeisTimeoutError,
    OeisTransportError,
    entry_from_bfile,
    load_fixtures,
    parse_bfile,
    render_bfile,
    search_local,
    search_remote,
)
from .oracles import compositions_parts_count, fibonacci_word_inversions, leonardo
from .parser import ParseError, format_expr, format_poly, parse
from .seqform import CanonForm, FibExpr, ShiftTerm
from .synth import (
    FAMILY_TEMPLATES,
    DegenerateTemplateError,
    SynthSolution,
    Template,
    build_system,
    solve_template,
    symbolic_inverse,
    theorem_solution,
)

__version__ = "0.1.0"

__all__ = [
    "CanonForm",
    "DegenerateTemplateError",
    "FAMILY_TEMPLATES",
    "FibExpr",
    "Integral",
    "NonIntegral",
    "OeisEntry",
    "OeisFormatError",
    "OeisHit",
    "OeisLookupError",
    "OeisTimeoutError",
    "OeisTransportError",
    "ParseError",
    "Poly",
    "Recurrence",
    "ShiftTerm",
    "SynthSolution",
    "Template",
    "Verdict",
    "build_system",
    "char_poly",
    "compositions_parts_count",
    "entry_from_bfile",
    "fib",
    "fibonacci_word_inversions",
    "format_expr",
    "format_poly",
    "is_integer_sequence",
    "leonardo",
    "load_fixtures",
    "parse",
    "parse_bfile",
    "render_bfile",
    "search_local",
    "search_remote",
    "shift_coeffs",
    "solve_template",
    "symbolic_inverse",
    "theorem_solution",
    "to_recurrence",
]
