"""The benchmark's workloads: seeded operation lists, the timed calls, the checks.

A workload builds a plan from a seed: a list of chunks of operations, each
chunk holding the same mix of operation classes with freshly drawn
parameters.  Continuous parameters (window start, degree, far index, number
of unknowns) are drawn by stratified sampling, so every chunk covers the
whole range and the plans of different seeds cost about the same.  The
inputs are generated without calling fibrec, and every answer is checked
against ``refcheck``, outside the timed call.

* eval_window  -- ``fibrec eval EXPR --from A --to B`` through ``cli.main``
  in-process, stdout going to a file in the checkout.  Time goes to fib,
  FibExpr.at, Poly.__call__ and the CLI's rendering.  Probe windows past
  n = 20,600, whose values exceed the interpreter's 4300-digit int-to-str
  limit, run after the timed chunks: they fail today and are counted, but
  a fix that makes them slow cannot move the timed figures.
* derive_check -- parse, canon, to_recurrence, is_integer_sequence,
  format_expr and one far ``at`` on distinct expressions of degree 0..120
  (log-uniform).  No long windows, so an evaluation-window kernel should
  not move it, and distinct inputs give a memo cache no free hits.
* synth_solve  -- solve_template on templates of 2..34 unknowns, plus
  symbolic_inverse of the four family templates and theorem_solution.
  No parser and no windows: an elimination change shows here only.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import fibrec
import fibrec.cli

import refcheck

F = Fraction

DIGIT_LIMIT_MESSAGE = "Exceeds the limit"
GOLDEN = (5**0.5 - 1) / 2


@dataclass
class Op:
    kind: str
    args: tuple
    expect: dict
    values: int  # sequence values the operation delivers


@dataclass
class Plan:
    chunks: list[list[Op]]
    probes: list[Op] = field(default_factory=list)


def stratified(rng: random.Random, k: int) -> list[float]:
    """k points in [0, 1), one in each slice of width 1/k, ascending."""
    return [(i + rng.random()) / k for i in range(k)]


def spread(rng: random.Random, k: int) -> list[float]:
    """k points in [0, 1) whose every run of neighbours is evenly spread.

    Assigning a second parameter by rank this way keeps it independent of
    the first without leaving any stretch of ranks all high or all low.
    """
    start = rng.random()
    return [(start + i * GOLDEN) % 1 for i in range(k)]


def rand_frac(rng: random.Random, dens=(1, 2, 3, 5, 7, 10)) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return F(num, rng.choice(dens))


def write_expr(rng: random.Random, expr) -> str:
    """Input text for an expression: components in random order."""
    terms, e, f = expr
    parts = [f"({refcheck.print_poly(cs)})*{refcheck.fib_ref(s)}" for s, cs in terms]
    if e:
        parts.append(str(e))
    if f:
        parts.append(f"{f}*(-1)^n")
    rng.shuffle(parts)
    return refcheck.join_parts(parts)


# The worked examples of the paper, as printed, with their structure.
WORKED_EXAMPLES = (
    ("(2n+3)/5*F(n) - n/5*F(n-1)", (((0, (F(3, 5), F(2, 5))), (1, (0, F(-1, 5)))), 0, 0)),
    (
        "(5n^2-n-4)/25*F(n) + (5n^2+n)/50*F(n-1)",
        (((0, (F(-4, 25), F(-1, 25), F(1, 5))), (1, (0, F(1, 50), F(1, 10)))), 0, 0),
    ),
    (
        "(5n^2-43n+88)/50*F(n) + (14n+50)/50*F(n-1)",
        (((0, (F(88, 50), F(-43, 50), F(1, 10))), (1, (1, F(7, 25)))), 0, 0),
    ),
    (
        "(4n-4)/5*F(n) + 3n/5*F(n-1) + 1/2 - 1/2*(-1)^n",
        (((0, (F(-4, 5), F(4, 5))), (1, (0, F(3, 5)))), F(1, 2), F(-1, 2)),
    ),
    (
        "4n/5*F(n+1) + (3n+3)/5*F(n) + 1/2 + 1/2*(-1)^n",
        (((-1, (0, F(4, 5))), (0, (F(3, 5), F(3, 5)))), F(1, 2), F(1, 2)),
    ),
)


# --- eval_window -------------------------------------------------------------

# (window length, windows per chunk).  The shares put the median latency
# inside the medium class and the 90th percentile inside the long one, not
# at an edge between classes, where a few ops would swing it.
EVAL_MIX = ((20, 10), (200, 14), (2000, 6))
EVAL_START = (-4000, 6000)
PROBE_START = (20_600, 21_000)
PROBE_LENGTH = 20


def rand_window_expr(rng: random.Random, n_terms: int):
    shifts = rng.sample(range(-6, 7), n_terms)
    terms = tuple((s, tuple(rand_frac(rng) for _ in range(rng.randint(1, 4)))) for s in shifts)
    e = rand_frac(rng) if rng.random() < 0.5 else F(0)
    f = rand_frac(rng) if rng.random() < 0.5 else F(0)
    return terms, e, f


def eval_op(rng: random.Random, lo: int, length: int, n_terms: int) -> Op:
    """A window of a random expression, or of a worked example if n_terms is 0."""
    if n_terms:
        expr = rand_window_expr(rng, n_terms)
        text = write_expr(rng, expr)
    else:
        text, expr = rng.choice(WORKED_EXAMPLES)
    return Op("eval", (text, lo, lo + length - 1), {"expr": expr}, values=length)


def build_eval(rng: random.Random, n_chunks: int, mix=EVAL_MIX) -> Plan:
    chunks = []
    for _ in range(n_chunks):
        chunk = []
        for length, count in mix:
            phase = rng.randrange(5)
            for i, u in enumerate(stratified(rng, count)):
                lo = EVAL_START[0] + int(u * (EVAL_START[1] - EVAL_START[0] - length))
                # by rank of start, two windows in five show a worked example
                # and the others random expressions of 1, 2 and 3 terms
                n_terms = max(0, (i + phase) % 5 - 1)
                chunk.append(eval_op(rng, lo, length, n_terms))
        rng.shuffle(chunk)
        chunks.append(chunk)
    probes = [
        eval_op(rng, rng.randint(*PROBE_START), PROBE_LENGTH, i % 4) for i in range(n_chunks)
    ]
    return Plan(chunks, probes)


class EvalRunner:
    """Runs ``fibrec eval`` in-process with stdout going to a file."""

    def __init__(self, out_path: str):
        self.out = open(out_path, "w+", encoding="utf-8")
        self.output_bytes = 0

    def close(self) -> None:
        self.out.close()

    def run(self, op: Op):
        text, lo, hi = op.args
        self.out.seek(0)
        self.out.truncate()
        err = io.StringIO()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(err):
            code = fibrec.cli.main(["eval", text, "--from", str(lo), "--to", str(hi)])
            self.out.flush()
        self.output_bytes += self.out.tell()
        return code, err.getvalue()

    def check(self, op: Op, result) -> bool:
        """Whether exit code 0 came with exactly the reference lines."""
        code, _ = result
        if code != 0:
            return False
        _, lo, hi = op.args
        self.out.seek(0)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the reference may print what fibrec cannot
        try:
            for n, value in refcheck.IntEvaluator(op.expect["expr"]).window(lo, hi):
                if self.out.readline() != f"{n} {value}\n":
                    return False
            return self.out.readline() == ""
        finally:
            sys.set_int_max_str_digits(old)

    def probe_outcome(self, op: Op, result) -> str:
        """'ok', 'limit' (failed cleanly at the digit limit) or 'wrong'."""
        if self.check(op, result):
            return "ok"
        code, err = result
        if code == 2 and DIGIT_LIMIT_MESSAGE in err and self._past_limit(op):
            return "limit"
        return "wrong"

    @staticmethod
    def _past_limit(op: Op) -> bool:
        _, lo, hi = op.args
        bound = 10 ** sys.get_int_max_str_digits()
        return any(
            max(abs(v.numerator), v.denominator) >= bound
            for _, v in refcheck.IntEvaluator(op.expect["expr"]).window(lo, hi)
        )


# --- derive_check ------------------------------------------------------------

DERIVE_PER_CHUNK = 30
MAX_DEGREE = 120
FAR_INDEX = 200_000
LARGE_SHIFT = 20_000
LARGE_SHIFT_EVERY = 5
FAMILY_SHAPES = ((1, 1, False, False), (2, 2, False, False), (2, 1, False, False), (1, 1, True, True))


def family_instance(rng: random.Random):
    """A member of one of the four integer families, from integer initial values."""
    shape = rng.choice(FAMILY_SHAPES)
    rows = refcheck.slot_matrix(shape)
    coeffs = refcheck.solve(rows, [rng.randint(-30, 30) for _ in rows])
    return refcheck.shape_expr(shape, coeffs)


def derive_expr(rng: random.Random, degree: int, n_terms: int, integral: bool, large_shift: bool):
    shifts = rng.sample(range(-6, 7), n_terms)
    if large_shift:
        shifts[0] = rng.choice((-1, 1)) * rng.randint(1000, LARGE_SHIFT)
    degrees = [degree] + [rng.randint(0, degree // 2) for _ in shifts[1:]]
    if integral:
        coef = lambda: rng.choice((-1, 1)) * rng.randint(1, 9)
        fam_terms, e, f = family_instance(rng)
        terms = fam_terms + tuple(
            (s, tuple(coef() for _ in range(d + 1))) for s, d in zip(shifts, degrees)
        )
        e += rng.randint(-9, 9)
        f += rng.randint(-9, 9)
    else:
        dens = (1, 2, 3, 5, 7, 11)
        terms = tuple(
            (s, tuple(rand_frac(rng, dens) for _ in range(d + 1))) for s, d in zip(shifts, degrees)
        )
        e = rand_frac(rng, dens) if rng.random() < 0.5 else F(0)
        f = rand_frac(rng, dens) if rng.random() < 0.5 else F(0)
    return refcheck.normalize((terms, e, f))


def derive_reference(expr):
    """Canonical form, characteristic polynomial and w_0..w_m of expr."""
    form = refcheck.canon(expr)
    cp = refcheck.char_poly(form)
    window = refcheck.IntEvaluator(expr).window(0, len(cp) - 1)
    return form, cp, [v for _, v in window]


def build_derive(rng: random.Random, n_chunks: int, per_chunk: int = DERIVE_PER_CHUNK) -> Plan:
    seen: set[str] = set()
    chunks = []
    for _ in range(n_chunks):
        degrees = [int((MAX_DEGREE + 1) ** u) - 1 for u in stratified(rng, per_chunk)]
        fars = spread(rng, per_chunk)
        phase = rng.randrange(20)
        chunk = []
        for i, degree in enumerate(degrees):
            # by rank of degree: integral every other op, 1..4 terms in turn,
            # a large shift in one op of every LARGE_SHIFT_EVERY
            integral = (i + phase) % 2 == 0
            n_terms = 1 + (i + phase) // 2 % 4
            large = (i + phase) % LARGE_SHIFT_EVERY == 0
            while True:
                expr = derive_expr(rng, degree, n_terms, integral, large)
                text = write_expr(rng, expr)
                if text in seen:
                    continue
                order = refcheck.order(refcheck.canon(expr))
                expect = {"expr": expr, "integral": integral}
                if not integral:
                    window = refcheck.IntEvaluator(expr).window(0, order - 1)
                    witness = next(((n, v) for n, v in window if v.denominator != 1), None)
                    if witness is None:
                        continue  # no witness below the order: not known non-integral
                    expect["witness"] = witness
                break
            seen.add(text)
            far = rng.choice((-1, 1)) * int(fars[i] * FAR_INDEX)
            expect["far"] = far
            # values delivered: the initial values and the far one
            chunk.append(Op("derive", (text, far), expect, order + 1))
        rng.shuffle(chunk)
        chunks.append(chunk)
    attach_far_residues(op for chunk in chunks for op in chunk)
    return Plan(chunks)


def attach_far_residues(ops) -> None:
    """Fingerprints of each op's reference value at its far index.

    Exact values there have up to 42,000 digits; keeping hundreds of them
    would make the harness, not fibrec, set peak_rss_mb.  So the reference
    keeps L*w_n modulo two large primes, from one sweep per prime.
    """
    ops = list(ops)
    evaluators = [refcheck.IntEvaluator(op.expect["expr"]) for op in ops]
    needed = {m for op, ev in zip(ops, evaluators) for m in ev.needed(op.expect["far"])}
    tables = [refcheck.fib_at(needed, p) for p in refcheck.PRIMES]
    for op, ev in zip(ops, evaluators):
        op.expect["far_residues"] = tuple(
            ev.numerator(op.expect["far"], [t[op.expect["far"] - s] for s, _ in ev.terms]) % p
            for p, t in zip(refcheck.PRIMES, tables)
        )


def run_derive(op: Op):
    text, far = op.args
    expr = fibrec.parse(text)
    form = expr.canon()
    rec = fibrec.to_recurrence(expr)
    verdict = fibrec.is_integer_sequence(expr)
    printed = fibrec.format_expr(expr)
    return form, rec, verdict, printed, expr.at(far)


def check_derive(op: Op, result) -> bool:
    form, rec, verdict, printed, far_value = result
    expr = op.expect["expr"]
    ref_form, cp, values = derive_reference(expr)
    order = len(cp) - 1
    coeffs = tuple(-c for c in reversed(cp[:-1]))
    ok = (
        (form.p0.coeffs, form.p1.coeffs, form.const_e, form.alt_f) == ref_form
        and rec.order == order
        and rec.char_poly.coeffs == cp
        and rec.coeffs == coeffs
        and rec.initial == tuple(values[:order])
        # the recurrence must produce the next reference value
        and values[order] == sum(c * values[order - k] for k, c in enumerate(coeffs, 1))
        and printed == refcheck.print_expr(expr)
        and refcheck.IntEvaluator(expr).matches(op.expect["far"], far_value, op.expect["far_residues"])
    )
    if op.expect["integral"]:
        return ok and isinstance(verdict, fibrec.Integral) and verdict.certificate == tuple(values[:order])
    witness = op.expect["witness"]
    return ok and isinstance(verdict, fibrec.NonIntegral) and (verdict.witness_n, verdict.value) == witness


# --- synth_solve -------------------------------------------------------------

SYNTH_PER_CHUNK = 24  # template solves per chunk
SYNTH_UNKNOWNS = (2, 34)
THEOREMS_PER_CHUNK = 4
MAX_POLY_DEGREE = 16


def template_shape(rng: random.Random, k: int, valid: dict) -> tuple:
    """A nonsingular template shape with k unknowns and degrees in 0..16."""
    while True:
        has_const = k > 2 and rng.random() < 0.5
        has_alt = k - has_const > 2 and rng.random() < 0.5
        m = k - has_const - has_alt  # slots of the two polynomials
        d0 = rng.randint(max(1, m - MAX_POLY_DEGREE - 1), min(MAX_POLY_DEGREE + 1, m - 1)) - 1
        shape = (d0, m - d0 - 2, has_const, has_alt)
        if shape not in valid:
            valid[shape] = refcheck.full_rank(refcheck.slot_matrix(shape))
        if valid[shape]:
            return shape


def build_synth(rng: random.Random, n_chunks: int, per_chunk: int = SYNTH_PER_CHUNK,
                theorems: int = THEOREMS_PER_CHUNK) -> Plan:
    valid: dict = {}
    lo, hi = SYNTH_UNKNOWNS
    chunks = []
    for _ in range(n_chunks):
        chunk = []
        phase = rng.randint(0, 1)
        ks = [lo + int(u * (hi - lo + 1)) for u in stratified(rng, per_chunk)]
        for i, k in enumerate(ks):
            shape = template_shape(rng, k, valid)
            if (i + phase) % 2:
                # values of an integer-coefficient expression of this shape,
                # whose coefficients the solver must return
                coeffs = [rng.randint(-9, 9) for _ in range(k)]
                rows = refcheck.slot_matrix(shape)
                values = [sum(a * c for a, c in zip(row, coeffs)) for row in rows]
                expect = {"shape": shape, "coeffs": coeffs}
            else:
                values = [rng.randint(-1000, 1000) for _ in range(k)]
                expect = {"shape": shape}
            chunk.append(Op("solve", (shape, values), expect, values=k))
        for which, shape in enumerate(FAMILY_SHAPES, 1):
            chunk.append(Op("inverse", (which,), {"shape": shape}, values=len(refcheck.slot_matrix(shape))))
        for _ in range(theorems):
            which = rng.randint(1, 4)
            n = len(refcheck.slot_matrix(FAMILY_SHAPES[which - 1]))
            params = [rng.randint(-50, 50) for _ in range(n)]
            chunk.append(Op("theorem", (which, params), {"shape": FAMILY_SHAPES[which - 1]}, values=n))
        rng.shuffle(chunk)
        chunks.append(chunk)
    return Plan(chunks)


def run_synth(op: Op):
    if op.kind == "solve":
        shape, values = op.args
        return fibrec.solve_template(fibrec.Template(*shape), values)
    if op.kind == "inverse":
        return fibrec.symbolic_inverse(fibrec.FAMILY_TEMPLATES[op.args[0]])
    which, params = op.args
    if which == 4:
        return fibrec.theorem_solution(4, w=tuple(params))
    base = {1: "d", 2: "f", 3: "e"}[which]
    return fibrec.theorem_solution(which, **{base: params[0]}, z=tuple(params[1:]))


def check_synth(op: Op, result) -> bool:
    if op.kind == "inverse":
        return check_inverse(op, result)
    shape = op.expect["shape"]
    rows = refcheck.slot_matrix(shape)
    k = len(rows)
    coeffs = list(result.coefficients.values())
    if list(result.coefficients) != [chr(ord("a") + i) for i in range(k)]:
        return False
    got = [sum(a * c for a, c in zip(row, coeffs)) for row in rows]
    if op.kind == "solve":
        want = op.args[1]
        if "coeffs" in op.expect and coeffs != op.expect["coeffs"]:
            return False
    else:
        which, params = op.args
        if which == 4:
            want = params
        else:
            # w_0 is the base parameter and w_i = z_i + F(i-1) * w_0
            fibs = refcheck.fib_range(-1, k)
            want = [params[0]] + [z + fibs[i] * params[0] for i, z in enumerate(params[1:], 1)]
    terms, e, f = refcheck.normalize(refcheck.shape_expr(shape, coeffs))
    structure = (
        tuple((t.shift, t.poly.coeffs) for t in result.expr.terms),
        result.expr.const_e,
        result.expr.alt_f,
    )
    return got == want and structure == (terms, e, f)


def check_inverse(op: Op, inv) -> bool:
    rows = refcheck.slot_matrix(op.expect["shape"])
    k = len(rows)
    return [
        [sum(inv[i][t] * rows[t][j] for t in range(k)) for j in range(k)] for i in range(k)
    ] == [[int(i == j) for j in range(k)] for i in range(k)]


def make(name: str, out_dir: str):
    """(build, runner) for a workload; runner has run, check and close."""
    if name == "eval_window":
        return build_eval, EvalRunner(os.path.join(out_dir, "eval_window.out"))
    if name == "derive_check":
        return build_derive, FunctionRunner(run_derive, check_derive)
    if name == "synth_solve":
        return build_synth, FunctionRunner(run_synth, check_synth)
    raise ValueError(f"unknown workload {name!r}")


class FunctionRunner:
    output_bytes = 0

    def __init__(self, run, check):
        self.run = run
        self.check = check

    def close(self) -> None:
        pass

