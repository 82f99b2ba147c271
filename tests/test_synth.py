"""Template systems, exact solving, symbolic inverses, the four families."""

import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest

from conftest import A010049, A129707, QUAD_LIN, WALKS_W, ref_at

from fibrec import (
    FAMILY_TEMPLATES,
    DegenerateTemplateError,
    FibExpr,
    Integral,
    Template,
    build_system,
    fib,
    format_expr,
    is_integer_sequence,
    solve_template,
    symbolic_inverse,
    theorem_solution,
)
from fibrec import synth
from fibrec.synth import MAX_UNKNOWNS, _column, _eliminate, _system, _to_monomial


def _matmul(a, b):
    k = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _identity(k):
    return [[F(int(i == j)) for j in range(k)] for i in range(k)]


def test_template_slot_bookkeeping():
    assert FAMILY_TEMPLATES[1].unknowns == 4
    assert FAMILY_TEMPLATES[1].slot_names == ("a", "b", "c", "d")
    assert FAMILY_TEMPLATES[2].unknowns == 6
    assert FAMILY_TEMPLATES[3].unknowns == 5
    assert FAMILY_TEMPLATES[4].unknowns == 6
    assert Template(None, 0, has_const=True).unknowns == 2
    assert FAMILY_TEMPLATES[4].slots == ((0, 1), (0, 0), (1, 1), (1, 0), (2, 0), (3, 0))
    assert [(t.deg_p0, t.deg_p1, t.has_const, t.has_alt) for t in FAMILY_TEMPLATES.values()] == [
        (1, 1, False, False), (2, 2, False, False), (2, 1, False, False), (1, 1, True, True)
    ]
    with pytest.raises(ValueError):
        Template(None, None)
    with pytest.raises(ValueError):
        Template(-1, 0)
    # shapes with no P0, or with only a constant or only an alternating term
    assert format_expr(Template(None, 1).expr_from([2, F(-1, 3)])) == "(2*n - 1/3)*F(n-1)"
    assert format_expr(Template(None, None, has_const=True).expr_from([F(-5, 2)])) == "-5/2"
    assert format_expr(Template(None, None, has_alt=True).expr_from([3])) == "3*(-1)^n"
    assert (
        format_expr(Template(None, 0, True, True).expr_from([1, -1, 2]))
        == "1*F(n-1) - 1 + 2*(-1)^n"
    )
    assert (
        format_expr(Template(2, None, has_alt=True).expr_from([1, 0, -1, F(1, 2)]))
        == "(n^2 - 1)*F(n) + 1/2*(-1)^n"
    )
    assert format_expr(Template(0, 2, True).expr_from([F(3, 7), 0, 0, 0, 0])) == "3/7*F(n)"
    with pytest.raises(ValueError, match="expected 4 coefficients, got 3"):
        FAMILY_TEMPLATES[1].expr_from([1, 2, 3])


# renaming the slots waits for a benchmark change: bench/workloads.py::check_synth
# requires these names for up to 34 unknowns
@pytest.mark.xfail(
    strict=True,
    reason="slot i is named chr(ord('a') + i): names 27 on are '{', '|', '}', '~', '\\x7f', ...",
)
def test_slot_names_are_identifiers():
    names = Template(15, 15, True, True).slot_names
    assert len(names) == 34
    assert all(name.isidentifier() for name in names)


def _reference_row(t, n):
    # the slot order spelled out: F(n) powers descending, F(n-1) powers
    # descending, the constant, the alternating term
    row = []
    for part, deg in ((0, t.deg_p0), (1, t.deg_p1)):
        if deg is not None:
            row += [n**p * fib(n - part) for p in range(deg, -1, -1)]
    return row + [1] * t.has_const + [(-1) ** n] * t.has_alt


# every shape with degrees None/0..4, the constant and the alternating term
# each present or absent: 143 shapes
_SMALL_DEGREES = (None, 0, 1, 2, 3, 4)
_SMALL_SHAPES = [
    shape
    for shape in itertools.product(_SMALL_DEGREES, _SMALL_DEGREES, (False, True), (False, True))
    if shape != (None, None, False, False)
]


def test_build_system_rows():
    assert build_system(FAMILY_TEMPLATES[1])[2] == [2, 1, 2, 1]
    assert build_system(FAMILY_TEMPLATES[2])[5] == [125, 25, 5, 75, 15, 3]
    assert build_system(FAMILY_TEMPLATES[4])[0] == [0, 0, 0, 1, 1, 1]
    rng = random.Random(37)
    assert len(_SMALL_SHAPES) == 143
    for shape in _SMALL_SHAPES:
        t = Template(*shape)
        k = t.unknowns
        matrix = build_system(t)
        assert matrix == [_reference_row(t, n) for n in range(k)]
        assert all(type(m) is int for row in matrix for m in row)
        # the expression built from c takes the values M @ c at n = 0..k-1
        c = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(k)]
        expr = t.expr_from(c)
        assert [ref_at(expr, n) for n in range(k)] == [
            sum(m * ci for m, ci in zip(row, c)) for row in matrix
        ]


def _reference_solve(t, values):
    """Gauss-Jordan over Fraction on the spelled-out rows: the reference solver."""
    k = t.unknowns
    aug = [[F(m) for m in _reference_row(t, n)] + [F(v)] for n, v in enumerate(values)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            raise DegenerateTemplateError("the template's linear system is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[k] for row in aug]


def _assert_matches_reference(t, values):
    """solve_template gives the reference's coefficients, or both find t singular."""
    try:
        want = _reference_solve(t, values)
    except DegenerateTemplateError as exc:
        for call in (lambda: solve_template(t, values), lambda: symbolic_inverse(t)):
            with pytest.raises(DegenerateTemplateError, match=f"^{exc}$"):
                call()
        return False
    got = list(solve_template(t, values).coefficients.values())
    assert got == want
    assert all(type(c) is F for c in got)
    return True


def _mixed_values(rng, k):
    # integers and fractions with denominators 2, 3 and 7, of both signs
    return [rng.choice((1, -1)) * F(rng.randint(0, 40), rng.choice((1, 2, 3, 7))) for _ in range(k)]


def test_solve_matches_reference_on_small_shapes():
    rng = random.Random(41)
    solved = 0
    for shape in _SMALL_SHAPES:
        t = Template(*shape)
        if t.deg_p0 is not None:
            # F(0) = 0 heads the P0 columns, so row 0 cannot be the first pivot
            assert build_system(t)[0][0] == 0
        solved += _assert_matches_reference(t, _mixed_values(rng, t.unknowns))
    # e.g. (0, None): a lone constant on F(n) is invisible at n = 0
    assert 0 < solved < len(_SMALL_SHAPES)


def test_solve_matches_reference_on_large_shapes():
    rng = random.Random(43)
    degrees = (None,) + tuple(range(17))
    shapes = set()
    while len(shapes) < 50:
        shape = (rng.choice(degrees), rng.choice(degrees), rng.random() < 0.5, rng.random() < 0.5)
        if shape[:2] != (None, None) and 20 <= Template(*shape).unknowns <= 34:
            shapes.add(shape)
    for shape in sorted(shapes, key=repr):
        t = Template(*shape)
        values = _mixed_values(rng, t.unknowns) if rng.random() < 0.5 else [
            rng.randint(-1000, 1000) for _ in range(t.unknowns)
        ]
        _assert_matches_reference(t, values)
    # the largest singular shapes of degree <= 16: a lone F(n) or F(n-1) part
    for shape in ((16, None, False, False), (None, 16, False, False)):
        assert not _assert_matches_reference(Template(*shape), list(range(17)))


def _integer_rows(rows):
    """Each row of Fractions as (integer row, common denominator)."""
    out = []
    for row in rows:
        den = math.lcm(*(c.denominator for c in row))
        out.append(([c.numerator * (den // c.denominator) for c in row], den))
    return out


def _large_shapes(rng, count, lo, hi):
    """count distinct shapes with both polynomials and lo..hi unknowns."""
    shapes = []
    while len(shapes) < count:
        d0, d1 = rng.randint(0, hi), rng.randint(0, hi)
        shape = (d0, d1, rng.random() < 0.5, rng.random() < 0.5)
        if lo <= Template(*shape).unknowns <= hi and shape not in shapes:
            shapes.append(shape)
    return shapes


def test_solve_satisfies_monomial_system_on_larger_shapes():
    # k = 35..104, past what the reference solver can check quickly: the
    # monomial system from build_system is the oracle
    rng = random.Random(53)
    for shape in [(50, 50, True, True)] + _large_shapes(rng, 5, 35, 103):
        t = Template(*shape)
        values = _mixed_values(rng, t.unknowns)
        coeffs = list(solve_template(t, values).coefficients.values())
        assert all(type(c) is F for c in coeffs)
        ((ints, den),) = _integer_rows([coeffs])
        assert [F(sum(map(operator.mul, row, ints)), den) for row in build_system(t)] == values


def test_symbolic_inverse_inverts_monomial_system_on_larger_shapes():
    rng = random.Random(59)
    for shape in _large_shapes(rng, 3, 35, 52):
        t = Template(*shape)
        k = t.unknowns
        columns = list(zip(*build_system(t)))
        for i, (ints, den) in enumerate(_integer_rows(symbolic_inverse(t))):
            assert [sum(map(operator.mul, ints, col)) for col in columns] == [
                den * (i == j) for j in range(k)
            ]


def _monomial_rows(t, ys):
    """``_to_monomial`` on each column of ys, which has one row per slot: the
    solved rows as (row, scale), row holding the slot's value in each column."""
    out = []
    for slot in zip(*(_to_monomial(t, y) for y in zip(*ys))):
        row, scales = zip(*slot)
        (scale,) = set(scales)  # one scale per slot, whatever the column
        out.append((row, scale))
    return out


def test_binomial_to_monomial_conversion():
    # one part of degree d; the rows are the unit vectors e_p, so column p
    # must come back as the n^q coefficients of C(n, p), times d!
    for d in range(21):
        unit = [[int(q == p) for p in range(d + 1)] for q in range(d, -1, -1)]
        out = _monomial_rows(Template(d), unit)
        fact = math.factorial(d)
        assert {scale for _, scale in out} == {fact}
        for p in range(d + 1):
            coeffs = [row[p] for row, _ in out]  # powers d..0
            for n in range(d + 1):
                assert sum(c * n ** (d - q) for q, c in enumerate(coeffs)) == fact * math.comb(n, p)


def test_eliminate_divides_exactly_on_small_shapes():
    # forward elimination and back substitution on the monomial system, two
    # right-hand columns at once; a floor division that was not exact would
    # show as a wrong solution
    rng = random.Random(61)
    for shape in _SMALL_SHAPES:
        t = Template(*shape)
        k = t.unknowns
        rhs = [[rng.randint(-40, 40) for _ in range(k)] for _ in range(2)]
        aug = [row + list(b) for row, *b in zip(build_system(t), *rhs)]
        try:
            want = [_reference_solve(t, b) for b in rhs]
        except DegenerateTemplateError as exc:
            with pytest.raises(DegenerateTemplateError, match=f"^{exc}$"):
                _eliminate(aug, k)
            continue
        det, columns = _eliminate(aug, k)
        xs = list(zip(*columns))
        assert [[F(row[c], det) for row in xs] for c in range(2)] == want


def _plain_bareiss(aug, width):
    """Bareiss elimination that updates every row below the pivot at every
    step, rescaling a row by p/prev when its pivot-column entry is 0, then
    fraction-free back substitution: the reference for ``_eliminate``, which
    defers those rescalings."""
    prev = 1
    for col in range(width):
        piv = next((r for r in range(col, width) if aug[r][0]), None)
        if piv is None:
            raise DegenerateTemplateError("the template's linear system is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p, *head = aug[col]
        for r in range(col + 1, width):
            f, *row = aug[r]
            aug[r] = [(p * v - f * w) // prev for v, w in zip(row, head)]
        prev = p
    xs = [[] for _ in range(len(aug[-1]) - 1)]
    for i in range(width - 1, -1, -1):
        row = aug[i]
        u = row[width - 1 - i:0:-1]
        for x, b in zip(xs, row[width - i:]):
            x.append((prev * b - sum(map(operator.mul, u, x))) // row[0])
    return prev, [x[::-1] for x in xs]


def _eliminated(solver, aug, width):
    """(det, xs) from solver on a copy of aug, or the singular error's text."""
    try:
        return solver([list(row) for row in aug], width)
    except DegenerateTemplateError as exc:
        return str(exc)


def _random_system(rng):
    """An integer system with 1..3 right-hand columns: dense, mostly zero,
    rows with long zero prefixes in shuffled order, or singular by design."""
    width = rng.randint(1, 9)
    total = width + rng.randint(1, 3)
    kind = rng.choice(("dense", "sparse", "staircase", "singular"))
    zeros = 0.85 if kind == "sparse" else 0.15
    aug = [[0 if rng.random() < zeros else rng.randint(-30, 30) for _ in range(total)]
           for _ in range(width)]
    if kind == "staircase":
        for row in aug:
            lead = rng.randint(0, width - 1)
            row[:lead] = [0] * lead
            row[lead] = rng.choice((-1, 1)) * rng.randint(1, 30)
    elif kind == "singular" and width > 1:
        # row i's left block a multiple of row j's, a = 0 included
        i, j = rng.sample(range(width), 2)
        a = rng.randint(-3, 3)
        aug[i][:width] = [a * v for v in aug[j][:width]]
    return aug, width


def test_eliminate_matches_plain_bareiss_on_random_systems():
    rng = random.Random(67)
    outcomes = {"solved": 0, "singular": 0}
    for _ in range(1500):
        aug, width = _random_system(rng)
        want = _eliminated(_plain_bareiss, aug, width)
        assert _eliminated(_eliminate, aug, width) == want
        outcomes["singular" if isinstance(want, str) else "solved"] += 1
    assert min(outcomes.values()) > 300


def test_eliminate_matches_plain_bareiss_on_differenced_systems():
    # the systems the solvers eliminate, where most rows skip most steps
    rng = random.Random(71)
    for shape in _SMALL_SHAPES + [(12, 12, True, True), (12, 5, False, True), (None, 14, True, False)]:
        t = Template(*shape)
        k = t.unknowns
        rhs = [[rng.randint(-40, 40) for _ in range(2)] for _ in range(k)]
        _, aug = _system(t.slots, zip(*rhs))
        assert _eliminated(_eliminate, aug, k) == _eliminated(_plain_bareiss, aug, k)


def _base(part, n):
    return fib(n - part) if part < 2 else 1 if part == 2 else (-1) ** n


def _difference_operator(k):
    """k x k matrix T whose row t holds x^(t%2)*(x^2-x-1)^(t//2) by power of x."""
    rows, power = [], [1]
    for t in range(k):
        if t > 1 and t % 2 == 0:
            # times x^2 - x - 1, coefficients by ascending power
            power = [c - b - a for a, b, c in zip(power + [0, 0], [0] + power + [0], [0, 0] + power)]
        coeffs = [0] * (t % 2) + power
        rows.append(coeffs + [0] * (k - len(coeffs)))
    return rows


def _reference_system(t, rhs):
    """The differenced system by the whole difference triangle on the
    binomial rows, about k^3/4 entry updates: the reference for ``_system``,
    which writes the left block in closed form."""
    cols = sorted(t.slots, key=lambda s: (s[0] > 1, s[1], s[0]))
    rows = []
    fn1, fn = 1, 0  # (F(n-1), F(n)) at n = 0
    for n, b in enumerate(rhs):
        base = (fn, fn1, 1, -1 if n % 2 else 1)
        rows.append([math.comb(n, p) * base[part] for part, p in cols] + b)
        fn1, fn = fn, fn + fn1
    aug = []
    while rows:  # one difference level per row pair
        aug += rows[:2]
        rows = [[c - b - a for a, b, c in zip(r0, r1, r2)]
                for r0, r1, r2 in zip(rows, rows[1:], rows[2:])]
    return cols, aug


def test_system_matches_difference_triangle():
    # repr, not ==: an absent term written as a float would pass 0.0 == 0
    rng = random.Random(83)
    degrees = (None,) + tuple(range(18))
    shapes = 0
    for shape in itertools.product(degrees, degrees, (False, True), (False, True)):
        if shape == (None, None, False, False):
            continue
        t = Template(*shape)
        k = t.unknowns
        rhs = [[rng.randint(-99, 99)] for _ in range(k)]
        assert repr(_system(t.slots, zip(*rhs))) == repr(_reference_system(t, rhs))
        if k <= 12:
            identity = [[int(i == j) for j in range(k)] for i in range(k)]
            assert repr(_system(t.slots, zip(*identity))) == repr(_reference_system(t, identity))
        shapes += 1
    assert shapes == 1443


def _reference_to_monomial(t, ys):
    """``_to_monomial`` on nested lists, one list per coefficient holding all
    right-hand columns: the reference for the pass that runs once per column."""
    out = []
    rows = iter(ys)
    for d in t._degrees:
        if d is None:
            continue
        acc, scale = [next(rows)], 1  # powers descend
        for i in range(d - 1, 0, -1):
            scale *= i + 1  # d!/i!
            acc = [acc[0], *([a - i * b for a, b in zip(r, s)] for r, s in zip(acc[1:], acc)),
                   [scale * y - i * b for y, b in zip(next(rows), acc[-1])]]
        if d:
            acc.append([scale * y for y in next(rows)])
        out += [(row, scale) for row in acc]
    return out


def test_to_monomial_matches_nested_reference():
    rng = random.Random(89)
    degrees = (None,) + tuple(range(18))
    shapes = 0
    for shape in itertools.product(degrees, degrees, (False, True), (False, True)):
        if shape == (None, None, False, False):
            continue
        t = Template(*shape)
        k = t.unknowns
        inputs = [[(rng.randint(-10**12, 10**12),) for _ in range(k)]]
        if k <= 12:
            inputs.append([tuple(int(i == j) for j in range(k)) for i in range(k)])
        for ys in inputs:
            out = _monomial_rows(t, ys)
            assert all(type(v) is int for row, _ in out for v in row)
            listed = lambda rows: [(list(row), scale) for row, scale in rows]
            assert listed(out) == listed(_reference_to_monomial(t, ys))
        shapes += 1
    assert shapes == 1443


def test_columns_are_built_once_per_part_and_power():
    rng = random.Random(97)
    templates = [Template(16, 16), Template(16, 3, True), Template(2, 9, False, True),
                 Template(0, None, True, True), Template(None, 7, True)]
    values = [[rng.randint(-99, 99) for _ in range(t.unknowns)] for t in templates]

    def answers():
        return [repr(solve_template(t, v)) for t, v in zip(templates, values)] + [
            repr(symbolic_inverse(t)) for t in templates]

    _column.cache_clear()
    first = answers()
    # the memo holds exactly the columns of parts 0 and 1 at powers 0..16
    keys = [(part, p) for part in (0, 1) for p in range(17)]
    assert _column.cache_info().currsize == len(keys)
    before = _column.cache_info().hits
    cols, aug = _reference_system(Template(16, 16), [[0]] * 34)
    for part, p in keys:
        c = cols.index((part, p))
        assert _column(part, p) == tuple((t, row[c]) for t, row in enumerate(aug) if row[c])
    assert _column.cache_info().hits == before + len(keys)
    assert sum(map(len, map(_column, *zip(*keys)))) <= 17 * 20  # (P+1)(P+4) pairs, P = 16
    # built afresh, in another order, the columns give the same answers
    _column.cache_clear()
    templates.reverse()
    values.reverse()
    n = len(templates)
    assert answers() == first[:n][::-1] + first[n:][::-1]


@pytest.mark.parametrize("shape", [(100, 100, True, True), (100, 80, False, False)])
def test_installed_script_templates(shape):
    # the two templates that CI's installed-script step times through
    # `fibrec synth ... --values 0..k-1`; values are compared, not slot names
    t = Template(*shape)
    k = t.unknowns
    values = list(range(k))
    rhs = [[v] for v in values]
    assert repr(_system(t.slots, [values])) == repr(_reference_system(t, rhs))
    coeffs = list(solve_template(t, values).coefficients.values())
    ((ints, den),) = _integer_rows([coeffs])
    assert [F(sum(map(operator.mul, row, ints)), den) for row in build_system(t)] == values


# balanced shapes, unbalanced ones and shapes with one part absent
_TRIANGULAR_SHAPES = (
    [(d, d) for d in range(13)]
    + [(d, 12 - d) for d in (0, 2, 5, 7, 9, 12)]
    + [(3, 11), (10, 1)]
    + [(d, None) for d in (0, 1, 6, 13)]
    + [(None, d) for d in (0, 1, 7, 14)]
)


@pytest.mark.parametrize("const, alt", [(False, False), (True, False), (False, True), (True, True)])
def test_differenced_rows_are_block_triangular(const, alt):
    rng = random.Random(73)
    for d0, d1 in _TRIANGULAR_SHAPES:
        t = Template(d0, d1, const, alt)
        k = t.unknowns
        rhs = [[rng.randint(-9, 9)] for _ in range(k)]
        cols, aug = _system(t.slots, zip(*rhs))
        assert all(type(v) is int for row in aug for v in row)
        # F slots by ascending power, F(n)'s first, then the constant and alternating slots
        degrees = (-1 if d0 is None else d0, -1 if d1 is None else d1)
        assert cols == [
            (part, p) for p in range(max(degrees) + 1) for part in (0, 1) if p <= degrees[part]
        ] + [(2, 0)] * const + [(3, 0)] * alt
        # T times the binomial system and its right-hand side, built naively
        system = [[math.comb(n, p) * _base(part, n) for part, p in cols] + rhs[n] for n in range(k)]
        assert aug == _matmul(_difference_operator(k), system)
        # row t is zero in every F column of power below t//2, so the F columns
        # are block upper triangular with 2 x 2 blocks
        for row_t, row in enumerate(aug):
            assert all(v == 0 for v, (part, p) in zip(row, cols) if part < 2 and p < row_t // 2)


def test_every_shape_up_to_degree_10():
    # each shape with degrees None/0..10, the constant and the alternating term
    # each present or absent; the monomial system from build_system is the
    # oracle, and plain Bareiss on it says which shapes are singular
    rng = random.Random(79)
    degrees = (None,) + tuple(range(11))
    singular = []
    for shape in itertools.product(degrees, degrees, (False, True), (False, True)):
        if shape == (None, None, False, False):
            continue
        t = Template(*shape)
        k = t.unknowns
        matrix = build_system(t)
        values = _mixed_values(rng, k)
        if isinstance(_eliminated(_plain_bareiss, matrix, k), str):
            singular.append(shape)
            for call in (lambda: solve_template(t, values), lambda: symbolic_inverse(t)):
                with pytest.raises(DegenerateTemplateError, match="^the template's linear system is singular$"):
                    call()
            continue
        coeffs = list(solve_template(t, values).coefficients.values())
        ((ints, den),) = _integer_rows([coeffs])
        assert [F(sum(map(operator.mul, row, ints)), den) for row in matrix] == values
        columns = list(zip(*matrix))
        for i, (ints, den) in enumerate(_integer_rows(symbolic_inverse(t))):
            assert [sum(map(operator.mul, ints, col)) for col in columns] == [
                den * (i == j) for j in range(k)
            ]
    # a lone F(n) part, a lone F(n-1) part of degree >= 1, and two mixed shapes
    assert set(singular) == {(d, None, False, False) for d in range(11)} | {
        (None, d, False, False) for d in range(1, 11)
    } | {(None, 0, True, True), (1, 2, True, False)}


def test_solve_with_mixed_denominators():
    values = [F(1, 2), F(-1, 3), F(1, 7), 10, -3, F(-5, 2)]
    sol = solve_template(FAMILY_TEMPLATES[4], values)
    assert list(sol.coefficients.values()) == _reference_solve(FAMILY_TEMPLATES[4], values)
    assert [ref_at(sol.expr, n) for n in range(6)] == values
    # values given as strings and as negative fractions read the same
    assert solve_template(FAMILY_TEMPLATES[1], ["1/2", "-1/3", F(-1, 7), -10]) == solve_template(
        FAMILY_TEMPLATES[1], [F(1, 2), F(-1, 3), F(-1, 7), -10]
    )


def test_solve_reads_ints_fractions_and_strings_alike():
    # an int value is read as it is, any other through Fraction: the same
    # solution either way, with every coefficient a Fraction
    rng = random.Random(103)
    for t in [*FAMILY_TEMPLATES.values(), Template(5, 4, True, True), Template(None, 3, True)]:
        whole = [rng.randint(-99, 99) for _ in range(t.unknowns)]
        mixed = [F(rng.randint(-99, 99), rng.choice((1, 1, 2, 3))) for _ in range(t.unknowns)]
        for values in (whole, mixed):
            given = [
                [int(v) if F(v).denominator == 1 else v for v in values],
                [F(v) for v in values],
                [str(v) for v in values],  # "3/2", "-7"
            ]
            solutions = [solve_template(t, g) for g in given]
            assert solutions[0] == solutions[1] == solutions[2]
            assert len({repr(s) for s in solutions}) == 1
            assert all(type(c) is F for s in solutions for c in s.coefficients.values())


def test_solve_reproduces_linear_example():
    sol = solve_template(FAMILY_TEMPLATES[1], [0, 1, 1, 3])
    assert sol.coefficients == {"a": F(2, 5), "b": F(3, 5), "c": F(-1, 5), "d": 0}
    assert sol.expr == A010049


def test_solve_reproduces_quadratic_example():
    # family-2 parameters f=0, z=(0,1,4,12,31) give w = (0, 0, 1, 4, 12, 31)
    sol = solve_template(FAMILY_TEMPLATES[2], [0, 0, 1, 4, 12, 31])
    assert sol.coefficients == {
        "a": F(1, 5),
        "b": F(-1, 25),
        "c": F(-4, 25),
        "d": F(1, 10),
        "e": F(1, 50),
        "f": 0,
    }
    assert sol.expr == A129707


def test_solve_reproduces_quad_linear_example():
    sol = solve_template(FAMILY_TEMPLATES[3], [1, 1, 2, 2, 4])
    assert sol.coefficients == {
        "a": F(1, 10),
        "b": F(-43, 50),
        "c": F(44, 25),
        "d": F(7, 25),
        "e": 1,
    }
    assert sol.expr == QUAD_LIN


def test_solve_reproduces_full_linear_example():
    sol = solve_template(FAMILY_TEMPLATES[4], [0, 1, 2, 6, 12, 26])
    assert sol.coefficients == {
        "a": F(4, 5),
        "b": F(-4, 5),
        "c": F(3, 5),
        "d": 0,
        "e": F(1, 2),
        "f": F(-1, 2),
    }
    assert sol.expr == WALKS_W


def test_solve_rejects_wrong_value_count():
    with pytest.raises(ValueError):
        solve_template(FAMILY_TEMPLATES[1], [1, 2, 3])
    # counted, not listed, so a huge template fails here at once
    huge = Template(10**12, 10**12, has_const=True)
    assert huge.unknowns == 2 * 10**12 + 3
    with pytest.raises(ValueError, match="template needs 2000000000003 values, got 1"):
        solve_template(huge, [1])


def test_a_template_past_the_cap_is_refused_before_solving(monkeypatch):
    monkeypatch.setattr(synth, "_system", lambda *args: pytest.fail("the system was built"))
    t = Template(MAX_UNKNOWNS // 2, MAX_UNKNOWNS // 2)
    assert t.unknowns == MAX_UNKNOWNS + 2
    message = f"^template has {MAX_UNKNOWNS + 2} unknowns, more than {MAX_UNKNOWNS}$"
    for call in (lambda: solve_template(t, [1] * t.unknowns), lambda: symbolic_inverse(t)):
        with pytest.raises(ValueError, match=message):
            call()
    # the value count is checked first
    with pytest.raises(ValueError, match=f"template needs {MAX_UNKNOWNS + 2} values, got 1"):
        solve_template(t, [1])


class _Eliminated(Exception):
    """Raised in place of ``_eliminate``: the template got past every refusal."""


def _no_elimination(*args):
    raise _Eliminated


@pytest.mark.parametrize("template", [Template(255), Template(None, 150)])
def test_a_zero_row_template_is_refused_before_elimination(monkeypatch, template):
    # row 0 of a lone F(n) part is n^p*F(0) = 0, row 1 of a lone F(n-1) part
    # of degree >= 1 likewise; eliminating Template(150) took 3.6 s
    monkeypatch.setattr(synth, "_eliminate", lambda *args: pytest.fail("_eliminate was called"))
    values = [i % 7 for i in range(template.unknowns)]
    for call in (lambda: solve_template(template, values), lambda: symbolic_inverse(template)):
        with pytest.raises(DegenerateTemplateError, match="^the template's linear system is singular$"):
            call()


def test_only_a_zero_row_0_or_1_stops_a_small_template_before_elimination(monkeypatch):
    # differencing is unit lower triangular, so a zero row is a singular system,
    # and _solve looks at rows 0 and 1 alone; every other shape of degree <= 20,
    # synth_solve's and the families' among them, is within the work budget
    monkeypatch.setattr(synth, "_eliminate", _no_elimination)
    degrees = (None,) + tuple(range(21))
    zero_row_shapes = set()
    for shape in itertools.product(degrees, degrees, (False, True), (False, True)):
        if shape == (None, None, False, False):
            continue
        t = Template(*shape)
        k = t.unknowns
        _, aug = _system(t.slots, [[0] * k])
        zero = [i for i, row in enumerate(aug) if not any(row[:k])]
        assert all(i < 2 for i in zero), shape
        if zero:
            zero_row_shapes.add(shape)
        with pytest.raises(DegenerateTemplateError if zero else _Eliminated):
            solve_template(t, [0] * k)
    assert zero_row_shapes == {(d, None, False, False) for d in range(21)} | {
        (None, d, False, False) for d in range(1, 21)
    }


@pytest.mark.parametrize("shape, cost", [((150, 50), 430), ((200, 0), 425), ((None, 200, True), 420)])
def test_a_lopsided_template_is_refused_before_elimination(monkeypatch, shape, cost):
    # 35, 27 and 26 s to solve, under the cap on unknowns; (100, 100) took 0.5 s
    monkeypatch.setattr(synth, "_eliminate", lambda *args: pytest.fail("_eliminate was called"))
    t = Template(*shape)
    message = (f"^template has 202 unknowns whose unequal degrees cost as much as {cost}, "
               f"more than {MAX_UNKNOWNS}$")
    values = [i % 7 for i in range(t.unknowns)]
    for call in (lambda: solve_template(t, values), lambda: symbolic_inverse(t)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("shape, cost", [
    ((255,), None), ((None, 150), None),  # singular
    ((150, 50), 430), ((200, 0), 425), ((None, 200, True), 420),  # lopsided
])
def test_every_refusal_reads_the_template_alone(monkeypatch, shape, cost):
    # the singular and work refusals come before the system is built; Template(255)
    # is also 25 times over the work budget, and its singular message comes first
    monkeypatch.setattr(synth, "_system", lambda *args: pytest.fail("the system was built"))
    assert synth._work(Template(255)) > 25 * MAX_UNKNOWNS**synth._POWER
    t = Template(*shape)
    kind, message = DegenerateTemplateError, "the template's linear system is singular"
    if cost:
        kind, message = ValueError, (f"template has 202 unknowns whose unequal degrees cost "
                                     f"as much as {cost}, more than {MAX_UNKNOWNS}")
    values = [i % 7 for i in range(t.unknowns)]
    for call in (lambda: solve_template(t, values), lambda: symbolic_inverse(t)):
        with pytest.raises(ValueError) as refused:
            call()
        assert (type(refused.value), str(refused.value)) == (kind, message)


@pytest.mark.parametrize("shape", [
    (149, 149), (148, 148, True, True), (149, 148, True),  # at the cap on unknowns
    (100, 100, True, True), (100, 80),  # CI's installed-script runs
    # lopsided, each solved in under 3.6 s
    (130, 0), (0, 130), (None, 130, True), (140, 0), (120, 80), (112, 28), (126, 14),
])
def test_templates_within_the_work_budget_reach_elimination(monkeypatch, shape):
    monkeypatch.setattr(synth, "_eliminate", _no_elimination)
    t = Template(*shape)
    with pytest.raises(_Eliminated):
        solve_template(t, [i % 7 for i in range(t.unknowns)])


def test_degenerate_template_is_reported():
    # a lone constant coefficient on F(n) is invisible at n = 0 since F_0 = 0
    with pytest.raises(DegenerateTemplateError):
        solve_template(Template(0, None), [1])
    with pytest.raises(DegenerateTemplateError):
        symbolic_inverse(Template(0, None))


def test_symbolic_inverse_is_exact_inverse():
    for template in FAMILY_TEMPLATES.values():
        m = build_system(template)
        inv = symbolic_inverse(template)
        assert _matmul(inv, m) == _identity(template.unknowns)
        assert _matmul(m, inv) == _identity(template.unknowns)
    big = Template(15, 15, has_const=True, has_alt=True)
    assert big.unknowns == 34
    inv = symbolic_inverse(big)
    assert all(type(v) is F for row in inv for v in row)
    assert _matmul(inv, build_system(big)) == _identity(34)


# closed-form coefficient rows over z_i (shared denominator per row), where
# z_i = w_i - F_{i-1} * w_0 and the base parameter is w_0 itself
_Z_ROWS = {
    1: [((-1, -3, 2), 5), ((6, 3, -2), 5), ((-2, 4, -1), 5)],
    2: [
        ((-1, 3, 1, -3, 1), 10),
        ((-5, -75, 15, 45, -17), 50),
        ((30, 30, -10, -15, 6), 25),
        ((3, -4, -3, 4, -1), 10),
        ((-45, 80, 15, -40, 11), 50),
    ],
    3: [
        ((2, -1, -2, 1), 10),
        ((-56, -7, 66, -23), 50),
        ((48, 6, -28, 9), 25),
        ((-6, 18, -9, 2), 25),
    ],
}


def _z_substituted(rows, k):
    out = []
    for row, den in rows:
        wrow = [F(0)] * k
        for i, c in enumerate(row, start=1):
            wrow[i] += F(c, den)
            wrow[0] -= F(c * fib(i - 1), den)
        out.append(wrow)
    return out


@pytest.mark.parametrize("which", [1, 2, 3])
def test_symbolic_inverse_matches_closed_forms(which):
    template = FAMILY_TEMPLATES[which]
    k = template.unknowns
    inv = symbolic_inverse(template)
    assert inv[:-1] == _z_substituted(_Z_ROWS[which], k)
    # the base parameter is exactly w_0
    assert inv[-1] == [F(1)] + [F(0)] * (k - 1)


# full-linear-family coefficient rows over (w_0..w_5) as printed in the
# source material; the c and d rows there are wrong (see the derived rows).
_T4_PRINTED = [
    ((3, 2, -7, -1, 4, -1), 5),
    ((-3, -2, -3, 6, 6, -4), 5),
    ((-4, -1, 11, -2, -7, -3), 5),
    ((0, 2, 1, 2, -1, 0), 1),
    ((1, 3, 1, -3, -1, 1), 2),
    ((1, 1, -3, -1, 3, -1), 2),
]
_T4_DERIVED_C = ((-4, -1, 11, -2, -7, 3), 5)
_T4_DERIVED_D = ((0, -2, 1, 2, -1, 0), 1)


def _as_row(ints, den):
    return [F(c, den) for c in ints]


def test_full_linear_printed_c_and_d_rows_are_wrong():
    inv = symbolic_inverse(FAMILY_TEMPLATES[4])
    printed = [_as_row(*row) for row in _T4_PRINTED]

    # a, b, e, f as printed agree with the true inverse
    assert inv[0] == printed[0]
    assert inv[1] == printed[1]
    assert inv[4] == printed[4]
    assert inv[5] == printed[5]

    # c and d do not; the corrections flip exactly one sign each
    assert inv[2] != printed[2]
    assert inv[3] != printed[3]
    assert inv[2] == _as_row(*_T4_DERIVED_C)
    assert inv[3] == _as_row(*_T4_DERIVED_D)
    assert [printed[2][j] - inv[2][j] for j in range(6)] == [0, 0, 0, 0, 0, F(-6, 5)]
    assert [printed[3][j] - inv[3][j] for j in range(6)] == [0, 4, 0, 0, 0, 0]

    # the printed matrix is not an inverse of the system; the derived one is
    m = build_system(FAMILY_TEMPLATES[4])
    assert _matmul(printed, m) != _identity(6)
    assert _matmul(inv, m) == _identity(6)

    # row-by-row: the printed c/d rows fail to annihilate the other columns
    unit = _identity(6)
    assert _matmul([printed[2]], m)[0] != unit[2]
    assert _matmul([printed[3]], m)[0] != unit[3]
    assert _matmul([inv[2]], m)[0] == unit[2]
    assert _matmul([inv[3]], m)[0] == unit[3]


def test_full_linear_rows_against_worked_example():
    w = [0, 1, 2, 6, 12, 26]
    dot = lambda row: sum(c * v for c, v in zip(row, w))
    # derived rows reproduce the example coefficients c = 3/5, d = 0
    assert dot(_as_row(*_T4_DERIVED_C)) == F(3, 5)
    assert dot(_as_row(*_T4_DERIVED_D)) == 0
    # the printed rows do not
    assert dot(_as_row(*_T4_PRINTED[2])) == F(-153, 5)
    assert dot(_as_row(*_T4_PRINTED[3])) == 4


def test_theorem_construct_examples():
    assert theorem_solution(1, d=0, z=(1, 1, 3)).expr == A010049
    assert theorem_solution(2, f=0, z=(0, 1, 4, 12, 31)).expr == A129707
    assert theorem_solution(3, e=1, z=(1, 1, 1, 2)).expr == QUAD_LIN
    assert theorem_solution(4, w=(0, 1, 2, 6, 12, 26)).expr == WALKS_W


def test_theorem_construct_validation():
    with pytest.raises(ValueError):
        theorem_solution(5, d=0, z=(1, 1, 3))
    with pytest.raises(ValueError):
        theorem_solution(1, z=(1, 1, 3))
    with pytest.raises(ValueError):
        theorem_solution(1, d=0, z=(1, 1))
    with pytest.raises(ValueError):
        theorem_solution(1, d=0, e=0, z=(1, 1, 3))
    with pytest.raises(ValueError):
        theorem_solution(4, w=(0, 1, 2, 6, 12))
    with pytest.raises(ValueError):
        theorem_solution(4, w=(0, 1, 2, 6, 12, 26), d=1)
    with pytest.raises(ValueError):
        theorem_solution(2, f=F(1, 2), z=(0, 1, 4, 12, 31))
    with pytest.raises(ValueError, match="z entries must be integers, got Fraction"):
        theorem_solution(1, d=0, z=(1, F(1, 2), 3))
    with pytest.raises(ValueError, match="family 4 needs w"):
        theorem_solution(4)
    for which, base in ((1, "d"), (2, "f"), (3, "e")):
        with pytest.raises(ValueError, match=f"family {which} does not take w"):
            theorem_solution(which, **{base: 0}, z=(1, 1, 3), w=(0, 1, 2, 6, 12, 26))


def test_theorem_construct_matches_general_solver():
    rng = random.Random(109)
    for _ in range(30):
        base = rng.randint(-20, 20)
        z = [rng.randint(-20, 20) for _ in range(5)]
        w0 = base
        values = [w0] + [z[i - 1] + fib(i - 1) * w0 for i in range(1, 6)]

        via_rows = theorem_solution(2, f=base, z=tuple(z)).expr
        via_solver = solve_template(FAMILY_TEMPLATES[2], values).expr
        assert via_rows.canon() == via_solver.canon()

        via_rows = theorem_solution(1, d=base, z=tuple(z[:3])).expr
        via_solver = solve_template(FAMILY_TEMPLATES[1], values[:4]).expr
        assert via_rows.canon() == via_solver.canon()

        via_rows = theorem_solution(3, e=base, z=tuple(z[:4])).expr
        via_solver = solve_template(FAMILY_TEMPLATES[3], values[:5]).expr
        assert via_rows.canon() == via_solver.canon()

        # and coefficient for coefficient against the closed-form rows
        for which, zs in ((1, z[:3]), (2, z), (3, z[:4])):
            template = FAMILY_TEMPLATES[which]
            want = [F(sum(c * zi for c, zi in zip(row, zs)), den) for row, den in _Z_ROWS[which]]
            got = theorem_solution(which, **{template.slot_names[-1]: base}, z=tuple(zs))
            assert got.coefficients == dict(zip(template.slot_names, want + [F(base)]))


def test_theorem_solution_matches_reference():
    rng = random.Random(127)
    for which, template in FAMILY_TEMPLATES.items():
        k = template.unknowns
        for _ in range(200):
            params = [rng.randint(-50, 50) for _ in range(k)]
            if which == 4:
                got = theorem_solution(4, w=tuple(params))
                values = params
            else:
                base, z = params[0], params[1:]
                got = theorem_solution(which, **{template.slot_names[-1]: base}, z=tuple(z))
                values = [base] + [zi + fib(i - 1) * base for i, zi in enumerate(z, start=1)]
            coeffs = list(got.coefficients.values())
            assert coeffs == _reference_solve(template, values)
            assert all(type(c) is F for c in coeffs)


def _assembled_by_of(template, coeffs):
    """The expression FibExpr.of makes of the slots' coefficients: the
    reference that the solver's directly built expressions must equal."""
    parts = ([], [], [], [])
    for (part, _), c in zip(template.slots, coeffs):
        parts[part].append(F(c))
    p0, p1, const, alt = parts
    return FibExpr.of([(0, p0[::-1]), (1, p1[::-1])], sum(const), sum(alt))


def test_solved_expressions_are_built_in_normal_form():
    rng = random.Random(59)
    degrees = (None,) + tuple(range(17))
    solved = 0
    while solved < 150:
        shape = (rng.choice(degrees), rng.choice(degrees), rng.random() < 0.5, rng.random() < 0.5)
        if not 1 <= sum(d + 1 for d in shape[:2] if d is not None) + sum(shape[2:]) <= 34:
            continue
        t = Template(*shape)
        k = t.unknowns
        # zeros drop whole parts and leading coefficients, as the solver's answers can
        coeffs = [rng.choice((0, 0, 1, -3, F(2, 7))) for _ in range(k)]
        assert repr(t.expr_from(coeffs)) == repr(_assembled_by_of(t, coeffs))
        values = rng.choice(([0] * k, [fib(n) for n in range(k)], [1] * k, _mixed_values(rng, k)))
        try:
            sol = solve_template(t, values)
        except DegenerateTemplateError:
            continue
        assert repr(sol.expr) == repr(_assembled_by_of(t, list(sol.coefficients.values())))
        solved += 1


def test_synthesis_round_trip():
    rng = random.Random(113)
    for template in FAMILY_TEMPLATES.values():
        for _ in range(25):
            values = [rng.randint(-50, 50) for _ in range(template.unknowns)]
            sol = solve_template(template, values)
            assert [sol.expr.at(n) for n in range(template.unknowns)] == values
            assert isinstance(is_integer_sequence(sol.expr), Integral)
