"""Arc engine: bounds, arc coordinates, Laurent substitution.

The integer kernel (`arcs.ArcPowers`, through `arcs.substitute`) is checked
against the Poly-level reference and the integer-series product in
tests/oracles.py."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvals.arcs import (
    ArcError,
    ArcPowers,
    ArcShape,
    paper_bounds_complex,
    paper_bounds_real,
    substitute,
)
from critvals.poly import Poly, VarTable, parse_poly, serialize_poly

from oracles import arc_coordinate, reference_substitute, series_product

XY = VarTable(("x", "y"))
X = VarTable(("x",))


class TestPaperBounds:
    def test_complex_values(self):
        assert paper_bounds_complex(2, 3) == (3, 7)
        assert paper_bounds_complex(2, 5) == (5, 21)
        assert paper_bounds_complex(1, 1) == (1, 1)

    def test_real_values(self):
        assert paper_bounds_real(2, 2) == (54, 55)
        assert paper_bounds_real(2, 3) == (176, 353)
        assert paper_bounds_real(1, 1) == (2, 1)

    def test_bad_arguments(self):
        with pytest.raises(ArcError):
            paper_bounds_complex(0, 3)
        with pytest.raises(ArcError):
            paper_bounds_real(2, 0)

    def test_overflow_guard(self):
        with pytest.raises(ArcError):
            paper_bounds_real(12, 9)


class TestArcShape:
    def test_variable_table_order(self):
        # i descending, then j ascending
        shape = ArcShape(n=2, D1=1, D2=1)
        assert shape.var_table().names == (
            "a[1][1]", "a[1][2]", "a[0][1]", "a[0][2]", "a[-1][1]", "a[-1][2]",
        )
        assert shape.num_vars == 6

    def test_var_index(self):
        shape = ArcShape(n=2, D1=1, D2=1)
        assert shape.var_index(1, 1) == 0
        assert shape.var_index(-1, 2) == 5
        with pytest.raises(ArcError):
            shape.var_index(2, 1)
        with pytest.raises(ArcError):
            shape.var_index(0, 3)

    def test_bad_shape(self):
        with pytest.raises(ArcError):
            ArcShape(n=0, D1=1, D2=1)
        with pytest.raises(ArcError):
            ArcShape(n=1, D1=-1, D2=0)


class TestArcCoordinate:
    # the reference's arc coordinates x_j(t) = {i: a[i][j]}
    def test_full_support(self):
        shape = ArcShape(n=1, D1=1, D2=1)
        s = arc_coordinate(shape, 1)
        t = shape.var_table()
        assert sorted(s) == [-1, 0, 1]
        assert s[1] == parse_poly("a[1][1]", t)
        assert s[0] == parse_poly("a[0][1]", t)
        assert s[-1] == parse_poly("a[-1][1]", t)

    def test_no_negative_part(self):
        shape = ArcShape(n=2, D1=1, D2=0)
        s = arc_coordinate(shape, 2)
        t = shape.var_table()
        assert sorted(s) == [0, 1]
        assert s[1] == parse_poly("a[1][2]", t)

    def test_constant_arc(self):
        shape = ArcShape(n=1, D1=0, D2=0)
        s = arc_coordinate(shape, 1)
        assert sorted(s) == [0]

    def test_index_out_of_range(self):
        with pytest.raises(ArcError):
            arc_coordinate(ArcShape(n=1, D1=1, D2=1), 2)


class TestSubstitute:
    def test_square_expansion(self):
        shape = ArcShape(n=1, D1=1, D2=1)
        t = shape.var_table()
        s = substitute(parse_poly("x^2", X), shape)
        assert s.coefficient_at(2) == parse_poly("a[1][1]^2", t)
        assert s.coefficient_at(1) == parse_poly("2*a[1][1]*a[0][1]", t)
        assert s.coefficient_at(0) == parse_poly("a[0][1]^2 + 2*a[1][1]*a[-1][1]", t)
        assert s.coefficient_at(-1) == parse_poly("2*a[0][1]*a[-1][1]", t)
        assert s.coefficient_at(-2) == parse_poly("a[-1][1]^2", t)

    def test_constant_polynomial(self):
        shape = ArcShape(n=2, D1=1, D2=1)
        s = substitute(Poly.const(XY, 7), shape)
        assert s.support() == [0]
        assert s.coefficient_at(0) == Poly.const(shape.var_table(), 7)

    def test_coefficient_outside_support(self):
        shape = ArcShape(n=1, D1=1, D2=1)
        s = substitute(parse_poly("x^2", X), shape)
        assert s.coefficient_at(5).is_zero()
        assert s.coefficient_at(-3).is_zero()

    def test_witness_arc_kills_nonnegative_powers(self):
        # x = -1/(2t), y = t gives f = -1/(2t) + t/(4t^2) = -1/(4t):
        # every coefficient at k >= 0 must vanish at this assignment.
        shape = ArcShape(n=2, D1=1, D2=1)
        s = substitute(parse_poly("x + x^2*y", XY), shape)
        a = [Fraction(0)] * shape.num_vars
        a[shape.var_index(-1, 1)] = Fraction(-1, 2)
        a[shape.var_index(1, 2)] = Fraction(1)
        for k in range(0, s.hi + 1):
            assert s.coefficient_at(k).eval_exact(a) == 0
        assert s.coefficient_at(-1).eval_exact(a) == Fraction(-1, 4)

    def test_arity_mismatch(self):
        with pytest.raises(ArcError):
            substitute(parse_poly("x", X), ArcShape(n=2, D1=1, D2=1))


# ---- property tests ----

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def polys_xy(draw, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = (
            draw(st.integers(min_value=0, max_value=max_degree)),
            draw(st.integers(min_value=0, max_value=max_degree)),
        )
        terms[mono] = draw(small_fractions)
    return Poly(XY, terms)


small_shapes = st.builds(
    ArcShape,
    n=st.just(2),
    D1=st.integers(min_value=0, max_value=2),
    D2=st.integers(min_value=0, max_value=2),
)


def _nonzero_times(s, c):
    """The nonzero terms of the integer series c * s."""
    scaled = {k: {m: v * c for m, v in terms.items() if v} for k, terms in s.items()}
    return {k: terms for k, terms in scaled.items() if terms}


@settings(max_examples=40, deadline=None)
@given(polys_xy(), polys_xy(), small_shapes)
def test_substitute_is_ring_homomorphism(p, q, shape):
    # the product side runs on the integer series substitute reads its
    # coefficients from: S(pq)/den = S(p)/den_p * S(q)/den_q, cross-multiplied
    d = max(p.total_degree(), 0) + max(q.total_degree(), 0)
    powers, lo = ArcPowers(shape, d), -d * shape.D2
    (spq, den), (sp, den_p), (sq, den_q) = (powers.series(r, lo) for r in (p * q, p, q))
    assert _nonzero_times(spq, den_p * den_q) == _nonzero_times(series_product(sp, sq), den)
    sp, sq = substitute(p, shape), substitute(q, shape)
    sums = {k: sp.coefficient_at(k) + sq.coefficient_at(k) for k in sp.coeffs.keys() | sq.coeffs}
    assert substitute(p + q, shape).coeffs == {k: c for k, c in sums.items() if not c.is_zero()}


@settings(max_examples=40, deadline=None)
@given(polys_xy(), small_shapes)
def test_support_soundness(p, shape):
    s = substitute(p, shape)
    d = max(p.total_degree(), 0)
    for k in s.support():
        assert -d * shape.D2 <= k <= d * shape.D1
    for q in s.coeffs.values():
        assert q.total_degree() <= max(p.total_degree(), 0)


@settings(max_examples=40, deadline=None)
@given(
    polys_xy(max_degree=2),
    st.integers(min_value=1, max_value=2),
)
def test_truncation_window(p, D1):
    # with D2 beyond the window, nonnegative t-powers never see deep
    # negative-index arc variables: i < -(deg p - 1) * D1 cannot occur
    d = max(p.total_degree(), 1)
    window = (d - 1) * D1
    shape = ArcShape(n=2, D1=D1, D2=window + 2)
    s = substitute(p, shape)
    for k in range(0, s.hi + 1):
        for index in s.coefficient_at(k).variables_used():
            i = shape.D1 - index // shape.n
            assert i >= -window, f"a-variable with t-exponent {i} in t^{k} coefficient"


@settings(max_examples=30, deadline=None)
@given(
    polys_xy(),
    small_shapes,
    st.lists(small_fractions, min_size=18, max_size=18),
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(-3, 2), Fraction(1, 3)]),
)
def test_numeric_consistency(p, shape, raw, t):
    a = raw[: shape.num_vars]
    x = []
    for j in range(1, shape.n + 1):
        x.append(
            sum(
                (a[shape.var_index(i, j)] * t**i for i in shape.exponent_range()),
                Fraction(0),
            )
        )
    s = substitute(p, shape)
    value = sum((c.eval_exact(a) * t**k for k, c in s.coeffs.items()), Fraction(0))
    assert value == p.eval_exact(x)


TABLES = {1: X, 2: XY, 3: VarTable(("x", "y", "z"))}
rational_coeffs = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=2, max_value=7),
)


@st.composite
def poly_and_shape(draw, kinds=("zero", "constant", "general")):
    n = draw(st.sampled_from([1, 2, 3]))
    table = TABLES[n]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        p = Poly.zero(table)
    elif kind == "constant":
        p = Poly.const(table, draw(rational_coeffs | small_fractions))
    else:
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            mono = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
            if sum(mono) <= 4:
                terms[mono] = draw(rational_coeffs | small_fractions)
        p = Poly(table, terms)
    shape = ArcShape(
        n=n,
        D1=draw(st.integers(min_value=0, max_value=2)),
        D2=draw(st.integers(min_value=0, max_value=2)),
    )
    return p, shape


@settings(max_examples=60, deadline=None)
@given(poly_and_shape())
def test_substitute_matches_poly_level_reference(case):
    p, shape = case
    got, want = substitute(p, shape), reference_substitute(p, shape)
    d = max(p.total_degree(), 0)
    assert got.coeffs == want
    assert got.support() == sorted(want)
    assert (got.lo, got.hi) == (-d * shape.D2, d * shape.D1)
    for k, c in want.items():
        assert serialize_poly(got.coefficient_at(k)) == serialize_poly(c)


@settings(max_examples=60, deadline=None)
@given(poly_and_shape(kinds=("general",)), st.integers(min_value=-2, max_value=2), st.data())
def test_truncated_series_and_coordinate_products(case, lo, data):
    # ArcPowers.series(p, lo) and x_i(t) * series are the t^k >= lo part of
    # the full substitutions of p and x_i * p.
    p, shape = case
    i = data.draw(st.integers(min_value=0, max_value=shape.n - 1))
    powers = ArcPowers(shape, max(p.total_degree() + 1, 0))
    s, den = powers.series(p, lo)
    xp = substitute(Poly.variable(p.vars, i) * p, shape)
    full = substitute(p, shape)
    h = powers.times_coordinate(i, s, lo + shape.D1)
    for k in range(lo, full.hi + 1):
        assert powers.coefficient(s, den, k) == full.coefficient_at(k)
    for k in range(lo + shape.D1, xp.hi + 1):
        assert powers.coefficient(h, den, k) == xp.coefficient_at(k)


@st.composite
def truncation_cases(draw):
    """p, a shape with D1 != D2 (either may be 0), and two floors lo over
    p's full t-range and a step past either end."""
    p, _ = draw(poly_and_shape(kinds=("constant", "general")))
    D1, D2 = draw(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)).filter(
            lambda b: b[0] != b[1]
        )
    )
    shape = ArcShape(n=p.vars.arity, D1=D1, D2=D2)
    d = max(p.total_degree(), 0)
    floors = st.integers(min_value=-d * D2 - 1, max_value=d * D1 + 1)
    return p, shape, draw(floors), draw(floors)


@settings(max_examples=60, deadline=None)
@given(truncation_cases())
def test_truncated_powers_match_the_full_substitution(case):
    # series(p, lo) keeps exactly the t^k >= lo of p(x(t)), and every power
    # x_j(t)^e the kernel memoised on the way, at whatever floor, is the
    # full power over k >= that floor; the second series may deepen them
    p, shape, *floors = case
    table = shape.var_table()
    powers = ArcPowers(shape, max(p.total_degree(), 0))
    want = reference_substitute(p, shape)
    for lo in floors:
        s, den = powers.series(p, lo)
        assert min(s, default=lo) >= lo
        for k in range(lo, max(p.total_degree(), 0) * shape.D1 + 1):
            assert powers.coefficient(s, den, k) == want.get(k, Poly.zero(table))
    for (j, e), (floor, power) in powers._powers.items():
        full = reference_substitute(Poly(p.vars, {tuple(e if i == j else 0 for i in range(shape.n)): 1}), shape)
        assert min(power, default=floor) >= floor
        for k in range(floor, e * shape.D1 + 1):
            assert powers.coefficient(power, 1, k) == full.get(k, Poly.zero(table))
