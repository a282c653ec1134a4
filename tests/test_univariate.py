"""Univariate toolkit: squarefree part, root isolation, complex roots."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critvals.poly import Poly, VarTable, parse_poly
from critvals.univariate import (
    ComplexRoot,
    RootInterval,
    UnivariateError,
    approx_complex_roots,
    isolate_real_roots,
    refine_interval,
    squarefree_part,
    to_coefficients,
)
from oracles import reference_isolate_real_roots, reference_refine_interval, reference_squarefree_part

Y = VarTable(("y",))


def P(text):
    return parse_poly(text, Y)


class TestSquarefree:
    def test_cube(self):
        assert squarefree_part(P("y^3")) == P("y")

    def test_already_squarefree(self):
        assert squarefree_part(P("y^2 - 2")) == P("y^2 - 2")

    def test_content_removed(self):
        # 4y^2 - 8y + 4 = 4(y-1)^2 -> y - 1
        assert squarefree_part(P("4*y^2 - 8*y + 4")) == P("y - 1")

    def test_rational_coefficients_cleared(self):
        # 1/2 y^2 - 1/2 -> y^2 - 1 (content-free integers, positive lead)
        assert squarefree_part(P("1/2*y^2 - 1/2")) == P("y^2 - 1")

    def test_negative_lead_flipped(self):
        assert squarefree_part(P("-y^2 + 1")) == P("y^2 - 1")

    def test_constant(self):
        assert squarefree_part(P("5")) == P("1")

    def test_zero_rejected(self):
        with pytest.raises(UnivariateError):
            squarefree_part(Poly.zero(Y))


class TestRealRootIsolation:
    def test_single_real_root_of_cubic(self):
        # y(y^2 + 256/3125): only real root is 0
        roots = isolate_real_roots(P("y^3 + 256/3125*y"))
        assert len(roots) == 1
        r = roots[0]
        assert r.lo <= 0 <= r.hi

    def test_exact_rational_roots(self):
        roots = isolate_real_roots(P("y^2 - 4"))
        vals = set()
        for r in roots:
            refined = refine_interval(P("y^2 - 4"), r, Fraction(1, 10**6))
            vals.add(round(refined.approx()))
        assert vals == {-2, 2}

    def test_no_real_roots(self):
        assert isolate_real_roots(P("y^2 + 1")) == []

    def test_multiplicities_collapse(self):
        roots = isolate_real_roots(squarefree_part(P("(y - 1)^3")))
        assert len(roots) == 1

    def test_disjoint_and_ordered(self):
        p = P("(y - 1)*(y - 2)*(y + 3)*y")
        roots = isolate_real_roots(p)
        assert len(roots) == 4
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo

    def test_refine_width(self):
        p = P("y^2 - 2")
        root = [r for r in isolate_real_roots(p) if r.lo >= 0][0]
        refined = refine_interval(p, root, Fraction(1, 10**9))
        assert refined.hi - refined.lo <= Fraction(1, 10**9)
        assert abs(refined.approx() - 2**0.5) < 1e-8

    def test_exact_hit_collapses_to_point(self):
        roots = isolate_real_roots(P("y"))
        assert len(roots) == 1 and roots[0].exact and roots[0].lo == 0

    def test_adjacent_root_does_not_hijack_refinement(self):
        # roots -sqrt2, 0, sqrt2: the interval isolating sqrt2 may begin
        # exactly at the adjacent root 0, which must not be returned
        p = P("y^3 - 2*y")
        width = Fraction(1, 10**9)
        intervals = isolate_real_roots(p)
        assert RootInterval(Fraction(0), Fraction(2)) in intervals
        refined = [refine_interval(p, r, width) for r in intervals]
        vals = [r.approx() for r in refined]
        assert len(vals) == 3
        for got, want in zip(vals, (-(2**0.5), 0.0, 2**0.5)):
            assert abs(got - want) < 1e-8


class TestComplexRoots:
    def test_pure_imaginary_pair(self):
        roots = approx_complex_roots(P("y^2 + 1"))
        assert len(roots) == 2
        got = sorted((round(r.re, 8), round(r.im, 8)) for r in roots)
        assert got == [(0.0, -1.0), (0.0, 1.0)]

    def test_residual_certificates(self):
        p = P("y^5 - 3*y^2 + 7")
        tol = 1e-10
        coeffs = [float(c) for c in to_coefficients(p)]
        norm = max(abs(c) for c in coeffs)
        for r in approx_complex_roots(p):
            z = complex(r.re, r.im)
            val = sum(c * z**i for i, c in enumerate(coeffs))
            assert abs(val) < tol * norm * max(1.0, abs(z)) ** 5

    def test_count_matches_degree(self):
        assert len(approx_complex_roots(P("y^7 - y - 1"))) == 7

    def test_constant_has_no_roots(self):
        assert approx_complex_roots(P("3")) == []

    def test_coefficients_beyond_float_range(self):
        # 2^1100 overflows float(): the coefficients are scaled first
        roots = approx_complex_roots(P(f"{2**1100}*y^2 - {2**1100}*y + {2**1101}"))
        got = sorted((round(r.re, 8), round(r.im, 8)) for r in roots)
        assert got == [(0.5, round(-(7**0.5) / 2, 8)), (0.5, round(7**0.5 / 2, 8))]


# ---- property tests against constructed factorizations ----

rationals = st.builds(
    Fraction,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def factored_polys(draw):
    roots = draw(
        st.lists(rationals, min_size=1, max_size=4, unique=True)
    )
    mults = [draw(st.integers(min_value=1, max_value=2)) for _ in roots]
    lead = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
    p = Poly.const(Y, lead)
    y = Poly.variable(Y, 0)
    for r, m in zip(roots, mults):
        p = p * (y - Poly.const(Y, r)) ** m
    return p, sorted(roots)


@settings(max_examples=40, deadline=None)
@given(factored_polys())
def test_isolation_finds_exactly_the_roots(data):
    p, roots = data
    intervals = isolate_real_roots(squarefree_part(p))
    assert len(intervals) == len(roots)
    for interval, root in zip(intervals, roots):
        assert interval.lo <= root <= interval.hi
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi <= b.lo


@settings(max_examples=40, deadline=None)
@given(factored_polys())
def test_squarefree_drops_multiplicities(data):
    p, roots = data
    sf = squarefree_part(p)
    assert sf.total_degree() == len(roots)
    for r in roots:
        assert sf.eval_exact((r,)) == 0
    # squarefree: gcd(sf, sf') is constant, checked via isolation count
    assert len(isolate_real_roots(sf)) == len(roots)


# ---- the integer kernel against the Fraction reference in tests/oracles.py ----


@st.composite
def kernel_inputs(draw):
    """A rational multiple of: linear factors with dyadic and other rational
    roots (repeated ones too), an optional y^2 - k (irrational roots next to
    rational ones) and a dense factor, sometimes all taken at y^2.  Degree
    at most 16 with coefficients up to 2^64, or at most 8 with coefficients
    up to about 2^1000: at degree 16 and 2^1000 the reference takes seconds."""
    bits, top = draw(st.sampled_from([(3, 16), (64, 16), (1000, 8)]))
    even = draw(st.booleans())  # p(y^2): its Sturm chain skips degrees
    top //= 1 + even
    y = Poly.variable(Y, 0)
    rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 4, 8, 3, 5]))
    p = Poly.const(Y, 1)
    for r in draw(st.lists(rationals, max_size=top // 4)):
        p = p * (y - Poly.const(Y, r)) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        p = p * (y * y - Poly.const(Y, draw(st.sampled_from([2, 3, 5]))))
    # nonzero coefficients of one size keep the dense factor's roots near 1
    # in magnitude: a root near 2^-1000 or 2^1000 costs a thousand bisections
    size = st.integers(2 ** (bits - 1), 2**bits)
    dense = draw(st.lists(st.builds(lambda s, m: s * m, st.sampled_from([-1, 0, 1]), size), max_size=top - p.total_degree()))
    dense.append(draw(st.sampled_from([1, -1])) * draw(size))
    p = p * Poly(Y, {(i,): Fraction(c) for i, c in enumerate(dense) if c})
    if even:
        p = Poly(Y, {(2 * mono[0],): c for mono, c in p.terms()})
    scale = Fraction(draw(st.integers(1, 2**bits)), draw(st.integers(1, 1000)))
    return p * Poly.const(Y, -scale if draw(st.booleans()) else scale)


widths = st.one_of(st.just(Fraction(1, 10**12)), st.builds(lambda k: Fraction(1, 2**k), st.integers(0, 60)))


@settings(max_examples=50, deadline=None)
@given(kernel_inputs(), widths)
@example(P("y^3 - 2*y"), Fraction(1, 10**12))  # the interval of sqrt(2) starts at the root 0
@example(P("y*(2*y - 1)*(4*y + 3)*(y^2 - 2)"), Fraction(1, 2**40))
def test_integer_kernel_matches_fraction_reference(p, width):
    sf = squarefree_part(p)
    assert sf == reference_squarefree_part(p)
    intervals = isolate_real_roots(sf)
    assert intervals == reference_isolate_real_roots(sf)
    for interval in intervals:
        assert refine_interval(sf, interval, width) == reference_refine_interval(sf, interval, width)

