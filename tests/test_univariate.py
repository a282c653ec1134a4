"""Univariate toolkit: squarefree part, root isolation, complex roots."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
        refined = [refine_interval(p, r, width) for r in isolate_real_roots(p)]
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
        for r in approx_complex_roots(p, tol):
            z = complex(r.re, r.im)
            val = sum(c * z**i for i, c in enumerate(coeffs))
            assert abs(val) < tol * norm * max(1.0, abs(z)) ** 5

    def test_count_matches_degree(self):
        assert len(approx_complex_roots(P("y^7 - y - 1"))) == 7

    def test_constant_has_no_roots(self):
        assert approx_complex_roots(P("3")) == []


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
