"""Univariate toolkit: squarefree part, root isolation, complex roots."""

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critvals import univariate
from critvals.poly import Poly, VarTable, parse_poly
from critvals.solve import REPORT_INTERVAL_WIDTH
from critvals.univariate import (
    ComplexRoot,
    RootInterval,
    UnivariateError,
    approx_complex_roots,
    isolate_real_roots,
    refine_interval,
    squarefree_part,
)
from oracles import (
    reference_approx_complex_roots,
    reference_isolate_real_roots,
    reference_newton,
    reference_refine_interval,
    reference_squarefree_part,
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
        intervals = isolate_real_roots(p)
        assert RootInterval(Fraction(0), Fraction(2)) in intervals
        refined = [refine_interval(p, r, width) for r in intervals]
        vals = [r.approx() for r in refined]
        assert len(vals) == 3
        for got, want in zip(vals, (-(2**0.5), 0.0, 2**0.5)):
            assert abs(got - want) < 1e-8

    def test_root_beyond_float_range_is_named(self):
        interval = RootInterval(Fraction(2 * 10**450 - 1), Fraction(2 * 10**450 + 1))
        with pytest.raises(UnivariateError, match=r"root in \[1\d+, 2\d+\] is beyond the float range"):
            interval.approx()


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

    def test_roots_of_a_wide_span_are_found_on_a_scaled_variable(self):
        # y^3 - 4*10^450 y spans about 1496 binades: divided by its largest
        # coefficient the leading one flushes to 0.0, so the roots 0 and
        # +-2*10^225 are found for p(2^s z) and scaled back
        roots = approx_complex_roots(P(f"y^3 - {4 * 10**450}*y"))
        assert [r.im for r in roots] == [0.0, 0.0, 0.0]
        assert roots[1].re == 0.0
        for r, want in zip(roots[::2], (-2e225, 2e225)):
            assert abs(r.re - want) <= 1e-12 * 2e225
            assert r.residual < 1e-10

    def test_roots_lost_to_the_scaling_raise(self):
        # the roots are +-2*10^450 i: scaled below 2^1001, the leading
        # coefficient becomes 0.0 and np.roots returns no root at all
        with pytest.raises(UnivariateError, match="0 of 2 complex roots"):
            approx_complex_roots(P(f"y^2 + {4 * 10**900}"))


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


@settings(max_examples=30, deadline=None)
@given(kernel_inputs())
def test_complex_roots_match_numpy_scalar_reference(p):
    sf = squarefree_part(p)
    try:
        want = reference_approx_complex_roots(sf)
    except UnivariateError:
        with pytest.raises(UnivariateError):
            approx_complex_roots(sf)
        return
    assert approx_complex_roots(sf) == want


# ---- Newton polishing: the cycle stop against the 60-step loop ----


def float_bits(z: complex) -> tuple[str, str]:
    """z's real and imaginary parts as hex: -0.0 and 0.0 differ."""
    return z.real.hex(), z.imag.hex()


def polishing_lists(coeffs: list[int]) -> tuple[list[float], list[float], np.ndarray]:
    """(desc, ddesc, guesses): the float lists approx_complex_roots polishes
    on, for an ascending integer list, and np.roots' starting points."""
    cf = univariate._unit_floats(coeffs, 1)
    deg = len(coeffs) - 1
    desc, ddesc = cf[::-1].tolist(), (cf[1:] * np.arange(1, deg + 1))[::-1].tolist()
    return desc, ddesc, np.roots(cf[::-1])


def test_newton_stops_at_its_first_cycle(monkeypatch):
    # polishing the real root of 2y^5 + 6y^4 - 6y^3 - y^2 - 7y + 9 never
    # meets the stop test, and its iterates fall into a cycle within a few
    # steps: the loop ends there, on the z of the 60-step loop
    desc, ddesc, guesses = polishing_lists([9, -7, -1, -6, 6, 2])
    z0 = complex(min(guesses, key=lambda z: abs(z.imag)))
    calls = []
    horner = univariate._horner
    monkeypatch.setattr(univariate, "_horner", lambda z, c: calls.append(1) or horner(z, c))
    z = univariate._newton(z0, desc, ddesc)
    assert len(calls) < 20
    assert float_bits(z) == float_bits(reference_newton(z0, desc, ddesc))
    fz, dz = horner(z, desc), horner(z, ddesc)
    assert fz != 0 and abs(fz / dz) >= 1e-17 * max(1.0, abs(z))


signed_floats = st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=12).filter(lambda c: c[-1]),
    st.one_of(st.integers(0, 11), st.builds(complex, signed_floats, signed_floats)),
)
# (y^2 + 3)(y^2 + 27) from -0.0 + 3*sqrt(3)i: the iterates repeat up to the
# sign of a zero real part, which a key without the signs mistakes for a cycle
@example([81, 0, 30, 0, 1], complex(-0.0, 5.196152422706631))
def test_newton_is_bitwise_the_60_step_loop(coeffs, start):
    # start: one of np.roots' guesses, or any z, signed zeros included
    desc, ddesc, guesses = polishing_lists(coeffs)
    z0 = complex(guesses[start % len(guesses)]) if isinstance(start, int) else start
    assert float_bits(univariate._newton(z0, desc, ddesc)) == float_bits(reference_newton(z0, desc, ddesc))


@settings(max_examples=30, deadline=None)
@given(kernel_inputs())
def test_complex_roots_are_bitwise_those_of_the_60_step_loop(p):
    sf = squarefree_part(p)
    try:
        with mock.patch.object(univariate, "_newton", reference_newton):
            want = approx_complex_roots(sf)
    except UnivariateError:
        with pytest.raises(UnivariateError):
            approx_complex_roots(sf)
        return

    def bits(roots):
        return [(*float_bits(complex(r.re, r.im)), r.residual.hex()) for r in roots]

    assert bits(approx_complex_roots(sf)) == bits(want)


# ---- the floating-point sign filter against exact rational signs ----


@st.composite
def sign_cases(draw):
    """(content-free integer list, point, k): degree at most 16, coefficients
    of 3 to 3000 bits, of one size or of mixed sizes spanning over 900
    binades, sometimes with a rational root a/b; the point is 0, that root,
    a dyadic neighbour of it, a midpoint of a refined isolating interval, a
    nonzero |x| below 1e-300, or |x| beyond the float range or near its edge.
    The sign is also read at (n * 2^k) / (d * 2^k), as bisection does."""
    sizes = st.sampled_from([3, 64, 1000, 3000])
    bits, mixed = draw(sizes), draw(st.booleans())

    def coefficient():
        b = draw(sizes) if mixed else bits
        return draw(st.integers(2 ** (b - 1), 2**b))

    coeffs = [draw(st.sampled_from([-1, 0, 1])) * coefficient() for _ in range(draw(st.integers(0, 15)))]
    coeffs.append(draw(st.sampled_from([-1, 1])) * coefficient())
    # an odd denominator: the root has no float, so points near it cancel
    root = Fraction(draw(st.integers(-(2**70), 2**70)), 2 * draw(st.integers(1, 2**40)) + 1)
    with_root = draw(st.booleans())
    if with_root:
        a, b = root.numerator, root.denominator
        coeffs = [x - y for x, y in zip([0] + [b * c for c in coeffs], [a * c for c in coeffs] + [0])]
    g = math.gcd(*coeffs)
    coeffs = [c // g for c in coeffs]
    # isolation is cheap unless the list is long with large or mixed sizes
    cheap = not mixed and (bits <= 64 or len(coeffs) <= 6)
    kind = draw(st.sampled_from(["zero", "tiny", "huge"] + ["root", "near"] * with_root + ["refined"] * cheap))
    sign = draw(st.sampled_from([-1, 1]))
    if kind == "zero":
        x = Fraction(0)
    elif kind == "root":
        x = root
    elif kind == "near":
        x = root + Fraction(sign, 2 ** draw(st.integers(40, 300)))
    elif kind == "refined":
        sf = squarefree_part(Poly(Y, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c}))
        intervals = isolate_real_roots(sf) or [RootInterval(Fraction(-1), Fraction(1))]
        interval = intervals[draw(st.integers(0, len(intervals) - 1))]
        x = refine_interval(sf, interval, Fraction(1, 2 ** draw(st.integers(0, 80)))).midpoint()
    elif kind == "tiny":
        x = sign * Fraction(draw(st.integers(1, 999)), 10 ** draw(st.integers(303, 400)))
    else:
        x = sign * draw(st.integers(1, 999)) * Fraction(10) ** draw(st.integers(250, 400))
    return coeffs, x, draw(st.integers(0, 64))


@settings(max_examples=150, deadline=None)
@given(sign_cases())
# the Cauchy bound of the eliminant y^2 - 4*10^450 of x^3 - 3*10^150*x
@example(([-4 * 10**450, 0, 1], Fraction(4 * 10**450 + 2), 0))
@example(([-4 * 10**450, 0, 1], Fraction(-4 * 10**450 - 2), 3))
# degree 12, 1036-bit coefficients over a 37-bit leading one: a squarefree
# list spanning 999 binades, its Cauchy bound near 2^1000
@example(([(-1) ** i * (2**1036 - 3 ** (i + 5)) for i in range(12)] + [2**36 + 1], Fraction(2**1036 - 3**5, 2**36 + 1) + 2, 0))
# 2^-70 above the root of 23y - 13: rounding alone sets the float sum's sign
@example(([-13, 23], Fraction(13, 23) + Fraction(1, 2**70), 0))
def test_filtered_sign_is_the_exact_sign(case):
    coeffs, x, k = case
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    n, d = x.numerator << k, x.denominator << k
    got = univariate._sign(coeffs, univariate._float_image(coeffs), n, d, univariate._float_point(n, d))
    assert got == (value > 0) - (value < 0)


def test_filter_settles_most_signs(monkeypatch):
    # a filter that stopped settling signs would stay correct, only slow
    golden = json.loads((Path(__file__).parent / "data" / "dense5_k0.json").read_text())
    p = P(golden["results"]["k0"]["eliminant"])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(univariate, "_sign", counted("sign", univariate._sign))
    monkeypatch.setattr(univariate, "_exact_sign", counted("exact", univariate._exact_sign))
    for interval in isolate_real_roots(p):
        refine_interval(p, interval, REPORT_INTERVAL_WIDTH)
    assert calls["sign"] > 100
    assert calls["sign"] - calls["exact"] >= 0.8 * calls["sign"]


Q = univariate._CERTIFICATE_PRIME


def count_prs(monkeypatch) -> Counter:
    calls = Counter()
    real = univariate._pdivmod

    def counted(a, b):
        calls["pdivmod"] += 1
        return real(a, b)

    monkeypatch.setattr(univariate, "_pdivmod", counted)
    return calls


@pytest.mark.parametrize(
    "text",
    [
        f"{Q}*y^2 + y - 1",  # q divides the leading coefficient
        f"(y - 1)*(y - 1 - {Q})",  # squarefree, but a double root 1 modulo q
        "(y^2 - 2)^2*(y + 1)",  # not squarefree
    ],
)
def test_squarefree_certificate_declines_when_it_must(monkeypatch, text):
    calls = count_prs(monkeypatch)
    p = P(text)
    assert squarefree_part(p) == reference_squarefree_part(p)
    assert calls["pdivmod"] > 0


def test_squarefree_certificate_skips_the_prs_on_the_dense5_eliminant(monkeypatch):
    golden = json.loads((Path(__file__).parent / "data" / "dense5_k0.json").read_text())
    p = P(golden["results"]["k0"]["eliminant"]) * Poly.const(Y, Fraction(-3, 7))
    calls = count_prs(monkeypatch)
    assert squarefree_part(p) == reference_squarefree_part(p)
    assert calls["pdivmod"] == 0
