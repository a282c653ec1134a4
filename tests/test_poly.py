"""Polynomial core: arithmetic, parsing, serialization, derivatives."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvals.poly import (
    ParseError,
    Poly,
    PolyError,
    VarTable,
    parse_poly,
    serialize_poly,
)

from oracles import (
    reference_add,
    reference_eval,
    reference_multiply,
    reference_partial_derivative,
    reference_power,
    reference_serialize,
)

XY = VarTable(("x", "y"))
X = VarTable(("x",))


def P(text, vars=XY):
    return parse_poly(text, vars)


class TestVarTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(PolyError):
            VarTable(("x", "x"))

    def test_index(self):
        assert XY.index("y") == 1
        with pytest.raises(PolyError):
            XY.index("z")


class TestParsing:
    def test_expand_product(self):
        # x*(x^2+1)^2 over [x, y] expands fully
        p = P("x*(x^2+1)^2")
        assert p == P("x^5 + 2*x^3 + x")
        assert p.total_degree() == 5

    def test_rational_literal(self):
        p = P("3/2*x + 1/3")
        assert p.coefficient((1, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 0)) == Fraction(1, 3)

    def test_unary_minus(self):
        assert P("-x + y") == P("y - x")
        assert P("-(x - y)") == P("y - x")
        assert P("x^2 - -y") == P("x^2 + y")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            P("2x")
        with pytest.raises(ParseError):
            P("x y")
        with pytest.raises(ParseError):
            P("2(x + 1)")

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as err:
            P("x + z^2")
        assert err.value.position == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            P("(x + 1")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            P("1/0")

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            P("x^y")
        with pytest.raises(ParseError):
            P("x^(2)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            P("")


class TestConstruction:
    @pytest.mark.parametrize("bad", [(1,), (1, 2, 0), (2, -1)])
    def test_bad_exponent_is_named(self, bad):
        for terms in ({bad: 1}, {(0, 0): 1, (1, 1): 2, bad: 3}):
            with pytest.raises(PolyError, match=re.escape(str(bad))):
                Poly(XY, terms)

    def test_constant_over_empty_table(self):
        p = Poly(VarTable(()), {(): Fraction(5, 2)})
        assert p.constant_value() == Fraction(5, 2) and p.total_degree() == 0
        assert serialize_poly(p) == "5/2"


class TestArithmetic:
    def test_square(self):
        assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")

    def test_mixed_table_rejected(self):
        with pytest.raises(PolyError):
            P("x") + parse_poly("x", X)

    def test_zero_degree_sentinel(self):
        assert Poly.zero(XY).total_degree() == -1
        assert Poly.const(XY, 5).total_degree() == 0

    def test_derivative(self):
        p = P("x^5 + 2*x^3 + x")
        assert p.partial_derivative(0) == P("5*x^4 + 6*x^2 + 1")
        assert p.partial_derivative(1).is_zero()

    def test_eval_exact(self):
        p = P("x + x^2*y")
        assert p.eval_exact((1, 2)) == 3
        assert p.eval_exact((Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 2) + Fraction(1, 12)

    def test_integer_terms(self):
        terms, den = P("1/2*x^2 - 2/3*y + 4").integer_terms()
        assert (terms, den) == ({(2, 0): 3, (0, 1): -4, (0, 0): 24}, 6)
        assert Poly.zero(XY).integer_terms() == ({}, 1)

    def test_negative_power_rejected(self):
        with pytest.raises(PolyError):
            P("x") ** -1


class TestSerialization:
    def test_canonical_forms(self):
        assert serialize_poly(P("x*(x^2+1)^2")) == "x^5 + 2*x^3 + x"
        assert serialize_poly(Poly.zero(XY)) == "0"
        assert serialize_poly(P("-x + 1")) == "-x + 1"
        assert serialize_poly(P("256/3125*y")) == "256/3125*y"
        assert serialize_poly(P("y - x^2")) == "-x^2 + y"

    def test_grevlex_term_order(self):
        # same total degree: grevlex puts x^2 before x*y before y^2
        assert serialize_poly(P("y^2 + x^2 + x*y")) == "x^2 + x*y + y^2"


# ---- property tests ----

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


@st.composite
def polys(draw, vars=XY, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_degree)) for _ in range(vars.arity)
        )
        terms[mono] = draw(small_fractions)
    return Poly(vars, terms)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(XY) == p
    assert p * Poly.const(XY, 1) == p
    assert (p - p).is_zero()


@settings(max_examples=60)
@given(polys(), polys(), st.integers(min_value=0, max_value=1))
def test_leibniz_rule(p, q, i):
    lhs = (p * q).partial_derivative(i)
    rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
    assert lhs == rhs


@settings(max_examples=60)
@given(polys(), polys(), small_fractions, small_fractions)
def test_eval_is_ring_homomorphism(p, q, a, b):
    pt = (a, b)
    assert (p + q).eval_exact(pt) == p.eval_exact(pt) + q.eval_exact(pt)
    assert (p * q).eval_exact(pt) == p.eval_exact(pt) * q.eval_exact(pt)


@settings(max_examples=60)
@given(polys())
def test_serialize_round_trip(p):
    assert parse_poly(serialize_poly(p), XY) == p


@settings(max_examples=40)
@given(polys(), polys())
def test_degree_of_product(p, q):
    # over a domain: deg(pq) = deg p + deg q (with -1 convention for zero)
    if p.is_zero() or q.is_zero():
        assert (p * q).total_degree() == -1
    else:
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


@st.composite
def integer_polys(draw, vars=XY):
    """A Poly built from integer numerators over a denominator, often not
    in lowest terms."""
    numerators = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * vars.arity),
            st.integers(min_value=-12, max_value=12),
            max_size=5,
        )
    )
    return Poly(vars, numerators, draw(st.integers(min_value=1, max_value=12)))


any_polys = st.one_of(polys(), integer_polys())


@settings(max_examples=80)
@given(any_polys, any_polys, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=1))
def test_arithmetic_matches_fraction_reference(p, q, e, i):
    fp, fq = dict(p.terms()), dict(q.terms())
    assert all(fp.values()) and all(isinstance(c, Fraction) for c in fp.values())
    assert dict((p + q).terms()) == reference_add(fp, fq)
    assert dict((p - q).terms()) == reference_add(fp, {m: -c for m, c in fq.items()})
    assert dict((p * q).terms()) == reference_multiply(fp, fq)
    assert dict((p**e).terms()) == reference_power(fp, e, XY.arity)
    assert dict(p.partial_derivative(i).terms()) == reference_partial_derivative(fp, i)


@settings(max_examples=80)
@given(any_polys, small_fractions, small_fractions)
def test_eval_and_serialize_match_fraction_reference(p, a, b):
    fp = dict(p.terms())
    assert p.eval_exact((a, b)) == reference_eval(fp, (a, b))
    assert serialize_poly(p) == reference_serialize(XY.names, fp)


@settings(max_examples=80)
@given(any_polys, st.integers(min_value=1, max_value=50))
def test_one_canonical_form_per_polynomial(p, k):
    terms, den = p.integer_terms()
    assert math.gcd(den, *terms.values()) == 1 and den >= 1
    assert Poly(p.vars, *p.integer_terms()) == p
    scaled = Poly(p.vars, {m: c * k for m, c in terms.items()}, den * k)
    assert scaled == p and hash(scaled) == hash(p)
    rational = Poly(p.vars, dict(p.terms()))
    assert rational == p and hash(rational) == hash(p)
    twin = Poly(p.vars, dict(reversed(terms.items())), den)
    assert twin == p and hash(twin) == hash(p)
    assert serialize_poly(twin) == serialize_poly(p) and list(twin.terms()) == list(p.terms())
    assert twin.total_degree() == p.total_degree()
    for bad in (0, -den):
        with pytest.raises(PolyError):
            Poly(p.vars, terms, bad)


@settings(max_examples=80)
@given(
    st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
        st.integers(min_value=-12, max_value=12),
        max_size=6,
    ),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([(1,), (1, 2, 0), (2, -1)]),
)
def test_kernel_constructor_matches_checked_constructor(terms, den, shared, bad):
    # integer terms as a kernel builds them: zeros left in, and a factor
    # shared by every numerator and the denominator
    terms = {m: c * shared for m, c in terms.items()}
    den *= shared
    checked = Poly(XY, terms, den)
    kernel = Poly._from_kernel(XY, dict(terms), den)
    assert kernel == checked and hash(kernel) == hash(checked)
    assert kernel.integer_terms() == checked.integer_terms()
    assert serialize_poly(kernel) == serialize_poly(checked)
    # untrusted input still goes through every check
    with pytest.raises(PolyError, match=re.escape(str(bad))):
        Poly(XY, {**terms, bad: 1}, den)
