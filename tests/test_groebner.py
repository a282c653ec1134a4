"""Buchberger: pinned bases, block orders, determinism, membership, limits."""

import math
import time
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder, grevlex

import critvals.solve
from critvals.groebner import (
    GroebnerError,
    Ideal,
    LimitExceeded,
    ResourceLimits,
    _divides,
    _Entry,
    _lcm,
    _mul,
    _order,
    _quo,
    _reducer,
    _Run,
    _support,
    buchberger,
    minimal_polynomial,
)
from critvals.poly import Poly, VarTable, parse_poly, serialize_poly
from critvals.solve import Y_TABLE, _eliminate_images, heuristic_shape
from critvals.systems import build_system

from oracles import reference_minimal_polynomial, reference_normal_form

XY = VarTable(("x", "y"))
XYZ = VarTable(("x", "y", "z"))
# the dense degree-5 golden input; Q[x, y]/<grad> has dimension 16
DENSE5 = (
    "-x^5 + x^4*y + x^3*y^2 + x^2*y^3 + x*y^4 - y^5 - x^4 + x^3*y + x^2*y^2 - x*y^3 + y^4"
    " + x^3 - x^2*y - x*y^2 + y^3 - x^2 - x*y - y^2 - x + y - 1"
)
# a dense quartic whose gradient quotient has dimension 27
QUARTIC3 = "x^4 + y^4 + z^4 + x*y*z + x^2*y + y^2*z + z^2*x + x + 2*y + 3*z"


def P(text, vars=XY):
    return parse_poly(text, vars)


def lex_ideal(*texts):
    # on two variables, eliminating the first is the lex order x > y
    return Ideal(tuple(P(t) for t in texts), eliminate=1)


def grevlex_ideal(*texts, vars=XY):
    return Ideal(tuple(P(t, vars) for t in texts))


class TestBuchbergerPinned:
    def test_circle_and_line_lex(self):
        gb = buchberger(lex_ideal("x - y", "x^2 + y^2 - 1"))
        assert [serialize_poly(g) for g in gb.basis] == ["x - y", "2*y^2 - 1"]

    def test_unit_ideal(self):
        gb = buchberger(lex_ideal("x^2", "x - 1"))
        assert [serialize_poly(g) for g in gb.basis] == ["1"]
        gb2 = buchberger(grevlex_ideal("3"))
        assert [serialize_poly(g) for g in gb2.basis] == ["1"]

    def test_already_a_basis_grevlex(self):
        gb = buchberger(grevlex_ideal("x^2", "x*y"))
        assert [serialize_poly(g) for g in gb.basis] == ["x^2", "x*y"]

    def test_determinism_across_runs(self):
        ideal = grevlex_ideal("x^2 + y^2 - 1", "x*y - 1/2", "x^3 - y")
        outputs = set()
        for _ in range(3):
            gb = buchberger(ideal)
            outputs.add("|".join(serialize_poly(g) for g in gb.basis))
        assert len(outputs) == 1


class TestBasisInvariants:
    def test_leading_monomials_minimal(self):
        gb = buchberger(grevlex_ideal("x^2 + y^2 - 1", "x*y - 1/2", "x^3 - y"))
        lms = [next(g.terms())[0] for g in gb.basis]
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not all(x <= y for x, y in zip(a, b))

    def test_generators_reduce_to_zero(self):
        ideal = grevlex_ideal("x^2 + y^2 - 1", "x*y - 1/2")
        gb = buchberger(ideal)
        for g in ideal.generators:
            assert reference_normal_form(g, gb).is_zero()

    def test_content_free_positive_lead(self):
        gb = buchberger(lex_ideal("2*x - 2*y", "-3*y^2 + 3/2"))
        for g in gb.basis:
            coeffs = [c for _, c in g.terms()]
            assert all(c.denominator == 1 for c in coeffs)
            assert coeffs[0] > 0


class TestNormalForm:
    X = VarTable(("x",))

    def test_exact_value_not_a_scaled_multiple(self):
        gb = buchberger(grevlex_ideal("2*x - 1", vars=self.X))
        assert reference_normal_form(P("x^2 + 3", self.X), gb) == P("13/4", self.X)
        assert reference_normal_form(P("-x^2 - 3", self.X), gb) == P("-13/4", self.X)


class TestMinimalPolynomial:
    def test_first_dependence_is_minimal(self):
        # Q[x, y]/<x^2 - 2, y - x> has dimension 2; x^2 acts as 2
        gb = buchberger(grevlex_ideal("x^2 - 2", "y - x"))
        assert minimal_polynomial(P("x + y"), gb, Y_TABLE) == parse_poly("y^2 - 8", Y_TABLE)
        assert minimal_polynomial(P("x^2"), gb, Y_TABLE) == parse_poly("y - 2", Y_TABLE)

    def test_unit_ideal_gives_one(self):
        gb = buchberger(grevlex_ideal("x*y - 1", "x"))
        assert minimal_polynomial(P("x"), gb, Y_TABLE) == parse_poly("1", Y_TABLE)

    def test_positive_dimensional_gives_none(self):
        gb = buchberger(grevlex_ideal("x^2 - y^2"))
        assert minimal_polynomial(P("x"), gb, Y_TABLE) is None

    def test_krylov_loop_checks_the_clock(self):
        # the basis is ready before the call; the budget is spent inside it
        gb = buchberger(grevlex_ideal("x^5 - x*y - 3", "y^5 - 2*x^2 + y"))
        with pytest.raises(LimitExceeded, match="wall_clock_budget"):
            minimal_polynomial(P("x + 2*y"), gb, Y_TABLE, ResourceLimits(wall_clock_budget=1e-6))

    def test_krylov_loop_reduces_single_border_monomials(self, monkeypatch):
        # a loop that reduced p * v_k in full each step would stay correct, only slow
        f = P(DENSE5)
        gb = gradient_basis(f)
        lms = [next(g.terms())[0] for g in gb.basis]
        box = product(range(max(map(max, lms)) + 1), repeat=2)
        dim = sum(1 for m in box if not any(_divides(lm, m) for lm in lms))
        assert dim == 16
        sizes = []
        real = _Run.normal_form

        def recording(self, work, reducers):
            sizes.append(len(work))
            return real(self, work, reducers)

        monkeypatch.setattr(_Run, "normal_form", recording)
        minimal_polynomial(f, gb, Y_TABLE)
        # v_0 = NF(1), NF(f) and one per border monomial outside the standard set
        assert [s for s in sizes if s > 1] == [len(list(f.terms()))]
        assert len(sizes) <= 2 * dim + 2


class TestLimits:
    def test_max_pairs_trips(self):
        xyz = VarTable(("x", "y", "z"))
        ideal = Ideal((P("x^3 - 2*x*y", xyz), P("x^2*y - 2*y^2 + x", xyz), P("z^4 - x - y", xyz)))
        with pytest.raises(LimitExceeded) as err:
            buchberger(ideal, ResourceLimits(max_pairs=1))
        assert err.value.which == "max_pairs"

    def test_max_basis_size_holds_for_input_generators(self):
        xyz = VarTable(("x", "y", "z"))
        ideal = Ideal((P("x", xyz), P("y", xyz), P("z", xyz)))
        with pytest.raises(LimitExceeded) as err:
            buchberger(ideal, ResourceLimits(max_basis_size=2))
        assert err.value.which == "max_basis_size"
        assert str(err.value) == "max_basis_size: basis grew past 2 after 0 pairs (basis 2)"
        assert len(buchberger(ideal, ResourceLimits(max_basis_size=3)).basis) == 3

    def test_max_pairs_message_says_how_far_the_run_got(self):
        abcd = VarTable(("a", "b", "c", "d"))
        cyclic4 = Ideal(
            tuple(
                P(t, abcd)
                for t in ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1")
            )
        )
        with pytest.raises(LimitExceeded) as err:
            buchberger(cyclic4, ResourceLimits(max_pairs=5))
        assert err.value.which == "max_pairs"
        assert str(err.value) == "max_pairs: processed more than 5 pairs (basis 7)"

    def test_default_shape_budget_trips_promptly(self, monkeypatch):
        # the unpresolved BV system of x + x^2*y at the CLI's default shape
        # does not finish; the clock is checked per pair and every 32
        # reduction steps, so a 0.5 s budget trips well within 1.5 s of
        # entering buchberger
        f = P("x + x^2*y")
        system = build_system(f, heuristic_shape(f), "BV")
        entered = []

        def timed(ideal, limits=None):
            entered.append(time.monotonic())
            return buchberger(ideal, limits)

        monkeypatch.setattr(critvals.solve, "buchberger", timed)
        with pytest.raises(LimitExceeded) as err:
            _eliminate_images(
                system.generators, system.c0, ("y",), ResourceLimits(wall_clock_budget=0.5)
            )
        elapsed = time.monotonic() - entered[0]
        assert err.value.which == "wall_clock_budget"
        assert str(err.value) == "wall_clock_budget: exceeded 0.5s"
        assert 0.5 < elapsed < 1.5

    def test_reductions_check_the_clock(self):
        # x^100 against x - y takes 100 steps in one reduction; a run whose
        # budget is spent must stop inside it, not after it
        order = _order(2, 0)
        run = _Run(order, ResourceLimits(wall_clock_budget=1.0))
        x_minus_y = {order.encode((1, 0)): 1, order.encode((0, 1)): -1}
        reducer = _Entry(x_minus_y, order.encode((1, 0)), run, 1)
        run.basis.append(reducer)
        run.start -= 2.0
        with pytest.raises(LimitExceeded, match="wall_clock_budget"):
            run.top_reduce({order.encode((100, 0)): 1})
        with pytest.raises(LimitExceeded, match="wall_clock_budget"):
            run.normal_form({order.encode((100, 0)): 1}, [reducer])
        run.start += 2.0
        assert run.top_reduce({order.encode((100, 0)): 1}) == order.encode((0, 100))
        assert run.normal_form({order.encode((100, 0)): 1}, [reducer]) == (
            {order.encode((0, 100)): 1},
            Fraction(1),
        )

    def test_bad_limits_rejected(self):
        with pytest.raises(GroebnerError):
            ResourceLimits(max_pairs=0)
        # a nan budget would never trip: elapsed > nan is always false
        for budget in (math.nan, math.inf, -math.inf):
            with pytest.raises(GroebnerError, match="wall_clock_budget must be finite and positive"):
                ResourceLimits(wall_clock_budget=budget)

    def test_empty_ideal_rejected(self):
        with pytest.raises(GroebnerError):
            buchberger(Ideal(()))

    def test_zero_generator_rejected(self):
        with pytest.raises(GroebnerError):
            Ideal((Poly.zero(XY),))


class TestOrders:
    def test_block_order_is_elimination_order(self):
        # any monomial containing x compares above any pure-y monomial
        order = _order(2, 1)
        assert order.encode((1, 0)) > order.encode((0, 5))

    def test_encodings_are_pinned(self):
        # grevlex: (deg, -e_n, ..., -e_1); block: the two blocks' grevlex
        # encodings concatenated
        assert _order(3, 0).encode((1, 2, 3)) == (6, -3, -2, -1)
        assert _order(3, 1).encode((1, 2, 3)) == (1, -1, 5, -3, -2)
        assert _order(3, 2).encode((1, 2, 3)) == (3, -2, -1, 3, -3)
        assert _order(3, 3).encode((1, 2, 3)) == _order(3, 0).encode((1, 2, 3))

    @pytest.mark.parametrize("eliminate", [-1, 3])
    def test_eliminate_out_of_range_rejected(self, eliminate):
        with pytest.raises(GroebnerError, match=f"cannot eliminate {eliminate} of 2 variables"):
            Ideal((P("x - y"),), eliminate)


# ---- property tests ----

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def small_ideals(draw):
    terms_count = st.integers(min_value=1, max_value=3)
    polys = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        terms = {}
        for _ in range(draw(terms_count)):
            mono = (
                draw(st.integers(min_value=0, max_value=2)),
                draw(st.integers(min_value=0, max_value=2)),
            )
            terms[mono] = draw(small_fractions)
        p = Poly(XY, terms)
        if not p.is_zero():
            polys.append(p)
    if not polys:
        polys = [Poly.const(XY, 1)]
    return Ideal(tuple(polys))


@settings(max_examples=25, deadline=None)
@given(small_ideals())
def test_membership_both_ways(ideal):
    gb = buchberger(ideal, ResourceLimits(max_pairs=20_000, wall_clock_budget=60))
    # every input generator is in the ideal generated by the basis
    for g in ideal.generators:
        assert reference_normal_form(g, gb).is_zero()
    # every S-polynomial of basis pairs reduces to zero
    basis = gb.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            mi, ci = next(basis[i].terms())
            mj, cj = next(basis[j].terms())
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            si = Poly(XY, {tuple(l - a for l, a in zip(lcm, mi)): Fraction(1) / ci})
            sj = Poly(XY, {tuple(l - b for l, b in zip(lcm, mj)): Fraction(1) / cj})
            spoly = si * basis[i] - sj * basis[j]
            assert reference_normal_form(spoly, gb).is_zero()


# ---- the order-native kernel: encodings, monomial operations, oracle ----


@st.composite
def small_polys(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), small_fractions, max_size=5
        )
    )
    return Poly(XY, terms)


@settings(max_examples=40, deadline=None)
@given(small_ideals(), small_polys(), small_fractions.filter(bool))
def test_normal_form_is_a_linear_projection(ideal, p, c):
    gb = buchberger(ideal, ResourceLimits(max_pairs=20_000, wall_clock_budget=60))
    nf = reference_normal_form(p, gb)
    assert reference_normal_form(nf, gb) == nf
    assert reference_normal_form(p * Poly.const(XY, c), gb) == nf * Poly.const(XY, c)
    assert reference_normal_form(p - nf, gb).is_zero()


@st.composite
def orders_and_monos(draw, count=2):
    """(arity, eliminate) and `count` exponent tuples of that arity."""
    n = draw(st.integers(min_value=1, max_value=5))
    eliminate = draw(st.integers(min_value=0, max_value=n))
    exps = st.tuples(*[st.integers(min_value=0, max_value=6)] * n)
    return (n, eliminate), [draw(exps) for _ in range(count)]


def _sign(x):
    return (x > 0) - (x < 0)


def _grevlex_cmp(p, q):
    if sum(p) != sum(q):
        return _sign(sum(p) - sum(q))
    for a, b in zip(reversed(p), reversed(q)):
        if a != b:
            return _sign(b - a)  # smaller exponent in the last differing variable wins
    return 0


def _reference_cmp(eliminate, a, b):
    """Textbook comparison of table-order exponents under grevlex on the
    first `eliminate` variables, then grevlex on the rest: +1 if a > b."""
    k = eliminate
    return _grevlex_cmp(a[:k], b[:k]) or _grevlex_cmp(a[k:], b[k:])


@settings(max_examples=200, deadline=None)
@given(orders_and_monos())
def test_encoding_round_trips_and_orders(case):
    (n, eliminate), (a, b) = case
    order = _order(n, eliminate)
    ea, eb = order.encode(a), order.encode(b)
    assert order.decode(ea) == a and order.decode(eb) == b
    assert order.degree(ea) == sum(a)
    want = _reference_cmp(eliminate, a, b)
    assert _sign((ea > eb) - (ea < eb)) == want


@settings(max_examples=200, deadline=None)
@given(orders_and_monos())
def test_encoded_products_quotients_lcms_and_divisibility(case):
    (n, eliminate), (a, b) = case
    order = _order(n, eliminate)
    ab = tuple(x + y for x, y in zip(a, b))
    ea, eb = order.encode(a), order.encode(b)
    assert _mul(ea, eb) == order.encode(ab)
    assert order.decode(_quo(order.encode(ab), eb)) == a
    lcm = _lcm(a, b)
    assert lcm == tuple(max(x, y) for x, y in zip(a, b))
    assert _divides(a, lcm) and _divides(b, lcm)
    assert _divides(a, b) == all(x <= y for x, y in zip(a, b))
    if _divides(a, b):
        assert order.decode(_quo(eb, ea)) == tuple(y - x for x, y in zip(a, b))
        assert order.encode(a) <= order.encode(b)  # a term order refines divisibility


@settings(max_examples=100, deadline=None)
@given(orders_and_monos(count=6))
def test_mask_filtered_reducer_lookup(case):
    (n, eliminate), monos = case
    order = _order(n, eliminate)
    run = _Run(order, ResourceLimits())
    target, leads = monos[0], monos[1:]
    entries = []
    for lead in leads:
        lm = order.encode(lead)
        entries.append(_Entry({lm: 1}, lm, run, 0))
    found = _reducer(target, _support(target, run.bits), entries)
    want = next((e for e in entries if all(x <= y for x, y in zip(e.exps, target))), None)
    assert found is want
    for e in entries:
        assert e.mask == sum(1 << i for i, x in enumerate(e.exps) if x)


def _normalized(terms: dict) -> frozenset:
    """Content-free integer coefficients, positive at the largest monomial."""
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: int(c * lcm) for m, c in terms.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return frozenset((m, c // g) for m, c in ints.items())


@st.composite
def oracle_ideals(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    polys = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(n))
            terms[mono] = draw(small_fractions)
        polys.append(terms)
    return n, polys


@pytest.mark.parametrize("eliminate", [0, 1], ids=["grevlex", "block"])
@settings(max_examples=30, deadline=None)
@given(case=oracle_ideals())
def test_buchberger_matches_sympy(eliminate, case):
    n, polys = case
    table = VarTable(("x", "y", "z")[:n])
    gens = tuple(p for p in (Poly(table, t) for t in polys) if not p.is_zero())
    if not gens:
        gens = (Poly.const(table, 1),)
    gb = buchberger(Ideal(gens, eliminate), ResourceLimits(wall_clock_budget=60))
    order = _order(n, eliminate)

    symbols = sympy.symbols(table.names)
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(symbols, m))
            for m, c in g.terms())
        for g in gens
    ]
    if eliminate == 0:
        sympy_order = "grevlex"
    else:  # grevlex on the first variable, then grevlex on the rest
        sympy_order = ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))
    reference = sympy.groebner(exprs, *symbols, order=sympy_order)

    def key_of(terms):
        return _normalized({order.encode(m): c for m, c in terms.items()})

    ours = {key_of(dict(g.terms())) for g in gb.basis}
    theirs = {
        key_of({m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(e, *symbols).terms()})
        for e in reference.exprs
    }
    assert ours == theirs


# ---- the column-combining Krylov loop against the full-reduction loop ----


def gradient_basis(f):
    grads = tuple(g for g in (f.partial_derivative(j) for j in range(f.vars.arity)) if not g.is_zero())
    return buchberger(Ideal(grads))


@st.composite
def gradient_inputs(draw):
    """f in 1 to 3 variables of degree 3 to 5 (3 in three variables):
    dense, with a pure power of every variable at the top degree; separable,
    a sum of univariate parts, whose critical values repeat (so the minimal
    polynomial's degree falls below the quotient's dimension) and whose
    critical points may be multiple; or, from degree 4, the square of a
    quadratic plus a linear term."""
    n, top = draw(st.sampled_from([(1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3)]))
    table = VarTable(("x", "y", "z")[:n])
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    kind = draw(st.sampled_from(("dense", "separable", "square") if top > 3 else ("dense", "separable")))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if kind == "square":
        monos = [m for m in product(range(top // 2 + 1), repeat=n) if sum(m) <= top // 2]
        g = Poly(table, draw(st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=4)))
        return g * g + Poly(table, {units[draw(st.integers(0, n - 1))]: Fraction(draw(coeff))})
    if kind == "separable":
        monos = [tuple(d * e for e in u) for u in units for d in range(1, top + 1)]
    else:
        monos = [m for m in product(range(top + 1), repeat=n) if 1 < sum(m) <= top]
    terms = draw(st.dictionaries(st.sampled_from(monos), coeff, min_size=n, max_size=8))
    for u in units:
        terms[tuple(top * e for e in u)] = draw(coeff)
    return Poly(table, terms)


@settings(max_examples=60, deadline=None)
@given(gradient_inputs())
@example(P(DENSE5))
@example(P(QUARTIC3, XYZ))
@example(P("(x^2 + y^2 - 1)^2 + x"))
@example(P("x + y^2"))  # the unit ideal
def test_minimal_polynomial_matches_full_reduction(f):
    gb = gradient_basis(f)
    want = reference_minimal_polynomial(f, gb, Y_TABLE)
    assume(want is not None)
    assert minimal_polynomial(f, gb, Y_TABLE) == want


@settings(max_examples=40, deadline=None)
@given(gradient_inputs(), st.integers(1, 80))
@example(P(DENSE5), 300)
@example(P(QUARTIC3, XYZ), 200)
def test_minimal_polynomial_trips_the_coefficient_cap_on_the_same_krylov_vector(f, bits):
    gb = gradient_basis(f)
    limits = ResourceLimits(max_coefficient_bits=bits)

    def outcome(fn):
        try:
            return fn(f, gb, Y_TABLE, limits)
        except LimitExceeded as err:
            return str(err)

    assert outcome(minimal_polynomial) == outcome(reference_minimal_polynomial)
