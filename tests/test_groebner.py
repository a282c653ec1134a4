"""Buchberger and elimination: pinned bases, determinism, membership."""

import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import critvals.solve
from critvals.groebner import (
    GroebnerError,
    Ideal,
    LimitExceeded,
    ResourceLimits,
    TermOrder,
    _divides,
    _Entry,
    _lcm,
    _mul,
    _quo,
    _reducer,
    _Run,
    _support,
    block_elim_order,
    buchberger,
    eliminate,
    grevlex_order,
    lex_order,
    normal_form,
)
from critvals.poly import Poly, VarTable, parse_poly, serialize_poly
from critvals.solve import compute_kinf, heuristic_shape

XY = VarTable(("x", "y"))


def P(text, vars=XY):
    return parse_poly(text, vars)


def lex_ideal(*texts, vars=XY):
    return Ideal(tuple(P(t, vars) for t in texts), lex_order(vars.arity))


def grevlex_ideal(*texts, vars=XY):
    return Ideal(tuple(P(t, vars) for t in texts), grevlex_order(vars.arity))


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
            assert normal_form(g, gb).is_zero()

    def test_content_free_positive_lead(self):
        gb = buchberger(lex_ideal("2*x - 2*y", "-3*y^2 + 3/2"))
        for g in gb.basis:
            coeffs = [c for _, c in g.terms()]
            assert all(c.denominator == 1 for c in coeffs)
            assert coeffs[0] > 0


class TestEliminate:
    def test_parabola_point(self):
        ideal = lex_ideal("y - x^2", "x - 2")
        out = eliminate(ideal, keep={1})
        assert [serialize_poly(g) for g in out.generators] == ["y - 4"]

    def test_unit_ideal_eliminates_to_unit(self):
        out = eliminate(lex_ideal("1"), keep={1})
        assert [serialize_poly(g) for g in out.generators] == ["1"]

    def test_projection_of_circle(self):
        # projecting the circle to the y-axis gives no constraint
        out = eliminate(grevlex_ideal("x^2 + y^2 - 1"), keep={1})
        assert out.generators == ()

    def test_invalid_keep(self):
        with pytest.raises(GroebnerError):
            eliminate(grevlex_ideal("x"), keep={5})


class TestLimits:
    def test_max_pairs_trips(self):
        xyz = VarTable(("x", "y", "z"))
        ideal = Ideal(
            (P("x^3 - 2*x*y", xyz), P("x^2*y - 2*y^2 + x", xyz), P("z^4 - x - y", xyz)),
            grevlex_order(3),
        )
        with pytest.raises(LimitExceeded) as err:
            buchberger(ideal, ResourceLimits(max_pairs=1))
        assert err.value.which == "max_pairs"

    def test_max_pairs_message_says_how_far_the_run_got(self):
        abcd = VarTable(("a", "b", "c", "d"))
        cyclic4 = Ideal(
            tuple(
                P(t, abcd)
                for t in ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1")
            ),
            grevlex_order(4),
        )
        with pytest.raises(LimitExceeded) as err:
            buchberger(cyclic4, ResourceLimits(max_pairs=5))
        assert err.value.which == "max_pairs"
        assert str(err.value) == "max_pairs: processed more than 5 pairs (basis 7)"

    def test_default_shape_budget_trips_promptly(self, monkeypatch):
        # the CLI's default shape for x + x^2*y does not finish; the clock is
        # checked per pair and every 32 reduction steps, so a 0.5 s budget
        # trips well within 1.5 s of entering buchberger
        f = P("x + x^2*y")
        entered = []

        def timed(ideal, limits=None):
            entered.append(time.monotonic())
            return buchberger(ideal, limits)

        monkeypatch.setattr(critvals.solve, "buchberger", timed)
        with pytest.raises(LimitExceeded) as err:
            compute_kinf(f, heuristic_shape(f), ResourceLimits(wall_clock_budget=0.5))
        elapsed = time.monotonic() - entered[0]
        assert err.value.which == "wall_clock_budget"
        assert str(err.value) == "wall_clock_budget: exceeded 0.5s"
        assert 0.5 < elapsed < 1.5

    def test_reductions_check_the_clock(self):
        # x^100 against x - y takes 100 steps in one reduction; a run whose
        # budget is spent must stop inside it, not after it
        order = grevlex_order(2)
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
        assert run.normal_form({order.encode((100, 0)): 1}, [reducer]) == {order.encode((0, 100)): 1}

    def test_bad_limits_rejected(self):
        with pytest.raises(GroebnerError):
            ResourceLimits(max_pairs=0)

    def test_empty_ideal_rejected(self):
        with pytest.raises(GroebnerError):
            buchberger(Ideal((), grevlex_order(2)))

    def test_zero_generator_rejected(self):
        with pytest.raises(GroebnerError):
            Ideal((Poly.zero(XY),), grevlex_order(2))


class TestOrders:
    def test_block_order_is_elimination_order(self):
        # any monomial containing x compares above any pure-y monomial
        order = block_elim_order(2, eliminate=[0])
        assert order.key(order.permute((1, 0))) > order.key(order.permute((0, 5)))

    def test_bad_permutation(self):
        with pytest.raises(GroebnerError):
            from critvals.groebner import TermOrder

            TermOrder("lex", (0, 0))


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
    return Ideal(tuple(polys), grevlex_order(2))


@settings(max_examples=25, deadline=None)
@given(small_ideals())
def test_membership_both_ways(ideal):
    gb = buchberger(ideal, ResourceLimits(max_pairs=20_000, wall_clock_budget=60))
    # every input generator is in the ideal generated by the basis
    for g in ideal.generators:
        assert normal_form(g, gb).is_zero()
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
            assert normal_form(spoly, gb).is_zero()


# ---- the order-native kernel: encodings, monomial operations, oracle ----


@st.composite
def orders_and_monos(draw, count=2):
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["lex", "grevlex", "block"]))
    var_order = tuple(draw(st.permutations(range(n))))
    split = draw(st.integers(min_value=0, max_value=n)) if kind == "block" else 0
    exps = st.tuples(*[st.integers(min_value=0, max_value=6)] * n)
    return TermOrder(kind, var_order, split), [draw(exps) for _ in range(count)]


def _sign(x):
    return (x > 0) - (x < 0)


def _grevlex_cmp(p, q):
    if sum(p) != sum(q):
        return _sign(sum(p) - sum(q))
    for a, b in zip(reversed(p), reversed(q)):
        if a != b:
            return _sign(b - a)  # smaller exponent in the last differing variable wins
    return 0


def _reference_cmp(order, a, b):
    """Textbook comparison of table-order exponents: +1 if a > b."""
    p, q = order.permute(a), order.permute(b)
    if order.kind == "lex":
        return _sign((p > q) - (p < q))
    if order.kind == "grevlex":
        return _grevlex_cmp(p, q)
    k = order.split
    return _grevlex_cmp(p[:k], q[:k]) or _grevlex_cmp(p[k:], q[k:])


@settings(max_examples=200, deadline=None)
@given(orders_and_monos())
def test_encoding_round_trips_and_orders(case):
    order, (a, b) = case
    ea, eb = order.encode(a), order.encode(b)
    assert order.decode(ea) == a and order.decode(eb) == b
    assert order.degree(ea) == sum(a)
    want = _reference_cmp(order, a, b)
    assert _sign((ea > eb) - (ea < eb)) == want
    ka, kb = order.key(order.permute(a)), order.key(order.permute(b))
    assert _sign((ka > kb) - (ka < kb)) == want


@settings(max_examples=200, deadline=None)
@given(orders_and_monos())
def test_encoded_products_quotients_lcms_and_divisibility(case):
    order, (a, b) = case
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
    order, monos = case
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


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
@settings(max_examples=30, deadline=None)
@given(case=oracle_ideals())
def test_buchberger_matches_sympy(kind, case):
    n, polys = case
    table = VarTable(("x", "y", "z")[:n])
    gens = tuple(p for p in (Poly(table, t) for t in polys) if not p.is_zero())
    if not gens:
        gens = (Poly.const(table, 1),)
    order = (lex_order if kind == "lex" else grevlex_order)(n)
    gb = buchberger(Ideal(gens, order), ResourceLimits(wall_clock_budget=60))

    symbols = sympy.symbols(table.names)
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(symbols, m))
            for m, c in g.terms())
        for g in gens
    ]
    reference = sympy.groebner(exprs, *symbols, order=kind)

    def key_of(terms):
        return _normalized({order.encode(m): c for m, c in terms.items()})

    ours = {key_of(dict(g.terms())) for g in gb.basis}
    theirs = {
        key_of({m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(e, *symbols).terms()})
        for e in reference.exprs
    }
    assert ours == theirs
