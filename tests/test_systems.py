"""System builder: generator families, witnesses, misuse."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critvals.arcs import ArcShape, substitute
from critvals.poly import Poly, VarTable, parse_poly
from critvals.systems import (
    GeneratorTag,
    SystemError,
    build_av_system,
    build_system,
    normalization_poly,
)

from oracles import reference_substitute

XY = VarTable(("x", "y"))
X = VarTable(("x",))


def P(text, vars=XY):
    return parse_poly(text, vars)


def witness_vector(shape, assignments):
    a = [Fraction(0)] * shape.num_vars
    for (i, j), v in assignments.items():
        a[shape.var_index(i, j)] = Fraction(v)
    return a


class TestBuildSystem:
    def test_constant_rejected(self):
        with pytest.raises(SystemError):
            build_system(Poly.const(XY, 3), ArcShape(n=2, D1=1, D2=1), "BV")

    def test_arc_variable_count(self):
        shape = ArcShape(n=2, D1=1, D2=1)
        assert shape.num_vars == 6
        sys = build_system(P("x + x^2*y"), shape, "BV")
        assert sys.shape.var_table().arity == 6

    def test_broughton_witness_satisfies_bv(self):
        shape = ArcShape(n=2, D1=1, D2=1, field="complex")
        sys = build_system(P("x + x^2*y"), shape, "BV")
        a = witness_vector(shape, {(-1, 1): Fraction(-1, 2), (1, 2): 1})
        for g, tag in zip(sys.generators, sys.provenance):
            assert g.eval_exact(a) == 0, f"generator {tag.label()} nonzero at witness"
        assert sys.c0[0].eval_exact(a) == 0

    def test_broughton_witness_real_variant(self):
        # same witness is real: it must satisfy the squared normalization too
        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        sys = build_system(P("x + x^2*y"), shape, "BV")
        a = witness_vector(shape, {(-1, 1): Fraction(-1, 2), (1, 2): 1})
        assert all(g.eval_exact(a) == 0 for g in sys.generators)

    def test_zero_vector_fails_bv_normalization(self):
        sys = build_system(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1), "BV")
        (norm,) = (g for g, tag in zip(sys.generators, sys.provenance) if tag.family == "norm")
        assert norm.eval_exact([0] * 6) == -1

    def test_constant_arc_satisfies_gbv_at_a_critical_point(self):
        # f = x^2: critical point 0; the all-zero arc satisfies GBV
        shape = ArcShape(n=1, D1=1, D2=1)
        assert all(g.eval_exact([0, 0, 0]) == 0 for g in build_system(P("x^2", X), shape, "GBV").generators)
        # ... but f = x + x^2 has gradient 1 at 0, so d[1][0] = 1 there
        assert not all(g.eval_exact([0, 0, 0]) == 0 for g in build_system(P("x + x^2", X), shape, "GBV").generators)

    def test_linear_f_is_infeasible(self):
        # df/dx = 1: the d-family contains the constant 1
        sys = build_system(P("x", X), ArcShape(n=1, D1=1, D2=1), "BV")
        consts = [g for g in sys.generators if g.is_constant() and not g.is_zero()]
        assert any(g.constant_value() == 1 for g in consts)

    def test_modes_differ_by_normalization_only(self):
        shape = ArcShape(n=2, D1=1, D2=1, field="complex")
        bv = build_system(P("x + x^2*y"), shape, "BV")
        gbv = build_system(P("x + x^2*y"), shape, "GBV")
        assert [t.family for t in bv.provenance].count("norm") == 1
        assert all(t.family != "norm" for t in gbv.provenance)
        assert set(gbv.generators) < set(bv.generators)

    def test_generator_family_counts(self):
        f = P("x + x^2*y")
        d = f.total_degree()
        shape = ArcShape(n=2, D1=2, D2=1)
        sys = build_system(f, shape, "BV")
        families = {}
        for tag in sys.provenance:
            families[tag.family] = families.get(tag.family, 0) + 1
        assert families["c"] <= d * shape.D1
        assert families["d"] <= 2 * ((d - 1) * shape.D1 + 1)
        assert families["e"] <= 4 * (d * shape.D1 + 1)
        assert families["norm"] == 1

    def test_generator_degrees(self):
        f = P("x + x^2*y")
        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        sys = build_system(f, shape, "BV")
        for g, tag in zip(sys.generators, sys.provenance):
            if tag.family == "norm":
                assert g.total_degree() == 2  # real: sum of squares
            else:
                assert g.total_degree() <= f.total_degree()
        complex_sys = build_system(f, ArcShape(n=2, D1=1, D2=1), "BV")
        norm = complex_sys.generators[-1]
        assert norm.total_degree() == 1

    def test_c0_degree_bound(self):
        f = P("x + x^2*y")
        sys = build_system(f, ArcShape(n=2, D1=1, D2=2), "GBV")
        assert sys.c0[0].total_degree() <= f.total_degree()

    def test_bv_requires_escaping_arc(self):
        with pytest.raises(SystemError):
            build_system(P("x + x^2*y"), ArcShape(n=2, D1=0, D2=1), "BV")

    def test_arity_mismatch(self):
        with pytest.raises(SystemError):
            build_system(P("x", X), ArcShape(n=2, D1=1, D2=1), "BV")


class TestAvSystem:
    def test_nonproper_witness(self):
        # x = 1/t, y = t: x -> 0, xy -> 1, so (0, 1) is a limit value
        shape = ArcShape(n=2, D1=1, D2=1, field="complex")
        sys = build_av_system([P("x"), P("x*y")], shape)
        a = witness_vector(shape, {(-1, 1): 1, (1, 2): 1})
        assert all(g.eval_exact(a) == 0 for g in sys.generators)
        assert [c.eval_exact(a) for c in sys.c0] == [0, 1]

    def test_proper_map_infeasible(self):
        # single coordinate map: positive powers force a[1][1] = 0,
        # the normalization forces a[1][1] = 1
        shape = ArcShape(n=1, D1=1, D2=1)
        sys = build_av_system([P("x", X)], shape)
        gens = set(sys.generators)
        t = shape.var_table()
        assert parse_poly("a[1][1]", t) in gens
        assert parse_poly("a[1][1] - 1", t) in gens

    def test_empty_map_rejected(self):
        with pytest.raises(SystemError):
            build_av_system([], ArcShape(n=1, D1=1, D2=1))


# ---- evaluation soundness: generators match an independent expansion ----

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)

T = VarTable(("t",))


def laurent_by_direct_expansion(p, shape, a):
    """f(x(t)) * t^(deg(f)*D2) as a univariate Poly in t, built without the
    Laurent engine: an independent oracle for coefficient extraction."""
    d = max(p.total_degree(), 0)
    xs = []
    for j in range(1, shape.n + 1):
        terms = {}
        for i in shape.exponent_range():
            v = a[shape.var_index(i, j)]
            if v:
                terms[(i + shape.D2,)] = v
        xs.append(Poly(T, terms))
    acc = Poly.zero(T)
    tpow = Poly.variable(T, 0)
    for mono, coeff in p.terms():
        term = Poly.const(T, coeff)
        used = 0
        for j, e in enumerate(mono):
            term = term * xs[j] ** e
            used += e
        term = term * tpow ** ((d - used) * shape.D2)
        acc = acc + term
    return acc


@settings(max_examples=30, deadline=None)
@given(
    st.lists(small_fractions, min_size=12, max_size=12),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=2),
)
def test_generator_values_match_direct_expansion(raw, D2, D1):
    f = P("x + x^2*y")
    shape = ArcShape(n=2, D1=D1, D2=D2)
    sys = build_system(f, shape, "GBV")
    a = raw[: shape.num_vars]
    direct = laurent_by_direct_expansion(f, shape, a)
    d = f.total_degree()
    series = substitute(f, shape)
    for k in range(-d * shape.D2, d * shape.D1 + 1):
        assert series.coefficient_at(k).eval_exact(a) == direct.coefficient((k + d * shape.D2,))
    for g, tag in zip(sys.generators, sys.provenance):
        if tag.family == "c":
            k = tag.indices[0]
            assert g.eval_exact(a) == direct.coefficient((k + d * shape.D2,))


# ---- every family against the Poly-level reference, in build order ----

bidegree_two = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
    small_fractions.filter(bool),
    max_size=5,
)


def reference_family(p, shape, ks, family, *indices):
    """(tag, t^k coefficient of p(x(t))) for each nonzero one with k in ks,
    read off `reference_substitute`."""
    series = reference_substitute(p, shape)
    return [(GeneratorTag(family, (*indices, k)), series[k]) for k in ks if k in series]


@settings(max_examples=25, deadline=None)
@given(
    bidegree_two,
    bidegree_two,
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["complex", "real"]),
)
def test_every_family_matches_the_reference_in_order(f_terms, g_terms, D1, D2, field):
    f, g = Poly(XY, f_terms), Poly(XY, g_terms)
    assume(f.total_degree() > 0)
    shape = ArcShape(n=2, D1=D1, D2=D2, field=field)
    table = shape.var_table()
    d = f.total_degree()
    grads = [f.partial_derivative(j) for j in range(2)]
    expected = reference_family(f, shape, range(1, d * D1 + 1), "c")
    for i, grad in enumerate(grads, start=1):
        expected += reference_family(grad, shape, range(0, (d - 1) * D1 + 1), "d", i)
    for i in range(1, 3):
        for j, grad in enumerate(grads, start=1):
            expected += reference_family(Poly.variable(XY, i - 1) * grad, shape, range(0, d * D1 + 1), "e", i, j)
    norm = [(GeneratorTag("norm", ()), normalization_poly(shape))]
    c0 = (reference_substitute(f, shape).get(0, Poly.zero(table)),)
    for mode, tail in (("BV", norm), ("GBV", [])):
        system = build_system(f, shape, mode)
        assert list(zip(system.provenance, system.generators)) == expected + tail
        assert system.c0 == c0 and system.mode == mode

    av = build_av_system([f, g], shape)
    expected = []
    for l, p in enumerate((f, g), start=1):
        expected += reference_family(p, shape, range(1, max(p.total_degree(), 0) * D1 + 1), "c", l)
    assert list(zip(av.provenance, av.generators)) == expected + norm
    assert av.c0 == tuple(reference_substitute(p, shape).get(0, Poly.zero(table)) for p in (f, g))


def test_tick_once_per_substituted_term():
    # the builders substitute f and its partials (the e-family reuses the
    # partials' series), or each map component; a deadline check rides on
    # every term
    f, shape, ticks = P("x + x^2*y + 3"), ArcShape(n=2, D1=1, D2=1), []
    for mode in ("BV", "GBV"):
        ticks.clear()
        build_system(f, shape, mode, lambda: ticks.append(1))
        assert len(ticks) == f.num_terms() + sum(f.partial_derivative(j).num_terms() for j in range(2))
    ticks.clear()
    build_av_system([P("x"), P("x*y + y")], shape, lambda: ticks.append(1))
    assert len(ticks) == 3
