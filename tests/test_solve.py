"""Value-set computations: K0, Kinf, K, S_F."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import critvals.presolve
import critvals.solve
from critvals.arcs import ArcShape
from critvals.groebner import LimitExceeded, ResourceLimits
from critvals.poly import Poly, VarTable, parse_poly, serialize_poly
from critvals.presolve import presolve
from critvals.solve import (
    EXACT,
    Diagnostics,
    InternalInvariantError,
    SOUND_ONLY,
    SolveError,
    Y_TABLE,
    compute_k,
    compute_k0,
    compute_kinf,
    _eliminant,
    _eliminate_images,
    compute_sF,
    heuristic_shape,
)
from critvals.systems import EquationSystem, GeneratorTag, build_av_system, build_system
from critvals.univariate import squarefree_part

from oracles import k0_univariate_oracle, package_coeffs, reference_image_of_c0, reference_presolve

XY = VarTable(("x", "y"))
XYZ = VarTable(("x", "y", "z"))
X = VarTable(("x",))
# the dense degree-5 golden input; its K0 eliminant has degree 16
DENSE5 = (
    "-x^5 + x^4*y + x^3*y^2 + x^2*y^3 + x*y^4 - y^5 - x^4 + x^3*y + x^2*y^2 - x*y^3 + y^4"
    " + x^3 - x^2*y - x*y^2 + y^3 - x^2 - x*y - y^2 - x + y - 1"
)


def P(text, vars=XY):
    return parse_poly(text, vars)


def real_root_floats(result, places=6):
    from critvals.univariate import refine_interval

    out = []
    for r in result.real_roots:
        refined = refine_interval(result.eliminant, r, Fraction(1, 10 ** (places + 2)))
        out.append(round(refined.approx(), places))
    return out


class TestEliminateImages:
    def test_parabola_point(self):
        # the image of the point x = 2 under x^2
        pure, diag = _eliminate_images([P("x - 2", X)], [P("x^2", X)], ("y",), None)
        assert [serialize_poly(g) for g in pure] == ["y - 4"]
        assert pure[0].vars == VarTable(("y",))
        assert diag == Diagnostics(2, 2, 2)

    def test_unit_ideal_eliminates_to_unit(self):
        pure, _ = _eliminate_images([P("1", X)], [P("x", X)], ("y",), None)
        assert [serialize_poly(g) for g in pure] == ["1"]

    def test_projection_of_circle(self):
        # projecting the circle to the y-axis gives no constraint; the image
        # variable takes a fresh name internally because the source has y
        pure, diag = _eliminate_images([P("x^2 + y^2 - 1")], [P("y")], ("y",), None)
        assert pure == ()
        assert diag.variable_count == 3


class TestComputeK0:
    def test_cubic(self):
        res = compute_k0(P("x^3 - 3*x", X))
        assert res.eliminant == parse_poly("y^2 - 4", VarTable(("y",)))
        assert real_root_floats(res) == [-2.0, 2.0]
        assert res.completeness == EXACT

    def test_paraboloid(self):
        res = compute_k0(P("x^2 + y^2"))
        assert res.eliminant == parse_poly("y", VarTable(("y",)))
        assert real_root_floats(res) == [0.0]

    def test_no_critical_points(self):
        res = compute_k0(P("x + x^2*y"))
        assert res.empty
        assert res.real_roots == ()
        assert res.complex_roots == ()

    def test_quintic_bivariate(self):
        # critical points x = +-i, +-i/sqrt(5): values 0 and +-gamma*i
        res = compute_k0(P("x*(x^2+1)^2"))
        assert res.eliminant == parse_poly("3125*y^3 + 256*y", VarTable(("y",)))
        assert len(res.real_roots) == 1
        assert len(res.complex_roots) == 3

    def test_univariate_oracle_agreement(self):
        rng = random.Random(7)
        for _ in range(8):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(3, 6))]
            p = Poly(X, {(i,): c for i, c in enumerate(coeffs) if c})
            if p.total_degree() < 2:
                continue
            assert package_coeffs(compute_k0(p)) == k0_univariate_oracle(p)

    def test_constant_rejected(self):
        with pytest.raises(SolveError):
            compute_k0(Poly.const(X, 2))

    # critical loci that are not finite take the block elimination, whose
    # diagnostics count the image variable
    @pytest.mark.parametrize(
        "text, names, eliminant",
        [
            ("(x^2 + y^2 - 1)^2", "xy", "y^2 - y"),  # the circle and the origin
            ("x*(x^2+1)^2", "xy", "3125*y^3 + 256*y"),  # f is free of y
            ("(x*y - 1)^2 + z^2", "xyz", "y^2 - y"),  # the hyperbola xy = 1 and the origin
        ],
    )
    def test_positive_dimensional_critical_locus(self, text, names, eliminant):
        res = compute_k0(P(text, VarTable(tuple(names))))
        assert res.eliminant == parse_poly(eliminant, Y_TABLE)
        assert res.diagnostics.variable_count == len(names) + 1

    def test_tiny_budget_trips_with_the_exact_message(self):
        with pytest.raises(LimitExceeded) as err:
            compute_k0(P(DENSE5), ResourceLimits(wall_clock_budget=1e-6))
        assert str(err.value) == "wall_clock_budget: exceeded 1e-06s"

    def test_krylov_loop_gets_what_the_grevlex_run_left(self, monkeypatch):
        # the budget is spent by the time the Krylov loop would start
        real = critvals.solve.buchberger

        def slow(ideal, limits=None):
            gb = real(ideal, limits)
            time.sleep(0.2)
            return gb

        monkeypatch.setattr(critvals.solve, "buchberger", slow)
        with pytest.raises(LimitExceeded) as err:
            compute_k0(P(DENSE5), ResourceLimits(wall_clock_budget=0.2))
        assert str(err.value) == "wall_clock_budget: exceeded 0.2s"

    def test_coefficient_limit_holds_for_krylov_vectors(self):
        # the grevlex basis stays under 100 bits; the Krylov vectors do not
        with pytest.raises(LimitExceeded) as err:
            compute_k0(P(DENSE5), ResourceLimits(max_coefficient_bits=100))
        assert str(err.value).startswith("max_coefficient_bits: Krylov vector ")


@st.composite
def k0_inputs(draw):
    """f in 1 to 3 variables: plain (mostly a finite critical locus or
    none), a square (a critical hypersurface), or free of its last
    variable (a critical locus of cylinders); the last two take the
    block elimination when n > 1."""
    n = draw(st.integers(1, 3))
    table = VarTable(("x", "y", "z")[:n])
    kind = draw(st.sampled_from(("plain", "square", "partial")))
    degree = draw(st.integers(1, 2 if kind == "square" or n == 3 else 3))
    monos = [m for m in product(range(degree + 1), repeat=n) if sum(m) <= degree]
    if kind == "partial":
        monos = [m for m in monos if m[-1] == 0]
    terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-3, 3).filter(bool), min_size=1, max_size=5))
    g = Poly(table, {m: Fraction(c) for m, c in terms.items()})
    assume(g.total_degree() > 0)
    return g * g if kind == "square" else g


@settings(max_examples=100, deadline=None)
@given(k0_inputs())
def test_k0_quotient_route_equals_block_elimination(f):
    grads = [g for g in (f.partial_derivative(j) for j in range(f.vars.arity)) if not g.is_zero()]
    eliminant, _ = _eliminant(grads, f, None)
    expected = Poly.const(Y_TABLE, 1) if eliminant.is_constant() else squarefree_part(eliminant)
    assert compute_k0(f).eliminant == expected


class TestComputeKinf:
    def test_broughton_complex(self):
        res = compute_kinf(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1))
        assert res.eliminant == parse_poly("y", VarTable(("y",)))
        assert res.completeness == SOUND_ONLY

    def test_broughton_real_field(self):
        res = compute_kinf(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1, field="real"))
        assert real_root_floats(res) == [0.0]

    def test_quintic_complex(self):
        # 0 plus the purely imaginary pair +-gamma*i, gamma^2 = 256/3125
        res = compute_kinf(P("x*(x^2+1)^2"), ArcShape(n=2, D1=1, D2=0))
        assert res.eliminant == parse_poly("3125*y^3 + 256*y", VarTable(("y",)))
        assert real_root_floats(res) == [0.0]
        ims = sorted(round(r.im, 6) for r in res.complex_roots)
        gamma = (256 / 3125) ** 0.5
        assert ims == [round(-gamma, 6), 0.0, round(gamma, 6)]

    def test_linear_is_infeasible(self):
        res = compute_kinf(P("x", X), ArcShape(n=1, D1=1, D2=1))
        assert res.empty

    def test_paper_bounds_flagged_complete(self):
        shape = ArcShape(n=1, D1=1, D2=1, bound_source="paper")
        res = compute_kinf(P("x^2", X), shape)
        assert res.completeness == "paper-bounds-complete"

    def test_results_carry_the_system_they_eliminated(self):
        f, shape = P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1)
        assert compute_kinf(f, shape).system == build_system(f, shape, "BV")
        assert compute_k(f, shape).system == build_system(f, shape, "GBV")
        assert compute_k0(f).system is None
        F = [P("x"), P("x*y")]
        sf = compute_sF(F, shape)
        assert sf.system == build_av_system(F, shape)
        assert sf.image_variables == ("y1", "y2")


class TestComputeK:
    def test_cubic_matches_k0(self):
        k0 = compute_k0(P("x^3 - 3*x", X))
        k = compute_k(P("x^3 - 3*x", X), ArcShape(n=1, D1=1, D2=1))
        assert k.eliminant == k0.eliminant

    def test_broughton(self):
        res = compute_k(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1))
        assert res.eliminant == parse_poly("y", VarTable(("y",)))

    def test_k0_subset_of_k(self):
        rng = random.Random(21)
        y = sympy.Symbol("y")
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(3, 5))]
            p = Poly(X, {(i,): c for i, c in enumerate(coeffs) if c})
            if p.total_degree() < 2:
                continue
            k0 = compute_k0(p)
            k = compute_k(p, heuristic_shape(p))
            if k0.empty:
                continue
            e0 = sympy.Poly(list(reversed(package_coeffs(k0))), y)
            ek = sympy.Poly(list(reversed(package_coeffs(k))), y)
            assert sympy.rem(ek, e0, y) == 0, f"K0 not contained in K for {p}"

    def test_monotone_soundness_small(self):
        small = compute_kinf(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1))
        big = compute_kinf(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=2))
        y = sympy.Symbol("y")
        es = sympy.Poly(list(reversed(package_coeffs(small))), y)
        eb = sympy.Poly(list(reversed(package_coeffs(big))), y)
        assert sympy.rem(eb, es, y) == 0


# ---- metamorphic: a linear change of coordinates keeps every value set ----

# (f over X, Y, its K and Kinf eliminant at shape (1, 1))
PAPER_EXAMPLES = {
    "broughton": ("({X}) + ({X})^2*({Y})", "y"),
    "quintic": ("({X})*(({X})^2 + 1)^2", "3125*y^3 + 256*y"),
}
# A as the images of X and Y in x, y
LINEAR_MAPS = {"x+y": ("x + y", "y"), "x+2y": ("x + 2*y", "y"), "2x+3y,x+y": ("2*x + 3*y", "x + y")}
ESCAPING_ARCS_LOST = pytest.mark.xfail(
    strict=True,
    reason="the sum normalization of the BV system loses escaping arcs whose "
    "positive part lies in x + y = 0 (ROADMAP item 1: chart cover)",
)


def _value_sets_commute(compute, example, images):
    template, eliminant = PAPER_EXAMPLES[example]
    shape = ArcShape(n=2, D1=1, D2=1)
    want = parse_poly(eliminant, Y_TABLE)
    assert compute(P(template.format(X="x", Y="y")), shape).eliminant == want
    assert compute(P(template.format(X=images[0], Y=images[1])), shape).eliminant == want


@pytest.mark.parametrize("images", LINEAR_MAPS.values(), ids=LINEAR_MAPS)
@pytest.mark.parametrize("example", PAPER_EXAMPLES)
def test_k_of_f_composed_with_a_linear_map_is_k_of_f(example, images):
    # K eliminates the GBV system, which has no normalization
    _value_sets_commute(compute_k, example, images)


@pytest.mark.parametrize(
    "images",
    [
        pytest.param(images, id=name, marks=ESCAPING_ARCS_LOST if name == "x+y" else ())
        for name, images in LINEAR_MAPS.items()
    ],
)
@pytest.mark.parametrize("example", PAPER_EXAMPLES)
def test_kinf_of_f_composed_with_a_linear_map_is_kinf_of_f(example, images):
    _value_sets_commute(compute_kinf, example, images)


class TestComputeSF:
    def test_blowup_map(self):
        res = compute_sF([P("x"), P("x*y")], ArcShape(n=2, D1=1, D2=1))
        gens = [serialize_poly(g) for g in res.generators]
        assert gens == ["y1"]
        # degree bound: deg <= (D * prod deg F_i - mu) / min deg = 1
        assert res.generators[0].total_degree() == 1

    def test_proper_map_unit_ideal(self):
        res = compute_sF([P("x"), P("y")], ArcShape(n=2, D1=1, D2=1))
        gens = [serialize_poly(g) for g in res.generators]
        assert gens == ["1"]

    def test_diagnostics_populated(self):
        res = compute_sF([P("x"), P("x*y")], ArcShape(n=2, D1=1, D2=1))
        assert res.diagnostics.variable_count == 8
        assert res.diagnostics.generator_count > 0
        assert res.diagnostics.basis_size > 0


ABCD = VarTable(("a", "b", "c", "d"))


def branches(gens, c0):
    """presolve's branches as (table names, generator texts, c0 text)."""
    out = presolve([P(g, ABCD) for g in gens], P(c0, ABCD))
    return [
        (c0.vars.names, [serialize_poly(g) for g in gens], serialize_poly(c0)) for gens, c0 in out
    ]


class TestPresolve:
    def test_pure_power_sets_its_variable_to_zero(self):
        assert branches(["3*a^2", "b*c + a*d - 1"], "a + b") == [(("b", "c"), ["b*c - 1"], "b")]

    def test_linear_variable_is_substituted(self):
        # a occurs once, as 2*a: a := (b^2 + 1)/2 in the other generator and c0
        assert branches(["2*a - b^2 - 1", "a*c - 1"], "a") == [
            (("b", "c"), ["b^2*c + c - 2"], "1/2*b^2 + 1/2")
        ]

    def test_constant_generator_empties_the_branch(self):
        assert branches(["a - 1", "a - 2"], "a") == []

    def test_scalar_duplicates_and_monomial_multiples_are_dropped(self):
        # the last two are -3 times and d times the first; d then leaves the table
        gens = ["a*b - c^2", "3*c^2 - 3*a*b", "a*b*d - c^2*d"]
        assert branches(gens, "a + c") == [(("a", "b", "c"), ["a*b - c^2"], "a + c")]

    def test_split_on_a_monomial_factor(self):
        # a*(b^2 - 2): the branch a = 0, then the branch with b^2 - 2 in its place
        assert branches(["a*b^2 - 2*a"], "b + 1") == [
            (("b",), [], "b + 1"),
            (("b",), ["b^2 - 2"], "b + 1"),
        ]

    def test_equal_finished_branches_are_kept_once(self):
        # a*b*(c - 1): a = 0 and b = 0 finish equal; c - 1 substitutes c := 1
        assert branches(["a*b*c - a*b"], "c") == [(("c",), [], "c"), ((), [], "1")]

    def test_no_branch_reaches_buchberger_reports_zero_diagnostics(self):
        res = compute_kinf(P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1))
        assert res.eliminant == parse_poly("y", Y_TABLE)
        assert res.diagnostics == Diagnostics(0, 0, 0)

    def test_free_branch_with_nonconstant_c0_raises(self):
        # no equations left and c0 = a[1][1]: an infinite image, never a value set
        shape = ArcShape(n=1, D1=1, D2=0)
        table = shape.var_table()
        system = EquationSystem(
            shape, (), (Poly.variable(table, shape.var_index(1, 1)),), "BV", ()
        )
        with pytest.raises(InternalInvariantError):
            critvals.solve._image_of_c0(system, None)

    def test_branch_memo_keeps_the_k0_component(self):
        # a memo that also marked unfinished branches lost K0 here, giving y + 2
        f = P("3*x^3 + 3*x^2*y + 2*x*y^2 - 2*x - 2")
        res = compute_k(f, ArcShape(n=2, D1=1, D2=2))
        assert res.eliminant == parse_poly("405*y^3 + 2430*y^2 + 4604*y + 2728", Y_TABLE)

    def test_one_deadline_covers_every_branch(self):
        # the quintic's default-shape branch runs for many seconds; the
        # budget starts when the value set is entered, not per branch.  The
        # system is built outside the timed window
        f = P("x*(x^2+1)^2")
        system = build_system(f, heuristic_shape(f), "BV")
        entered = time.monotonic()
        with pytest.raises(LimitExceeded) as err:
            critvals.solve._image_of_c0(system, ResourceLimits(wall_clock_budget=0.5))
        assert str(err.value) == "wall_clock_budget: exceeded 0.5s"
        assert 0.5 < time.monotonic() - entered < 1.5

    def test_each_generator_is_factored_once_per_round(self, monkeypatch):
        # x^alpha*h is read once per nonzero generator a round prunes; the
        # rewrites and the split reuse it
        received, factored = [], []
        prune, content = critvals.presolve._prune, critvals.presolve._monomial_content

        def counted_prune(gens):
            received.append(sum(1 for g in gens if g))
            return prune(gens)

        def counted_content(p):
            factored.append(1)
            return content(p)

        monkeypatch.setattr(critvals.presolve, "_prune", counted_prune)
        monkeypatch.setattr(critvals.presolve, "_monomial_content", counted_content)
        system = build_system(P("x + x^2*y"), ArcShape(n=2, D1=3, D2=7), "BV")
        presolve(system.generators, system.c0[0])
        assert len(received) > 1 and len(factored) == sum(received)

    def test_deadline_covers_the_presolve(self):
        with pytest.raises(LimitExceeded) as err:
            compute_kinf(
                P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1), ResourceLimits(wall_clock_budget=1e-6)
            )
        assert str(err.value) == "wall_clock_budget: exceeded 1e-06s"

    @pytest.mark.parametrize("compute", [compute_kinf, compute_k])
    def test_deadline_covers_the_system_build(self, compute, monkeypatch):
        # the budget starts before substitution, so the default-shape
        # quintic's build trips it before presolve is reached
        def unreachable(*args):
            raise AssertionError("presolve reached")

        monkeypatch.setattr(critvals.solve, "presolve", unreachable)
        with pytest.raises(LimitExceeded) as err:
            compute(P("x*(x^2+1)^2"), ArcShape(n=2, D1=5, D2=21), ResourceLimits(wall_clock_budget=1e-6))
        assert (err.value.which, err.value.detail) == ("wall_clock_budget", "exceeded 1e-06s")

    def test_deadline_covers_the_map_system_build(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("elimination reached")

        monkeypatch.setattr(critvals.solve, "_eliminate_images", unreachable)
        with pytest.raises(LimitExceeded) as err:
            compute_sF([P("x"), P("x*y")], ArcShape(n=2, D1=5, D2=21), ResourceLimits(wall_clock_budget=1e-6))
        assert (err.value.which, err.value.detail) == ("wall_clock_budget", "exceeded 1e-06s")


MONOMIALS = [(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 3]


@st.composite
def arc_cases(draw):
    """A bivariate f of degree 2 or 3, a shape up to (2, 2), a field, a mode."""
    degree = draw(st.sampled_from((2, 3)))
    top = draw(st.sampled_from([m for m in MONOMIALS if sum(m) == degree]))
    rest = draw(
        st.lists(st.sampled_from([m for m in MONOMIALS if sum(m) <= degree]), max_size=3, unique=True)
    )
    coeff = st.integers(-3, 3).filter(bool)
    terms = {m: Fraction(draw(coeff)) for m in [top, *rest]}
    terms[(0, 0)] = Fraction(draw(st.integers(-3, 3)))
    f = Poly(XY, terms)
    assume(f.total_degree() == degree)
    shape = ArcShape(
        n=2,
        D1=draw(st.integers(1, 2)),
        D2=draw(st.integers(0, 2)),
        field=draw(st.sampled_from(("complex", "real"))),
    )
    return f, shape, draw(st.sampled_from(("BV", "GBV")))


@settings(max_examples=60, deadline=None)
@given(arc_cases())
def test_presolved_eliminant_equals_unpresolved(case):
    f, shape, mode = case
    system = build_system(f, shape, mode)
    unpresolved, _ = _eliminant(system.generators, system.c0[0], None)
    expected = Poly.const(Y_TABLE, 1) if unpresolved.is_constant() else squarefree_part(unpresolved)
    compute = compute_kinf if mode == "BV" else compute_k
    assert compute(f, shape).eliminant == expected


@settings(max_examples=60, deadline=None)
@given(arc_cases())
def test_presolve_matches_fraction_reference(case):
    # the same branches in the same order: tables, generators and c0
    f, shape, mode = case
    system = build_system(f, shape, mode)
    got = presolve(system.generators, system.c0[0])
    assert got == reference_presolve(system.generators, system.c0[0])


def test_equal_c0_over_different_denominators_is_kept_once():
    # the branch b = 0 ends with c0 = 0 at once; the other pivots on 2*b, so
    # its c0 reaches 0 over the denominator 2: one lowest-terms form for both
    assert branches(["-3*a*b - 2*b^2 - a*c", "a*b", "-2*b*d - 2*c"], "-2*a*b") == [((), [], "0")]


# (f, table, mode, (D1, D2)): presolve leaves branches whose c0 is a constant
SKIP_CASES = [
    ("x + x^2*y", XY, "BV", (1, 1)),
    ("x + x^2*y", XY, "BV", (2, 3)),
    ("x + x^2*y", XY, "BV", (3, 2)),
    ("x + x^2*y", XY, "BV", (3, 7)),
    ("x + x^2*y", XY, "GBV", (2, 1)),
    ("x + x^2*y", XY, "GBV", (3, 7)),
    ("y*(x*y-1)", XY, "BV", (3, 7)),
    ("y*(x*y-1)", XY, "GBV", (3, 7)),
    ("x + x^2*y + z^2", XYZ, "BV", (3, 7)),
    ("3*x^3 + 3*x^2*y + 2*x*y^2 - 2*x - 2", XY, "GBV", (1, 2)),
]


def counted_buchberger(monkeypatch) -> list:
    """The ideals solve hands to Buchberger from now on."""
    calls, real = [], critvals.solve.buchberger

    def counted(ideal, limits=None):
        calls.append(ideal)
        return real(ideal, limits)

    monkeypatch.setattr(critvals.solve, "buchberger", counted)
    return calls


class TestBranchSkip:
    @pytest.mark.parametrize(
        "text, table, mode, bounds", SKIP_CASES, ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in SKIP_CASES]
    )
    def test_skip_keeps_the_eliminant_of_every_branch(self, text, table, mode, bounds):
        shape = ArcShape(n=table.arity, D1=bounds[0], D2=bounds[1])
        system = build_system(P(text, table), shape, mode)
        assert critvals.solve._image_of_c0(system, None).eliminant == reference_image_of_c0(system)

    def test_default_shape_broughton_kinf_runs_no_buchberger(self, monkeypatch):
        # a generator-free branch gives y; the two others have c0 = 0
        calls = counted_buchberger(monkeypatch)
        f = P("x + x^2*y")
        res = compute_kinf(f, heuristic_shape(f))
        assert res.eliminant == parse_poly("y", Y_TABLE)
        assert calls == [] and res.diagnostics == Diagnostics(0, 0, 0)

    def test_root_of_a_nonconstant_branch_skips_a_constant_branch(self, monkeypatch):
        # over (a, b, c, d): d*(a - 1) splits into d = 0, whose c0 = a has
        # eliminant y^2 - 1, and a := 1, whose c0 is the constant 1.  Both
        # use two variables, so the d = 0 branch is visited first
        shape = ArcShape(n=2, D1=1, D2=0)
        table = shape.var_table()

        def over_shape(text):
            return Poly(table, dict(P(text, ABCD).terms()))

        gens = tuple(map(over_shape, ["a*d - d", "a^2 - 1", "b^2 + d^2 - 2"]))
        tags = tuple(GeneratorTag("c", (k,)) for k in range(3))
        system = EquationSystem(shape, gens, (over_shape("a"),), "GBV", tags)
        assert [(len(g), c0.vars.arity, c0.is_constant()) for g, c0 in presolve(gens, system.c0[0])] == [
            (2, 2, False),
            (1, 2, True),
        ]
        expected = reference_image_of_c0(system)
        calls = counted_buchberger(monkeypatch)
        res = critvals.solve._image_of_c0(system, None)
        assert res.eliminant == parse_poly("y^2 - 1", Y_TABLE) == expected
        assert len(calls) == 1 and res.diagnostics == Diagnostics(3, 3, 3)


class TestHeuristicShape:
    def test_formula(self):
        shape = heuristic_shape(P("x + x^2*y"))
        assert (shape.D1, shape.D2) == (3, 7)
        assert shape.bound_source == "user"

    def test_real_field_carried(self):
        assert heuristic_shape(P("x^2", X), field="real").field == "real"
