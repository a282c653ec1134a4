"""Value-set computations: K0, Kinf, K, S_F."""

import random
from fractions import Fraction

import pytest
import sympy

from critvals.arcs import ArcShape
from critvals.groebner import ResourceLimits
from critvals.poly import Poly, VarTable, parse_poly, serialize_poly
from critvals.solve import (
    EXACT,
    SOUND_ONLY,
    SolveError,
    compute_k,
    compute_k0,
    compute_kinf,
    compute_sF,
    heuristic_shape,
)
from critvals.systems import build_system

from oracles import k0_univariate_oracle, package_coeffs

XY = VarTable(("x", "y"))
X = VarTable(("x",))


def P(text, vars=XY):
    return parse_poly(text, vars)


def real_root_floats(result, places=6):
    from critvals.univariate import refine_interval

    out = []
    for r in result.real_roots:
        refined = refine_interval(result.eliminant, r, Fraction(1, 10 ** (places + 2)))
        out.append(round(refined.approx(), places))
    return out


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

    def test_prebuilt_system_is_used_and_checked(self):
        f, shape = P("x + x^2*y"), ArcShape(n=2, D1=1, D2=1)
        bv = build_system(f, shape, "BV")
        assert compute_kinf(f, shape, system=bv) == compute_kinf(f, shape)
        with pytest.raises(SolveError):
            compute_k(f, shape, system=bv)  # K needs the GBV system
        with pytest.raises(SolveError):
            compute_kinf(f, ArcShape(n=2, D1=1, D2=2), system=bv)


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


class TestComputeSF:
    def test_blowup_map(self):
        res = compute_sF([P("x"), P("x*y")], ArcShape(n=2, D1=1, D2=1))
        gens = [serialize_poly(g) for g in res.ideal.generators]
        assert gens == ["y1"]
        # degree bound: deg <= (D * prod deg F_i - mu) / min deg = 1
        assert res.ideal.generators[0].total_degree() == 1

    def test_proper_map_unit_ideal(self):
        res = compute_sF([P("x"), P("y")], ArcShape(n=2, D1=1, D2=1))
        gens = [serialize_poly(g) for g in res.ideal.generators]
        assert gens == ["1"]

    def test_diagnostics_populated(self):
        res = compute_sF([P("x"), P("x*y")], ArcShape(n=2, D1=1, D2=1))
        assert res.diagnostics.variable_count == 8
        assert res.diagnostics.generator_count > 0
        assert res.diagnostics.basis_size > 0


class TestHeuristicShape:
    def test_formula(self):
        shape = heuristic_shape(P("x + x^2*y"))
        assert (shape.D1, shape.D2) == (3, 7)
        assert shape.bound_source == "user"

    def test_real_field_carried(self):
        assert heuristic_shape(P("x^2", X), field="real").field == "real"
