"""Certifier and Malgrange probe: witnesses, determinism, decay shapes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_certify_zero, reference_monomials, reference_probe_steps

from critvals import certify, cli
from critvals.arcs import ArcShape
from critvals.certify import (
    CompiledSystem,
    CertifyConfig,
    CertifyError,
    ProbeTrace,
    ProbeRow,
    _levenberg_marquardt,
    _probe_steps,
    certify_critical_point,
    certify_real,
    certify_zero,
    compile_arc_system,
    compile_critical_point_system,
    malgrange_probe,
)
from critvals.cli import RunConfig, run
from critvals.poly import Poly, VarTable, parse_poly
from critvals.systems import build_system

XY = VarTable(("x", "y"))
X = VarTable(("x",))
BROUGHTON = parse_poly("x + x^2*y", XY)
QUINTIC = parse_poly("x*(x^2+1)^2", XY)


class TestVerifyArc:
    def test_broughton_witness(self):
        # the certifier's float form of BV is zero at Broughton's exact witness
        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        a = np.zeros(shape.num_vars)
        a[shape.var_index(-1, 1)] = -0.5
        a[shape.var_index(1, 2)] = 1.0
        system = compile_arc_system(build_system(BROUGHTON, shape, "BV"))
        assert np.array_equal(system.values_at(system.monomials(a)), np.zeros(system.size))


class TestCertifyReal:
    def test_broughton_zero_certified(self):
        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        out = certify_real(BROUGHTON, shape, 0.0)
        assert out.certified
        assert out.residual < 1e-9
        assert out.witness is not None

    def test_quintic_zero_uncertified(self):
        # the d-generator (x^2+1)(5x^2+1) coefficient is >= 1 over the reals
        shape = ArcShape(n=2, D1=1, D2=0, field="real")
        out = certify_real(QUINTIC, shape, 0.0)
        assert not out.certified
        assert out.residual > 0.1

    def test_far_value_uncertified(self):
        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        out = certify_real(BROUGHTON, shape, 1e6, CertifyConfig(restarts=8))
        assert not out.certified

    def test_complex_shape_rejected(self):
        with pytest.raises(CertifyError):
            certify_real(BROUGHTON, ArcShape(n=2, D1=1, D2=1), 0.0)

    def test_deterministic_for_fixed_seed(self):
        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        a = certify_real(BROUGHTON, shape, 0.0, CertifyConfig(seed=3, restarts=8))
        b = certify_real(BROUGHTON, shape, 0.0, CertifyConfig(seed=3, restarts=8))
        assert a == b

    def test_certified_witness_nearly_solves_system(self):
        from critvals.systems import build_system

        shape = ArcShape(n=2, D1=1, D2=1, field="real")
        out = certify_real(BROUGHTON, shape, 0.0)
        sys = build_system(BROUGHTON, shape, "BV")
        point = [Fraction(v).limit_denominator(10**12) for v in out.witness]
        for g in sys.generators:
            assert abs(float(g.eval_exact(point))) < 1e-6


class TestCertifyCriticalPoint:
    def test_cubic_values(self):
        f = parse_poly("x^3 - 3*x", X)
        assert certify_critical_point(f, -2.0).certified
        assert certify_critical_point(f, 2.0).certified
        assert not certify_critical_point(f, 0.5).certified

    def test_no_critical_points(self):
        assert not certify_critical_point(BROUGHTON, 0.0, CertifyConfig(restarts=4)).certified


# ---- the compiled system against exact evaluation ----


def _exact_value(p: Poly, point: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction, Fraction]:
    """p at a Gaussian-rational point: (re, im, sum of |term| bounds)."""
    re_total, im_total, scale = Fraction(0), Fraction(0), Fraction(0)
    for mono, coeff in p.terms():
        re, im = coeff, Fraction(0)
        bound = abs(coeff)
        for (a, b), e in zip(point, mono):
            for _ in range(e):
                re, im = re * a - im * b, re * b + im * a
                bound *= abs(a) + abs(b)
        re_total, im_total, scale = re_total + re, im_total + im, scale + bound
    return re_total, im_total, scale


def _assert_close(got: complex, p: Poly, point) -> None:
    re, im, scale = _exact_value(p, point)
    tol = 1e-9 * max(1.0, float(scale))
    assert abs(got.real - float(re)) <= tol
    assert abs(got.imag - float(im)) <= tol


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def compiled_cases(draw):
    """Polynomials over one table (zero, constant, missing a variable, or
    general), possibly no generators before the pin, and a point."""
    n = draw(st.integers(1, 3))
    table = VarTable(tuple(f"x{i}" for i in range(n)))

    def poly():
        kind = draw(st.sampled_from(("zero", "constant", "missing", "general")))
        if kind == "zero":
            return Poly.zero(table)
        if kind == "constant":
            return Poly.const(table, draw(rationals))
        missing = draw(st.integers(0, n - 1)) if kind == "missing" else None
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            mono = tuple(
                0 if j == missing else draw(st.integers(0, 3)) for j in range(n)
            )
            terms[mono] = draw(rationals)
        return Poly(table, terms)

    generators = [poly() for _ in range(draw(st.integers(0, 3)))]
    polys = [*generators, poly()]
    complex_point = draw(st.booleans())
    point = [
        (draw(rationals), draw(rationals) if complex_point else Fraction(0))
        for _ in range(n)
    ]
    return polys, point, complex_point


@settings(max_examples=80, deadline=None)
@given(compiled_cases())
def test_compiled_system_matches_exact_evaluation(case):
    polys, point, complex_point = case
    system = CompiledSystem(polys)
    if complex_point:
        x = np.array([complex(float(a), float(b)) for a, b in point])
    else:
        x = np.array([float(a) for a, _ in point])
    mono = system.monomials(x)
    values, jacobian = system.values_at(mono), system.jacobian_at(mono)
    assert values.shape == (len(polys),)
    assert jacobian.shape == (len(polys), len(point))
    assert np.iscomplexobj(values) == complex_point
    for i, p in enumerate(polys):
        _assert_close(complex(values[i]), p, point)
        for j in range(len(point)):
            _assert_close(complex(jacobian[i, j]), p.partial_derivative(j), point)


class TestCompiledSystem:
    def test_pin_only_system_certifies(self):
        # no generators: only the pin x^2 = 4 has to hold
        system = CompiledSystem([parse_poly("x^2", X)])
        out = certify_zero(system, 4.0, CertifyConfig(restarts=4))
        assert out.certified
        assert abs(out.witness[0]) == pytest.approx(2.0)

    def test_one_system_serves_every_target(self):
        system = compile_critical_point_system(parse_poly("x^3 - 3*x", X))
        assert certify_zero(system, 2.0, CertifyConfig()).certified
        assert certify_zero(system, -2.0, CertifyConfig()).certified
        assert not certify_zero(system, 0.5, CertifyConfig()).certified

    def test_rejects_mixed_tables_and_empty_input(self):
        with pytest.raises(CertifyError):
            CompiledSystem([BROUGHTON, parse_poly("x", X)])
        with pytest.raises(CertifyError):
            CompiledSystem([])

    def test_columns_do_not_depend_on_storage_order(self):
        arc_system = build_system(BROUGHTON, ArcShape(n=2, D1=2, D2=1), "BV").generators
        for polys in (arc_system, (parse_poly("1/3*x^2*y - 2/7*x + 5/11", XY), QUINTIC)):
            table = polys[0].vars
            twins = [Poly(table, dict(reversed(t.items())), d) for t, d in map(Poly.integer_terms, polys)]
            ours, theirs = CompiledSystem(polys), CompiledSystem(twins)
            for name in ("exponents", "value_coeffs", "jacobian_coeffs"):
                a, b = getattr(ours, name), getattr(theirs, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRealRunsAtDefaultCertifier:
    """Statuses and headline real sets of real runs at the default
    certifier (32 restarts x 200 iterations, seed 0)."""

    def outcome(self, text, value_set, bounds=None, variables=("x", "y")):
        cfg = RunConfig(field="real", value_set=value_set, bounds=bounds, variables=variables)
        return {
            name: (
                [r["certification"] for r in vs["real_roots"]],
                vs["headline_real"],
            )
            for name, vs in run(cfg, text).results.items()
        }

    def test_broughton_all_1_1(self):
        assert self.outcome("x + x^2*y", "all", (1, 1)) == {
            "k0": ([], []),
            "kinf": (["CertifiedReal"], [0.0]),
            "k": (["CertifiedReal"], [0.0]),
        }

    def test_broughton_kinf_2_1(self):
        assert self.outcome("x + x^2*y", "kinf", (2, 1)) == {
            "kinf": (["CertifiedReal"], [0.0]),
        }

    def test_quintic_all_1_0(self):
        assert self.outcome("x*(x^2+1)^2", "all", (1, 0)) == {
            "k0": (["Uncertified"], []),
            "kinf": (["Uncertified"], []),
            "k": (["Uncertified"], []),
        }

    def test_cubic_k0(self):
        statuses, headline = self.outcome("x^3 - 3*x", "k0", variables=("x",))["k0"]
        assert statuses == ["CertifiedReal", "CertifiedReal"]
        assert headline == pytest.approx([-2.0, 2.0], abs=1e-9)


class TestMalgrangeProbe:
    RADII = (10.0, 100.0, 1000.0)

    def test_broughton_value_decays(self):
        trace = malgrange_probe(BROUGHTON, 0.0, self.RADII)
        rm = trace.running_minima()
        assert rm[-1] * 4 <= rm[0]
        # the known curve gives norm(x)*norm(grad f) ~ 1/(4r)
        assert trace.rows[0].value == pytest.approx(1 / 40, rel=0.2)

    def test_broughton_nonvalue_floors(self):
        trace = malgrange_probe(BROUGHTON, 1.0, self.RADII)
        assert min(r.value for r in trace.rows) > 0.1

    def test_quintic_real_complex_gap(self):
        real = malgrange_probe(QUINTIC, 0.0, self.RADII, field="real")
        assert min(r.value for r in real.rows) > 0.1
        cplx = malgrange_probe(QUINTIC, 0.0, self.RADII, field="complex")
        rm = cplx.running_minima()
        assert rm[-1] * 4 <= rm[0]

    def test_deterministic(self):
        a = malgrange_probe(BROUGHTON, 0.0, self.RADII)
        b = malgrange_probe(BROUGHTON, 0.0, self.RADII)
        assert a == b

    def test_bad_radii(self):
        with pytest.raises(CertifyError):
            malgrange_probe(BROUGHTON, 0.0, [10.0, 10.0])
        with pytest.raises(CertifyError):
            malgrange_probe(BROUGHTON, 0.0, [])

    @pytest.mark.parametrize(
        "y, radii, field",
        [(1j, (10.0,), "real"), (1 + 0j, (10.0,), "real"), (math.nan, (10.0,), "complex"),
         (math.inf, (10.0,), "real"), (complex(0, math.inf), (10.0,), "complex"),
         (0.0, (-10.0, 10.0), "complex"), (0.0, (0.0, 10.0), "real"), (0.0, (10.0, math.inf), "complex"),
         (0.0, (math.nan,), "complex")],
    )
    def test_bad_target_or_radius(self, y, radii, field):
        # radii (-10, 10) used to give a row at -10 whose value, radius * |grad f|,
        # undercut the row at 10; a complex y in the real field was a bare TypeError
        with pytest.raises(CertifyError):
            malgrange_probe(BROUGHTON, y, radii, field=field)

    def test_radii_from_any_iterable(self):
        # an array used to raise numpy's "truth value ... ambiguous" ValueError
        # and an iterator a TypeError
        rows = malgrange_probe(BROUGHTON, 0.0, (10.0, 100.0)).rows
        assert malgrange_probe(BROUGHTON, 0.0, np.array([10.0, 100.0])).rows == rows
        assert malgrange_probe(BROUGHTON, 0.0, iter([10, 100])).rows == rows

    @pytest.mark.parametrize(
        "radii",
        [np.array([10.0, 10.0]), np.array([]), np.array([[10.0, 100.0]]), iter([100.0, 10.0]), ["ten"], [1j], 10.0],
    )
    def test_bad_schedule_of_any_type(self, radii):
        with pytest.raises(CertifyError, match="radii"):
            malgrange_probe(BROUGHTON, 0.0, radii)

    def test_trace_rows_increasing_guard(self):
        with pytest.raises(CertifyError):
            ProbeTrace((ProbeRow(10.0, 1.0, False), ProbeRow(5.0, 1.0, False)))


class TestSettingsThatCannotRun:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(restarts=0), dict(restarts=-3), dict(max_iters=0), dict(max_iters=-1),
         dict(tolerance=0.0), dict(tolerance=-1e-9), dict(tolerance=math.nan), dict(tolerance=math.inf),
         dict(seed=-1)],
    )
    def test_certify_config(self, kwargs):
        with pytest.raises(CertifyError, match=next(iter(kwargs))):
            CertifyConfig(**kwargs)

    def test_smallest_settings_run(self):
        system = compile_critical_point_system(parse_poly("x^3 - 3*x", X))
        assert math.isfinite(certify_zero(system, 2.0, CertifyConfig(restarts=1, max_iters=1)).residual)


# ---- the batched search ----

# (system, target, projection): an arc system; the critical-point system of
# 10^200*x^3 + x^2 - x + 1, whose residuals overflow to inf and nan; a
# system whose damped normal matrix J^T J + lam*I is singular in floating
# point for |x| < 1/2 (the 10^16 entries swallow 4x^2 + lam), so one stack
# mixes members that take the singular path with members that solve; and
# x^2 - y with the pin x*y, projected onto the circle of radius 3.
_OVERFLOW = compile_critical_point_system(parse_poly(f"{10**200}*x^3 + x^2 - x + 1", X))
_NEAR_SINGULAR = CompiledSystem([parse_poly("100000000*x + 100000000*y - 1", XY), parse_poly("x^2", XY)])


def _on_circle(u):
    return u * (3.0 / np.linalg.norm(u, axis=1, keepdims=True))


LM_CASES = {
    "arc": (compile_arc_system(build_system(BROUGHTON, ArcShape(n=2, D1=1, D2=1, field="real"), "BV")), 0.0, None),
    "overflow": (_OVERFLOW, 1.0, None),
    "near-singular": (_NEAR_SINGULAR, 0.25, None),
    "projected": (CompiledSystem([parse_poly("x^2 - y", XY), parse_poly("x*y", XY)]), 1.0, _on_circle),
}


def _run_lm(case: str, starts: np.ndarray, max_iters: int) -> np.ndarray:
    system, y, project = LM_CASES[case]
    target = np.zeros(system.size)
    target[-1] = y

    def residual(x):
        mono = system.monomials(x)
        return system.values_at(mono) - target, mono

    with np.errstate(all="ignore"):
        x, _ = _levenberg_marquardt(residual, lambda x, mono: system.jacobian_at(mono), starts, max_iters, project=project)
    return x


@st.composite
def lm_stacks(draw):
    case = draw(st.sampled_from(sorted(LM_CASES)))
    arity = LM_CASES[case][0].arity
    coordinate = st.one_of(
        st.floats(-4, 4, allow_nan=False), st.floats(-0.4, 0.4, allow_nan=False), st.floats(-1e160, 1e160)
    ).filter(lambda v: v != 0.0)
    starts = draw(st.lists(st.lists(coordinate, min_size=arity, max_size=arity), min_size=1, max_size=6))
    return case, np.array(starts), draw(st.integers(1, 25))


@settings(max_examples=30, deadline=None)
@given(lm_stacks())
@example(("overflow", np.array([[1.0], [1e-3], [6e-101], [-2.5], [1e150]]), 30))
@example(("near-singular", np.array([[0.1, 0.2], [2.0, -1.0], [-0.3, 0.05]]), 30))
def test_member_of_a_stack_equals_its_one_member_run(case_stack):
    # bitwise: the reason a seeded outcome does not depend on --restarts
    case, starts, max_iters = case_stack
    together = _run_lm(case, starts, max_iters)
    for i in range(len(starts)):
        assert _run_lm(case, starts[i : i + 1], max_iters).tobytes() == together[i : i + 1].tobytes()


def test_near_singular_case_is_singular_at_its_start():
    # the damped normal matrix of the near-singular case at (0.1, 0.2), as
    # the first try forms it
    J = _NEAR_SINGULAR.jacobian_at(_NEAR_SINGULAR.monomials(np.array([0.1, 0.2])))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J.T @ J + 1e-3 * np.eye(2), np.ones(2))


class TestAgainstOneStartReference:
    """The batched search against the earlier one-start search in
    tests/oracles.py: same statuses (so the same headline sets, which are the
    certified candidates), same probe flags, and probe values above the floor
    within 1e-9 relative.  Fewer restarts than the default certifier keep the
    one-start side quick; the comparison is per start either way."""

    RADII = (10.0, 100.0, 1000.0)
    CERTIFIER = CertifyConfig(restarts=8)

    @pytest.mark.parametrize(
        "text, value_set, bounds, variables",
        [("x + x^2*y", "all", (1, 1), ("x", "y")), ("x + x^2*y", "kinf", (2, 1), ("x", "y")),
         ("x*(x^2+1)^2", "all", (1, 0), ("x", "y")), ("x^3 - 3*x", "k0", None, ("x",)),
         ("x^3 + y^3 - 3*x*y", "k0", None, ("x", "y"))],
    )
    def test_real_runs(self, monkeypatch, text, value_set, bounds, variables):
        statuses = []

        def both(system, y, cfg):
            out = certify_zero(system, y, cfg)
            statuses.append((out.status, reference_certify_zero(system, y, cfg).status))
            return out

        monkeypatch.setattr(cli, "certify_zero", both)
        cfg = RunConfig(field="real", value_set=value_set, bounds=bounds, variables=variables, certifier=self.CERTIFIER)
        run(cfg, text)
        assert statuses and all(got == ref for got, ref in statuses)

    @pytest.mark.parametrize("f", [BROUGHTON, QUINTIC], ids=["broughton", "quintic"])
    @pytest.mark.parametrize("y", [0.0, 1.0])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_probe_traces(self, f, y, field):
        got = malgrange_probe(f, y, self.RADII, field=field).rows
        ref = [row for row, _ in reference_probe_steps(f, y, self.RADII, field)]
        assert len(got) == len(ref)
        for row, ref_row in zip(got, ref):
            assert row.level_within_delta == ref_row.level_within_delta
            assert row.value == pytest.approx(ref_row.value, rel=1e-9)

    def test_probe_floor_rule(self):
        # quintic, complex, y = 0: every radius reaches the floor, so the row
        # is the first start to reach it and that start's point is the carry
        got = list(_probe_steps(QUINTIC, 0.0, self.RADII, "complex"))
        ref = list(reference_probe_steps(QUINTIC, 0.0, self.RADII, "complex"))
        assert len(got) == len(ref)
        for (row, carry), (ref_row, ref_carry) in zip(got, ref):
            assert row == ref_row and row.value == certify.PROBE_FLOOR_SCALE / row.radius
            # along the level set the search stops wherever it first meets
            # the floor, so rounding moves the point by about 2e-3 * radius;
            # another start would land a distance of order radius away
            assert np.linalg.norm(carry - ref_carry) < 1e-2 * row.radius


# ---- the monomial kernel ----

# the batched-search systems, the probe system of Broughton's polynomial (its
# gradient, then f), a constant-only system and a zero polynomial, whose
# exponent matrix is (0, n)
MONOMIAL_CASES = {
    **{case: system for case, (system, _, _) in LM_CASES.items()},
    "probe": CompiledSystem([*(BROUGHTON.partial_derivative(j) for j in range(2)), BROUGHTON]),
    "constant": CompiledSystem([Poly.const(XY, Fraction(-3, 7)), Poly.const(XY, Fraction(2))]),
    "zero": CompiledSystem([Poly.zero(XY)]),
}


@st.composite
def monomial_points(draw):
    """A system, and a point (n,) or stack (1, n) / (B, n), real or complex,
    with coordinates among 0, +-1, +-1e160 and ordinary values."""
    case = draw(st.sampled_from(sorted(MONOMIAL_CASES)))
    system = MONOMIAL_CASES[case]
    n = system.arity
    lead = draw(st.sampled_from(((), (1,), (draw(st.integers(2, 5)),))))
    coordinate = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e160, -1e160)), st.floats(-4, 4, allow_nan=False),
        st.floats(-1e160, 1e160),
    )
    size = math.prod(lead) * n
    x = np.array(draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(*lead, n)
    if draw(st.booleans()):
        x = x + 1j * np.array(draw(st.lists(coordinate, min_size=size, max_size=size))).reshape(*lead, n)
    return case, x


@settings(max_examples=150, deadline=None)
@given(monomial_points())
@example(("arc", np.full(6, 1e160)))
@example(("probe", np.array([[0.0, -0.0], [-1e160, 1e160 + 1e-160j]])))
@example(("zero", np.ones((3, 2)) * 1j))
def test_monomials_values_and_jacobian_match_the_one_pow_per_entry_kernel(case_point):
    # bitwise: the values, and so every seeded search, are those of the
    # kernel that raised every variable to every column's exponent
    case, x = case_point
    system = MONOMIAL_CASES[case]
    with np.errstate(all="ignore"):
        mono, ref = system.monomials(x), reference_monomials(system, x)
        values, jacobian = system.values_at(mono), system.jacobian_at(mono)
        ref_values = np.einsum("...u,mu->...m", ref, system.value_coeffs)
        ref_jacobian = np.einsum("...u,ju->...j", ref, system.jacobian_coeffs)
    assert mono.flags.c_contiguous
    assert mono.shape == ref.shape and mono.dtype == ref.dtype and mono.tobytes() == ref.tobytes()
    assert values.shape == (*x.shape[:-1], system.size) and values.tobytes() == ref_values.tobytes()
    assert jacobian.shape == (*x.shape[:-1], system.size, system.arity)
    assert jacobian.tobytes() == ref_jacobian.reshape(jacobian.shape).tobytes()


def test_monomials_raise_only_the_powers_the_columns_use():
    # a table of every power up to the largest exponent would form 1e3^300
    # and overflow; the columns of x^300 + y use y^0 and y^1 only
    system = CompiledSystem([parse_poly("x^300 + y", XY)])
    assert system.powers.size == 5  # x^0, x^300, x^299, y^0, y^1
    with np.errstate(over="raise"):
        assert system.values_at(system.monomials(np.array([0.5, 1e3])))[0] == 0.5**300 + 1e3


def test_each_point_is_evaluated_once(monkeypatch):
    # the Jacobian reads the monomials that the residual formed for its point,
    # so a search forms monomial vectors exactly once per residual evaluation
    counts = {"monomials": 0, "residual": 0, "jacobian": 0}
    monomials, search = CompiledSystem.monomials, certify._levenberg_marquardt

    def counted_monomials(system, x):
        counts["monomials"] += 1
        return monomials(system, x)

    def counted_search(residual_fn, jacobian_fn, *args, **kwargs):
        def residual(x):
            counts["residual"] += 1
            return residual_fn(x)

        def jacobian(x, mono):
            counts["jacobian"] += 1
            return jacobian_fn(x, mono)

        return search(residual, jacobian, *args, **kwargs)

    monkeypatch.setattr(CompiledSystem, "monomials", counted_monomials)
    monkeypatch.setattr(certify, "_levenberg_marquardt", counted_search)
    system = compile_critical_point_system(parse_poly("x^3 - 3*x", X))
    assert certify_zero(system, 2.0, CertifyConfig(restarts=4)).certified  # with the polishing pass
    assert counts["jacobian"] > 0 and counts["monomials"] == counts["residual"]
    counts.update(monomials=0, residual=0, jacobian=0)
    malgrange_probe(BROUGHTON, 0.0, (10.0, 100.0))
    assert counts["jacobian"] > 0 and counts["monomials"] == counts["residual"]
