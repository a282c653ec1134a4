"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
carries the measured values the criterion constrains (residuals, ratios,
elapsed seconds).  Random suites are seeded and deterministic.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from critvals.arcs import ArcShape, substitute
from critvals.certify import certify_real, malgrange_probe
from critvals.cli import RunConfig, run
from critvals.groebner import Ideal, buchberger
from critvals.poly import Poly, VarTable, parse_poly, serialize_poly
from critvals.solve import compute_k, compute_k0, compute_kinf, compute_sF

from oracles import (
    k0_bivariate_oracle,
    k0_univariate_oracle,
    package_coeffs,
    substitution_product,
)

X = VarTable(("x",))
XY = VarTable(("x", "y"))
Y = VarTable(("y",))
BROUGHTON = parse_poly("x + x^2*y", XY)
QUINTIC = parse_poly("x*(x^2+1)^2", XY)
RADII = (10.0, 100.0, 1000.0)


@contextmanager
def criterion(number, slug):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number:2d} {slug}: FAIL "
              f"({info['detail']}; {elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number:2d} {slug}: PASS ({info['detail']}; {elapsed:.1f}s)")


def real_approxes(value_set_report):
    return [r["approx"] for r in value_set_report["real_roots"]]


def test_criterion_01_quintic_complex_kinf(capsys):
    with criterion(1, "quintic complex kinf reports 0"), capsys.disabled():
        start = time.perf_counter()
        cfg = RunConfig(field="complex", value_set="kinf", bounds=(1, 0),
                        variables=("x", "y"))
        report = run(cfg, "x*(x^2+1)^2")
        elapsed = time.perf_counter() - start
        (vs,) = report.results.values()
        assert vs["eliminant"] == "3125*y^3 + 256*y"
        assert real_approxes(vs) == [0.0]  # 0 among the K_inf candidates
        assert elapsed < 60.0


def test_criterion_02_quintic_real_kinf_uncertified(capsys):
    with criterion(2, "quintic real kinf: candidate 0 uncertified") as info, \
            capsys.disabled():
        start = time.perf_counter()
        cfg = RunConfig(field="real", value_set="kinf", bounds=(1, 0),
                        variables=("x", "y"))
        report = run(cfg, "x*(x^2+1)^2")
        elapsed = time.perf_counter() - start
        (vs,) = report.results.values()
        assert real_approxes(vs) == [0.0]
        assert [r["certification"] for r in vs["real_roots"]] == ["Uncertified"]
        assert vs["headline_real"] == []  # real K_inf reported empty
        info["detail"] = f"candidate residual {vs['real_roots'][0]['cert_residual']:.2e}"
        assert elapsed < 60.0


def test_criterion_03_broughton_both_fields(capsys):
    with criterion(3, "x+x^2*y: Kinf={0} both fields, certified") as info, \
            capsys.disabled():
        start = time.perf_counter()
        shape_c = ArcShape(n=2, D1=1, D2=1)
        shape_r = ArcShape(n=2, D1=1, D2=1, field="real")
        kinf_c = compute_kinf(BROUGHTON, shape_c)
        assert serialize_poly(kinf_c.eliminant) == "y"
        kinf_r = compute_kinf(BROUGHTON, shape_r)
        assert [round(r.approx(), 12) for r in kinf_r.real_roots] == [0.0]
        cert = certify_real(BROUGHTON, shape_r, 0.0)
        assert cert.certified and cert.residual < 1e-9
        k0 = compute_k0(BROUGHTON)
        assert k0.empty
        k = compute_k(BROUGHTON, shape_c)
        assert serialize_poly(k.eliminant) == "y"
        elapsed = time.perf_counter() - start
        info["detail"] = f"certified residual {cert.residual:.2e}"
        assert elapsed < 120.0


def random_univariate(rng, max_degree):
    while True:
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(max_degree + 1)]
        p = Poly(X, {(i,): c for i, c in enumerate(coeffs) if c})
        if p.total_degree() >= 2:
            return p


def random_bivariate(rng, max_degree):
    while True:
        terms = {}
        for i in range(max_degree + 1):
            for j in range(max_degree + 1 - i):
                if rng.random() < 0.5:
                    c = rng.randint(-3, 3)
                    if c:
                        terms[(i, j)] = Fraction(c)
        p = Poly(XY, terms)
        if p.total_degree() >= 2:
            return p


def test_criterion_04_k0_oracle_equivalence(capsys):
    with criterion(4, "K0 equals resultant/elimination oracles") as info, \
            capsys.disabled():
        rng = random.Random(2024)
        for _ in range(20):
            p = random_univariate(rng, 6)
            assert package_coeffs(compute_k0(p)) == k0_univariate_oracle(p), p
        for _ in range(10):
            p = random_bivariate(rng, 3)
            assert package_coeffs(compute_k0(p)) == k0_bivariate_oracle(p), p
        info["detail"] = "20 univariate deg<=6 + 10 bivariate deg<=3, exact"


def random_poly_xy(rng, max_degree=3):
    terms = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if rng.random() < 0.6:
                c = rng.randint(-4, 4)
                if c:
                    terms[(i, j)] = Fraction(c)
    return Poly(XY, terms) if terms else Poly.const(XY, Fraction(1))


def test_criterion_05_truncation_window(capsys):
    with criterion(5, "no arc variable below the truncation window") as info, \
            capsys.disabled():
        rng = random.Random(55)
        checked = 0
        while checked < 50:
            p = random_poly_xy(rng)
            if p.is_constant():
                continue
            D1 = rng.randint(1, 3)
            window = (p.total_degree() - 1) * D1
            shape = ArcShape(n=2, D1=D1, D2=window + rng.randint(1, 3))
            s = substitute(p, shape)
            for k in range(0, s.hi + 1):
                for index in s.coefficient_at(k).variables_used():
                    i = shape.D1 - index // shape.n
                    assert i >= -window, (p, shape, k, i)
            checked += 1
        info["detail"] = "50 random (p, shape) with D2 past the window"


def test_criterion_06_substitution_homomorphism(capsys):
    with criterion(6, "substitute(p*q) = substitute(p)*substitute(q)") as info, \
            capsys.disabled():
        rng = random.Random(66)
        for _ in range(100):
            p, q = random_poly_xy(rng, 2), random_poly_xy(rng, 2)
            shape = ArcShape(n=2, D1=rng.randint(1, 2), D2=rng.randint(0, 2))
            left = substitute(p * q, shape)
            assert left.coeffs == substitution_product(p, q, shape), (p, q, shape)
        info["detail"] = "100 random pairs, exact"


def test_criterion_07_monotone_soundness(capsys):
    with criterion(7, "x+x^2*y roots at (1,1) within (2,3)") as info, \
            capsys.disabled():
        small = compute_kinf(BROUGHTON, ArcShape(n=2, D1=1, D2=1))
        big = compute_kinf(BROUGHTON, ArcShape(n=2, D1=2, D2=3))
        # equality expected at these shapes; inclusion is the requirement
        assert serialize_poly(small.eliminant) == "y"
        assert serialize_poly(big.eliminant) == "y"
        info["detail"] = "both eliminants y (root sets equal)"


def test_criterion_08_sf_blowup_map(capsys):
    with criterion(8, "S_F of (x, x*y) is the line y1 = 0") as info, \
            capsys.disabled():
        start = time.perf_counter()
        F = [parse_poly("x", XY), parse_poly("x*y", XY)]
        res = compute_sF(F, ArcShape(n=2, D1=1, D2=1))
        gens = [serialize_poly(g) for g in res.generators]
        assert gens == ["y1"]
        assert res.generators[0].total_degree() == 1  # within the degree bound
        elapsed = time.perf_counter() - start
        info["detail"] = f"ideal <y1>, generator degree 1"
        assert elapsed < 60.0


def test_criterion_09_groebner_pinned_bases(capsys):
    with criterion(9, "pinned reduced bases, byte-for-byte, 3 runs") as info, \
            capsys.disabled():
        cases = [
            (("x - y", "x^2 + y^2 - 1"), 1, ["x - y", "2*y^2 - 1"]),
            (("x^2", "x - 1"), 1, ["1"]),
            (("x^2", "x*y"), 0, ["x^2", "x*y"]),
        ]
        for texts, eliminate, expected in cases:
            ideal = Ideal(tuple(parse_poly(t, XY) for t in texts), eliminate)
            seen = {
                "|".join(serialize_poly(g) for g in buchberger(ideal).basis)
                for _ in range(3)
            }
            assert seen == {"|".join(expected)}, (texts, seen)
        info["detail"] = "3 examples x 3 runs"


def test_criterion_10_probe_behavior(capsys):
    with criterion(10, "Malgrange probe decay/floor signatures") as info, \
            capsys.disabled():
        budget_ok = True

        def timed(f, y, field):
            t0 = time.perf_counter()
            trace = malgrange_probe(f, y, RADII, field=field)
            nonlocal budget_ok
            budget_ok = budget_ok and (time.perf_counter() - t0) < 30.0
            return trace.running_minima()

        rm = timed(BROUGHTON, 0.0, "complex")
        drop_broughton = rm[0] / rm[-1]
        assert drop_broughton >= 4.0, rm
        rm_off = timed(BROUGHTON, 1.0, "complex")
        assert rm_off[-1] > 0.1, rm_off
        rm_real = timed(QUINTIC, 0.0, "real")
        assert rm_real[-1] > 0.1, rm_real
        rm_cplx = timed(QUINTIC, 0.0, "complex")
        drop_quintic = rm_cplx[0] / rm_cplx[-1]
        assert drop_quintic >= 4.0, rm_cplx
        assert budget_ok
        info["detail"] = (f"drops {drop_broughton:.0f}x and {drop_quintic:.0f}x; "
                          f"floors {rm_off[-1]:.2f} and {rm_real[-1]:.2f}")


def test_criterion_11_report_determinism(capsys):
    with criterion(11, "byte-identical JSON on repeated runs") as info, \
            capsys.disabled():
        configs = [
            (RunConfig(field="complex", value_set="kinf", bounds=(1, 0),
                       variables=("x", "y")), "x*(x^2+1)^2"),
            (RunConfig(field="real", value_set="kinf", bounds=(1, 0),
                       variables=("x", "y")), "x*(x^2+1)^2"),
            (RunConfig(field="complex", value_set="all", bounds=(1, 1)), "x + x^2*y"),
            (RunConfig(field="real", value_set="all", bounds=(1, 1)), "x + x^2*y"),
        ]
        for cfg, text in configs:
            outputs = {run(cfg, text).to_json() for _ in range(3)}
            assert len(outputs) == 1, (cfg.field, cfg.value_set)
        info["detail"] = "4 configs x 3 runs each"
