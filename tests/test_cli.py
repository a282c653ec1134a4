"""End-to-end CLI tests: exit codes, flags, and the JSON report schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from critvals import cli
from critvals.certify import CertifyConfig
from critvals.cli import GuardRefusal, RunConfig, UsageError, run
from critvals.poly import VarTable, parse_poly
from critvals.solve import InternalInvariantError

# K0 of this one runs Buchberger on a gradient ideal with S-pairs to process
PAIRED_K0 = "x^2*y^2 + x^3 + y^3"


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_main(capsys, *argv, "--json")
    return code, json.loads(out)


class TestSpecExamples:
    def test_kinf_bounds_1_1(self, capsys):
        code, doc = run_json(
            capsys, "x + x^2*y", "--field", "complex", "--set", "kinf", "--bounds", "1,1"
        )
        assert code == 0
        result = doc["results"]["kinf"]
        assert result["eliminant"] == "y"
        assert result["completeness"] == "reduced-bounds-sound-only"
        assert [r["approx"] for r in result["real_roots"]] == [0.0]

    def test_real_kinf_candidate_without_certificate(self, capsys):
        code, doc = run_json(
            capsys,
            "x*(x^2+1)^2",
            "--field", "real", "--set", "kinf", "--bounds", "1,0", "--vars", "x,y",
        )
        assert code == 0
        result = doc["results"]["kinf"]
        # candidate 0 is listed but uncertified, so the headline set is empty
        assert [r["approx"] for r in result["real_roots"]] == [0.0]
        assert [r["certification"] for r in result["real_roots"]] == ["Uncertified"]
        assert result["headline_real"] == []

    def test_k0_of_cubic(self, capsys):
        code, doc = run_json(capsys, "x^3 - 3*x", "--set", "k0")
        assert code == 0
        result = doc["results"]["k0"]
        assert result["eliminant"] == "y^2 - 4"
        approxes = [r["approx"] for r in result["real_roots"]]
        assert len(approxes) == 2
        assert abs(approxes[0] + 2) < 1e-9 and abs(approxes[1] - 2) < 1e-9

    def test_k0_with_eliminant_beyond_float_range(self, capsys):
        # the eliminant has coefficients above 2^1024: the complex roots are
        # still approximated and certified
        code, doc = run_json(capsys, f"{10**200}*x^3 + x^2 - x + 1", "--vars", "x", "--set", "k0")
        assert code == 0
        result = doc["results"]["k0"]
        eliminant = parse_poly(result["eliminant"], VarTable(("y",)))
        assert max(abs(c) for _, c in eliminant.terms()) > 2**1024
        roots = result["complex_roots"]
        assert [(r["re"], r["im"]) for r in roots] == [(1.0, 0.0), (1.0, 0.0)]
        assert all(r["residual"] < 1e-10 for r in roots)


class TestSchema:
    def test_golden_shape(self, capsys):
        code, doc = run_json(
            capsys, "x + x^2*y", "--set", "kinf", "--field", "real", "--bounds", "1,1"
        )
        assert code == 0
        assert set(doc) == {"config", "input", "results"}
        assert set(doc["input"]) == {"polynomials", "variables"}
        assert set(doc["config"]) == {
            "bounds", "certifier", "field", "limits", "seed", "set",
        }
        assert set(doc["config"]["bounds"]) == {"source", "D1", "D2"}
        assert set(doc["config"]["limits"]) == {
            "max_pairs", "max_basis_size", "max_coefficient_bits", "wall_clock_budget",
        }
        result = doc["results"]["kinf"]
        assert set(result) == {
            "eliminant", "completeness", "real_roots", "complex_roots",
            "headline_real", "diagnostics",
        }
        assert set(result["real_roots"][0]) == {
            "interval_lo", "interval_hi", "approx", "certification", "cert_residual",
        }
        assert set(result["complex_roots"][0]) == {"re", "im", "residual"}
        assert set(result["diagnostics"]) == {
            "variable_count", "generator_count", "basis_size",
        }

    def test_complex_run_has_no_headline(self, capsys):
        _, doc = run_json(capsys, "x^3 - 3*x", "--set", "k0")
        assert "headline_real" not in doc["results"]["k0"]
        assert doc["results"]["k0"]["real_roots"][0]["certification"] is None

    def test_sf_schema(self, capsys):
        code, doc = run_json(capsys, "x; x*y", "--set", "sf", "--bounds", "1,1")
        assert code == 0
        result = doc["results"]["sf"]
        assert result["generators"] == ["y1"]
        assert result["image_variables"] == ["y1", "y2"]

    def test_timings_only_on_request(self, capsys):
        _, doc = run_json(capsys, "x^3 - 3*x", "--set", "k0")
        assert "timings_ms" not in doc
        _, doc = run_json(capsys, "x^3 - 3*x", "--set", "k0", "--timings")
        assert "total" in doc["timings_ms"]

    def test_timings_have_an_entry_per_value_set(self, capsys):
        _, doc = run_json(capsys, "x + x^2*y", "--set", "all", "--bounds", "1,1", "--timings")
        assert set(doc["timings_ms"]) == {"k0", "kinf", "k", "total"}
        _, doc = run_json(capsys, "x; x*y", "--set", "sf", "--bounds", "1,1", "--timings")
        assert set(doc["timings_ms"]) == {"sf", "total"}

    def test_dump_system_lists_tagged_generators(self, capsys):
        _, doc = run_json(
            capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1", "--dump-system"
        )
        dump = doc["dumped_systems"]["kinf"]
        assert dump["mode"] == "BV"
        tags = [g["tag"] for g in dump["generators"]]
        assert "c[1]" in tags and "norm" in tags
        assert len(dump["c0"]) == 1


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = ("x + x^2*y", "--set", "all", "--field", "real", "--bounds", "1,1",
                "--json", "--seed", "7")
        _, first, _ = run_main(capsys, *argv)
        _, second, _ = run_main(capsys, *argv)
        assert first == second


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run_main(capsys, "x + * y", "--set", "k0")
        assert code == 2 and "error" in err and out == ""

    def test_parse_error_json_object(self, capsys):
        code, doc = run_json(capsys, "x + * y", "--set", "k0")
        assert code == 2
        assert doc["error"]["code"] == 2
        assert doc["error"]["type"] == "ParseError"

    def test_limit_exceeded_is_3(self, capsys):
        # an arc run at a small shape may presolve to no Buchberger run at
        # all, and the folium's gradient basis has no pairs; this one's has
        code, doc = run_json(capsys, PAIRED_K0, "--set", "k0", "--max-pairs", "1")
        assert code == 3
        assert doc["error"]["type"] == "LimitExceeded"

    def test_guard_refusal_is_3_and_force_overrides(self, capsys):
        code, doc = run_json(
            capsys, "x^3 - 3*x", "--set", "kinf", "--paper-bounds",
            "--arc-var-ceiling", "3",
        )
        assert code == 3
        assert doc["error"]["type"] == "GuardRefusal"
        assert "(1, 3)" in doc["error"]["message"]  # the computed paper bounds
        code, doc = run_json(
            capsys, "x^3 - 3*x", "--set", "kinf", "--paper-bounds",
            "--arc-var-ceiling", "3", "--force",
        )
        assert code == 0
        assert doc["config"]["bounds"] == {"source": "paper", "D1": 1, "D2": 3}
        assert doc["results"]["kinf"]["completeness"] == "paper-bounds-complete"

    def test_internal_invariant_is_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InternalInvariantError("synthetic")

        monkeypatch.setattr(cli, "compute_k0", boom)
        code, doc = run_json(capsys, "x^3 - 3*x", "--set", "k0")
        assert code == 4
        assert doc["error"]["type"] == "InternalInvariantError"

    def test_complete_complex_run_checks_k_is_k0_union_kinf(self, capsys):
        # Broughton after X = x + y, Y = y has K = Kinf = {0}; the sum
        # normalization loses its escaping arcs, so Kinf comes out empty
        # beside K = {0}: a complete run must not report that
        code, doc = run_json(capsys, "(x+y) + (x+y)^2*y", "--vars", "x,y", "--paper-bounds", "--set", "all")
        assert code == 4
        assert doc["error"]["type"] == "InternalInvariantError"
        assert "K = K0 union Kinf" in doc["error"]["message"]
        code, doc = run_json(capsys, "x + x^2*y", "--paper-bounds", "--set", "all")
        assert code == 0
        assert [doc["results"][name]["eliminant"] for name in ("k0", "kinf", "k")] == ["1", "y", "y"]

    def test_constant_input_is_2(self, capsys):
        code, _, _ = run_main(capsys, "3/2", "--set", "k0", "--vars", "x")
        assert code == 2

    def test_unknown_name_is_2(self, capsys):
        code, _, _ = run_main(capsys, "x + z", "--set", "k0", "--vars", "x")
        assert code == 2


class TestConfigValidation:
    def test_sf_needs_a_map(self, capsys):
        code, _, err = run_main(capsys, "x*y", "--set", "sf")
        assert code == 2 and "map" in err

    def test_map_only_for_sf(self, capsys):
        code, _, _ = run_main(capsys, "x; x*y", "--set", "k0")
        assert code == 2

    def test_bad_bounds(self, capsys):
        assert run_main(capsys, "x^2", "--set", "kinf", "--bounds", "0,1")[0] == 2
        assert run_main(capsys, "x^2", "--set", "kinf", "--bounds", "1,-1")[0] == 2
        assert run_main(capsys, "x^2", "--set", "kinf", "--bounds", "nope")[0] == 2

    def test_bounds_conflict_with_paper_bounds(self, capsys):
        code, _, _ = run_main(
            capsys, "x^2", "--set", "kinf", "--bounds", "1,1", "--paper-bounds"
        )
        assert code == 2

    def test_config_object_rejects_bad_field(self):
        with pytest.raises(UsageError):
            RunConfig(field="quaternion")

    def test_config_object_rejects_a_second_seed(self):
        # the run seed is the certifier's seed; a different one would be ignored
        with pytest.raises(UsageError, match="seed"):
            RunConfig(field="real", seed=0, certifier=CertifyConfig(seed=12345))
        assert RunConfig(seed=7, certifier=CertifyConfig(seed=7)).certifier.seed == 7

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_negative_seed_is_2(self, capsys, field):
        # numpy's generator rejects it, which used to surface as exit 4
        code, doc = run_json(capsys, "x^3-3*x", "--set", "k0", "--field", field, "--seed", "-1")
        assert code == 2
        assert doc["error"]["type"] == "CertifyError"
        assert "seed" in doc["error"]["message"]

    def test_variable_inference_order(self, capsys):
        _, doc = run_json(capsys, "y^2 + x", "--set", "k0")
        assert doc["input"]["variables"] == ["y", "x"]

    def test_explicit_vars_add_absent_variable(self, capsys):
        _, doc = run_json(capsys, "x^2", "--set", "k0", "--vars", "x,y")
        assert doc["input"]["variables"] == ["x", "y"]

    def test_bad_variable_name(self, capsys):
        code, _, _ = run_main(capsys, "x^2", "--set", "k0", "--vars", "x,2y")
        assert code == 2

    def test_inferred_names_are_validated(self, capsys):
        # an indexed name reads as one token, but --vars rejects it as a name;
        # inferred names pass the same check
        code, doc = run_json(capsys, "a[1][1]^2 + x", "--set", "k0")
        assert code == 2
        assert doc["error"]["message"] == "invalid variable name 'a[1][1]'"

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_is_2(self, capsys, budget):
        # a nan budget never trips, and --json would echo NaN or Infinity,
        # neither of which is JSON
        code, doc = run_json(
            capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1", "--budget", budget
        )
        assert code == 2
        assert "wall_clock_budget must be finite" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "flag, value, setting",
        [("--restarts", "0", "restarts"), ("--restarts", "-3", "restarts"),
         ("--cert-iters", "-1", "max_iters"), ("--tolerance", "0", "tolerance"),
         ("--tolerance", "nan", "tolerance"), ("--tolerance", "inf", "tolerance")],
    )
    def test_certifier_that_cannot_run_is_2(self, capsys, flag, value, setting):
        # --restarts 0 used to exit 0 with "cert_residual": Infinity, not JSON
        code, doc = run_json(
            capsys, "x^3 - 3*x", "--vars", "x", "--set", "k0", "--field", "real", flag, value
        )
        assert code == 2
        assert doc["error"]["type"] == "CertifyError"
        assert setting in doc["error"]["message"]


class TestLimitsEnvVar:
    def test_env_default_applies(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "max_pairs=1")
        code, doc = run_json(capsys, PAIRED_K0, "--set", "k0")
        assert code == 3 and doc["error"]["type"] == "LimitExceeded"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "max_pairs=1")
        code, doc = run_json(capsys, PAIRED_K0, "--set", "k0", "--max-pairs", "100000")
        assert code == 0
        assert doc["config"]["limits"]["max_pairs"] == 100000

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_env_budget_is_2(self, capsys, monkeypatch, budget):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, f"wall_clock_budget={budget}")
        code, doc = run_json(capsys, "x^2", "--set", "k0")
        assert code == 2
        assert "wall_clock_budget must be finite" in doc["error"]["message"]

    def test_env_values_take_the_type_of_their_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "wall_clock_budget=30, max_pairs=7000")
        code, out, _ = run_main(capsys, "x^2", "--set", "k0", "--json")
        assert code == 0
        assert '"wall_clock_budget": 30.0' in out and '"max_pairs": 7000' in out
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "max_pairs=1.5")
        assert run_main(capsys, "x^2", "--set", "k0")[0] == 2

    def test_bad_env_entry(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "bogus=1")
        code, _, _ = run_main(capsys, "x^2", "--set", "k0")
        assert code == 2


def test_run_api_matches_cli_json(capsys):
    cfg = RunConfig(value_set="kinf", bounds=(1, 1))
    report = run(cfg, "x + x^2*y")
    _, out, _ = run_main(
        capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1", "--json"
    )
    assert report.to_json() + "\n" == out


def run_module(module):
    """`python -m module` on the cubic's K0, importing the package these tests import."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", module, "x^3 - 3*x", "--set", "k0", "--json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def test_console_script_entry_point():
    proc = run_module("critvals.cli")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["k0"]["eliminant"] == "y^2 - 4"


def test_guard_refusal_exception_type():
    cfg = RunConfig(value_set="kinf", paper_bounds=True, field="real", arc_var_ceiling=64)
    with pytest.raises(GuardRefusal):
        run(cfg, "x + x^2*y")


def test_package_main_runs_without_warning():
    proc = run_module("critvals")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["k0"]["eliminant"] == "y^2 - 4"


def test_real_run_builds_each_system_once_and_refines_each_root_once(capsys, monkeypatch):
    import critvals.certify
    import critvals.report
    import critvals.solve
    import critvals.systems

    built = []
    refined = []

    def counting_build(f, shape, mode):
        built.append(mode)
        return real_build(f, shape, mode)

    def counting_refine(p, interval, width):
        refined.append(interval)
        return real_refine(p, interval, width)

    real_build, real_refine = critvals.systems.build_system, cli.refine_interval
    for module in (critvals.certify, critvals.solve):
        monkeypatch.setattr(module, "build_system", counting_build)
    for module in (cli, critvals.report):
        monkeypatch.setattr(module, "refine_interval", counting_refine, raising=False)
    code, doc = run_json(
        capsys, "x + x^2*y", "--field", "real", "--set", "all", "--bounds", "1,1",
        "--dump-system", "--restarts", "8",
    )
    assert code == 0
    # elimination, certification and the dump share one system per value set
    assert sorted(built) == ["BV", "GBV"]
    assert set(doc["dumped_systems"]) == {"kinf", "k"}
    roots = sum(len(r["real_roots"]) for r in doc["results"].values())
    assert roots == 2 and len(refined) == roots
    assert [r["certification"] for r in doc["results"]["k"]["real_roots"]] == ["CertifiedReal"]


def test_sf_run_builds_the_map_system_once(capsys, monkeypatch):
    import critvals.solve
    import critvals.systems

    built = []

    def counting_build(F, shape):
        built.append(len(F))
        return real_build(F, shape)

    real_build = critvals.systems.build_av_system
    monkeypatch.setattr(critvals.solve, "build_av_system", counting_build)
    code, doc = run_json(capsys, "x; x*y", "--set", "sf", "--bounds", "1,1", "--dump-system")
    assert code == 0
    assert built == [2]
    assert set(doc["dumped_systems"]) == {"sf"}


def test_k0_run_takes_one_squarefree_part(capsys, monkeypatch):
    # solve makes the eliminant squarefree once; isolation and refinement
    # take it as it is
    import critvals.univariate

    calls = []
    real_squarefree = critvals.univariate.squarefree_part

    def counting_squarefree(p):
        calls.append(p)
        return real_squarefree(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("critvals.") and hasattr(module, "squarefree_part"):
            monkeypatch.setattr(module, "squarefree_part", counting_squarefree)
    code, doc = run_json(capsys, "x^3 - 3*x", "--set", "k0")
    assert code == 0
    assert doc["results"]["k0"]["eliminant"] == "y^2 - 4"
    assert len(calls) == 1


def test_finite_critical_locus_takes_one_grevlex_buchberger(capsys, monkeypatch):
    # K0 reads a finite critical locus off the gradient ideal's grevlex
    # basis; only a locus that is not finite adds the block elimination
    import critvals.solve

    eliminated = []
    real_buchberger = critvals.solve.buchberger

    def recording(ideal, limits=None):
        eliminated.append(ideal.eliminate)
        return real_buchberger(ideal, limits)

    monkeypatch.setattr(critvals.solve, "buchberger", recording)
    code, doc = run_json(capsys, "x^3 - 3*x*y + y^3", "--set", "k0")
    assert code == 0
    assert doc["results"]["k0"]["eliminant"] == "y^2 + y"
    assert eliminated == [0]  # plain grevlex
    eliminated.clear()
    code, doc = run_json(capsys, "(x^2 + y^2 - 1)^2", "--set", "k0")
    assert code == 0
    assert doc["results"]["k0"]["eliminant"] == "y^2 - y"
    assert eliminated == [0, 2]  # then x and y eliminated from <grad f, y_ - f>
