"""End-to-end CLI tests: exit codes, flags, and the JSON report schema."""

import json
import subprocess
import sys

import pytest

from critvals import cli
from critvals.cli import GuardRefusal, RunConfig, UsageError, run
from critvals.solve import InternalInvariantError


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
        code, doc = run_json(
            capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1", "--max-pairs", "1"
        )
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

    def test_variable_inference_order(self, capsys):
        _, doc = run_json(capsys, "y^2 + x", "--set", "k0")
        assert doc["input"]["variables"] == ["y", "x"]

    def test_explicit_vars_add_absent_variable(self, capsys):
        _, doc = run_json(capsys, "x^2", "--set", "k0", "--vars", "x,y")
        assert doc["input"]["variables"] == ["x", "y"]

    def test_bad_variable_name(self, capsys):
        code, _, _ = run_main(capsys, "x^2", "--set", "k0", "--vars", "x,2y")
        assert code == 2


class TestLimitsEnvVar:
    def test_env_default_applies(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "max_pairs=1")
        code, doc = run_json(capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1")
        assert code == 3 and doc["error"]["type"] == "LimitExceeded"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "max_pairs=1")
        code, doc = run_json(
            capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1",
            "--max-pairs", "100000",
        )
        assert code == 0
        assert doc["config"]["limits"]["max_pairs"] == 100000

    def test_bad_env_entry(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.LIMITS_ENV_VAR, "bogus=1")
        code, _, _ = run_main(capsys, "x^2", "--set", "k0")
        assert code == 2


def test_run_api_matches_cli_json(capsys):
    cfg = RunConfig(value_set="kinf", bounds=(1, 1), output="json")
    report = run(cfg, "x + x^2*y")
    _, out, _ = run_main(
        capsys, "x + x^2*y", "--set", "kinf", "--bounds", "1,1", "--json"
    )
    assert report.to_json() + "\n" == out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "critvals.cli", "x^3 - 3*x", "--set", "k0", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["k0"]["eliminant"] == "y^2 - 4"


def test_guard_refusal_exception_type():
    cfg = RunConfig(value_set="kinf", paper_bounds=True, field="real", arc_var_ceiling=64)
    with pytest.raises(GuardRefusal):
        run(cfg, "x + x^2*y")


def test_package_main_runs_without_warning():
    proc = subprocess.run(
        [sys.executable, "-m", "critvals", "x^3 - 3*x", "--set", "k0", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["k0"]["eliminant"] == "y^2 - 4"


def test_real_run_builds_each_system_once_and_refines_each_root_once(capsys, monkeypatch):
    import critvals.certify
    import critvals.report
    import critvals.solve

    built = []
    refined = []

    def counting_build(f, shape, mode):
        built.append(mode)
        return real_build(f, shape, mode)

    def counting_refine(p, interval, width):
        refined.append(interval)
        return real_refine(p, interval, width)

    real_build, real_refine = cli.build_system, cli.refine_interval
    for module in (cli, critvals.certify, critvals.solve):
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

    built = []

    def counting_build(F, shape, generalized=False):
        built.append(len(F))
        return real_build(F, shape, generalized)

    real_build = cli.build_av_system
    for module in (cli, critvals.solve):
        monkeypatch.setattr(module, "build_av_system", counting_build)
    code, doc = run_json(capsys, "x; x*y", "--set", "sf", "--bounds", "1,1", "--dump-system")
    assert code == 0
    assert built == [2]
    assert set(doc["dumped_systems"]) == {"sf"}
