"""Command-line front end.

Parses a polynomial (or a semicolon-separated map), picks the field, the
target value set, and the arc bounds, runs the pipeline, and emits a
deterministic text or JSON report.  Exit codes: 0 success, 2 bad input or
config, 3 resource limit or size guard, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any

from .arcs import ArcError, ArcShape, paper_bounds_complex, paper_bounds_real
from .certify import (
    CertificationOutcome,
    CertifyConfig,
    CertifyError,
    compile_arc_system,
    compile_critical_point_system,
    certify_zero,
)
from .groebner import GroebnerError, LimitExceeded, ResourceLimits
from .poly import ParseError, Poly, PolyError, VarTable, _tokenize, parse_poly, serialize_poly
from .report import (
    CriticalValueReport,
    build_sf_report,
    build_value_set_report,
    build_system_dump,
)
from .solve import (
    InternalInvariantError,
    SolveError,
    UnivariateResult,
    compute_k,
    compute_k0,
    compute_kinf,
    compute_sF,
    heuristic_shape,
)
from .systems import SystemError
from .univariate import UnivariateError, squarefree_part

LIMITS_ENV_VAR = "CRITVALS_LIMITS"
VALUE_SETS = ("k0", "kinf", "k", "sf", "all")
# --paper-bounds refuses shapes with more arc variables unless --force
ARC_VAR_CEILING = 64


class UsageError(Exception):
    """Config/input combination the pipeline cannot run (exit code 2)."""


class GuardRefusal(Exception):
    """Size guard tripped before any heavy work started (exit code 3)."""


@dataclass(frozen=True)
class RunConfig:
    field: str = "complex"
    value_set: str = "k"
    variables: tuple[str, ...] | None = None  # None: infer from the input text
    bounds: tuple[int, int] | None = None  # explicit (D1, D2)
    paper_bounds: bool = False
    force: bool = False
    seed: int = 0
    dump_system: bool = False
    timings: bool = False
    limits: ResourceLimits = ResourceLimits()
    certifier: CertifyConfig = CertifyConfig()

    def __post_init__(self) -> None:
        if self.field not in ("complex", "real"):
            raise UsageError(f"unknown field {self.field!r}")
        if self.value_set not in VALUE_SETS:
            raise UsageError(f"unknown value set {self.value_set!r}")
        if self.bounds is not None:
            d1, d2 = self.bounds
            if d1 < 1 or d2 < 0:
                raise UsageError(f"bounds need D1 >= 1 and D2 >= 0, got ({d1}, {d2})")
        if self.bounds is not None and self.paper_bounds:
            raise UsageError("--bounds and --paper-bounds are mutually exclusive")
        if self.certifier.seed != self.seed:
            raise UsageError(f"certifier seed {self.certifier.seed} differs from the run seed {self.seed}")


def _split_components(text: str, value_set: str) -> list[str]:
    parts = [part.strip() for part in text.split(";")]
    if any(not part for part in parts):
        raise UsageError("empty polynomial component in input")
    if value_set == "sf":
        if len(parts) < 2:
            raise UsageError("--set sf needs a map: two or more components separated by ';'")
    elif len(parts) != 1:
        raise UsageError(f"--set {value_set} takes a single polynomial, got {len(parts)}")
    return parts


def _infer_variables(components: list[str]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for text in components:
        for kind, value, _ in _tokenize(text):
            if kind == "name":
                seen.setdefault(value)
    if not seen:
        raise UsageError("no variables in input; name them explicitly with --vars")
    return tuple(seen)


def _validated_variables(names: tuple[str, ...]) -> tuple[str, ...]:
    for name in names:
        ok = name and (name[0].isalpha() or name[0] == "_")
        ok = ok and all(c.isalnum() or c == "_" for c in name)
        if not ok:
            raise UsageError(f"invalid variable name {name!r}")
    return names


def _build_shape(cfg: RunConfig, top: Poly) -> ArcShape:
    """Arc shape for the highest-degree input component `top`."""
    if cfg.bounds is not None:
        d1, d2 = cfg.bounds
        return ArcShape(n=top.vars.arity, D1=d1, D2=d2, field=cfg.field, bound_source="user")
    if not cfg.paper_bounds:
        # desk-scale default, sound but not complete
        return heuristic_shape(top, cfg.field)
    if cfg.value_set == "sf":
        raise UsageError("paper bounds cover single-polynomial runs, not maps")
    fn = paper_bounds_real if cfg.field == "real" else paper_bounds_complex
    d1, d2 = fn(top.vars.arity, top.total_degree())
    shape = ArcShape(n=top.vars.arity, D1=d1, D2=d2, field=cfg.field, bound_source="paper")
    if shape.num_vars > ARC_VAR_CEILING and not cfg.force:
        raise GuardRefusal(
            f"paper bounds (D1, D2) = ({d1}, {d2}) need {shape.num_vars} arc "
            f"variables, over the ceiling of {ARC_VAR_CEILING}; rerun with "
            "--force to proceed anyway"
        )
    return shape


def _certify_real_roots(cfg: RunConfig, f: Poly, result: UnivariateResult) -> list[CertificationOutcome]:
    """Certify each real root of a result against one compiled system: its
    arc system for K_inf/K, or f's critical-point system for K0 (no arc
    system)."""
    if not result.real_roots:
        return []
    if result.system is None:
        system = compile_critical_point_system(f)
    else:
        system = compile_arc_system(result.system)
    return [certify_zero(system, root.approx(), cfg.certifier) for root in result.real_roots]


def _check_k_is_k0_union_kinf(k0: Poly, kinf: Poly, k: Poly) -> None:
    """A complete complex run must give K = K0 union Kinf (Jelonek-Kurdyka)."""
    if squarefree_part(k0 * kinf) != k:
        raise InternalInvariantError(
            f"complete complex run broke K = K0 union Kinf: K0 {serialize_poly(k0)}, "
            f"Kinf {serialize_poly(kinf)}, K {serialize_poly(k)}"
        )


def run(cfg: RunConfig, text: str) -> CriticalValueReport:
    t_start = time.perf_counter()
    components = _split_components(text, cfg.value_set)
    names = _validated_variables(
        cfg.variables if cfg.variables is not None else _infer_variables(components)
    )
    table = VarTable(names)
    polys = [parse_poly(part, table) for part in components]

    top = max(polys, key=lambda p: p.total_degree())
    if top.total_degree() <= 0:
        raise SolveError("constant input has no critical-value structure")
    needs_shape = cfg.value_set in ("kinf", "k", "sf", "all")
    shape = _build_shape(cfg, top) if needs_shape else None

    timings: dict[str, int] = {}
    results: dict[str, dict[str, Any]] = {}
    dumps: dict[str, Any] = {}
    eliminants: dict[str, Poly] = {}
    f = polys[0]
    for name in ("k0", "kinf", "k") if cfg.value_set == "all" else (cfg.value_set,):
        t0 = time.perf_counter()
        if name == "sf":
            result = compute_sF(polys, shape, cfg.limits)
            results[name] = build_sf_report(result)
        else:
            if name == "k0":
                result = compute_k0(f, cfg.limits)
            else:
                compute = compute_kinf if name == "kinf" else compute_k
                result = compute(f, shape, cfg.limits)
            # the result's one arc system is eliminated, certified against and dumped
            certs = _certify_real_roots(cfg, f, result) if cfg.field == "real" else None
            results[name] = build_value_set_report(result, certs)
            eliminants[name] = result.eliminant
        timings[name] = int(1000 * (time.perf_counter() - t0))
        if cfg.dump_system and result.system is not None:
            dumps[name] = build_system_dump(result.system)
    if cfg.value_set == "all" and cfg.field == "complex" and shape.bound_source == "paper":
        _check_k_is_k0_union_kinf(**eliminants)

    config_echo: dict[str, Any] = {
        "field": cfg.field,
        "set": cfg.value_set,
        "seed": cfg.seed,
        "bounds": None
        if shape is None
        else {"source": shape.bound_source, "D1": shape.D1, "D2": shape.D2},
        "limits": asdict(cfg.limits),
        "certifier": {
            "tolerance": cfg.certifier.tolerance,
            "restarts": cfg.certifier.restarts,
            "max_iters": cfg.certifier.max_iters,
        },
    }
    timings["total"] = int(1000 * (time.perf_counter() - t_start))
    return CriticalValueReport(
        input_polynomials=tuple(components),
        input_variables=names,
        config=config_echo,
        results=results,
        dumped_systems=dumps if cfg.dump_system else None,
        timings_ms=timings if cfg.timings else None,
    )


def _limits_from_env_and_args(args: argparse.Namespace) -> ResourceLimits:
    values = asdict(ResourceLimits())
    raw = os.environ.get(LIMITS_ENV_VAR, "")
    if raw.strip():
        for item in raw.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in values or not val.strip():
                raise UsageError(
                    f"bad {LIMITS_ENV_VAR} entry {item.strip()!r}; expected "
                    "key=value with keys " + ", ".join(sorted(values))
                )
            try:
                values[key] = type(values[key])(val)  # int or float, as the default
            except ValueError:
                raise UsageError(f"bad {LIMITS_ENV_VAR} value in {item.strip()!r}") from None
    for key in values:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    try:
        return ResourceLimits(**values)
    except GroebnerError as e:
        raise UsageError(str(e)) from None


def _parse_bounds(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--bounds wants 'D1,D2', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--bounds wants integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="critvals",
        description="Critical, asymptotic critical, and generalized critical "
        "values of polynomials; non-properness sets of polynomial maps.",
    )
    p.add_argument("input", help="polynomial; for --set sf, map components separated by ';'")
    p.add_argument("--field", choices=("complex", "real"), default="complex")
    p.add_argument("--set", dest="value_set", choices=VALUE_SETS, default="k",
                   help="which value set to compute (default: k)")
    p.add_argument("--vars", default=None,
                   help="comma-separated variable names; default: inferred "
                   "from the input in order of first appearance")
    p.add_argument("--bounds", default=None, metavar="D1,D2",
                   help="explicit arc bounds")
    p.add_argument("--paper-bounds", action="store_true",
                   help="use the complete arc bounds for (n, deg f)")
    p.add_argument("--force", action="store_true",
                   help="run paper bounds even past the arc-variable ceiling "
                   f"({ARC_VAR_CEILING})")
    p.add_argument("--seed", type=int, default=0, help="certifier RNG seed")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--dump-system", action="store_true",
                   help="include the generated equation systems in the report")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed milliseconds (breaks byte-level "
                   "report reproducibility)")
    cert = p.add_argument_group("certifier (real runs)")
    cert.add_argument("--tolerance", type=float, default=None,
                      help="certification residual bound (default 1e-9)")
    cert.add_argument("--restarts", type=int, default=None)
    cert.add_argument("--cert-iters", type=int, default=None)
    lim = p.add_argument_group(
        "resource limits (defaults may also be set via "
        f"{LIMITS_ENV_VAR}=key=value,... ; flags win)"
    )
    lim.add_argument("--max-pairs", dest="max_pairs", type=int, default=None)
    lim.add_argument("--max-basis-size", dest="max_basis_size", type=int, default=None)
    lim.add_argument("--max-coefficient-bits", dest="max_coefficient_bits",
                     type=int, default=None)
    lim.add_argument("--budget", dest="wall_clock_budget", type=float, default=None,
                     help="wall-clock budget in seconds")
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base_cert = CertifyConfig()
    certifier = CertifyConfig(
        tolerance=args.tolerance if args.tolerance is not None else base_cert.tolerance,
        restarts=args.restarts if args.restarts is not None else base_cert.restarts,
        max_iters=args.cert_iters if args.cert_iters is not None else base_cert.max_iters,
        seed=args.seed,
    )
    variables = None
    if args.vars is not None:
        variables = tuple(name.strip() for name in args.vars.split(","))
    return RunConfig(
        field=args.field,
        value_set=args.value_set,
        variables=variables,
        bounds=_parse_bounds(args.bounds) if args.bounds is not None else None,
        paper_bounds=args.paper_bounds,
        force=args.force,
        seed=args.seed,
        dump_system=args.dump_system,
        timings=args.timings,
        limits=_limits_from_env_and_args(args),
        certifier=certifier,
    )


_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (LimitExceeded, 3),
    (GuardRefusal, 3),
    (InternalInvariantError, 4),
    (UnivariateError, 4),
    (GroebnerError, 4),
    (ParseError, 2),
    (PolyError, 2),
    (UsageError, 2),
    (ArcError, 2),
    (SystemError, 2),
    (SolveError, 2),
    (CertifyError, 2),
)


def _exit_code(e: Exception) -> int:
    for cls, code in _EXIT_CODES:
        if isinstance(e, cls):
            return code
    return 4


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run(cfg, args.input)
    except Exception as e:  # noqa: BLE001 - every failure maps to an exit code
        code = _exit_code(e)
        message = str(e) or type(e).__name__  # MemoryError() carries no message
        if args.json:
            payload = {"error": {"code": code, "type": type(e).__name__, "message": message}}
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(f"error: {message}", file=sys.stderr)
        return code
    body = report.to_json() + "\n" if args.json else report.to_text()
    sys.stdout.write(body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
