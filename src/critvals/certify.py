"""Numeric adjunct: real-candidate certification and the Malgrange probe.

All floating point in the package lives here.  Upstream everything is
exact; this module compiles each exact system once into one monomial table
(`CompiledSystem`: the monomials of every polynomial and of every first
partial, with value and Jacobian coefficient matrices over them), and runs
seeded multi-start local minimization on it:

  certify_real    minimizes sum of squared generators plus the pin
                  (c0(a) - y)^2 over the real arc coefficients; a final
                  residual below tolerance certifies that y is attained
                  by a real arc.  Failure to certify proves nothing.

  malgrange_probe minimizes the product norm(x) * norm(grad f(x)) on
                  spheres of growing radius, with the level condition
                  f(x) ~ y as a penalized residual.  The recorded value
                  is max(norm(x)*norm(grad f), |f - y|) at the best point
                  found, so a small value really does witness a near-level
                  point with small product; decaying values across radii
                  indicate y is an asymptotic critical value, flat values
                  bounded away from zero indicate it is not.

Minimization is Levenberg-Marquardt (damped Newton for least squares) on
an explicit residual vector with analytic Jacobians, preceded by nothing
fancier than the multi-start itself.  Fixed seeds make every outcome
reproducible; restarts are merged by best residual with ties broken by
restart index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .arcs import ArcShape
from .poly import Exponent, Poly, Scalar
from .systems import EquationSystem, Mode, build_system


class CertifyError(Exception):
    """Misuse: wrong field, arity mismatch, bad schedule."""


@dataclass(frozen=True)
class CertifyConfig:
    tolerance: float = 1e-9
    restarts: int = 32
    max_iters: int = 200
    seed: int = 0


@dataclass(frozen=True)
class ProbeConfig:
    samples_per_radius: int = 32
    level_tolerance: float | None = None  # default 1e-6 * (1 + |y|)
    max_iters: int = 200
    seed: int = 0
    # measurement resolution at radius r is floor_scale / max(1, r): the
    # search stops once the metric is below it and values under it are
    # reported at the floor.  Without the clamp a true minimum of exactly
    # zero would be reported as seed-dependent rounding noise, and
    # comparing such noise across radii is meaningless
    floor_scale: float = 1e-6


@dataclass(frozen=True)
class CertificationOutcome:
    status: Literal["CertifiedReal", "Uncertified"]
    witness: tuple[float, ...] | None
    residual: float

    @property
    def certified(self) -> bool:
        return self.status == "CertifiedReal"


@dataclass(frozen=True)
class ProbeRow:
    radius: float
    value: float
    level_within_delta: bool


@dataclass(frozen=True)
class ProbeTrace:
    rows: tuple[ProbeRow, ...]

    def __post_init__(self) -> None:
        radii = [r.radius for r in self.rows]
        if any(a >= b for a, b in zip(radii, radii[1:])):
            raise CertifyError("probe radii must be strictly increasing")

    def running_minima(self) -> list[float]:
        out, best = [], math.inf
        for row in self.rows:
            best = min(best, row.value)
            out.append(best)
        return out


# ---- float compilation of exact polynomials ----


class CompiledSystem:
    """Float evaluator of polynomials p_1..p_m and all their first partials.

    One exponent matrix (U x n) lists every monomial of every p_i and of
    every dp_i/dx_j once.  The value coefficients form an m x U matrix and
    the Jacobian coefficients an (m*n) x U matrix, row i*n + j holding
    dp_i/dx_j.  An evaluation forms the monomial vector once and reads the
    values, or the Jacobian, off it with one matrix-vector product; x may be
    real or complex."""

    __slots__ = ("size", "arity", "exponents", "value_coeffs", "jacobian_coeffs")

    def __init__(self, polys: Sequence[Poly]):
        if not polys:
            raise CertifyError("a compiled system needs at least one polynomial")
        table = polys[0].vars
        n = table.arity
        columns: dict[Exponent, int] = {}
        value_terms: list[tuple[int, int, float]] = []
        jacobian_terms: list[tuple[int, int, float]] = []
        for i, p in enumerate(polys):
            if p.vars != table:
                raise CertifyError("compiled polynomials must share one variable table")
            for mono, coeff in p.terms():
                value_terms.append((i, columns.setdefault(mono, len(columns)), float(coeff)))
                for j, e in enumerate(mono):
                    if e:
                        dmono = mono[:j] + (e - 1,) + mono[j + 1 :]
                        col = columns.setdefault(dmono, len(columns))
                        jacobian_terms.append((i * n + j, col, float(coeff * e)))
        self.size = len(polys)
        self.arity = n
        self.exponents = np.array(list(columns), dtype=np.int64).reshape(len(columns), n)
        self.value_coeffs = _dense(value_terms, (self.size, len(columns)))
        self.jacobian_coeffs = _dense(jacobian_terms, (self.size * n, len(columns)))

    def monomials(self, x: np.ndarray) -> np.ndarray:
        return np.prod(x**self.exponents, axis=1)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.value_coeffs @ self.monomials(x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return (self.jacobian_coeffs @ self.monomials(x)).reshape(self.size, self.arity)


def _dense(terms: list[tuple[int, int, float]], shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape)
    for row, col, coeff in terms:
        out[row, col] = coeff
    return out


def compile_arc_system(sys: EquationSystem) -> CompiledSystem:
    """The certifier's form of a real BV/GBV system: its generators, then
    c0 as the pin in the last row."""
    _require_arc_mode(sys.mode)
    if sys.field != "real":
        raise CertifyError("certification runs on real-field shapes")
    return CompiledSystem((*sys.generators, sys.c0[0]))


def compile_critical_point_system(f: Poly) -> CompiledSystem:
    """The nonzero gradient components of f, then f itself as the pin."""
    partials = (f.partial_derivative(j) for j in range(f.vars.arity))
    return CompiledSystem([*(g for g in partials if not g.is_zero()), f])


def _require_arc_mode(mode: Mode) -> None:
    if mode not in ("BV", "GBV"):
        raise CertifyError(f"arc systems to certify are BV or GBV, got {mode!r}")


# ---- Levenberg-Marquardt core ----


def _levenberg_marquardt(
    residual_fn,
    jacobian_fn,
    x0: np.ndarray,
    max_iters: int,
    stop_norm: float = 0.0,
    project=None,
) -> np.ndarray:
    """Minimize ||residual(x)||^2; optional projection keeps x feasible.

    Deterministic damped Gauss-Newton: the damping parameter only ever
    changes by fixed factors, and all linear algebra is numpy's."""
    x = x0.copy() if project is None else project(x0.copy())
    r = residual_fn(x)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(max_iters):
        if math.sqrt(cost) <= stop_norm:
            break
        J = jacobian_fn(x)
        g = J.T @ r
        if np.linalg.norm(g) < 1e-16 * (1 + cost):
            break
        damped = J.T @ J
        diagonal = damped.diagonal().copy()
        improved = False
        for _ in range(25):
            damped.flat[:: len(x) + 1] = diagonal + lam
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = x + step
            if project is not None:
                cand = project(cand)
            rc = residual_fn(cand)
            cc = float(rc @ rc)
            if cc < cost:
                x, r, cost = cand, rc, cc
                lam = max(lam / 3, 1e-12)
                improved = True
                break
            lam *= 10
            if lam > 1e12:
                break
        if not improved:
            break
    return x


# ---- exact membership check ----


def verify_arc(f: Poly, shape: ArcShape, a: Sequence[Scalar], mode: Mode) -> bool:
    """Exact test: does the rational a-vector satisfy every generator of
    the shape's system for f?"""
    _require_arc_mode(mode)
    if len(a) != shape.num_vars:
        raise CertifyError(
            f"a-vector has {len(a)} entries, shape needs {shape.num_vars}"
        )
    point = [Fraction(v) for v in a]
    sys = build_system(f, shape, mode)
    return all(g.eval_exact(point) == 0 for g in sys.generators)


# ---- real certification ----


def certify_zero(
    system: CompiledSystem,
    y: float,
    cfg: CertifyConfig,
) -> CertificationOutcome:
    """Search for a real common zero of the generators with pin = y.

    `system` holds the generators g_1..g_m and, in its last row, the pin
    (see `compile_arc_system`, `compile_critical_point_system`), so one
    compiled system serves every target y.  Multi-start Levenberg-Marquardt
    on the stacked residual vector (g_1..g_m, pin - y); the reported
    residual is max|g_alpha| + |pin - y| at the best point.  Confirms,
    never refutes."""
    target = np.zeros(system.size)
    target[-1] = y

    def residual(x: np.ndarray) -> np.ndarray:
        return system.values(x) - target

    def metric(x: np.ndarray) -> float:
        v = system.values(x)
        return float(np.max(np.abs(v[:-1]), initial=0.0)) + abs(float(v[-1]) - y)

    rng = np.random.default_rng(cfg.seed)
    best_x: np.ndarray | None = None
    best_res = math.inf
    scales = (0.5, 1.0, 2.0, 4.0)
    for restart in range(cfg.restarts):
        x0 = rng.normal(size=system.arity) * scales[restart % len(scales)]
        x = _levenberg_marquardt(residual, system.jacobian, x0, cfg.max_iters)
        res = metric(x)
        if res < best_res:
            best_res, best_x = res, x

    if best_x is not None and best_res < cfg.tolerance:
        # refinement check: one extra damped-Newton pass may not worsen it
        polished = _levenberg_marquardt(residual, system.jacobian, best_x, 1)
        if metric(polished) <= best_res:
            best_x, best_res = polished, metric(polished)
        return CertificationOutcome(
            "CertifiedReal", tuple(float(v) for v in best_x), best_res
        )
    witness = tuple(float(v) for v in best_x) if best_x is not None else None
    return CertificationOutcome("Uncertified", witness, best_res)


def certify_real(
    f: Poly,
    shape: ArcShape,
    y: float,
    cfg: CertifyConfig | None = None,
    mode: Mode = "BV",
) -> CertificationOutcome:
    """Is the real value y attained by a real arc of this shape?

    Minimizes G(a) + (c0(a) - y)^2 where G is the sum of squared system
    generators; CertifiedReal iff the final residual is below tolerance.
    Builds and compiles the system for this one call; to certify several
    values, compile once with `compile_arc_system` and call `certify_zero`."""
    _require_arc_mode(mode)
    if shape.field != "real":
        raise CertifyError("certification runs on real-field shapes")
    system = compile_arc_system(build_system(f, shape, mode))
    return certify_zero(system, y, cfg or CertifyConfig())


def certify_critical_point(
    f: Poly, y: float, cfg: CertifyConfig | None = None
) -> CertificationOutcome:
    """Is y attained at a real critical point?  Same search with the
    gradient components as generators and f itself as the pin."""
    return certify_zero(compile_critical_point_system(f), y, cfg or CertifyConfig())


# ---- Malgrange probe ----


def _complex_view(u: np.ndarray, n: int) -> np.ndarray:
    return u[:n] + 1j * u[n:]


def malgrange_probe(
    f: Poly,
    y: complex,
    radii: Sequence[float],
    cfg: ProbeConfig | None = None,
    field: str = "complex",
) -> ProbeTrace:
    """Measure min of max(norm(x)*norm(grad f), |f - y|) on each sphere.

    Independent of the arc machinery: this looks directly for sequences
    witnessing the failure of the Malgrange condition at y.  Warm starts
    carry the best point of one radius to the next, so genuine asymptotic
    curves are tracked outward."""
    if any(a >= b for a, b in zip(radii, list(radii)[1:])) or not radii:
        raise CertifyError("radii must be a nonempty strictly increasing schedule")
    if field not in ("complex", "real"):
        raise CertifyError(f"unknown field {field!r}")
    cfg = cfg or ProbeConfig()
    delta = (
        cfg.level_tolerance
        if cfg.level_tolerance is not None
        else 1e-6 * (1 + abs(y))
    )
    n = f.vars.arity
    is_complex = field == "complex"
    k = 2 * n if is_complex else n  # real search dimension

    # rows: the gradient, then f; the Jacobian's rows are the Hessian rows
    # and the gradient row
    system = CompiledSystem([*(f.partial_derivative(j) for j in range(n)), f])
    target = np.zeros(n + 1, dtype=complex if is_complex else float)
    target[-1] = y

    def point(u: np.ndarray) -> np.ndarray:
        return _complex_view(u, n) if is_complex else u

    def split(z: np.ndarray) -> np.ndarray:
        return np.concatenate([z.real, z.imag]) if is_complex else z

    rows: list[ProbeRow] = []
    rng = np.random.default_rng(cfg.seed)
    carry: np.ndarray | None = None

    for radius in radii:
        floor = cfg.floor_scale / max(1.0, radius)
        # radius * grad f and f - y: the gradient rows carry the radius
        scale = np.array([radius] * n + [1.0])

        def residual(u: np.ndarray) -> np.ndarray:
            return split(system.values(point(u)) * scale - target)

        def jacobian(u: np.ndarray) -> np.ndarray:
            J_c = system.jacobian(point(u)) * scale[:, None]
            if is_complex:
                # d(g_l)/du_j = g_l', d/dv_j = i*g_l' (holomorphy)
                top = np.hstack([J_c.real, -J_c.imag])
                bot = np.hstack([J_c.imag, J_c.real])
                return np.vstack([top, bot])
            return J_c

        def project(u: np.ndarray) -> np.ndarray:
            norm = np.linalg.norm(u)
            if norm == 0:
                u = np.ones(k)
                norm = np.linalg.norm(u)
            return u * (radius / norm)

        def tangent_jacobian(u: np.ndarray) -> np.ndarray:
            J = jacobian(u)
            uhat = u / np.linalg.norm(u)
            return J - np.outer(J @ uhat, uhat)

        def metric(u: np.ndarray) -> tuple[float, float]:
            v = system.values(point(u))
            gn = math.sqrt(float(np.sum(np.abs(v[:n]) ** 2)))
            miss = abs(v[-1] - y)
            return max(radius * gn, miss), miss

        starts: list[np.ndarray] = []
        if carry is not None:
            starts.append(project(carry))
        while len(starts) < cfg.samples_per_radius:
            starts.append(project(rng.normal(size=k)))

        best_u: np.ndarray | None = None
        best_val = math.inf
        best_miss = math.inf
        for u0 in starts:
            u = _levenberg_marquardt(
                residual,
                tangent_jacobian,
                u0,
                cfg.max_iters,
                stop_norm=floor,
                project=project,
            )
            val, miss = metric(u)
            if val < best_val:
                best_u, best_val, best_miss = u, val, miss
            if best_val <= floor:
                break

        carry = best_u
        rows.append(
            ProbeRow(float(radius), float(max(best_val, floor)), bool(best_miss < delta))
        )

    return ProbeTrace(tuple(rows))
