"""Numeric adjunct: real-candidate certification and the Malgrange probe.

All floating point in the package lives here.  Upstream everything is
exact; this module compiles each exact system once into one monomial table
(`CompiledSystem`: the monomials of every polynomial and of every first
partial, with value and Jacobian coefficient matrices over them, and the
distinct (variable, exponent) pairs those monomials use), and runs seeded
multi-start local minimization on it:

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
fancier than the multi-start itself.  All starts of one minimization (the
restarts of a certification, the samples of one probe radius) advance
together as one (B, k) stack: each member keeps its own damping, iteration
and try counts, runs exactly the one-start control flow, and one stacked
solve per tick takes every live member's damped step.  Every product is an
`einsum` and every solve a LAPACK call of its own member, so a member's
result is bitwise the same whatever else is in the stack, and seeded
outcomes do not depend on how many restarts run.  Restarts are merged by
best residual with ties broken by restart index.

A point is evaluated once.  Its monomial vector takes one `pow` per
(variable, exponent) pair that occurs, gathered C-contiguously into the
columns' factors: the same `pow`s, multiplied in the same order on the
same layout, as raising every variable to every column's exponent, so the
floats are bitwise those of that kernel (a non-contiguous gather would
change the `einsum` sums).  The residual callback returns the residuals
and the monomials, each member carries its point's monomials next to its
residual, and the Jacobian of an accepted point is read off them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .arcs import ArcShape
from .poly import Exponent, Poly
from .systems import EquationSystem, build_system


class CertifyError(Exception):
    """Misuse: wrong field, arity mismatch, bad schedule."""


@dataclass(frozen=True)
class CertifyConfig:
    tolerance: float = 1e-9
    restarts: int = 32
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        # settings under which a search cannot run are errors, not empty results
        if self.seed < 0:
            raise CertifyError(f"seed must be non-negative, got {self.seed}")
        for name in ("restarts", "max_iters"):
            if (value := getattr(self, name)) < 1:
                raise CertifyError(f"{name} must be at least 1, got {value}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise CertifyError(f"tolerance must be finite and positive, got {self.tolerance}")


# The Malgrange probe's search: starts per radius, iterations per start and
# the seed of its random starts.
PROBE_SAMPLES = 32
PROBE_MAX_ITERS = 200
PROBE_SEED = 0
# measurement resolution at radius r is PROBE_FLOOR_SCALE / max(1, r): the
# search stops once the metric is below it and values under it are reported
# at the floor.  Without the clamp a true minimum of exactly zero would be
# reported as seed-dependent rounding noise, and comparing such noise across
# radii is meaningless
PROBE_FLOOR_SCALE = 1e-6


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
    dp_i/dx_j.  x is one point (n,) or a stack (..., n), real or complex,
    and each point's result does not depend on the rest of the stack.

    `bases` and `powers` list the P distinct (variable, exponent) pairs the
    columns use, and `pair_index` (U x n) maps each column's exponents to
    them.  `monomials(x)` raises x to each pair once and multiplies each
    column's factors, gathered into a C-contiguous (..., U, n) array, along
    the last axis: bitwise `np.prod(x[..., None, :] ** exponents, axis=-1)`
    (see the module docstring).  `values_at` and `jacobian_at` read the
    values and the Jacobian off monomial vectors with one `einsum` each."""

    __slots__ = (
        "size", "arity", "exponents", "bases", "powers", "pair_index", "value_coeffs", "jacobian_coeffs"
    )

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
            # the canonical term order fixes the columns, and with them every float sum
            for mono, coeff in p.terms():
                value_terms.append((i, columns.setdefault(mono, len(columns)), float(coeff)))
                for j, e in enumerate(mono):
                    if e:
                        dmono = mono[:j] + (e - 1,) + mono[j + 1 :]
                        col = columns.setdefault(dmono, len(columns))
                        jacobian_terms.append((i * n + j, col, float(coeff * e)))
        pairs: dict[tuple[int, int], int] = {}
        pair_index = [pairs.setdefault((j, e), len(pairs)) for mono in columns for j, e in enumerate(mono)]
        self.size = len(polys)
        self.arity = n
        self.exponents = np.array(list(columns), dtype=np.int64).reshape(len(columns), n)
        self.bases = np.array([j for j, _ in pairs], dtype=np.intp)
        self.powers = np.array([e for _, e in pairs], dtype=np.int64)
        self.pair_index = np.array(pair_index, dtype=np.intp).reshape(len(columns), n)
        self.value_coeffs = _dense(value_terms, (self.size, len(columns)))
        self.jacobian_coeffs = _dense(jacobian_terms, (self.size * n, len(columns)))

    def monomials(self, x: np.ndarray) -> np.ndarray:
        """The (..., U) monomial vectors of a point or stack x (..., n)."""
        return np.multiply.reduce((x.take(self.bases, axis=-1) ** self.powers).take(self.pair_index, axis=-1), axis=-1)

    def values_at(self, monomials: np.ndarray) -> np.ndarray:
        return np.einsum("...u,mu->...m", monomials, self.value_coeffs)

    def jacobian_at(self, monomials: np.ndarray) -> np.ndarray:
        flat = np.einsum("...u,ju->...j", monomials, self.jacobian_coeffs)
        return flat.reshape(*monomials.shape[:-1], self.size, self.arity)


def _dense(terms: list[tuple[int, int, float]], shape: tuple[int, int]) -> np.ndarray:
    out = np.zeros(shape)
    for row, col, coeff in terms:
        out[row, col] = coeff
    return out


def compile_arc_system(sys: EquationSystem) -> CompiledSystem:
    """The certifier's form of a real BV/GBV system: its generators, then
    c0 as the pin in the last row."""
    if sys.mode not in ("BV", "GBV"):
        raise CertifyError(f"arc systems to certify are BV or GBV, got {sys.mode!r}")
    if sys.shape.field != "real":
        raise CertifyError("certification runs on real-field shapes")
    return CompiledSystem((*sys.generators, sys.c0[0]))


def compile_critical_point_system(f: Poly) -> CompiledSystem:
    """The nonzero gradient components of f, then f itself as the pin."""
    partials = (f.partial_derivative(j) for j in range(f.vars.arity))
    return CompiledSystem([*(g for g in partials if not g.is_zero()), f])


# ---- Levenberg-Marquardt core ----


def _levenberg_marquardt(
    residual_fn,
    jacobian_fn,
    x0: np.ndarray,
    max_iters: int,
    stop_norm: float = 0.0,
    project=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||residual(x)||^2 from every row of the (B, k) stack x0;
    the optional projection keeps x feasible.  residual_fn maps a (b, k)
    stack to its residuals (b, m) and its monomial vectors (b, U), and
    jacobian_fn maps a stack and its monomials to (b, m, k).  Each member
    keeps the monomials of its point next to its residual, so the Jacobian
    of an accepted point reads them instead of evaluating the point again.
    Returns the final stack and its monomials.

    Deterministic damped Gauss-Newton, run for each member as if alone:
    an outer iteration stops on a small residual or gradient and forms J;
    each tick every live member tries one damped step, accepted (lam / 3,
    new J) if it lowers the cost, else lam * 10, at most 25 tries and none
    past lam = 1e12.  A singular damped system costs a try without the
    1e12 check."""
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    r, mono = residual_fn(x)
    cost = np.einsum("bm,bm->b", r, r)
    size, k = x.shape
    lam = np.full(size, 1e-3)
    iters, tries = np.zeros(size, dtype=int), np.zeros(size, dtype=int)
    live, fresh = np.ones(size, dtype=bool), np.ones(size, dtype=bool)
    grad, normal = np.zeros((size, k)), np.zeros((size, k, k))
    diagonal = np.arange(k)
    while True:
        head = np.flatnonzero(live & fresh)
        stop = (iters[head] >= max_iters) | (np.sqrt(cost[head]) <= stop_norm)
        live[head[stop]] = False
        head = head[~stop]
        if head.size:
            J = jacobian_fn(x[head], mono[head])
            g = np.einsum("bmk,bm->bk", J, r[head])
            flat = np.sqrt(np.einsum("bk,bk->b", g, g)) < 1e-16 * (1 + cost[head])
            live[head[flat]] = False
            head, J = head[~flat], J[~flat]
            grad[head], normal[head] = g[~flat], np.einsum("bmk,bml->bkl", J, J)
            iters[head] += 1
            tries[head] = 0
            fresh[head] = False
        idx = np.flatnonzero(live)
        if not idx.size:
            return x, mono
        damped = normal[idx]
        damped[:, diagonal, diagonal] += lam[idx, None]
        step, solved = _solve_stack(damped, -grad[idx])
        cand = x[idx] + step
        if project is not None:
            cand = project(cand)
        rc, mc = residual_fn(cand)
        cc = np.einsum("bm,bm->b", rc, rc)
        better = solved & (cc < cost[idx])
        won, lost = idx[better], idx[~better]
        x[won], r[won], mono[won], cost[won] = cand[better], rc[better], mc[better], cc[better]
        lam[won] = np.maximum(lam[won] / 3, 1e-12)
        fresh[won] = True
        lam[lost] *= 10
        tries[lost] += 1
        live[lost] = (tries[lost] < 25) & ~(solved[~better] & (lam[lost] > 1e12))


def _solve_stack(damped: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stacked solve; if some member is singular, member by member.
    Returns the steps (zero where singular) and which members solved."""
    try:
        return np.linalg.solve(damped, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        step, solved = np.zeros_like(rhs), np.ones(len(rhs), dtype=bool)
        for i in range(len(rhs)):
            try:
                step[i] = np.linalg.solve(damped[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[i] = False
        return step, solved


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
    on the residual vector (g_1..g_m, pin - y), every restart in one stack;
    the reported residual is max|g_alpha| + |pin - y| at the best point,
    the lowest restart index among equals.  Confirms, never refutes."""
    target = np.zeros(system.size)
    target[-1] = y

    def residual(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mono = system.monomials(x)
        return system.values_at(mono) - target, mono

    def jacobian(x: np.ndarray, mono: np.ndarray) -> np.ndarray:
        return system.jacobian_at(mono)

    def metric(mono: np.ndarray) -> np.ndarray:
        v = system.values_at(mono)
        res = np.max(np.abs(v[:, :-1]), axis=1, initial=0.0) + np.abs(v[:, -1] - y)
        return np.where(np.isnan(res), math.inf, res)

    rng = np.random.default_rng(cfg.seed)
    scales = (0.5, 1.0, 2.0, 4.0)
    starts = [rng.normal(size=system.arity) * scales[i % len(scales)] for i in range(cfg.restarts)]
    xs, monos = _levenberg_marquardt(residual, jacobian, np.array(starts), cfg.max_iters)
    res = metric(monos)
    best = int(np.argmin(res))  # the first of the smallest
    best_x, best_res = xs[best], float(res[best])

    if best_res < cfg.tolerance:
        # refinement check: one extra damped-Newton pass may not worsen it
        polished, polished_mono = _levenberg_marquardt(residual, jacobian, xs[best : best + 1], 1)
        polished_res = float(metric(polished_mono)[0])
        if polished_res <= best_res:
            best_x, best_res = polished[0], polished_res
        return CertificationOutcome(
            "CertifiedReal", tuple(float(v) for v in best_x), best_res
        )
    witness = tuple(float(v) for v in best_x) if best_res < math.inf else None
    return CertificationOutcome("Uncertified", witness, best_res)


def certify_real(
    f: Poly,
    shape: ArcShape,
    y: float,
    cfg: CertifyConfig | None = None,
) -> CertificationOutcome:
    """Is the real value y attained by a real arc of this shape?

    Minimizes G(a) + (c0(a) - y)^2 where G is the sum of squared generators
    of the shape's BV system; CertifiedReal iff the final residual is below
    tolerance.  Builds and compiles the system for this one call; to certify
    several values, compile once with `compile_arc_system` and call
    `certify_zero`."""
    system = compile_arc_system(build_system(f, shape, "BV"))
    return certify_zero(system, y, cfg or CertifyConfig())


def certify_critical_point(
    f: Poly, y: float, cfg: CertifyConfig | None = None
) -> CertificationOutcome:
    """Is y attained at a real critical point?  Same search with the
    gradient components as generators and f itself as the pin."""
    return certify_zero(compile_critical_point_system(f), y, cfg or CertifyConfig())


# ---- Malgrange probe ----


def malgrange_probe(
    f: Poly,
    y: complex,
    radii: Iterable[float],
    field: str = "complex",
) -> ProbeTrace:
    """Measure min of max(norm(x)*norm(grad f), |f - y|) on each sphere.

    Independent of the arc machinery: this looks directly for sequences
    witnessing the failure of the Malgrange condition at y.  Warm starts
    carry the best point of one radius to the next, so genuine asymptotic
    curves are tracked outward.  y must be finite (and real for field
    "real"), and the radii, any iterable of real numbers, finite, positive
    and strictly increasing.  A row's level flag says |f - y| < 1e-6 * (1 + |y|)
    at its point."""
    schedule = "radii must be a nonempty strictly increasing schedule of finite positive numbers"
    try:
        radii = tuple(float(r) for r in radii)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CertifyError(schedule) from exc
    pairs = zip(radii, radii[1:])
    if not radii or radii[0] <= 0 or not all(map(math.isfinite, radii)) or any(a >= b for a, b in pairs):
        raise CertifyError(schedule)
    if field not in ("complex", "real"):
        raise CertifyError(f"unknown field {field!r}")
    if not cmath.isfinite(y) or (field == "real" and isinstance(y, complex)):
        raise CertifyError(f"the target must be a finite {field} number, got {y!r}")
    return ProbeTrace(tuple(row for row, _ in _probe_steps(f, y, radii, field)))


def _probe_steps(f: Poly, y: complex, radii: Sequence[float], field: str):
    """Yield (row, carry) per radius: all starts of a radius (the carry of
    the last radius first, then fresh samples) run as one stack; the row is
    the first start whose value reaches the floor, else the first smallest."""
    delta = 1e-6 * (1 + abs(y))
    n = f.vars.arity
    is_complex = field == "complex"
    k = 2 * n if is_complex else n  # real search dimension

    # rows: the gradient, then f; the Jacobian's rows are the Hessian rows
    # and the gradient row
    system = CompiledSystem([*(f.partial_derivative(j) for j in range(n)), f])
    target = np.zeros(n + 1, dtype=complex if is_complex else float)
    target[-1] = y

    def point(u: np.ndarray) -> np.ndarray:
        return u[:, :n] + 1j * u[:, n:] if is_complex else u

    rng = np.random.default_rng(PROBE_SEED)
    carry: np.ndarray | None = None

    for radius in radii:
        floor = PROBE_FLOOR_SCALE / max(1.0, radius)
        # radius * grad f and f - y: the gradient rows carry the radius
        scale = np.array([radius] * n + [1.0])

        def residual(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            mono = system.monomials(point(u))
            z = system.values_at(mono) * scale - target
            return (np.concatenate([z.real, z.imag], axis=1) if is_complex else z), mono

        def tangent_jacobian(u: np.ndarray, mono: np.ndarray) -> np.ndarray:
            J = system.jacobian_at(mono) * scale[:, None]
            if is_complex:
                # d(g_l)/du_j = g_l', d/dv_j = i*g_l' (holomorphy)
                top = np.concatenate([J.real, -J.imag], axis=2)
                J = np.concatenate([top, np.concatenate([J.imag, J.real], axis=2)], axis=1)
            uhat = u / np.linalg.norm(u, axis=1, keepdims=True)
            return J - np.einsum("bmk,bk->bm", J, uhat)[:, :, None] * uhat[:, None, :]

        def project(u: np.ndarray) -> np.ndarray:
            norm = np.linalg.norm(u, axis=1, keepdims=True)
            u = np.where(norm == 0, 1.0, u)
            return u * (radius / np.where(norm == 0, math.sqrt(k), norm))

        starts = [] if carry is None else [carry]
        starts += [rng.normal(size=k) for _ in range(PROBE_SAMPLES - len(starts))]
        us, monos = _levenberg_marquardt(
            residual, tangent_jacobian, project(np.array(starts)), PROBE_MAX_ITERS, stop_norm=floor, project=project
        )
        v = system.values_at(monos)
        misses = np.abs(v[:, -1] - y)
        values = np.maximum(radius * np.sqrt(np.sum(np.abs(v[:, :n]) ** 2, axis=1)), misses)

        best, best_val = None, math.inf
        for i, val in enumerate(values):
            if val < best_val:
                best, best_val = i, val
            if best_val <= floor:
                break

        carry = None if best is None else us[best]
        best_miss = math.inf if best is None else misses[best]
        yield ProbeRow(float(radius), float(max(best_val, floor)), bool(best_miss < delta)), carry
