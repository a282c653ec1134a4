"""Critical-value computations: K0, Kinf, K, and the non-properness set.

Every computation is the same move: adjoin image variables pinned to the
relevant polynomials, eliminate everything else with a block order, and
post-process the univariate eliminant.  For a finite image this computes
the image of the variety exactly, so no component decomposition is needed.

  K0:   eliminate x from <grad f, y - f>
  Kinf: eliminate arc variables from <BV system, y - c0>
  K:    eliminate arc variables from <GBV system, y - c0>
  S_F:  eliminate arc variables from <AV system, y_l - c0_l>

K0 elimination is exact.  Arc-based eliminations are exact at paper
bounds; at user bounds the root set is sound (a subset of the true value
set), and results carry a completeness flag saying which.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arcs import ArcShape
from .groebner import (
    GroebnerBasis,
    Ideal,
    ResourceLimits,
    block_elim_order,
    buchberger,
    grevlex_order,
)
from .poly import Poly, VarTable, remap_variables
from .systems import EquationSystem, build_av_system, build_system
from .univariate import (
    ComplexRoot,
    RootInterval,
    approx_complex_roots,
    isolate_real_roots,
    squarefree_part,
)

Y_TABLE = VarTable(("y",))

COMPLETE = "paper-bounds-complete"
SOUND_ONLY = "reduced-bounds-sound-only"
EXACT = "exact"


class SolveError(Exception):
    """Misuse: constant input, wrong mode, empty map."""


class InternalInvariantError(Exception):
    """A should-be-impossible state: the finite-image elimination ideal
    came out zero, or the reduced basis kept more than one image-variable
    generator.  Reported as an internal error, never as a value set."""


@dataclass(frozen=True)
class Diagnostics:
    variable_count: int
    generator_count: int
    basis_size: int


@dataclass(frozen=True)
class UnivariateResult:
    """Value set as a squarefree eliminant plus its isolated roots.

    The eliminant is content-free over the table ("y",); the constant 1
    means the system was infeasible and the value set empty.  real_roots
    are exact isolating intervals; complex_roots carry residual bounds.
    """

    eliminant: Poly
    real_roots: tuple[RootInterval, ...]
    complex_roots: tuple[ComplexRoot, ...]
    completeness: str
    diagnostics: Diagnostics

    @property
    def empty(self) -> bool:
        return self.eliminant.is_constant()


@dataclass(frozen=True)
class SFResult:
    """Elimination ideal of the non-properness variety in y1..ym."""

    ideal: Ideal
    diagnostics: Diagnostics


def heuristic_shape(f: Poly, field: str = "complex") -> ArcShape:
    """Default desk-scale shape: D1 = deg f, D2 = (deg f - 1) * D1 + 1.

    Small enough to eliminate, with no completeness guarantee; results
    computed at this shape are flagged sound-only."""
    if f.total_degree() <= 0:
        raise SolveError("constant polynomial has no critical values")
    d = f.total_degree()
    return ArcShape(n=f.vars.arity, D1=d, D2=(d - 1) * d + 1, field=field, bound_source="user")


def _fresh_name(base: str, taken: tuple[str, ...]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _pure_generators(gb: GroebnerBasis, keep: set[int]) -> list[Poly]:
    return [g for g in gb.basis if g.variables_used() <= keep]


def _finish_univariate(
    pure: list[Poly],
    y_index: int,
    completeness: str,
    diagnostics: Diagnostics,
    root_tol: float,
) -> UnivariateResult:
    if not pure:
        raise InternalInvariantError(
            "elimination ideal in the image variable is zero; "
            "the value set of a polynomial is finite, so this cannot happen"
        )
    if len(pure) > 1:
        raise InternalInvariantError(
            f"reduced basis kept {len(pure)} image-variable generators; "
            "a univariate elimination ideal is principal"
        )
    p = pure[0]
    src_arity = p.vars.arity
    index_map = [0] * src_arity
    index_map[y_index] = 0
    eliminant = remap_variables(p, Y_TABLE, index_map)
    if eliminant.is_constant():
        # unit ideal: the system is infeasible and the value set empty
        return UnivariateResult(
            Poly.const(Y_TABLE, 1), (), (), completeness, diagnostics
        )
    eliminant = squarefree_part(eliminant)
    return UnivariateResult(
        eliminant=eliminant,
        real_roots=tuple(isolate_real_roots(eliminant)),
        complex_roots=tuple(approx_complex_roots(eliminant, root_tol)),
        completeness=completeness,
        diagnostics=diagnostics,
    )


def compute_k0(
    f: Poly, limits: ResourceLimits | None = None, root_tol: float = 1e-10
) -> UnivariateResult:
    """Critical values of f: eliminate x from <grad f, y - f>.

    Complex-complete regardless of any arc shape; the real-root sublist is
    K0 restricted to real critical points.
    """
    if f.total_degree() <= 0:
        raise SolveError("constant polynomial has no critical values")
    n = f.vars.arity
    ext = VarTable(f.vars.names + (_fresh_name("y", f.vars.names),))
    into = list(range(n))
    gens = [
        remap_variables(g, ext, into)
        for g in (f.partial_derivative(j) for j in range(n))
        if not g.is_zero()
    ]
    gens.append(Poly.variable(ext, n) - remap_variables(f, ext, into))
    gb = buchberger(Ideal(tuple(gens), block_elim_order(n + 1, range(n))), limits)
    diag = Diagnostics(ext.arity, len(gens), len(gb.basis))
    return _finish_univariate(_pure_generators(gb, {n}), n, EXACT, diag, root_tol)


def _image_of_c0(
    sys: EquationSystem,
    limits: ResourceLimits | None,
    root_tol: float,
) -> UnivariateResult:
    shape = sys.shape
    table = shape.var_table()
    ext = VarTable(table.names + ("y",))
    into = list(range(table.arity))
    gens = [remap_variables(g, ext, into) for g in sys.generators]
    gens.append(Poly.variable(ext, table.arity) - remap_variables(sys.c0[0], ext, into))
    order = block_elim_order(ext.arity, range(table.arity))
    gb = buchberger(Ideal(tuple(gens), order), limits)
    diag = Diagnostics(ext.arity, len(gens), len(gb.basis))
    completeness = COMPLETE if shape.bound_source == "paper" else SOUND_ONLY
    pure = _pure_generators(gb, {table.arity})
    return _finish_univariate(pure, table.arity, completeness, diag, root_tol)


def _prebuilt(system: EquationSystem | None, mode: str, shape: ArcShape) -> EquationSystem | None:
    """A caller's already-built system, checked against the one asked for."""
    if system is not None and (system.mode != mode or system.shape != shape):
        raise SolveError(
            f"given a {system.mode} system at {system.shape}, expected {mode} at {shape}"
        )
    return system


def compute_kinf(
    f: Poly,
    shape: ArcShape,
    limits: ResourceLimits | None = None,
    root_tol: float = 1e-10,
    system: EquationSystem | None = None,
) -> UnivariateResult:
    """Asymptotic critical values via the normalized (BV) arc system.

    Complex pipeline: the root set is K_inf(f) at paper bounds, a sound
    subset at user bounds.  Real pipeline (shape.field = "real"): the real
    roots are candidates for the certifier, a superset of the attained
    real values among real numbers.  A caller that already holds f's BV
    system at this shape passes it as `system`, and it is not built again.
    """
    sys = _prebuilt(system, "BV", shape) or build_system(f, shape, "BV")
    return _image_of_c0(sys, limits, root_tol)


def compute_k(
    f: Poly,
    shape: ArcShape,
    limits: ResourceLimits | None = None,
    root_tol: float = 1e-10,
    system: EquationSystem | None = None,
) -> UnivariateResult:
    """Generalized critical values K = K0 union Kinf via the GBV system.

    Constant arcs at critical points always satisfy the GBV equations, so
    K0(f) is contained in the output for every shape.  `system` is f's GBV
    system at this shape if the caller has built it already."""
    sys = _prebuilt(system, "GBV", shape) or build_system(f, shape, "GBV")
    return _image_of_c0(sys, limits, root_tol)


def compute_sF(
    F: list[Poly],
    shape: ArcShape,
    limits: ResourceLimits | None = None,
    generalized: bool = False,
    system: EquationSystem | None = None,
) -> SFResult:
    """Ideal of the non-properness set of the map F in image variables.

    Its variety contains the closure of the c0-image of the arc variety at
    the given shape; equality holds at sufficient bounds.  `system` is F's
    AV system at this shape if the caller has built it already."""
    sys = _prebuilt(system, "AVmap", shape) or build_av_system(F, shape, generalized)
    m = len(sys.c0)
    table = shape.var_table()
    image_names = tuple(f"y{l}" for l in range(1, m + 1))
    ext = VarTable(table.names + image_names)
    into = list(range(table.arity))
    gens = [remap_variables(g, ext, into) for g in sys.generators]
    for l, c0 in enumerate(sys.c0):
        gens.append(Poly.variable(ext, table.arity + l) - remap_variables(c0, ext, into))
    order = block_elim_order(ext.arity, range(table.arity))
    gb = buchberger(Ideal(tuple(gens), order), limits)
    keep = set(range(table.arity, ext.arity))
    image_table = VarTable(image_names)
    down = [0] * ext.arity
    for l in range(m):
        down[table.arity + l] = l
    selected = tuple(
        remap_variables(g, image_table, down) for g in _pure_generators(gb, keep)
    )
    return SFResult(
        ideal=Ideal(selected, grevlex_order(m)),
        diagnostics=Diagnostics(ext.arity, len(gens), len(gb.basis)),
    )
