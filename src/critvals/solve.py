"""Critical-value computations: K0, Kinf, K, and the non-properness set.

Every elimination is the same move, made by one routine
(`_eliminate_images`): adjoin image variables pinned to the relevant
polynomials after the source variables, eliminate the source variables
(first in the table, in table order) with a block order, and keep the
basis elements in the image variables alone.  K0, Kinf and K then read
their value set off the univariate eliminant.  For a finite image this
computes the image of the variety exactly.

  K0:   eliminate x from <grad f, y - f> (see below)
  Kinf: eliminate arc variables from <BV system, y - c0>
  K:    eliminate arc variables from <GBV system, y - c0>
  S_F:  eliminate arc variables from <AV system, y_l - c0_l>

Which arc system a value set is read off belongs to the algorithm, so it
is chosen here: Kinf, K and S_F each build theirs once and return it as
the result's `system`, the system a real run certifies against and
`--dump-system` prints.

Kinf and K first presolve their arc system into branches (see `presolve`)
and eliminate each; only the variety matters for a squarefree eliminant.
A branch whose c0 is a constant already in the value set found so far
cannot change it and is not eliminated.
K0 has no arc structure to presolve, and S_F reports its ideal, not its
radical, so neither is presolved.

K0 usually skips the block elimination.  When the critical locus is
finite, <grad f> is zero-dimensional and the eliminant is the minimal
polynomial of multiplication by f on Q[x]/<grad f> (Stickelberger's
theorem; Cox-Little-O'Shea, Using Algebraic Geometry, ch. 2 s. 4): a
grevlex basis of the gradient ideal in the original variables plus a
Krylov sequence (`groebner.minimal_polynomial`), the linear-algebra step
FGLM also uses, which it builds as FGLM does: from columns of the
multiplication matrix made of single-monomial normal forms.  Only a
critical locus that is not finite takes the block elimination above.

K0 elimination is exact.  Arc-based eliminations are exact at paper
bounds; at user bounds the root set is sound (a subset of the true value
set), and results carry a completeness flag saying which.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .arcs import ArcShape
from .groebner import (
    Ideal,
    LimitExceeded,
    ResourceLimits,
    buchberger,
    minimal_polynomial,
)
from .poly import Poly, VarTable
from .presolve import presolve
from .systems import EquationSystem, build_av_system, build_system
from .univariate import (
    ComplexRoot,
    RootInterval,
    approx_complex_roots,
    isolate_real_roots,
    refine_interval,
    squarefree_part,
)

Y_TABLE = VarTable(("y",))
# every real root leaves a value set refined to this width: the interval
# the report prints and the certifier starts from
REPORT_INTERVAL_WIDTH = Fraction(1, 10**12)

COMPLETE = "paper-bounds-complete"
SOUND_ONLY = "reduced-bounds-sound-only"
EXACT = "exact"


class SolveError(Exception):
    """Misuse: a constant polynomial, which has no critical values."""


class InternalInvariantError(Exception):
    """A should-be-impossible state: the finite-image elimination ideal
    came out zero, the reduced basis kept more than one image-variable
    generator, or a complete complex run gave K other than K0 union Kinf.
    Reported as an internal error, never as a value set."""


@dataclass(frozen=True)
class Diagnostics:
    """Sizes of the eliminated systems, image variables and pins included.

    For K0 with a finite critical locus no system is eliminated: the counts
    are n, the number of nonzero partials and the size of their grevlex
    basis.  For a presolved Kinf/K system the counts cover only the
    branches that reached Buchberger: variable_count is the largest arity
    of an eliminated branch, generator_count and basis_size are summed over
    them, and all three are 0 when none did.  A branch without generators,
    or one whose c0 is a constant value already in the set, is not
    eliminated."""

    variable_count: int
    generator_count: int
    basis_size: int


@dataclass(frozen=True)
class UnivariateResult:
    """Value set as a squarefree eliminant plus its isolated roots.

    The eliminant is content-free over the table ("y",); the constant 1
    means the system was infeasible and the value set empty.  real_roots
    are exact isolating intervals at most REPORT_INTERVAL_WIDTH wide, the
    ones the report prints; complex_roots carry residual bounds.
    system is the arc system eliminated (BV for Kinf, GBV for K), the one
    a real run certifies against; None for K0, which has no arc system.
    """

    eliminant: Poly
    real_roots: tuple[RootInterval, ...]
    complex_roots: tuple[ComplexRoot, ...]
    completeness: str
    diagnostics: Diagnostics
    system: EquationSystem | None

    @property
    def empty(self) -> bool:
        return self.eliminant.is_constant()


@dataclass(frozen=True)
class SFResult:
    """Generators of the elimination ideal of the non-properness variety,
    over the image variables y1..ym, and the AV system eliminated."""

    generators: tuple[Poly, ...]
    image_variables: tuple[str, ...]
    diagnostics: Diagnostics
    system: EquationSystem


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


def _eliminate_images(
    generators: Sequence[Poly],
    images: Sequence[Poly],
    names: tuple[str, ...],
    limits: ResourceLimits | None,
) -> tuple[tuple[Poly, ...], Diagnostics]:
    """Generators of the image of V(generators) under the map `images`.

    Adjoins one image variable per image, pinned by names[l] - images[l],
    eliminates the source variables with one block order, and keeps the
    basis elements in the image variables alone, over VarTable(names)."""
    source = images[0].vars
    n, m = source.arity, len(images)
    ext = VarTable(source.names + tuple(_fresh_name(name, source.names) for name in names))
    pins = (0,) * m
    sources = map(Poly.integer_terms, (*images, *generators))
    lifted = [Poly._from_kernel(ext, {mono + pins: c for mono, c in t.items()}, d) for t, d in sources]
    gens = lifted[m:] + [Poly.variable(ext, n + l) - lifted[l] for l in range(m)]
    gb = buchberger(Ideal(tuple(gens), eliminate=n), limits)
    image_table, image_vars = VarTable(names), set(range(n, n + m))
    pure = tuple(
        Poly._from_kernel(image_table, {mono[n:]: c for mono, c in t.items()}, d)
        for t, d in (g.integer_terms() for g in gb.basis if g.variables_used() <= image_vars)
    )
    return pure, Diagnostics(ext.arity, len(gens), len(gb.basis))


def _eliminant(
    generators: Sequence[Poly], image: Poly, limits: ResourceLimits | None
) -> tuple[Poly, Diagnostics]:
    """Generator of the elimination ideal of the image of V(generators)
    under `image`, over Y_TABLE; a constant for the unit ideal."""
    pure, diagnostics = _eliminate_images(generators, [image], Y_TABLE.names, limits)
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
    return pure[0], diagnostics


def _value_set(
    eliminant: Poly, completeness: str, diagnostics: Diagnostics, system: EquationSystem | None
) -> UnivariateResult:
    """The value set read off an eliminant; a constant means it is empty."""
    if eliminant.is_constant():
        # unit ideal: the system is infeasible and the value set empty
        eliminant, reals, roots = Poly.const(Y_TABLE, 1), (), ()
    else:
        eliminant = squarefree_part(eliminant)
        reals = tuple(
            refine_interval(eliminant, r, REPORT_INTERVAL_WIDTH) for r in isolate_real_roots(eliminant)
        )
        roots = tuple(approx_complex_roots(eliminant))
    return UnivariateResult(eliminant, reals, roots, completeness, diagnostics, system)


@contextmanager
def _one_budget(limits: ResourceLimits | None) -> Iterator[Callable[[], ResourceLimits]]:
    """One wall-clock budget, started now, over every limited call inside.

    Yields `left()`: the limits with what remains of the budget, raising
    once it is spent.  A trip anywhere inside reads
    `wall_clock_budget: exceeded {budget}s`."""
    limits = limits or ResourceLimits()
    budget = limits.wall_clock_budget
    start = time.monotonic()

    def left() -> ResourceLimits:
        rest = budget - (time.monotonic() - start)
        if rest <= 0:
            raise LimitExceeded("wall_clock_budget", f"exceeded {budget}s")
        return replace(limits, wall_clock_budget=rest)

    try:
        yield left
    except LimitExceeded as e:
        if e.which != "wall_clock_budget":
            raise
        raise LimitExceeded(e.which, f"exceeded {budget}s") from e


def compute_k0(f: Poly, limits: ResourceLimits | None = None) -> UnivariateResult:
    """Critical values of f: the generator of <grad f, y - f> meet Q[y].

    When the gradient ideal I is zero-dimensional, that generator is the
    minimal polynomial of multiplication by f on Q[x]/I (Stickelberger),
    read off a grevlex basis of I; otherwise x is eliminated from
    <grad f, y - f> with a block order.  One wall-clock budget covers
    both.  Complex-complete regardless of any arc shape; the real-root
    sublist is K0 restricted to real critical points.  No arc system is
    involved, so the result's `system` is None.
    """
    if f.total_degree() <= 0:
        raise SolveError("constant polynomial has no critical values")
    n = f.vars.arity
    grads = [g for g in (f.partial_derivative(j) for j in range(n)) if not g.is_zero()]
    with _one_budget(limits) as left:
        gb = buchberger(Ideal(tuple(grads)), left())
        eliminant = minimal_polynomial(f, gb, Y_TABLE, left())
        if eliminant is None:
            eliminant, diagnostics = _eliminant(grads, f, left())
        else:
            diagnostics = Diagnostics(n, len(grads), len(gb.basis))
    return _value_set(eliminant, EXACT, diagnostics, None)


def _image_of_c0(system: EquationSystem, limits: ResourceLimits | None) -> UnivariateResult:
    """The value set of an arc system: presolve it into branches, eliminate
    each, and take the squarefree part of the product of their eliminants.
    The result carries `system`.

    The value set is the union of the branch images, so a branch whose c0
    is a constant v adds v or nothing: its factor is y - v or 1.  Branches
    are visited cheapest first, by arity with a stable sort (a branch
    without generators uses no variables), and a branch with a constant c0
    whose value is already a root of the product is not eliminated: its
    factor would leave the squarefree part as it is.  The diagnostics count
    only the branches that reached Buchberger.

    One wall-clock budget covers the presolve and every branch's Buchberger
    run; a trip says `wall_clock_budget: exceeded {budget}s` wherever it
    happens."""
    product = Poly.const(Y_TABLE, 1)
    widest = generator_count = basis_size = 0
    with _one_budget(limits) as left:
        branches = presolve(system.generators, system.c0[0], left)
        for generators, c0 in sorted(branches, key=lambda branch: branch[1].vars.arity):
            if c0.is_constant() and product.eval_exact((c0.constant_value(),)) == 0:
                continue
            if not generators:
                if not c0.is_constant():
                    raise InternalInvariantError(
                        "a presolved branch has no equations left but a non-constant c0; "
                        "its value set would be infinite"
                    )
                factor = Poly.variable(Y_TABLE, 0) - Poly.const(Y_TABLE, c0.constant_value())
            else:
                factor, d = _eliminant(generators, c0, left())
                widest = max(widest, d.variable_count)
                generator_count += d.generator_count
                basis_size += d.basis_size
            product = product * factor
    completeness = COMPLETE if system.shape.bound_source == "paper" else SOUND_ONLY
    diagnostics = Diagnostics(widest, generator_count, basis_size)
    return _value_set(product, completeness, diagnostics, system)


def compute_kinf(
    f: Poly, shape: ArcShape, limits: ResourceLimits | None = None
) -> UnivariateResult:
    """Asymptotic critical values via the normalized (BV) arc system.

    Complex pipeline: the root set is K_inf(f) at paper bounds, a sound
    subset at user bounds.  Real pipeline (shape.field = "real"): the real
    roots are candidates for the certifier, a superset of the attained
    real values among real numbers.  The result's `system` is f's BV
    system at this shape, the one eliminated.  One wall-clock budget covers
    the system build and the elimination.
    """
    with _one_budget(limits) as left:
        return _image_of_c0(build_system(f, shape, "BV", left), left())


def compute_k(
    f: Poly, shape: ArcShape, limits: ResourceLimits | None = None
) -> UnivariateResult:
    """Generalized critical values K = K0 union Kinf via the GBV system.

    Constant arcs at critical points always satisfy the GBV equations, so
    K0(f) is contained in the output for every shape.  The result's
    `system` is f's GBV system at this shape, the one eliminated.  One
    wall-clock budget covers the system build and the elimination."""
    with _one_budget(limits) as left:
        return _image_of_c0(build_system(f, shape, "GBV", left), left())


def compute_sF(
    F: list[Poly], shape: ArcShape, limits: ResourceLimits | None = None
) -> SFResult:
    """Ideal of the non-properness set of the map F in image variables.

    Its variety contains the closure of the c0-image of the arc variety of
    the normalized AV system at the given shape; equality holds at
    sufficient bounds.  The result carries that system and the image
    variables y1..ym its generators are over.  One wall-clock budget covers
    the system build and the elimination."""
    with _one_budget(limits) as left:
        system = build_av_system(F, shape, left)
        names = tuple(f"y{l}" for l in range(1, len(system.c0) + 1))
        generators, diagnostics = _eliminate_images(system.generators, system.c0, names, left())
    return SFResult(generators, names, diagnostics, system)
