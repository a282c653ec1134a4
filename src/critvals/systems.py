"""Equation systems over arc coefficients.

For a polynomial f the map under test is Phi = (f, df/dx_1..df/dx_n,
h_11..h_nn) with h_ij = x_i * df/dx_j.  Substituting a symbolic arc into
Phi and demanding that every positive t-power of every component vanishes,
that every nonnegative t-power of the non-f components vanishes, and (in
normalized mode) that the arc actually escapes to infinity, cuts out the
arc variety whose c0-image is the asymptotic critical value set.  Dropping
the normalization instead yields the variety whose c0-image is the full
generalized critical value set.

Generator families, with s_g the substituted series of component g:
  c[k]      coefficient of t^k in s_f,            k = 1 .. deg(f)*D1
  d[i][k]   coefficient of t^k in s_{df/dx_i},    k = 0 .. (deg(f)-1)*D1
  e[i][j][k] coefficient of t^k in s_{h_ij},      k = 0 .. deg(f)*D1
  norm      sum over positive-index a-variables, minus 1 (complex: linear
            sum; real: sum of squares)
Identically zero coefficients are omitted.  c0 is the t^0 coefficient of
s_f; it is data, not a generator.

Every family, and each component's c-family of a map system, is read by
one loop (`_read`): the nonzero t^k coefficients of one substituted series,
tagged with the family, its indices and k.  Substitution is a ring
homomorphism, so s_{h_ij} = x_i(t) * s_{df/dx_j}: the e-family is read off
that product of already-substituted series, not substituted afresh.  Every
component of one build shares one `ArcPowers` coordinate-power cache, and
only the t-powers a family reads are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Sequence

from .arcs import ArcPowers, ArcShape, IntSeries
from .poly import Poly

Mode = Literal["BV", "GBV", "AVmap"]


class SystemError(Exception):
    """Constant input, arity mismatch, or mode misuse."""


@dataclass(frozen=True)
class GeneratorTag:
    """Provenance of one generator: family 'c', 'd', 'e', or 'norm' plus
    the family indices (c: (k,); d: (i, k); e: (i, j, k); map systems use
    (component, k))."""

    family: str
    indices: tuple[int, ...]

    def label(self) -> str:
        return self.family + "".join(f"[{i}]" for i in self.indices)


_Tagged = tuple[GeneratorTag, Poly]


@dataclass(frozen=True)
class EquationSystem:
    shape: ArcShape
    generators: tuple[Poly, ...]
    c0: tuple[Poly, ...]
    mode: Mode
    provenance: tuple[GeneratorTag, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.provenance):
            raise SystemError("one provenance tag per generator required")
        table = self.shape.var_table()
        for g in self.generators + self.c0:
            if g.vars != table:
                raise SystemError("generator not over the shape's arc-variable table")


def normalization_poly(shape: ArcShape) -> Poly:
    """(sum of positive-index a[i][j]) - 1, squared termwise for real arcs."""
    table = shape.var_table()
    acc = Poly.const(table, -1)
    for i in range(1, shape.D1 + 1):
        for j in range(1, shape.n + 1):
            v = Poly.variable(table, shape.var_index(i, j))
            acc = acc + (v * v if shape.field == "real" else v)
    return acc


def build_system(
    f: Poly, shape: ArcShape, mode: Mode, tick: Callable[[], object] = lambda: None
) -> EquationSystem:
    """Arc-coefficient equations for the normalized (BV) or generalized
    (GBV) variety of f.  `tick` is called once per term substituted; a
    caller's deadline check goes there."""
    if mode not in ("BV", "GBV"):
        raise SystemError(f"mode must be BV or GBV, got {mode!r}")
    if f.vars.arity != shape.n:
        raise SystemError(f"arity {f.vars.arity} does not match shape n={shape.n}")
    if mode == "BV" and shape.D1 < 1:
        raise SystemError("normalized systems need D1 >= 1 (the arc must escape)")
    d = f.total_degree()
    if d <= 0:
        raise SystemError("constant polynomial has no critical-value structure")
    powers = ArcPowers(shape, d)
    s_f, den_f = powers.series(f, 0, tick)
    read = list(_read(powers, s_f, den_f, range(1, d * shape.D1 + 1), "c"))
    # t-powers down to -D1 feed the e-family's k >= 0 through x_i(t).
    s_grads = [powers.series(f.partial_derivative(j), -shape.D1, tick) for j in range(shape.n)]
    for i, (s, den) in enumerate(s_grads, start=1):
        read += _read(powers, s, den, range((d - 1) * shape.D1 + 1), "d", i)
    for i in range(1, shape.n + 1):
        for j, (s, den) in enumerate(s_grads, start=1):
            s_h = powers.times_coordinate(i - 1, s, 0)
            read += _read(powers, s_h, den, range(d * shape.D1 + 1), "e", i, j)
    return _system(shape, read, [powers.coefficient(s_f, den_f, 0)], mode)


def build_av_system(
    F: Sequence[Poly], shape: ArcShape, tick: Callable[[], object] = lambda: None
) -> EquationSystem:
    """Arc-coefficient equations for the non-properness variety of the map
    F: positive t-powers of every component vanish, plus normalization.
    c0 carries one entry per component.  `tick` is called once per term
    substituted."""
    if not F:
        raise SystemError("empty map")
    for p in F:
        if p.vars.arity != shape.n:
            raise SystemError("map components must share the shape's arity")
    if shape.D1 < 1:
        raise SystemError("normalized systems need D1 >= 1 (the arc must escape)")
    powers = ArcPowers(shape, max(max(p.total_degree() for p in F), 0))
    read, c0 = [], []
    for l, p in enumerate(F, start=1):
        s, den = powers.series(p, 0, tick)
        read += _read(powers, s, den, range(1, max(p.total_degree(), 0) * shape.D1 + 1), "c", l)
        c0.append(powers.coefficient(s, den, 0))
    return _system(shape, read, c0, "AVmap")


def _read(powers: ArcPowers, s: IntSeries, den: int, ks: range, family: str, *indices: int) -> Iterator[_Tagged]:
    """(tag, generator) for each nonzero t^k coefficient of s / den, k in ks."""
    for k in ks:
        c = powers.coefficient(s, den, k)
        if not c.is_zero():
            yield GeneratorTag(family, (*indices, k)), c


def _system(shape: ArcShape, read: list[_Tagged], c0: list[Poly], mode: Mode) -> EquationSystem:
    """The system of the generators read, plus `norm` in the normalized modes (BV, AVmap)."""
    if mode != "GBV":
        read = [*read, (GeneratorTag("norm", ()), normalization_poly(shape))]
    generators = tuple(g for _, g in read)
    return EquationSystem(shape, generators, tuple(c0), mode, tuple(tag for tag, _ in read))
