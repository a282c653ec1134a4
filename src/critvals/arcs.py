"""Symbolic rational arcs and exact Laurent substitution.

An arc assigns to each coordinate x_j a Laurent polynomial
x_j(t) = sum_{-D2 <= i <= D1} a[i][j] t^i with unknown rational coefficients
a[i][j].  Substituting the arc into a polynomial p(x_1..x_n) produces a
Laurent polynomial in t whose t^k coefficient is an exact polynomial in the
a-variables; those coefficients are the raw material for every equation
system downstream.

There is one substitution path, the integer kernel `ArcPowers`: it reads
p's integer numerators, multiplies and accumulates the coordinate powers
x_j(t)^e as integer series over packed monomials, and turns a t^k
coefficient into a `Poly` only when it is read.  A power is built only
down to the lowest t-power the product it enters keeps, and multiplying by
a coordinate x_j(t), whose terms all have coefficient 1, only shifts
monomials.  One `ArcPowers` serves every substitution of a build, so each
truncation of a coordinate power is multiplied out once per build, and
each packed monomial is unpacked once.  `substitute` runs one polynomial
through a fresh kernel.
The Poly-level reference the kernel is checked against lives with the
tests (tests/oracles.py), not here.

Indexing: series are stored by ascending t-exponent k; descending-power
expansions elsewhere put their i-th tail coefficient at k = -i, and the
constant coefficient c0 always sits at k = 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import methodcaller
from typing import Callable, Literal

from .poly import Poly, VarTable

Field = Literal["complex", "real"]
BoundSource = Literal["paper", "user"]

# Bounds past this are refused outright: no elimination at that size can
# finish, and silently accepting astronomic shapes only hides the mistake.
_BOUND_CEILING = 2**63 - 1


class ArcError(Exception):
    """Bad shape parameters, out-of-range indices, or bound overflow."""


@dataclass(frozen=True)
class ArcShape:
    """Template for arcs in n variables with t-support [-D2, D1].

    The induced arc-variable table has exactly n*(D1+D2+1) entries a[i][j],
    i in [-D2, D1] and j in [1, n], ordered by i descending then j ascending.
    """

    n: int
    D1: int
    D2: int
    field: Field = "complex"
    bound_source: BoundSource = "user"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ArcError(f"ambient dimension must be >= 1, got {self.n}")
        if self.D1 < 0 or self.D2 < 0:
            raise ArcError(f"bounds must be nonnegative, got ({self.D1}, {self.D2})")
        if self.field not in ("complex", "real"):
            raise ArcError(f"unknown field {self.field!r}")
        if self.bound_source not in ("paper", "user"):
            raise ArcError(f"unknown bound source {self.bound_source!r}")

    @property
    def num_vars(self) -> int:
        return self.n * (self.D1 + self.D2 + 1)

    def exponent_range(self) -> range:
        """t-exponents i carried by the arc, descending: D1, D1-1, ..., -D2."""
        return range(self.D1, -self.D2 - 1, -1)

    def var_index(self, i: int, j: int) -> int:
        """Index of a[i][j] in var_table(); i in [-D2, D1], j in [1, n]."""
        if not -self.D2 <= i <= self.D1:
            raise ArcError(f"t-exponent {i} outside [{-self.D2}, {self.D1}]")
        if not 1 <= j <= self.n:
            raise ArcError(f"coordinate {j} outside [1, {self.n}]")
        return (self.D1 - i) * self.n + (j - 1)

    def var_table(self) -> VarTable:
        return _shape_table(self.n, self.D1, self.D2)


@lru_cache(maxsize=None)
def _shape_table(n: int, D1: int, D2: int) -> VarTable:
    names = tuple(
        f"a[{i}][{j}]" for i in range(D1, -D2 - 1, -1) for j in range(1, n + 1)
    )
    return VarTable(names)


def paper_bounds_complex(n: int, d: int) -> tuple[int, int]:
    """Complete arc bounds for the complex pipeline: (d^(n-1), d^n - d^(n-1) + 1)."""
    if n < 1 or d < 1:
        raise ArcError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    D1 = d ** (n - 1)
    D2 = d**n - D1 + 1
    if D2 > _BOUND_CEILING:
        raise ArcError(f"paper bounds overflow for n={n}, d={d}")
    return D1, D2


def paper_bounds_real(n: int, d: int) -> tuple[int, int]:
    """Complete arc bounds for the real pipeline: ((d+1)^n (d^n+2)^(n-1), (d-1)D1+1)."""
    if n < 1 or d < 1:
        raise ArcError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    D1 = (d + 1) ** n * (d**n + 2) ** (n - 1)
    D2 = (d - 1) * D1 + 1
    if max(D1, D2) > _BOUND_CEILING:
        raise ArcError(f"paper bounds overflow for n={n}, d={d}")
    return D1, D2


@dataclass(frozen=True)
class LaurentSeriesOverPoly:
    """Result of `substitute`: a finite Laurent polynomial in t with Poly
    coefficients.

    coeffs maps t-exponent k to a nonzero Poly over `vars`; [lo, hi] is the
    declared support interval (actual support may be smaller after
    cancellation, never larger).
    """

    vars: VarTable
    coeffs: dict[int, Poly]
    lo: int
    hi: int

    def __post_init__(self) -> None:
        for k, p in self.coeffs.items():
            if p.is_zero():
                raise ArcError(f"zero coefficient stored at t^{k}")
            if not self.lo <= k <= self.hi:
                raise ArcError(f"exponent {k} outside declared support [{self.lo}, {self.hi}]")

    def coefficient_at(self, k: int) -> Poly:
        return self.coeffs.get(k, Poly.zero(self.vars))

    def support(self) -> list[int]:
        return sorted(self.coeffs)


# t-exponent k -> packed monomial -> integer coefficient (see ArcPowers).
IntSeries = dict[int, dict[int, int]]
# x_j(t) as (i, packed a[i][j]) by descending i: one unit term per t-power.
Coordinate = tuple[tuple[int, int], ...]


def _mul_into(out: IntSeries, a: IntSeries, b: IntSeries, lo: int) -> IntSeries:
    """out += a*b, keeping only the t^k with k >= lo."""
    for ka, ta in a.items():
        for kb, tb in b.items():
            k = ka + kb
            if k < lo:
                continue
            acc = out.get(k)
            if acc is None:
                acc = out[k] = {}
            for ma, ca in ta.items():
                for mb, cb in tb.items():
                    m = ma + mb
                    acc[m] = acc.get(m, 0) + ca * cb
    return out


def _shift(s: IntSeries, x: Coordinate, lo: int) -> IntSeries:
    """x(t) * s, keeping only the t^k with k >= lo: every term of x has
    coefficient 1, so the product only adds its monomial to each term."""
    out: IntSeries = {}
    for ks, ts in s.items():
        for i, a in x:
            k = ks + i
            if k < lo:
                break
            acc = out.get(k)
            if acc is None:
                out[k] = {m + a: c for m, c in ts.items()}
                continue
            get = acc.get
            for m, c in ts.items():
                m += a
                acc[m] = get(m, 0) + c
    return out


class ArcPowers:
    """Integer series of the coordinate powers x_j(t)^e of one shape.

    A series maps t-exponent k to {packed monomial: integer coefficient}.
    A packed monomial is one int holding the exponent of a-variable v in
    bytes [v*w, (v+1)*w) (little-endian), so multiplying monomials is adding
    ints.  The width w is the smallest of 1, 2, 4, 8 bytes that holds
    `degree`, which must bound the total degree of every series built here.

    A power is built only down to the lowest t-power a product keeps: x^e
    over k >= floor is x^(e-1) over k >= floor - D1, times x(t).  One
    instance serves one build, so each truncation is computed once per
    build and kept for the life of the instance, and so is each packed
    monomial's exponent tuple.
    """

    def __init__(self, shape: ArcShape, degree: int):
        for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
            if degree < 1 << (8 * width):
                break
        else:
            raise ArcError(f"degree {degree} too large for packed monomials")
        self.shape = shape
        self.table = shape.var_table()
        self._iter_unpack = struct.Struct(f"<{self.table.arity}{code}").iter_unpack
        self._nbytes = width * self.table.arity
        self._monos: dict[int, tuple[int, ...]] = {}  # packed monomial -> exponent tuple
        self._coordinates: list[Coordinate] = [
            tuple((i, 1 << (8 * width * shape.var_index(i, j))) for i in shape.exponent_range())
            for j in range(1, shape.n + 1)
        ]
        # (j, e) -> (floor, x_{j+1}(t)^e over k >= floor), the deepest built
        self._powers: dict[tuple[int, int], tuple[int, IntSeries]] = {
            (j, 0): (0, {0: {0: 1}}) for j in range(shape.n)
        }

    def power(self, j: int, e: int, floor: int) -> IntSeries:
        """x_{j+1}(t)^e over at least the t^k with k >= floor (coordinates
        indexed from 0, like p's exponents).  A truncation is built only
        when no memoised one reaches down to floor."""
        D1, D2, missing = self.shape.D1, self.shape.D2, []
        while True:
            floor = max(floor, -e * D2)  # x^e has no lower t-power
            built = self._powers.get((j, e))
            if built is not None and built[0] <= floor:
                break
            missing.append((e, floor))
            e, floor = e - 1, floor - D1
        s = built[1]
        for e, floor in reversed(missing):
            s = _shift(s, self._coordinates[j], floor)
            self._powers[j, e] = floor, s
        return s

    def series(self, p: Poly, lo: int, tick: Callable[[], object] = lambda: None) -> tuple[IntSeries, int]:
        """(den * p(x(t)), den) over the t^k with k >= lo, where den is the
        lcm of p's coefficient denominators.  `tick` is called once per term
        of p, before it is substituted."""
        if p.vars.arity != self.shape.n:
            raise ArcError(f"polynomial arity {p.vars.arity} does not match shape n={self.shape.n}")
        terms, den = p.integer_terms()
        D1 = self.shape.D1
        out: IntSeries = {}
        for mono, coeff in terms.items():
            tick()
            factors = [(j, e) for j, e in enumerate(mono) if e] or [(0, 0)]
            acc: IntSeries = {0: {0: coeff}}
            degree = reach = sum(mono)  # reach: total degree of the factors still to come
            for j, e in factors:
                reach -= e
                # a factor's t-powers below this floor meet no kept product term
                factor = self.power(j, e, lo - D1 * (degree - e))
                acc = _mul_into(out if j == factors[-1][0] else {}, acc, factor, lo - D1 * reach)
        return out, den

    def times_coordinate(self, j: int, s: IntSeries, lo: int) -> IntSeries:
        """x_{j+1}(t) * s over the t^k with k >= lo."""
        return _shift(s, self._coordinates[j], lo)

    def coefficient(self, s: IntSeries, den: int, k: int) -> Poly:
        """The t^k coefficient of s / den as a Poly over the shape's table."""
        terms, monos, nbytes = s.get(k, {}), self._monos, self._nbytes
        new = set(terms).difference(monos)
        if new:
            monos.update(zip(new, self._iter_unpack(b"".join(map(methodcaller("to_bytes", nbytes, "little"), new)))))
        return Poly._from_kernel(self.table, {monos[m]: c for m, c in terms.items()}, den)


def substitute(p: Poly, shape: ArcShape) -> LaurentSeriesOverPoly:
    """Exact composition p(x_1(t), ..., x_n(t)).

    Support is contained in [lo, hi] = [-deg(p)*D2, deg(p)*D1] and every t^k
    coefficient is a polynomial of total degree <= deg(p) in the
    a-variables.  Runs on a fresh `ArcPowers`; system builders that
    substitute several components share one instead.
    """
    d = max(p.total_degree(), 0)
    powers = ArcPowers(shape, d)
    s, den = powers.series(p, -d * shape.D2)
    coeffs = {k: powers.coefficient(s, den, k) for k in sorted(s)}
    return LaurentSeriesOverPoly(
        shape.var_table(),
        {k: c for k, c in coeffs.items() if not c.is_zero()},
        -d * shape.D2,
        d * shape.D1,
    )
