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
coefficient into a `Poly` only when it is read.  One `ArcPowers` serves
every substitution of a build, so each coordinate power is multiplied out
once per system.  `substitute` runs one polynomial through a fresh kernel.
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
from typing import Literal

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


class ArcPowers:
    """Integer series of the coordinate powers x_j(t)^e of one shape.

    A series maps t-exponent k to {packed monomial: integer coefficient}.
    A packed monomial is one int holding the exponent of a-variable v in
    bytes [v*w, (v+1)*w) (little-endian), so multiplying monomials is adding
    ints.  The width w is the smallest of 1, 2, 4, 8 bytes that holds
    `degree`, which must bound the total degree of every series built here.
    Each power is computed once and kept for the life of the instance.
    """

    def __init__(self, shape: ArcShape, degree: int):
        for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
            if degree < 1 << (8 * width):
                break
        else:
            raise ArcError(f"degree {degree} too large for packed monomials")
        self.shape = shape
        self.table = shape.var_table()
        self._nbytes = width * self.table.arity
        self._unpack = struct.Struct(f"<{self.table.arity}{code}").unpack
        one: IntSeries = {0: {0: 1}}
        self._powers: list[list[IntSeries]] = [
            [
                one,
                {
                    i: {1 << (8 * width * shape.var_index(i, j)): 1}
                    for i in shape.exponent_range()
                },
            ]
            for j in range(1, shape.n + 1)
        ]

    def power(self, j: int, e: int) -> IntSeries:
        """x_{j+1}(t)^e (coordinates indexed from 0, like p's exponents)."""
        cache = self._powers[j]
        while len(cache) <= e:
            full = -len(cache) * self.shape.D2  # lowest t-power of the new power
            cache.append(_mul_into({}, cache[-1], cache[1], full))
        return cache[e]

    def series(self, p: Poly, lo: int) -> tuple[IntSeries, int]:
        """(den * p(x(t)), den) over the t^k with k >= lo, where den is the
        lcm of p's coefficient denominators."""
        if p.vars.arity != self.shape.n:
            raise ArcError(f"polynomial arity {p.vars.arity} does not match shape n={self.shape.n}")
        terms, den = p.integer_terms()
        D1 = self.shape.D1
        last = self.shape.n - 1
        out: IntSeries = {}
        for mono, coeff in terms.items():
            acc: IntSeries = {0: {0: coeff}}
            reach = sum(mono) * D1  # highest t-power the factors still to come add
            for j, e in enumerate(mono):
                reach -= e * D1
                acc = _mul_into(out if j == last else {}, acc, self.power(j, e), lo - reach)
        return out, den

    def times_coordinate(self, j: int, s: IntSeries, lo: int) -> IntSeries:
        """x_{j+1}(t) * s over the t^k with k >= lo."""
        return _mul_into({}, s, self._powers[j][1], lo)

    def coefficient(self, s: IntSeries, den: int, k: int) -> Poly:
        """The t^k coefficient of s / den as a Poly over the shape's table."""
        unpack, nbytes = self._unpack, self._nbytes
        terms = {unpack(m.to_bytes(nbytes, "little")): c for m, c in s.get(k, {}).items()}
        return Poly(self.table, terms, den)


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
