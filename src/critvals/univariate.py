"""Univariate post-processing: squarefree part, real root isolation,
complex root approximation.

Everything up to root isolation is exact.  Each public call turns its Poly
into an ascending list of content-free Python ints once: the integer
numerators with their content divided out, a positive factor, so every
sign is kept.  The gcd for the squarefree part and the Sturm chain are
primitive pseudo-remainder sequences (Collins, JACM 1967), and the sign of
p(n/d), d > 0, is that of the integer sum of c_i n^i d^(deg-i), taken by
homogeneous Horner.  Interval endpoints and bisection midpoints stay
Fractions.  Complex approximation is the one numeric step: eigenvalue-based
initial guesses polished by Newton iteration, each accepted only with an
explicit residual certificate |p(z)| < 1e-10 * ||p|| * max(1, |z|)^deg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Poly, PolyError, VarTable


class UnivariateError(Exception):
    """Zero polynomial where a nonzero one is required, or arity misuse."""


# ---- coefficient lists (ascending degree) ----


def _numerators(p: Poly) -> tuple[list[int], int]:
    """(ascending coefficient list of den * p, den) of a univariate Poly;
    ([], 1) for zero."""
    if p.vars.arity != 1:
        raise UnivariateError(f"expected univariate polynomial, got arity {p.vars.arity}")
    terms, den = p.integer_terms()
    out = [0] * (p.total_degree() + 1)
    for (d,), c in terms.items():
        out[d] = c
    return out, den


def to_coefficients(p: Poly) -> list[Fraction]:
    """Ascending coefficient list of a univariate Poly; [] for zero."""
    coeffs, den = _numerators(p)
    return [Fraction(c, den) for c in coeffs]


def from_coefficients(vars: VarTable, coeffs: Sequence[Fraction]) -> Poly:
    if vars.arity != 1:
        raise UnivariateError("coefficient lists describe univariate polynomials")
    return Poly(vars, {(i,): c for i, c in enumerate(coeffs)})


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """coeffs divided by their (positive) content."""
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else list(coeffs)


def _integer_coefficients(p: Poly) -> list[int]:
    """Content-free integer coefficients of a positive multiple of p; [] for zero."""
    return _primitive(_numerators(p)[0])


def _derivative(coeffs: Sequence[int]) -> list[int]:
    return [c * i for i, c in enumerate(coeffs)][1:]


def _pdivmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with k*a == q*b + r for an integer k > 0 and deg r < deg b.

    Each step scales by |lc(b)| / gcd(top, lc(b)) only, so k == 1 whenever b
    divides a over the integers and q is then the exact quotient."""
    rem, quot = list(a), [0] * max(0, len(a) - len(b) + 1)
    lead, m = b[-1], len(b) - 1
    for top in range(len(rem) - 1, m - 1, -1):
        c = rem.pop()
        if not c:
            continue
        g = math.gcd(c, lead)
        s, t = abs(lead) // g, (c if lead > 0 else -c) // g
        if s != 1:
            rem = [s * v for v in rem]
            quot = [s * v for v in quot]
        quot[top - m] = t
        for i in range(m):
            rem[top - m + i] -= t * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), content-free with positive leading coefficient."""
    coeffs = _integer_coefficients(p)
    if not coeffs:
        raise UnivariateError("squarefree part of the zero polynomial")
    if len(coeffs) == 1:
        return Poly.const(p.vars, 1)
    # primitive gcd: p / g of a content-free p and a primitive g is content-free
    g, b = coeffs, _primitive(_derivative(coeffs))
    while b:
        g, b = b, _primitive(_pdivmod(g, b)[1])
    if len(g) > 1:
        coeffs = _pdivmod(coeffs, g)[0]
    return from_coefficients(p.vars, coeffs if coeffs[-1] > 0 else [-c for c in coeffs])


# ---- real root isolation (Sturm chains + bisection) ----


@dataclass(frozen=True)
class RootInterval:
    """Isolating interval for one simple real root; lo == hi marks an exact
    rational root."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def approx(self) -> float:
        return float(self.midpoint())


def _signs(polys: Sequence[Sequence[int]], x: Fraction) -> list[int]:
    """Sign of p(x) for each p: with x = n/d, d > 0, the sign of the integer
    sum of c_i n^i d^(deg-i)."""
    n, d = x.numerator, x.denominator
    dpow = [1]
    for _ in range(max(map(len, polys)) - 1):
        dpow.append(dpow[-1] * d)
    out = []
    for p in polys:
        top = len(p) - 1
        acc = p[top]
        for i in range(top - 1, -1, -1):
            acc = acc * n + p[i] * dpow[top - i]
        out.append((acc > 0) - (acc < 0))
    return out


def _sturm_chain(coeffs: list[int]) -> list[list[int]]:
    """p, p', then -rem of the last two: each a positive multiple of the
    textbook element, so every sign is the textbook one."""
    chain = [coeffs, _primitive(_derivative(coeffs))]
    while len(chain[-1]) > 1:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def isolate_real_roots(p: Poly) -> list[RootInterval]:
    """Disjoint isolating intervals, one per real root, ascending.

    p must be squarefree; callers holding anything else pass its
    `squarefree_part`.
    """
    coeffs = _integer_coefficients(p)
    if not coeffs:
        raise UnivariateError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    chain = _sturm_chain(coeffs)
    # Cauchy bound, plus 1 to lie strictly beyond every root
    bound = Fraction(max(abs(c) for c in coeffs[:-1]), abs(coeffs[-1])) + 2
    out: list[RootInterval] = []

    def recurse(lo: Fraction, hi: Fraction, vlo: int, vhi: int) -> None:
        # vlo - vhi = number of roots in (lo, hi]
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            # shrink until neither endpoint is the root itself, then report
            # a clean open interval (or an exact rational root on a hit)
            if _signs([coeffs], hi)[0] == 0:
                out.append(RootInterval(hi, hi))
                return
            while True:
                mid = (lo + hi) / 2
                signs = _signs(chain, mid)
                if signs[0] == 0:
                    out.append(RootInterval(mid, mid))
                    return
                vmid = _variations(signs)
                if vlo - vmid == 1:
                    out.append(RootInterval(lo, mid))
                    return
                lo, vlo = mid, vmid
        mid = (lo + hi) / 2
        vmid = _variations(_signs(chain, mid))
        recurse(lo, mid, vlo, vmid)
        recurse(mid, hi, vmid, vhi)

    recurse(-bound, bound, _variations(_signs(chain, -bound)), _variations(_signs(chain, bound)))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def refine_interval(p: Poly, interval: RootInterval, width: Fraction) -> RootInterval:
    """Bisection refinement of an isolating interval below the given width.

    p must be squarefree, as for `isolate_real_roots`: the sign tests need
    the isolated root to be simple."""
    if interval.exact:
        return interval
    coeffs = [_integer_coefficients(p)]
    lo, hi = interval.lo, interval.hi
    (shi,) = _signs(coeffs, hi)
    if shi == 0:
        return RootInterval(hi, hi)
    (slo,) = _signs(coeffs, lo)
    if slo == 0:
        # lo is an adjacent root, not the isolated one: the target root r
        # is interior or equals hi, the sign is constant on (lo, r) and
        # opposite to shi (r is simple), so walk the midpoint down until
        # that sign shows up, then bracket as usual
        while True:
            probe = (lo + hi) / 2
            (s,) = _signs(coeffs, probe)
            if s == 0:
                return RootInterval(probe, probe)
            if s != shi:
                lo, slo = probe, s
                break
            hi, shi = probe, s
    while hi - lo > width:
        mid = (lo + hi) / 2
        (smid,) = _signs(coeffs, mid)
        if smid == 0:
            return RootInterval(mid, mid)
        if slo == smid:
            lo, slo = mid, smid
        else:
            hi = mid
    return RootInterval(lo, hi)


# ---- complex root approximation (the numeric step) ----


@dataclass(frozen=True)
class ComplexRoot:
    re: float
    im: float
    residual: float


def approx_complex_roots(p: Poly) -> list[ComplexRoot]:
    """All deg(p) complex roots with residual certificates.

    Certificate: |p(z)| < 1e-10 * max|coeff| * max(1, |z|)^deg for every
    returned z.  Raises UnivariateError if polishing cannot reach that
    bound (does not silently return bad roots).
    """
    coeffs = to_coefficients(p)
    if not coeffs:
        raise UnivariateError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    # float() overflows from 2^1024: scale larger coefficients exactly by a
    # power of two first (every |c| < 2^1001 is left as it is)
    excess = max(c.numerator.bit_length() - c.denominator.bit_length() for c in coeffs) - 1000
    if excess > 0:
        coeffs = [c / (1 << excess) for c in coeffs]
    cf = np.array([float(c) for c in coeffs], dtype=np.float64)
    scale = float(np.max(np.abs(cf)))
    cf /= scale
    deg = len(cf) - 1
    roots = np.roots(cf[::-1])
    dcf = cf[1:] * np.arange(1, deg + 1)

    def horner(z: complex, c: np.ndarray) -> complex:
        acc = 0j
        for v in c[::-1]:
            acc = acc * z + v
        return acc

    out: list[ComplexRoot] = []
    norm = float(np.max(np.abs(cf)))
    for z0 in roots:
        z = complex(z0)
        for _ in range(60):
            fz = horner(z, cf)
            if fz == 0:
                break
            dz = horner(z, dcf)
            if dz == 0:
                z += 1e-12 * (1 + abs(z))
                continue
            step = fz / dz
            if abs(step) < 1e-17 * max(1.0, abs(z)):
                break
            z -= step
        residual = abs(horner(z, cf))
        bound = 1e-10 * norm * max(1.0, abs(z)) ** deg
        if not residual < bound:
            raise UnivariateError(
                f"root polishing stalled: residual {residual:.3e} at z={z!r} "
                f"exceeds bound {bound:.3e}"
            )
        out.append(ComplexRoot(float(z.real), float(z.imag), float(residual)))
    out.sort(key=lambda r: (r.re, r.im))
    return out
