"""Univariate post-processing: squarefree part, real root isolation,
complex root approximation.

Everything up to root isolation is exact over Fraction.  Complex
approximation is the one numeric step: eigenvalue-based initial guesses
polished by Newton iteration, each accepted only with an explicit residual
certificate |p(z)| < tol * ||p|| * max(1, |z|)^deg.
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


# ---- coefficient-list plumbing (ascending degree, exact Fractions) ----


def to_coefficients(p: Poly) -> list[Fraction]:
    """Ascending coefficient list of a univariate Poly; [] for zero."""
    if p.vars.arity != 1:
        raise UnivariateError(f"expected univariate polynomial, got arity {p.vars.arity}")
    if p.is_zero():
        return []
    out = [Fraction(0)] * (p.total_degree() + 1)
    for mono, coeff in p.terms():
        out[mono[0]] = coeff
    return out


def from_coefficients(vars: VarTable, coeffs: Sequence[Fraction]) -> Poly:
    if vars.arity != 1:
        raise UnivariateError("coefficient lists describe univariate polynomials")
    return Poly(vars, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [c * i for i, c in enumerate(coeffs)][1:]


def _divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    quot = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(rem) - len(den), -1, -1):
        q = rem[shift + len(den) - 1] / lead
        if q:
            quot[shift] = q
            for i, d in enumerate(den):
                rem[shift + i] -= q * d
    return quot, _trim(rem)


def _monic(coeffs: Sequence[Fraction]) -> list[Fraction]:
    lead = coeffs[-1]
    return [c / lead for c in coeffs]


def _gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm (exact, desk-scale degrees)."""
    fa, fb = _trim(list(a)), _trim(list(b))
    while fb:
        _, r = _divmod(fa, fb)
        fa, fb = fb, r
    return _monic(fa) if fa else []


def _content_free(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Scale to coprime integer coefficients with positive leading one."""
    nums = [c.numerator for c in coeffs]
    dens = [c.denominator for c in coeffs]
    lcm = 1
    for d in dens:
        lcm = lcm * d // math.gcd(lcm, d)
    ints = [n * (lcm // d) for n, d in zip(nums, dens)]
    g = math.gcd(*ints) if ints else 0
    if g == 0:
        return []
    if ints[-1] < 0:
        g = -g
    return [Fraction(v // g) for v in ints]


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), content-free with positive leading coefficient."""
    coeffs = to_coefficients(p)
    if not coeffs:
        raise UnivariateError("squarefree part of the zero polynomial")
    if len(coeffs) == 1:
        return Poly.const(p.vars, 1)
    g = _gcd(coeffs, _derivative(coeffs))
    if len(g) > 1:
        coeffs, _ = _divmod(coeffs, g)
    return from_coefficients(p.vars, _content_free(coeffs))


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


def _normalize_signs(coeffs: list[Fraction]) -> list[Fraction]:
    # positive rescaling keeps every sign; bounds coefficient growth
    m = max(abs(c) for c in coeffs)
    return [c / m for c in coeffs]


def _sturm_chain(coeffs: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [_normalize_signs(_trim(list(coeffs)))]
    d = _derivative(chain[0])
    if _trim(list(d)):
        chain.append(_normalize_signs(d))
        while len(chain[-1]) > 1:
            _, r = _divmod(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_normalize_signs([-c for c in r]))
    return chain


def _variations(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        v = _eval(coeffs, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(coeffs: Sequence[Fraction]) -> Fraction:
    lead = abs(coeffs[-1])
    return 1 + max(abs(c) for c in coeffs[:-1]) / lead if len(coeffs) > 1 else Fraction(1)


def isolate_real_roots(p: Poly) -> list[RootInterval]:
    """Disjoint isolating intervals, one per real root, ascending.

    p must be squarefree; callers holding anything else pass its
    `squarefree_part`.
    """
    coeffs = to_coefficients(p)
    if not coeffs:
        raise UnivariateError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    chain = _sturm_chain(coeffs)
    bound = _cauchy_bound(coeffs) + 1  # strictly beyond every root
    out: list[RootInterval] = []

    def recurse(lo: Fraction, hi: Fraction, vlo: int, vhi: int) -> None:
        # vlo - vhi = number of roots in (lo, hi]
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            a, b = lo, hi
            # shrink until neither endpoint is the root itself, then report
            # a clean open interval (or an exact rational root on a hit)
            while True:
                if _eval(coeffs, b) == 0:
                    out.append(RootInterval(b, b))
                    return
                mid = (a + b) / 2
                if _eval(coeffs, mid) == 0:
                    out.append(RootInterval(mid, mid))
                    return
                vmid = _variations(chain, mid)
                if vlo - vmid == 1:
                    b, vhi = mid, vmid
                    out.append(RootInterval(a, b))
                    return
                a, vlo = mid, vmid
        mid = (lo + hi) / 2
        vmid = _variations(chain, mid)
        recurse(lo, mid, vlo, vmid)
        recurse(mid, hi, vmid, vhi)

    recurse(-bound, bound, _variations(chain, -bound), _variations(chain, bound))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def refine_interval(p: Poly, interval: RootInterval, width: Fraction) -> RootInterval:
    """Bisection refinement of an isolating interval below the given width.

    p must be squarefree, as for `isolate_real_roots`: the sign tests need
    the isolated root to be simple."""
    if interval.exact:
        return interval
    coeffs = to_coefficients(p)
    lo, hi = interval.lo, interval.hi
    shi = _eval(coeffs, hi)
    if shi == 0:
        return RootInterval(hi, hi)
    slo = _eval(coeffs, lo)
    if slo == 0:
        # lo is an adjacent root, not the isolated one: the target root r
        # is interior or equals hi, the sign is constant on (lo, r) and
        # opposite to shi (r is simple), so walk the midpoint down until
        # that sign shows up, then bracket as usual
        while True:
            probe = (lo + hi) / 2
            s = _eval(coeffs, probe)
            if s == 0:
                return RootInterval(probe, probe)
            if (s > 0) != (shi > 0):
                lo, slo = probe, s
                break
            hi, shi = probe, s
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = _eval(coeffs, mid)
        if smid == 0:
            return RootInterval(mid, mid)
        if (slo > 0) == (smid > 0):
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


def approx_complex_roots(p: Poly, tol: float = 1e-10) -> list[ComplexRoot]:
    """All deg(p) complex roots with residual certificates.

    Certificate: |p(z)| < tol * max|coeff| * max(1, |z|)^deg for every
    returned z.  Raises UnivariateError if polishing cannot reach that
    bound (does not silently return bad roots).
    """
    coeffs = to_coefficients(p)
    if not coeffs:
        raise UnivariateError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
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
        bound = tol * norm * max(1.0, abs(z)) ** deg
        if not residual < bound:
            raise UnivariateError(
                f"root polishing stalled: residual {residual:.3e} at z={z!r} "
                f"exceeds bound {bound:.3e}"
            )
        out.append(ComplexRoot(float(z.real), float(z.imag), float(residual)))
    out.sort(key=lambda r: (r.re, r.im))
    return out
