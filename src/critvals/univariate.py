"""Univariate post-processing: squarefree part, real root isolation,
complex root approximation.

Everything up to root isolation is exact: every sign that Sturm isolation
and refinement read is the sign of the exact rational value.  Each public
call turns its Poly into an ascending list of content-free Python ints
once: the integer numerators with their content divided out, a positive
factor, so every sign is kept.  The gcd for the squarefree part and the
Sturm chain are primitive pseudo-remainder sequences (Collins, JACM 1967);
the gcd's sequence is skipped when p and p' are coprime modulo a prime that
does not divide lc(p), which certifies p squarefree.
The sign of p(n/d), d > 0, is first read off a float Horner sum acc,
kept only when |acc| exceeds a proven bound on its error, (4 len + 8)
2^-52 times the same sum over |c_i| plus 1e-300 (Shewchuk's filter with
Higham's Horner bound, derived above `_float_image`).  Otherwise, and for
lists spanning over 900 binades or points beyond the float range, it is
the sign of the integer sum of c_i n^i d^(deg-i), taken by homogeneous
Horner.  Once an interval holds one root, isolation reads the sign of p
alone.  Bisection keeps endpoints as integer numerators over a denominator
that doubles with every step; only returned endpoints become (reduced)
Fractions.  Complex approximation is the one numeric step:
eigenvalue-based initial guesses polished by up to 60 Newton steps,
stopped early once an iterate repeats (the same z as the 60th step), each
accepted only with an explicit residual certificate
|p(z)| < 1e-10 * ||p|| * max(1, |z|)^deg.  Where the coefficients span
too many binades for the guesses to be found, they are found for
p(2^s z) instead, certified there and scaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .poly import Poly


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


# the Mersenne prime 2^61 - 1, the modulus of the squarefree certificate
_CERTIFICATE_PRIME = (1 << 61) - 1


def _coprime_mod(a: Sequence[int], b: Sequence[int], q: int) -> bool:
    """Whether the images of a and b in F_q[x], q prime, have gcd 1."""
    a, b = _trim_mod(a, q), _trim_mod(b, q)
    while b:
        inv, m = pow(b[-1], -1, q), len(b) - 1
        while len(a) > m:
            c = a.pop() * inv % q
            off = len(a) - m
            for i in range(m):
                a[off + i] = (a[off + i] - c * b[i]) % q
        a, b = b, _trim_mod(a, q)
    return len(a) == 1


def _trim_mod(coeffs: Sequence[int], q: int) -> list[int]:
    out = [c % q for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), content-free with positive leading coefficient.

    A squarefree p is usually certified as such by one gcd modulo a prime,
    and returned without the pseudo-remainder sequence."""
    coeffs = _integer_coefficients(p)
    if not coeffs:
        raise UnivariateError("squarefree part of the zero polynomial")
    if len(coeffs) == 1:
        return Poly.const(p.vars, 1)
    # Certificate: a nonconstant primitive common factor g of p and p' has
    # lc(g) | lc(p), so when q does not divide lc(p), g mod q keeps its
    # degree and divides both images; coprime images rule g out.
    q = _CERTIFICATE_PRIME
    if not coeffs[-1] % q or not _coprime_mod(coeffs, _derivative(coeffs), q):
        # primitive gcd: p / g of a content-free p and a primitive g is content-free
        g, b = coeffs, _primitive(_derivative(coeffs))
        while b:
            g, b = b, _primitive(_pdivmod(g, b)[1])
        if len(g) > 1:
            coeffs = _pdivmod(coeffs, g)[0]
    sign = 1 if coeffs[-1] > 0 else -1
    return Poly(p.vars, {(i,): sign * c for i, c in enumerate(coeffs)})


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
        try:
            return float(self.midpoint())
        except OverflowError:
            raise UnivariateError(f"the root in [{self.lo}, {self.hi}] is beyond the float range") from None


# Filtered signs.  Each public call makes, once per integer list c_0..c_n,
# the float image a_i = fl(c_i / 2^e) with 2^e > max|c_i|: int / int
# division rounds correctly, so a_i = (c_i / 2^e)(1 + alpha_i) with
# |alpha_i| <= u = 2^-53, and no a_i is subnormal while the nonzero |c_i|
# span at most _SPAN binades (a list spanning more has no image).  At
# x = n/d, t = fl(n/d) when that is at most 1 in magnitude; otherwise
# t = fl(1 / fl(n/d)) and the list is read backwards, since
# p(x) = x^n * sum c_(n-i) x^-i.  So |t| <= 1, and t = t0 (1 + tau1)^(+-1)
# (1 + tau2)^(+-1) for the exact argument t0 as long as t is normal, which
# |t| >= _MIN_ARG ensures.  Horner without fused multiply-add returns
# sum a_i t^i (1 + theta_i) with |theta_i| <= gamma_2n (Higham, Accuracy
# and Stability of Numerical Algorithms, 5.1), plus an underflow error
# below (n + 1) 2^-1074 because |t| <= 1.  Altogether acc = sum (c_i / 2^e)
# t0^i (1 + phi_i) with |phi_i| <= gamma_(4n+1), so |acc - P| <=
# gamma_(4n+1) M + eta for M = sum |c_i / 2^e| |t0|^i, and the same Horner
# on |a_i| at |t| gives mag >= (1 - gamma_(4n+1)) M - eta.  Then
# |acc| > err * mag + _TINY with err = (4(n + 1) + 8) 2^-52 > 2 gamma_(4n+1)
# / (1 - gamma_(4n+1)), which also absorbs the rounding of err * mag, proves
# that P and acc have one sign (Shewchuk, DCG 18, 1997).  |acc| and mag stay
# below n + 1, so nothing overflows, and a NaN fails the test.  Whatever
# the test cannot settle goes to the exact integer sum.
_SPAN = 900
_MIN_ARG = 1e-280
_TINY = 1e-300


_Image = tuple[list[tuple[float, float]], float]


def _float_image(coeffs: Sequence[int]) -> _Image | None:
    """(descending (a_i, |a_i|) pairs, err) of a nonzero list, or None."""
    sizes = [abs(c).bit_length() for c in coeffs if c]
    top = max(sizes)
    if top - min(sizes) > _SPAN:
        return None
    scale = 1 << top
    return [(c / scale, abs(c) / scale) for c in reversed(coeffs)], (4 * len(coeffs) + 8) * 2.0**-52


def _float_point(n: int, d: int) -> tuple[float, bool] | None:
    """(t, reversed) of x = n/d, d > 0, or None where the filter cannot run."""
    try:
        t = n / d
    except OverflowError:
        return None
    reverse = abs(t) > 1
    if reverse:
        t = 1 / t
    return (t, reverse) if not t or abs(t) >= _MIN_ARG else None


def _sign(coeffs: Sequence[int], image: _Image | None, n: int, d: int, point: tuple[float, bool] | None) -> int:
    """Sign of p(n/d), d > 0: filtered where the float bound settles it."""
    if image is not None and point is not None:
        pairs, err = image
        t, reverse = point
        at = abs(t)
        acc = mag = 0.0
        for c, m in reversed(pairs) if reverse else pairs:
            acc = acc * t + c
            mag = mag * at + m
        if abs(acc) > err * mag + _TINY:
            # reversed: p(x) = x^n q(t), and x has the sign of t
            flip = reverse and t < 0 and len(pairs) % 2 == 0
            return -1 if (acc < 0) != flip else 1
    return _exact_sign(coeffs, n, d)


def _exact_sign(coeffs: Sequence[int], n: int, d: int) -> int:
    """Sign of the integer sum of c_i n^i d^(deg-i), that of p(n/d) for d > 0."""
    acc, dk = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


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
    images = [_float_image(q) for q in chain]

    def variations(n: int, d: int) -> int:
        point = _float_point(n, d)
        return _variations([_sign(q, image, n, d, point) for q, image in zip(chain, images)])

    def sign(n: int, d: int) -> int:
        return _sign(coeffs, images[0], n, d, _float_point(n, d))

    # Cauchy bound, plus 1 to lie strictly beyond every root; every midpoint
    # is an integer over bound's denominator times a power of two
    bound = Fraction(max(abs(c) for c in coeffs[:-1]), abs(coeffs[-1])) + 2
    out: list[RootInterval] = []

    def recurse(lo: int, hi: int, den: int, vlo: int, vhi: int) -> None:
        # vlo - vhi = number of roots in (lo/den, hi/den]
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            # shrink until neither endpoint is the root itself, then report
            # a clean open interval (or an exact rational root on a hit)
            shi = sign(hi, den)
            if shi == 0:
                out.append(RootInterval(Fraction(hi, den), Fraction(hi, den)))
                return
            # the simple root r is the only one in (lo, hi]: p has the sign
            # of p(hi) on (r, hi] and the other one on (lo, r)
            while True:
                lo, mid, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
                smid = sign(mid, den)
                if smid == 0:
                    out.append(RootInterval(Fraction(mid, den), Fraction(mid, den)))
                    return
                if smid == shi:
                    out.append(RootInterval(Fraction(lo, den), Fraction(mid, den)))
                    return
                lo = mid
        mid = lo + hi
        vmid = variations(mid, 2 * den)
        recurse(2 * lo, mid, 2 * den, vlo, vmid)
        recurse(mid, 2 * hi, 2 * den, vmid, vhi)

    b, den = bound.numerator, bound.denominator
    recurse(-b, b, den, variations(-b, den), variations(b, den))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def refine_interval(p: Poly, interval: RootInterval, width: Fraction) -> RootInterval:
    """Bisection refinement of an isolating interval below the given width.

    p must be squarefree, as for `isolate_real_roots`: the sign tests need
    the isolated root to be simple."""
    if interval.exact:
        return interval
    coeffs = _integer_coefficients(p)
    image = _float_image(coeffs)

    def sign(n: int, d: int) -> int:
        return _sign(coeffs, image, n, d, _float_point(n, d))

    # bisect lo/den and hi/den over one denominator, doubled at each step
    den = math.lcm(interval.lo.denominator, interval.hi.denominator)
    lo = interval.lo.numerator * (den // interval.lo.denominator)
    hi = interval.hi.numerator * (den // interval.hi.denominator)
    shi = sign(hi, den)
    if shi == 0:
        return RootInterval(interval.hi, interval.hi)
    slo = sign(lo, den)
    if slo == 0:
        # lo is an adjacent root, not the isolated one: the target root r
        # is interior or equals hi, the sign is constant on (lo, r) and
        # opposite to shi (r is simple), so walk the midpoint down until
        # that sign shows up, then bracket as usual
        while True:
            lo, probe, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
            s = sign(probe, den)
            if s == 0:
                return RootInterval(Fraction(probe, den), Fraction(probe, den))
            if s != shi:
                lo, slo = probe, s
                break
            hi = probe
    width = Fraction(width)
    while (hi - lo) * width.denominator > width.numerator * den:
        lo, mid, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
        smid = sign(mid, den)
        if smid == 0:
            return RootInterval(Fraction(mid, den), Fraction(mid, den))
        if slo == smid:
            lo = mid
        else:
            hi = mid
    return RootInterval(Fraction(lo, den), Fraction(hi, den))


# ---- complex root approximation (the numeric step) ----


@dataclass(frozen=True)
class ComplexRoot:
    re: float
    im: float
    residual: float


def _unit_floats(coeffs: Sequence[int], den: int) -> np.ndarray:
    """The floats of coeffs / den divided by the largest in magnitude."""
    # float() overflows from 2^1024: scale larger values exactly by a power
    # of two first (every value below 2^1001, read in lowest terms, is left
    # as it is)
    gcds = [math.gcd(c, den) for c in coeffs]
    excess = max((c // g).bit_length() - (den // g).bit_length() for c, g in zip(coeffs, gcds)) - 1000
    if excess > 0:
        den <<= excess
    cf = np.array([c / den for c in coeffs], dtype=np.float64)
    cf /= float(np.max(np.abs(cf)))
    return cf


def _horner(z: complex, c: list[float]) -> complex:
    acc = 0j
    for v in c:
        acc = acc * z + v
    return acc


def _newton(z: complex, desc: list[float], ddesc: list[float]) -> complex:
    """z after 60 Newton steps on the descending coefficients desc, whose
    derivative is ddesc, or after fewer where a step is exactly 0 or below
    rounding.  A step depends on z alone, so once an iterate repeats the
    rest is a cycle: the loop stops there and returns the cycle member the
    60th step would reach, bitwise.  The key tells -0.0 from 0.0; a NaN
    never equals itself, so it never repeats."""
    seen: dict[tuple[complex, float, float], int] = {}
    path: list[complex] = []
    for k in range(60):
        j = seen.setdefault((z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)), k)
        if j < k:
            return path[j + (60 - j) % (k - j)]
        path.append(z)
        fz = _horner(z, desc)
        if fz == 0:
            break
        dz = _horner(z, ddesc)
        if dz == 0:
            z += 1e-12 * (1 + abs(z))
            continue
        step = fz / dz
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
        z -= step
    return z


def approx_complex_roots(p: Poly) -> list[ComplexRoot]:
    """All deg(p) complex roots with residual certificates.

    Certificate: |q(z)| < 1e-10 * max(1, |z|)^deg for every z found, where
    q is p in float coefficients scaled to largest magnitude 1, or p(2^s z)
    so scaled when p's coefficients span too many binades for one float
    scaling, and then each returned root is 2^s z.  Raises
    UnivariateError if polishing cannot reach that bound (does not silently
    return bad roots) or a root lies beyond the float range.
    """
    coeffs, den = _numerators(p)
    if not coeffs:
        raise UnivariateError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    deg = len(coeffs) - 1
    cf = _unit_floats(coeffs, den)
    roots = np.roots(cf[::-1])
    lost = f"{len(roots)} of {deg} complex roots found: some lie beyond the float range"
    shift = 0
    if len(roots) < deg or not np.isfinite(roots).all():
        # the leading coefficient flushed to 0.0 (or below the normal
        # range), so some |c_i / c_deg| is beyond 2^1000: solve
        # q(z) = p(2^s z), s > 0, with 2^s a Fujiwara-style bound on the
        # roots, so that q's leading coefficient is within a factor 2 of its
        # largest one, and map the roots back
        bits = [abs(c).bit_length() for c in coeffs]
        shift = max(-((bits[-1] - b) // (deg - i)) for i, b in enumerate(bits[:-1]) if b)
        cf = _unit_floats([c << (shift * i) for i, c in enumerate(coeffs)], den)
        roots = np.roots(cf[::-1])
        if len(roots) < deg or not np.isfinite(roots).all():
            raise UnivariateError(lost)
    # descending Python floats: the IEEE operations numpy scalars would do, faster
    desc, ddesc = cf[::-1].tolist(), (cf[1:] * np.arange(1, deg + 1))[::-1].tolist()
    out: list[ComplexRoot] = []
    for z0 in roots:
        z = _newton(complex(z0), desc, ddesc)
        residual = abs(_horner(z, desc))
        bound = 1e-10 * max(1.0, abs(z)) ** deg
        if not residual < bound:
            raise UnivariateError(
                f"root polishing stalled: residual {residual:.3e} at z={z!r} "
                f"exceeds bound {bound:.3e}"
            )
        try:
            out.append(ComplexRoot(math.ldexp(z.real, shift), math.ldexp(z.imag, shift), float(residual)))
        except OverflowError:
            raise UnivariateError(lost) from None
    out.sort(key=lambda r: (r.re, r.im))
    return out
