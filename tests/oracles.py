"""Independent oracles for cross-checking the package.

Value sets: sympy-based oracles that deliberately avoid the package's own
Groebner engine.  The univariate critical-value oracle is a literal
resultant Res_x(f', y - f), and the bivariate one runs sympy's
elimination.  Results are normalized coefficient tuples of the squarefree
eliminant (ascending, content-free integers, positive leading coefficient)
so comparisons against the package are exact.

Laurent substitution: `reference_substitute` expands p(x(t)) at the Poly
level from the arc coordinates, the reference for the package's integer
kernel `arcs.ArcPowers`; `series_product` multiplies two of the kernel's
integer series, and `substitution_product` reads p(x(t)) * q(x(t)) off
that product.

Polynomials: `reference_add`, `reference_multiply`, `reference_power`,
`reference_partial_derivative`, `reference_eval` and `reference_serialize`
are the package's earlier `Poly` arithmetic on Fraction term dicts, the
reference for `critvals.poly.Poly`, which keeps integer numerators over one
denominator.

Presolve: `reference_presolve` is the package's earlier presolve on
Fraction term dicts, the reference for the integer, fraction-free rewrites
in `critvals.presolve`.

Value sets of arc systems: `reference_image_of_c0` eliminates every
presolved branch and multiplies the eliminants, the reference for
`critvals.solve._image_of_c0`, which skips a branch whose constant c0 is
already a root of the product.

Univariate kernel: `reference_squarefree_part`, `reference_isolate_real_roots`
and `reference_refine_interval` are the package's earlier Fraction-arithmetic
squarefree part, Sturm isolation and bisection refinement, the reference for
the integer kernel in `critvals.univariate`.  `reference_approx_complex_roots`
is the earlier complex root polishing over numpy scalars, the bitwise
reference for `approx_complex_roots` on Python floats, and
`reference_newton` is its polishing loop run to the 60th step, the bitwise
reference for the early cycle stop in `univariate._newton`.  They read and
build polynomials as ascending Fraction lists (`to_coefficients`,
`from_coefficients`); the package keeps integer lists only.

Normal form: `reference_normal_form` fully reduces a `Poly` modulo a
basis with the kernel's `_Run.normal_form`, the exact remainder the
Groebner tests check ideal membership and linearity with; the pipeline
itself only reduces encoded term dicts.

Minimal polynomial: `reference_minimal_polynomial` is the package's earlier
Krylov loop, one full normal form of p * v_(k-1) per step, the reference
for the column-combining loop of `critvals.groebner.minimal_polynomial`;
both keep every Krylov vector content-free with a positive scale, so their
vectors, eliminants and coefficient-limit messages agree exactly.

Certifier: `reference_levenberg_marquardt` is the package's earlier
one-start Levenberg-Marquardt, and `reference_certify_zero` and
`reference_probe_steps` run the certification and the Malgrange probe on it
one start at a time, the reference for the batched search in
`critvals.certify`.  `reference_monomials` is the earlier monomial kernel,
every variable raised to every column's exponent, the bitwise reference for
`CompiledSystem.monomials`.
"""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import sympy

from critvals import certify
from critvals.arcs import ArcPowers, ArcShape
from critvals.certify import CertificationOutcome, CertifyConfig, CompiledSystem, ProbeRow
from critvals.groebner import (
    GroebnerBasis,
    LimitExceeded,
    ResourceLimits,
    _eliminate,
    _encode_poly,
    _order,
    _reducers,
    _Run,
)
from critvals.poly import Exponent, Poly, VarTable, _product
from critvals.presolve import presolve
from critvals.solve import Y_TABLE, _eliminant
from critvals.systems import EquationSystem
from critvals.univariate import ComplexRoot, RootInterval, UnivariateError, squarefree_part


def to_coefficients(p: Poly) -> list[Fraction]:
    """Ascending Fraction coefficient list of a univariate Poly; [] for zero."""
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
    for (d,), c in p.terms():
        coeffs[d] = c
    return coeffs


def from_coefficients(vars: VarTable, coeffs: Sequence[Fraction]) -> Poly:
    return Poly(vars, {(i,): c for i, c in enumerate(coeffs)})


def to_sympy(p: Poly, symbols):
    expr = sympy.Integer(0)
    for mono, coeff in p.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, mono):
            if e:
                term *= s**e
        expr += term
    return sympy.expand(expr)


def normalized_coeffs(expr, var) -> tuple:
    """Ascending content-free integer coefficients of the squarefree part;
    () encodes 'no roots' (a nonzero constant)."""
    poly = sympy.Poly(expr, var)
    if poly.is_zero:
        raise ValueError("zero polynomial has no normalized form")
    if poly.degree() == 0:
        return ()
    sqf = sympy.Poly(sympy.sqf_part(poly.as_expr(), var), var)
    coeffs = [Fraction(sympy.Rational(c)) for c in reversed(sqf.all_coeffs())]
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // sympy.igcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = sympy.igcd(*ints)
    if ints[-1] < 0:
        g = -g
    return tuple(v // g for v in ints)


def package_coeffs(result) -> tuple:
    """The package's eliminant in the same normal form as the oracles."""
    if result.empty:
        return ()
    return tuple(int(c) for c in to_coefficients(result.eliminant))


def k0_univariate_oracle(f: Poly) -> tuple:
    """Squarefree root polynomial of {f(r) : f'(r) = 0} via the resultant
    Res_x(f'(x), y - f(x))."""
    x, y = sympy.symbols("x y")
    fe = to_sympy(f, [x])
    df = sympy.diff(fe, x)
    if sympy.Poly(df, x).degree() < 1:
        return ()  # constant nonzero derivative: no critical points
    res = sympy.resultant(df, y - fe, x)
    return normalized_coeffs(res, y)


def k0_bivariate_oracle(f: Poly) -> tuple:
    """Squarefree root polynomial of the critical values of a bivariate f,
    by sympy's own lex elimination of <grad f, y - f>."""
    x1, x2, y = sympy.symbols("x1 x2 y")
    fe = to_sympy(f, [x1, x2])
    gens = [g for g in (sympy.diff(fe, x1), sympy.diff(fe, x2)) if g != 0]
    basis = sympy.groebner(gens + [y - fe], x1, x2, y, order="lex")
    pure = [e for e in basis.exprs if not e.free_symbols - {y}]
    if not pure:
        raise ValueError("oracle: elimination ideal is zero (infinite K0?)")
    return normalized_coeffs(pure[0], y)


# ---- normal form reference ----


def reference_normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Normal form of p modulo the basis, exactly: the remainder of full
    reduction by the kernel's `_Run.normal_form`, zero iff p is in the
    ideal."""
    if p.is_zero():
        return p
    order = _order(p.vars.arity, gb.eliminate)
    run = _Run(order, ResourceLimits())
    work, scale = _encode_poly(p, order)
    nf, s = run.normal_form(work, _reducers(gb, run))
    scale *= s
    return Poly(p.vars, {order.decode(m): c * scale.denominator for m, c in nf.items()}, scale.numerator)


# ---- minimal polynomial reference ----


def reference_minimal_polynomial(
    p: Poly, gb: GroebnerBasis, out: VarTable, limits: ResourceLimits | None = None
) -> Poly | None:
    """Monic minimal polynomial of multiplication by p on Q[x]/<gb>, with
    the Krylov sequence v_k = NF(p * v_(k-1)) reduced in full each step."""
    order = _order(p.vars.arity, gb.eliminate)
    limits = limits or ResourceLimits()
    run = _Run(order, limits)
    reducers = _reducers(gb, run)
    pure = {e.mask for e in reducers if not e.mask & (e.mask - 1)}
    if 0 not in pure and len(pure) < len(run.bits):
        return None
    mult, alpha = _encode_poly(p, order)
    vec, scale = run.normal_form({order.encode((0,) * order.arity): 1}, reducers)
    scales: list[Fraction] = []  # vector k is scales[k] * v_k
    rows = {}  # pivot -> (row, combination)
    while True:
        k = len(scales)
        scales.append(scale)
        bits = max((c.bit_length() for c in vec.values()), default=0)
        if bits > limits.max_coefficient_bits:
            raise LimitExceeded("max_coefficient_bits", f"Krylov vector {k} reached {bits} bits")
        row, comb = dict(vec), {k: 1}
        while row and (pivot := max(row)) in rows:
            _eliminate(row, comb, pivot, *rows[pivot])
        if not row:
            break
        rows[pivot] = (row, comb)
        vec, s = run.normal_form(_product(mult, vec), reducers)
        scale *= alpha * s
        run.check_clock()
    lead = comb[k] * scales[k]
    return Poly(out, {(j,): c * scales[j] / lead for j, c in comb.items()})


# ---- Laurent substitution references ----


def arc_coordinate(shape: ArcShape, j: int) -> dict[int, Poly]:
    """x_j(t) = sum_i a[i][j] t^i as {i: a[i][j]} over the shape's table."""
    table = shape.var_table()
    return {i: Poly.variable(table, shape.var_index(i, j)) for i in shape.exponent_range()}


def _accumulate(acc: dict, k: int, p: Poly, scale=1) -> None:
    terms = acc.setdefault(k, {})
    for mono, coeff in p.terms():
        terms[mono] = terms.get(mono, 0) + scale * coeff


def _to_polys(table, acc: dict) -> dict[int, Poly]:
    polys = ((k, Poly(table, terms)) for k, terms in acc.items())
    return {k: p for k, p in polys if not p.is_zero()}


def _series_product(table, a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    acc: dict = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            _accumulate(acc, ka + kb, pa * pb)
    return _to_polys(table, acc)


def reference_substitute(p: Poly, shape: ArcShape) -> dict[int, Poly]:
    """The nonzero t^k coefficients of p(x(t)), each term of p expanded as a
    product of `arc_coordinate` series: the Poly-level reference."""
    table = shape.var_table()
    coords = [arc_coordinate(shape, j) for j in range(1, shape.n + 1)]
    acc: dict = {}
    for mono, coeff in p.terms():
        term = {0: Poly.const(table, 1)}
        for x, e in zip(coords, mono):
            for _ in range(e):
                term = _series_product(table, term, x)
        for k, q in term.items():
            _accumulate(acc, k, q, coeff)
    return _to_polys(table, acc)


def series_product(a: dict, b: dict) -> dict:
    """a * b for two integer series of one `ArcPowers` (t-exponent ->
    packed monomial -> integer); packed monomials multiply by adding."""
    out: dict[int, dict[int, int]] = {}
    for ka, ta in a.items():
        for kb, tb in b.items():
            acc = out.setdefault(ka + kb, {})
            for ma, ca in ta.items():
                for mb, cb in tb.items():
                    acc[ma + mb] = acc.get(ma + mb, 0) + ca * cb
    return out


def substitution_product(p: Poly, q: Poly, shape: ArcShape) -> dict[int, Poly]:
    """The nonzero t^k coefficients of p(x(t)) * q(x(t)): the product of the
    integer series of `ArcPowers.series` over the product of the two
    denominators."""
    dp, dq = max(p.total_degree(), 0), max(q.total_degree(), 0)
    powers = ArcPowers(shape, dp + dq)
    sp, den_p = powers.series(p, -dp * shape.D2)
    sq, den_q = powers.series(q, -dq * shape.D2)
    product = series_product(sp, sq)
    coeffs = ((k, powers.coefficient(product, den_p * den_q, k)) for k in product)
    return {k: c for k, c in coeffs if not c.is_zero()}


# ---- arc-system value sets: every presolved branch eliminated ----


def reference_image_of_c0(system: EquationSystem) -> Poly:
    """The squarefree eliminant of the c0-image of the system's variety,
    from the product of every presolved branch's eliminant; 1 when empty."""
    product = Poly.const(Y_TABLE, 1)
    for generators, c0 in presolve(system.generators, system.c0[0]):
        if generators:
            factor, _ = _eliminant(generators, c0, None)
        else:
            factor = Poly.variable(Y_TABLE, 0) - Poly.const(Y_TABLE, c0.constant_value())
        product = product * factor
    return Poly.const(Y_TABLE, 1) if product.is_constant() else squarefree_part(product)


# ---- presolve reference: Fraction term dicts throughout ----


FractionTerms = dict[Exponent, Fraction]


def reference_presolve(generators: Sequence[Poly], c0: Poly) -> list[tuple[tuple[Poly, ...], Poly]]:
    """The package's earlier presolve on Fraction term dicts: the same
    rewrites, splits and branch order as `critvals.presolve.presolve`."""
    names = c0.vars.names
    leaves: dict[tuple, tuple[tuple[Poly, ...], Poly]] = {}
    stack = [([dict(g.terms()) for g in generators], dict(c0.terms()))]
    while stack:
        gens, image = stack.pop()
        rewritten = _ps_rewrite(gens, image)
        if rewritten is None:
            continue
        gens, image = rewritten
        split = _ps_split_point(gens)
        if split is None:
            key = tuple(sorted(tuple(sorted(g.items())) for g in gens)), tuple(sorted(image.items()))
            if key not in leaves:
                leaves[key] = _ps_finish(gens, image, names)
            continue
        k, alpha, h = split
        zeroed = [{_ps_unit(i, len(alpha)): Fraction(1)} for i, e in enumerate(alpha) if e]
        children = [(gens + [x_i], image) for x_i in zeroed]
        children.append((gens[:k] + [h] + gens[k + 1 :], image))
        stack.extend(reversed(children))  # first child is presolved first
    return list(leaves.values())


def _ps_rewrite(
    gens: list[FractionTerms], image: FractionTerms
) -> tuple[list[FractionTerms], FractionTerms] | None:
    """The rewrites of `critvals.presolve` to a fixed point; None for the
    unit ideal."""
    while True:
        gens = _ps_prune(gens)
        if gens is None:
            return None
        zero = {_ps_pure_power_variable(g) for g in gens} - {None}
        if zero:
            gens = [_ps_set_zero(g, zero) for g in gens]
            image = _ps_set_zero(image, zero)
            continue
        pivot = _ps_linear_pivot(gens)
        if pivot is None:
            return gens, image
        k, v = pivot
        g = gens[k]
        c = g[_ps_unit(v, len(next(iter(g))))]
        value = {m: -a / c for m, a in g.items() if not m[v]}
        gens = [_ps_substitute(p, v, value) for i, p in enumerate(gens) if i != k]
        image = _ps_substitute(image, v, value)


def _ps_prune(gens: list[FractionTerms]) -> list[FractionTerms] | None:
    """Primitive generators without zeros, duplicates or monomial multiples
    of another generator; None if one is a nonzero constant."""
    prims = sorted((_ps_primitive(g) for g in gens if g), key=lambda p: sum(_ps_monomial_content(p)))
    kept: dict[tuple, list[Exponent]] = {}  # cofactor h -> alphas kept for x^alpha*h
    out = []
    for p in prims:
        alpha = _ps_monomial_content(p)
        if not any(alpha) and len(p) == 1:
            return None
        alphas = kept.setdefault(tuple(sorted(_ps_divide_monomial(p, alpha).items())), [])
        # a divisor of alpha has lower degree, so it was met first
        if not any(all(a <= b for a, b in zip(other, alpha)) for other in alphas):
            alphas.append(alpha)
            out.append(p)
    return out


def _ps_split_point(gens: list[FractionTerms]) -> tuple[int, Exponent, FractionTerms] | None:
    """(position, alpha, h) of the generator x^alpha*h to split on: the
    first with the fewest variables in alpha, None if no generator has a
    monomial factor."""
    factored = [
        (sum(map(bool, alpha)), k, alpha)
        for k, alpha in enumerate(map(_ps_monomial_content, gens))
        if any(alpha)
    ]
    if not factored:
        return None
    _, k, alpha = min(factored)
    return k, alpha, _ps_divide_monomial(gens[k], alpha)


def _ps_finish(
    gens: list[FractionTerms], image: FractionTerms, names: tuple[str, ...]
) -> tuple[tuple[Poly, ...], Poly]:
    """The branch over the variables its generators and c0 still use."""
    used = sorted({i for p in (*gens, image) for m in p for i, e in enumerate(m) if e})
    table = VarTable(tuple(names[i] for i in used))

    def compact(p: FractionTerms) -> Poly:
        return Poly(table, {tuple(m[i] for i in used): a for m, a in p.items()})

    return tuple(compact(g) for g in gens), compact(image)


def _ps_unit(v: int, arity: int) -> Exponent:
    return tuple(1 if i == v else 0 for i in range(arity))


def _ps_primitive(p: FractionTerms) -> FractionTerms:
    """p scaled to coprime integer coefficients, positive at its largest
    monomial, so generators equal up to a scalar become equal."""
    den = math.lcm(*(a.denominator for a in p.values()))
    num = math.gcd(*(a.numerator for a in p.values()))
    scale = Fraction(den, num)
    if p[max(p)] < 0:
        scale = -scale
    return {m: a * scale for m, a in p.items()}


def _ps_monomial_content(p: FractionTerms) -> Exponent:
    """The largest monomial dividing every term of p."""
    return tuple(map(min, *p)) if len(p) > 1 else next(iter(p))


def _ps_divide_monomial(p: FractionTerms, alpha: Exponent) -> FractionTerms:
    if not any(alpha):
        return p
    return {tuple(e - a for e, a in zip(m, alpha)): c for m, c in p.items()}


def _ps_pure_power_variable(p: FractionTerms) -> int | None:
    """v if p is c*v^k, else None."""
    if len(p) != 1:
        return None
    support = [i for i, e in enumerate(next(iter(p))) if e]
    return support[0] if len(support) == 1 else None


def _ps_set_zero(p: FractionTerms, zero: set[int]) -> FractionTerms:
    return {m: a for m, a in p.items() if not any(m[i] for i in zero)}


def _ps_linear_pivot(gens: list[FractionTerms]) -> tuple[int, int] | None:
    """(generator, variable) of a substitution v := -(rest)/c: v occurs in
    exactly one term of the generator, and that term is c*v.  The generator
    with the fewest terms wins, then the first; within it the lowest v."""
    for k in sorted(range(len(gens)), key=lambda k: len(gens[k])):
        g = gens[k]
        arity = len(next(iter(g)))
        occurrences = [0] * arity
        for m in g:
            for i, e in enumerate(m):
                if e:
                    occurrences[i] += 1
        for v in range(arity):
            if occurrences[v] == 1 and _ps_unit(v, arity) in g:
                return k, v
    return None


def _ps_substitute(p: FractionTerms, v: int, value: FractionTerms) -> FractionTerms:
    """p with v := value (value does not involve v)."""
    if not any(m[v] for m in p):
        return p
    powers = [{(0,) * len(next(iter(p))): Fraction(1)}]
    out: FractionTerms = {}
    for m, a in p.items():
        e = m[v]
        while len(powers) <= e:
            powers.append(_ps_multiply(powers[-1], value))
        base = m[:v] + (0,) + m[v + 1 :]
        for mv, b in powers[e].items():
            key = tuple(x + y for x, y in zip(base, mv))
            out[key] = out.get(key, 0) + a * b
    return {m: a for m, a in out.items() if a}


def _ps_multiply(p: FractionTerms, q: FractionTerms) -> FractionTerms:
    out: FractionTerms = {}
    for mp, a in p.items():
        for mq, b in q.items():
            key = tuple(x + y for x, y in zip(mp, mq))
            out[key] = out.get(key, 0) + a * b
    return {m: a for m, a in out.items() if a}


# ---- Poly reference: Fraction term dicts ----


def reference_add(p: FractionTerms, q: FractionTerms) -> FractionTerms:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def reference_multiply(p: FractionTerms, q: FractionTerms) -> FractionTerms:
    return _ps_multiply(p, q)


def reference_power(p: FractionTerms, e: int, arity: int) -> FractionTerms:
    out: FractionTerms = {(0,) * arity: Fraction(1)}
    for _ in range(e):
        out = _ps_multiply(out, p)
    return out


def reference_partial_derivative(p: FractionTerms, index: int) -> FractionTerms:
    out: FractionTerms = {}
    for m, c in p.items():
        if m[index]:
            dm = tuple(e - 1 if i == index else e for i, e in enumerate(m))
            out[dm] = out.get(dm, Fraction(0)) + c * m[index]
    return {m: c for m, c in out.items() if c}


def reference_eval(p: FractionTerms, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        for e, v in zip(m, point):
            c *= Fraction(v) ** e
        total += c
    return total


def reference_serialize(names: Sequence[str], p: FractionTerms) -> str:
    """Terms in grevlex-descending order, explicit signs, '^', '*'."""
    if not p:
        return "0"
    grevlex = sorted(p, key=lambda m: (sum(m), tuple(-e for e in reversed(m))), reverse=True)
    parts = []
    for m in grevlex:
        c = p[m]
        factors = [str(abs(c))] if abs(c) != 1 or not any(m) else []
        factors += [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + "*".join(factors))
    return "".join(parts)


# ---- univariate references: exact Fraction arithmetic throughout ----


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


def _gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm."""
    fa, fb = _trim(list(a)), _trim(list(b))
    while fb:
        fa, fb = fb, _divmod(fa, fb)[1]
    return [c / fa[-1] for c in fa] if fa else []


def _content_free(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Scale to coprime integer coefficients with positive leading one."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [Fraction(v // g) for v in ints]


def reference_squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), content-free with positive leading coefficient."""
    coeffs = to_coefficients(p)
    if len(coeffs) == 1:
        return Poly.const(p.vars, 1)
    g = _gcd(coeffs, _derivative(coeffs))
    if len(g) > 1:
        coeffs, _ = _divmod(coeffs, g)
    return from_coefficients(p.vars, _content_free(coeffs))


def _normalize_signs(coeffs: list[Fraction]) -> list[Fraction]:
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


def reference_isolate_real_roots(p: Poly) -> list[RootInterval]:
    """Sturm isolation of a squarefree p over Fractions: bisection of the
    Cauchy bound + 1 until each interval holds one root."""
    coeffs = to_coefficients(p)
    if len(coeffs) == 1:
        return []
    chain = _sturm_chain(coeffs)
    bound = 2 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    out: list[RootInterval] = []

    def recurse(lo: Fraction, hi: Fraction, vlo: int, vhi: int) -> None:
        count = vlo - vhi
        if count == 0:
            return
        if count == 1:
            a, b = lo, hi
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
                    out.append(RootInterval(a, mid))
                    return
                a, vlo = mid, vmid
        mid = (lo + hi) / 2
        vmid = _variations(chain, mid)
        recurse(lo, mid, vlo, vmid)
        recurse(mid, hi, vmid, vhi)

    recurse(-bound, bound, _variations(chain, -bound), _variations(chain, bound))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def reference_refine_interval(p: Poly, interval: RootInterval, width: Fraction) -> RootInterval:
    """Bisection of an isolating interval of a squarefree p below `width`;
    an adjacent root at lo is walked away from first."""
    if interval.exact:
        return interval
    coeffs = to_coefficients(p)
    lo, hi = interval.lo, interval.hi
    shi = _eval(coeffs, hi)
    if shi == 0:
        return RootInterval(hi, hi)
    slo = _eval(coeffs, lo)
    if slo == 0:
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


def reference_approx_complex_roots(p: Poly) -> list[ComplexRoot]:
    """np.roots guesses polished by Newton's method, Horner over numpy
    float64 scalars, each root certified by its residual."""
    coeffs = to_coefficients(p)
    if not coeffs:
        raise UnivariateError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
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
            raise UnivariateError(f"root polishing stalled: residual {residual:.3e} at z={z!r}")
        out.append(ComplexRoot(float(z.real), float(z.imag), float(residual)))
    out.sort(key=lambda r: (r.re, r.im))
    return out


def reference_newton(z: complex, desc: list[float], ddesc: list[float]) -> complex:
    """Newton polishing run to its 60th step: the bitwise reference for
    `univariate._newton`, which stops at the first repeated iterate."""

    def horner(z: complex, c: list[float]) -> complex:
        acc = 0j
        for v in c:
            acc = acc * z + v
        return acc

    for _ in range(60):
        fz = horner(z, desc)
        if fz == 0:
            break
        dz = horner(z, ddesc)
        if dz == 0:
            z += 1e-12 * (1 + abs(z))
            continue
        step = fz / dz
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
        z -= step
    return z


# ---- one-start certifier ----


def reference_monomials(system: CompiledSystem, x: np.ndarray) -> np.ndarray:
    """The (..., U) monomial vectors of x (..., n): one `pow` per column and variable."""
    return np.prod(x[..., None, :] ** system.powers[system.pair_index], axis=-1)


def reference_levenberg_marquardt(
    residual_fn,
    jacobian_fn,
    x0: np.ndarray,
    max_iters: int,
    stop_norm: float = 0.0,
    project=None,
) -> np.ndarray:
    """Minimize ||residual(x)||^2 from one start; optional projection keeps x feasible."""
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


def reference_certify_zero(system: CompiledSystem, y: float, cfg: CertifyConfig) -> CertificationOutcome:
    """`certify.certify_zero`, one restart after another."""
    target = np.zeros(system.size)
    target[-1] = y

    def values(x: np.ndarray) -> np.ndarray:
        return system.values_at(system.monomials(x))

    def jacobian(x: np.ndarray) -> np.ndarray:
        return system.jacobian_at(system.monomials(x))

    def residual(x: np.ndarray) -> np.ndarray:
        return values(x) - target

    def metric(x: np.ndarray) -> float:
        v = values(x)
        return float(np.max(np.abs(v[:-1]), initial=0.0)) + abs(float(v[-1]) - y)

    rng = np.random.default_rng(cfg.seed)
    best_x, best_res = None, math.inf
    scales = (0.5, 1.0, 2.0, 4.0)
    for restart in range(cfg.restarts):
        x0 = rng.normal(size=system.arity) * scales[restart % len(scales)]
        x = reference_levenberg_marquardt(residual, jacobian, x0, cfg.max_iters)
        res = metric(x)
        if res < best_res:
            best_res, best_x = res, x
    if best_x is not None and best_res < cfg.tolerance:
        polished = reference_levenberg_marquardt(residual, jacobian, best_x, 1)
        if metric(polished) <= best_res:
            best_x, best_res = polished, metric(polished)
        return CertificationOutcome("CertifiedReal", tuple(float(v) for v in best_x), best_res)
    witness = tuple(float(v) for v in best_x) if best_x is not None else None
    return CertificationOutcome("Uncertified", witness, best_res)


def reference_probe_steps(f: Poly, y: complex, radii, field: str):
    """`certify._probe_steps`, one start after another, with the probe's
    constants from `certify`: yields (row, carry) per radius, stopping the
    scan of starts at the first that reaches the floor."""
    delta = 1e-6 * (1 + abs(y))
    n = f.vars.arity
    is_complex = field == "complex"
    k = 2 * n if is_complex else n
    system = CompiledSystem([*(f.partial_derivative(j) for j in range(n)), f])
    target = np.zeros(n + 1, dtype=complex if is_complex else float)
    target[-1] = y

    def point(u):
        return u[:n] + 1j * u[n:] if is_complex else u

    def values(u):
        return system.values_at(system.monomials(point(u)))

    def split(z):
        return np.concatenate([z.real, z.imag]) if is_complex else z

    rng = np.random.default_rng(certify.PROBE_SEED)
    carry = None
    for radius in radii:
        floor = certify.PROBE_FLOOR_SCALE / max(1.0, radius)
        scale = np.array([radius] * n + [1.0])

        def residual(u):
            return split(values(u) * scale - target)

        def tangent_jacobian(u):
            J_c = system.jacobian_at(system.monomials(point(u))) * scale[:, None]
            J = np.vstack([np.hstack([J_c.real, -J_c.imag]), np.hstack([J_c.imag, J_c.real])]) if is_complex else J_c
            uhat = u / np.linalg.norm(u)
            return J - np.outer(J @ uhat, uhat)

        def project(u):
            norm = np.linalg.norm(u)
            if norm == 0:
                u = np.ones(k)
                norm = np.linalg.norm(u)
            return u * (radius / norm)

        starts = [] if carry is None else [project(carry)]
        while len(starts) < certify.PROBE_SAMPLES:
            starts.append(project(rng.normal(size=k)))
        best_u, best_val, best_miss = None, math.inf, math.inf
        for u0 in starts:
            u = reference_levenberg_marquardt(
                residual, tangent_jacobian, u0, certify.PROBE_MAX_ITERS, stop_norm=floor, project=project
            )
            v = values(u)
            miss = abs(v[-1] - y)
            val = max(radius * math.sqrt(float(np.sum(np.abs(v[:n]) ** 2))), miss)
            if val < best_val:
                best_u, best_val, best_miss = u, val, miss
            if best_val <= floor:
                break
        carry = best_u
        yield ProbeRow(float(radius), float(max(best_val, floor)), bool(best_miss < delta)), carry
