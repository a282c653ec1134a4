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
"""

from fractions import Fraction

import sympy

from critvals.arcs import ArcPowers, ArcShape
from critvals.poly import Poly
from critvals.univariate import to_coefficients


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
