"""Presolve of an arc system: rewrite it and split it into branches before
elimination.

The value set of an arc system is the image of its variety under c0, and
`solve` keeps only the squarefree part of the eliminant, which depends on
that image alone (sqrt(I meet Q[y]) = sqrt(I) meet Q[y]).  So any rewrite
that keeps V(I), or maps it isomorphically while c0 follows along, leaves
the eliminant unchanged.  These rewrites run to a fixed point:

  - a generator c*v^k sets v := 0;
  - a generator in which v occurs in exactly one term, as c*v with c
    constant, substitutes v := -(rest)/c into every generator and c0;
  - a nonzero constant generator makes the branch empty (the unit ideal);
  - generators equal up to a scalar, or a monomial times another
    generator, are dropped.

Then a generator x^alpha*h with alpha != 0 splits the variety into
V(I + x_i) for each x_i in supp(alpha) and V(I with h in place of the
generator) (factorised Groebner bases: Czapor, JSC 1989).  Each branch is
presolved again.  A finished branch keeps only the variables its
generators and c0 still use, and equal finished branches are eliminated
once.

Polynomials are term dicts {exponents: Fraction} over the input's table
while the rewrites run; `Poly`s are built only for the finished branches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Exponent, Poly, VarTable

Terms = dict[Exponent, Fraction]


def presolve(
    generators: Sequence[Poly], c0: Poly, tick: Callable[[], object] = lambda: None
) -> list[tuple[tuple[Poly, ...], Poly]]:
    """Branches (generators, c0) whose c0-images together make up the
    c0-image of V(generators), each over the variables it still uses.

    Unit-ideal branches are left out, so an empty list means the variety is
    empty.  A branch without generators is an affine space, on which c0
    must be constant for the value set to be finite.  `tick` is called once
    per rewrite round; a caller's deadline check goes there."""
    names = c0.vars.names
    leaves: dict[tuple, tuple[tuple[Poly, ...], Poly]] = {}
    stack = [([dict(g.terms()) for g in generators], dict(c0.terms()))]
    while stack:
        gens, image = stack.pop()
        rewritten = _rewrite(gens, image, tick)
        if rewritten is None:
            continue
        gens, image = rewritten
        split = _split_point(gens)
        if split is None:
            key = tuple(sorted(tuple(sorted(g.items())) for g in gens)), tuple(sorted(image.items()))
            if key not in leaves:
                leaves[key] = _finish(gens, image, names)
            continue
        k, alpha, h = split
        zeroed = [{_unit(i, len(alpha)): Fraction(1)} for i, e in enumerate(alpha) if e]
        children = [(gens + [x_i], image) for x_i in zeroed]
        children.append((gens[:k] + [h] + gens[k + 1 :], image))
        stack.extend(reversed(children))  # first child is presolved first
    return list(leaves.values())


def _rewrite(
    gens: list[Terms], image: Terms, tick: Callable[[], object]
) -> tuple[list[Terms], Terms] | None:
    """The rewrites of the module docstring to a fixed point; None for the
    unit ideal."""
    while True:
        tick()
        gens = _prune(gens)
        if gens is None:
            return None
        zero = {_pure_power_variable(g) for g in gens} - {None}
        if zero:
            gens = [_set_zero(g, zero) for g in gens]
            image = _set_zero(image, zero)
            continue
        pivot = _linear_pivot(gens)
        if pivot is None:
            return gens, image
        k, v = pivot
        g = gens[k]
        c = g[_unit(v, len(next(iter(g))))]
        value = {m: -a / c for m, a in g.items() if not m[v]}
        gens = [_substitute(p, v, value) for i, p in enumerate(gens) if i != k]
        image = _substitute(image, v, value)


def _prune(gens: list[Terms]) -> list[Terms] | None:
    """Primitive generators without zeros, duplicates or monomial multiples
    of another generator; None if one is a nonzero constant."""
    prims = sorted((_primitive(g) for g in gens if g), key=lambda p: sum(_monomial_content(p)))
    kept: dict[tuple, list[Exponent]] = {}  # cofactor h -> alphas kept for x^alpha*h
    out = []
    for p in prims:
        alpha = _monomial_content(p)
        if not any(alpha) and len(p) == 1:
            return None
        alphas = kept.setdefault(tuple(sorted(_divide_monomial(p, alpha).items())), [])
        # a divisor of alpha has lower degree, so it was met first
        if not any(all(a <= b for a, b in zip(other, alpha)) for other in alphas):
            alphas.append(alpha)
            out.append(p)
    return out


def _split_point(gens: list[Terms]) -> tuple[int, Exponent, Terms] | None:
    """(position, alpha, h) of the generator x^alpha*h to split on: the
    first with the fewest variables in alpha, None if no generator has a
    monomial factor."""
    factored = [
        (sum(map(bool, alpha)), k, alpha)
        for k, alpha in enumerate(map(_monomial_content, gens))
        if any(alpha)
    ]
    if not factored:
        return None
    _, k, alpha = min(factored)
    return k, alpha, _divide_monomial(gens[k], alpha)


def _finish(
    gens: list[Terms], image: Terms, names: tuple[str, ...]
) -> tuple[tuple[Poly, ...], Poly]:
    """The branch over the variables its generators and c0 still use."""
    used = sorted({i for p in (*gens, image) for m in p for i, e in enumerate(m) if e})
    table = VarTable(tuple(names[i] for i in used))

    def compact(p: Terms) -> Poly:
        return Poly(table, {tuple(m[i] for i in used): a for m, a in p.items()})

    return tuple(compact(g) for g in gens), compact(image)


# ---- term dicts ----


def _unit(v: int, arity: int) -> Exponent:
    return tuple(1 if i == v else 0 for i in range(arity))


def _primitive(p: Terms) -> Terms:
    """p scaled to coprime integer coefficients, positive at its largest
    monomial, so generators equal up to a scalar become equal."""
    den = math.lcm(*(a.denominator for a in p.values()))
    num = math.gcd(*(a.numerator for a in p.values()))
    scale = Fraction(den, num)
    if p[max(p)] < 0:
        scale = -scale
    return {m: a * scale for m, a in p.items()}


def _monomial_content(p: Terms) -> Exponent:
    """The largest monomial dividing every term of p."""
    return tuple(map(min, *p)) if len(p) > 1 else next(iter(p))


def _divide_monomial(p: Terms, alpha: Exponent) -> Terms:
    if not any(alpha):
        return p
    return {tuple(e - a for e, a in zip(m, alpha)): c for m, c in p.items()}


def _pure_power_variable(p: Terms) -> int | None:
    """v if p is c*v^k, else None."""
    if len(p) != 1:
        return None
    support = [i for i, e in enumerate(next(iter(p))) if e]
    return support[0] if len(support) == 1 else None


def _set_zero(p: Terms, zero: set[int]) -> Terms:
    return {m: a for m, a in p.items() if not any(m[i] for i in zero)}


def _linear_pivot(gens: list[Terms]) -> tuple[int, int] | None:
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
            if occurrences[v] == 1 and _unit(v, arity) in g:
                return k, v
    return None


def _substitute(p: Terms, v: int, value: Terms) -> Terms:
    """p with v := value (value does not involve v)."""
    if not any(m[v] for m in p):
        return p
    powers = [{(0,) * len(next(iter(p))): Fraction(1)}]
    out: Terms = {}
    for m, a in p.items():
        e = m[v]
        while len(powers) <= e:
            powers.append(_multiply(powers[-1], value))
        base = m[:v] + (0,) + m[v + 1 :]
        for mv, b in powers[e].items():
            key = tuple(x + y for x, y in zip(base, mv))
            out[key] = out.get(key, 0) + a * b
    return {m: a for m, a in out.items() if a}


def _multiply(p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for mp, a in p.items():
        for mq, b in q.items():
            key = tuple(x + y for x, y in zip(mp, mq))
            out[key] = out.get(key, 0) + a * b
    return {m: a for m, a in out.items() if a}
