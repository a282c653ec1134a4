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

Each round factors every generator once, as x^alpha*h: the duplicate
test keys on h, the zero set reads c*v^k off alpha, and the split takes
the first generator of the last round with the fewest variables in alpha.
The rewrites run on content-free integer term dicts over the input's
table, with the term-dict helpers of `poly`.  v := -(rest)/c is
fraction-free: a generator of degree e in v is multiplied by c^e.  c0 is
carried as integer terms over a positive denominator, in lowest terms so
that equal c0s compare equal.
`Poly`s are built only for the finished branches.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .poly import Exponent, Poly, Terms, VarTable, _lowest_terms, _positive_lead, _product, _strip_content

Image = tuple[Terms, int]  # c0 = terms / denominator
_Factored = tuple[Exponent, Terms, Terms]  # (alpha, g, h) with g = x^alpha * h


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
    stack = [([g.integer_terms()[0] for g in generators], c0.integer_terms())]
    while stack:
        gens, image = stack.pop()
        rewritten = _rewrite(gens, image, tick)
        if rewritten is None:
            continue
        factored, image = rewritten
        gens = [g for _, g, _ in factored]
        # split on the first generator with the fewest variables in alpha
        split = [(sum(map(bool, alpha)), k) for k, (alpha, _, _) in enumerate(factored) if any(alpha)]
        if not split:
            num, den = image
            key = frozenset(frozenset(g.items()) for g in gens), frozenset(num.items()), den
            if key not in leaves:
                leaves[key] = _finish(gens, image, names)
            continue
        k = min(split)[1]
        alpha, _, h = factored[k]
        zeroed = [{_unit(i, len(alpha)): 1} for i, e in enumerate(alpha) if e]
        children = [(gens + [x_i], image) for x_i in zeroed]
        children.append((gens[:k] + [h] + gens[k + 1 :], image))
        stack.extend(reversed(children))  # first child is presolved first
    return list(leaves.values())


def _rewrite(
    gens: list[Terms], image: Image, tick: Callable[[], object]
) -> tuple[list[_Factored], Image] | None:
    """The rewrites of the module docstring to a fixed point, with the
    factored generators of the last round; None for the unit ideal."""
    num, den = image
    while True:
        tick()
        factored = _prune(gens)
        if factored is None:
            return None
        gens = [g for _, g, _ in factored]
        # c*v^k: one term, and v its only variable
        zero = {a.index(max(a)) for a, g, _ in factored if len(g) == 1 and max(a) == sum(a)}
        if zero:
            gens = [_set_zero(g, zero) for g in gens]
            num, den = _lowest_terms(_set_zero(num, zero), den)
            continue
        pivot = _linear_pivot(gens)
        if pivot is None:
            return factored, (num, den)
        k, v = pivot
        g = gens[k]
        c = g[_unit(v, len(next(iter(g))))]
        value = {m: -a for m, a in g.items() if not m[v]}  # v := value / c
        gens = [_substitute(p, v, value, c)[0] for i, p in enumerate(gens) if i != k]
        num, scale = _substitute(num, v, value, c)
        num, den = _lowest_terms(num, den * scale)


def _prune(gens: list[Terms]) -> list[_Factored] | None:
    """(alpha, g, h) with g = x^alpha*h for the content-free generators g,
    positive at their largest exponent tuple, without zeros, duplicates or
    monomial multiples of another generator; None if one is a nonzero
    constant.  Normalises in place: a normalised dict is left as it is, so
    branches may share them."""
    prims = []
    for g in filter(None, gens):
        _strip_content(g)
        _positive_lead(g)
        prims.append((_monomial_content(g), g))
    prims.sort(key=lambda prim: sum(prim[0]))
    kept: dict[frozenset, list[Exponent]] = {}  # cofactor h -> alphas kept for x^alpha*h
    out = []
    for alpha, p in prims:
        if not any(alpha) and len(p) == 1:
            return None
        h = _divide_monomial(p, alpha)
        alphas = kept.setdefault(frozenset(h.items()), [])
        # a divisor of alpha has lower degree, so it was met first
        if not any(all(a <= b for a, b in zip(other, alpha)) for other in alphas):
            alphas.append(alpha)
            out.append((alpha, p, h))
    return out


def _finish(
    gens: list[Terms], image: Image, names: tuple[str, ...]
) -> tuple[tuple[Poly, ...], Poly]:
    """The branch over the variables its generators and c0 still use."""
    num, den = image
    used = sorted({i for p in (*gens, num) for m in p for i, e in enumerate(m) if e})
    table = VarTable(tuple(names[i] for i in used))

    def compact(p: Terms, den: int = 1) -> Poly:
        return Poly._from_kernel(table, {tuple(m[i] for i in used): a for m, a in p.items()}, den)

    return tuple(compact(g) for g in gens), compact(num, den)


# ---- term dicts ----


def _unit(v: int, arity: int) -> Exponent:
    return tuple(1 if i == v else 0 for i in range(arity))


def _monomial_content(p: Terms) -> Exponent:
    """The largest monomial dividing every term of p."""
    return tuple(map(min, *p)) if len(p) > 1 else next(iter(p))


def _divide_monomial(p: Terms, alpha: Exponent) -> Terms:
    if not any(alpha):
        return p
    return {tuple(e - a for e, a in zip(m, alpha)): c for m, c in p.items()}


def _set_zero(p: Terms, zero: set[int]) -> Terms:
    """p without its terms in a zeroed variable; p itself if it has none."""
    kept = {m: a for m, a in p.items() if not any(m[i] for i in zero)}
    return kept if len(kept) < len(p) else p


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


def _substitute(p: Terms, v: int, value: Terms, c: int) -> tuple[Terms, int]:
    """(c^e * p with v := value/c, c^e), e the degree of p in v; value does
    not involve v.  A term of p with v^j takes the factor value^j * c^(e-j)."""
    e = max((m[v] for m in p), default=0)
    if not e:
        return p, 1
    powers = [{(0,) * len(next(iter(p))): 1}]
    out: Terms = {}
    for m, a in p.items():
        j = m[v]
        while len(powers) <= j:
            powers.append(_product(powers[-1], value))
        a *= c ** (e - j)
        base = m[:v] + (0,) + m[v + 1 :]
        for mv, b in powers[j].items():
            key = tuple(x + y for x, y in zip(base, mv))
            out[key] = out.get(key, 0) + a * b
    return {m: a for m, a in out.items() if a}, c**e
