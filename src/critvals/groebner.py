"""Buchberger's algorithm, exact over the rationals, the block orders that
elimination uses, and the minimal polynomial of a multiplication map on a
zero-dimensional quotient.

An ideal names how many variables it eliminates: the first `eliminate` of
its table, so the eliminated variables come first, in table order.  Its
term order is grevlex on that block, then grevlex on the rest (plain
grevlex for eliminate=0).  The kernel is order-native.  On entry every
monomial is encoded once into a tuple whose natural tuple order is the
term order:

  grevlex  (deg, -e_n, ..., -e_1) over the exponents e_1..e_n in table order;
  block    the grevlex encodings of the two blocks, concatenated.

The encoding is linear in the exponents, so comparing two monomials is one
tuple compare and a monomial product or quotient is an elementwise add or
subtract.  Monomials are decoded only when the result `Poly` is built.
Coefficients are integers: the `Poly` numerators are read on entry and
content is stripped as the reductions go.

Reduction is fraction-free and in place.  The working polynomial is one
dict; a reduction step scales it, cancels its leading term against a
reducer, and adds the reducer's shifted tail into it.  The leading term
comes from a lazy heap over the working polynomial's monomials (negated
encodings, so the heap's minimum is the leading monomial; monomials that
cancelled are skipped when they surface).  Each basis entry keeps its
leading exponents and a support bitmask, and the reducer scan skips an entry
by mask before it compares exponents.  Top reduction and full normal form
share the same step; both check the clock every 32 steps.  Full normal form
also tracks the positive rational factor its steps and content stripping
scale the result by, so a normal form is exact and the Krylov sequence of
`minimal_polynomial` (v_k = NF(p * v_(k-1)), combined from memoised
multiplication-matrix columns as in FGLM: Faugere, Gianni, Lazard, Mora,
JSC 1993) stays on integer dicts.

Pair selection is the normal strategy refined by sugar degree: pairs wait in
a heap keyed (sugar, encoded lcm, i, j), computed once when the pair is
made, and each pair keeps its lcm for the chain criterion.  The pair set is
pruned with the Gebauer-Moeller update, so both Buchberger criteria are
applied; its deletions are lazy (a deleted pair is skipped when it surfaces).
Everything is deterministic for fixed input: selection keys are total orders
and every iteration that matters is ordered.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, itemgetter, le, neg, sub
from typing import Callable, NamedTuple, Sequence

from .poly import Poly, VarTable, _positive_lead, _strip_content

Mono = tuple[int, ...]


class GroebnerError(Exception):
    """Structural misuse: empty ideal, bad elimination count, mixed tables."""


class LimitExceeded(Exception):
    """A resource limit tripped; recoverable and reportable."""

    def __init__(self, which: str, detail: str):
        super().__init__(f"{which}: {detail}")
        self.which = which
        self.detail = detail


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on the Buchberger run; all positive, the budget finite."""

    max_pairs: int = 500_000
    max_basis_size: int = 10_000
    max_coefficient_bits: int = 1_000_000
    wall_clock_budget: float = 600.0

    def __post_init__(self) -> None:
        if min(self.max_pairs, self.max_basis_size, self.max_coefficient_bits) <= 0:
            raise GroebnerError("resource limits must be positive")
        budget = self.wall_clock_budget
        if not (math.isfinite(budget) and budget > 0):
            raise GroebnerError(f"wall_clock_budget must be finite and positive, got {budget}")


class _Order(NamedTuple):
    """The term order of an ideal over `arity` variables, as maps on
    encoded monomials; see the module docstring."""

    arity: int
    encode: Callable[[Mono], Mono]  # table-order exponents -> encoding
    decode: Callable[[Mono], Mono]  # encoding -> table-order exponents
    degree: Callable[[Mono], int]  # total degree of an encoding


def _picker(indices: Sequence[int]) -> Callable[[Mono], Mono]:
    """mono -> tuple(mono[i] for i in indices), as one C call."""
    if len(indices) == 1:
        return lambda m, i=indices[0]: (m[i],)
    if not indices:
        return lambda m: ()
    return itemgetter(*indices)


@cache
def _order(arity: int, eliminate: int) -> _Order:
    """Grevlex on the first `eliminate` variables, then grevlex on the
    rest; plain grevlex when either block is empty."""
    blocks = (range(eliminate), range(eliminate, arity))
    # graded segments, each encoded as (deg, -e_last, ..., -e_first)
    segments = [block[::-1] for block in blocks if block]
    pickers = [_picker(segment) for segment in segments]
    positions = [0] * arity  # encoded position of each table index
    degree_at = []
    offset = 0
    for segment in segments:
        degree_at.append(offset)
        for p, i in enumerate(segment, start=offset + 1):
            positions[i] = p
        offset += len(segment) + 1
    pick = _picker(positions)

    def encode(mono: Mono) -> Mono:
        out: list[int] = []
        for segment in pickers:
            exps = segment(mono)
            out.append(sum(exps))
            out.extend(map(neg, exps))
        return tuple(out)

    def decode(encoded: Mono) -> Mono:
        return tuple(map(neg, pick(encoded)))

    return _Order(arity, encode, decode, lambda m: sum(m[q] for q in degree_at))


@dataclass(frozen=True)
class Ideal:
    """Generators over one table, and how many of its variables, taken from
    the front of the table, the term order eliminates: grevlex on that
    block, then grevlex on the rest.  A Groebner basis under this order,
    intersected with the remaining variables, generates the elimination
    ideal; eliminate=0 is plain grevlex."""

    generators: tuple[Poly, ...]
    eliminate: int = 0

    def __post_init__(self) -> None:
        tables = {g.vars for g in self.generators}
        if len(tables) > 1:
            raise GroebnerError("generators over mixed variable tables")
        for g in self.generators:
            if g.is_zero():
                raise GroebnerError("zero generator in ideal")
        arity = self.generators[0].vars.arity if self.generators else 0
        if not 0 <= self.eliminate <= arity:
            raise GroebnerError(f"cannot eliminate {self.eliminate} of {arity} variables")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: content-free integer coefficients, positive leading
    coefficient, no leading monomial divides another, sorted by descending
    leading monomial.  `eliminate` is the ideal's."""

    basis: tuple[Poly, ...]
    eliminate: int


# ---- monomials: products and quotients on encodings, divisibility on exponents ----


def _mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def _quo(a: Mono, b: Mono) -> Mono:
    return tuple(map(sub, a, b))


def _lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def _divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def _support(exps: Mono, bits: Sequence[int]) -> int:
    """Bitmask of the variables with a positive exponent."""
    return sum(compress(bits, exps))


# ---- integer term dicts on encoded monomials ----


def _encode_poly(p: Poly, order: _Order) -> tuple[dict[Mono, int], Fraction]:
    """Encoded monomials of p's numerators, content stripped; and the
    positive factor s of the result = s * p.  p must be nonzero."""
    terms, den = p.integer_terms()
    out = {order.encode(m): c for m, c in terms.items()}
    return out, Fraction(den, _strip_content(out))


def _to_poly(f: dict[Mono, int], vars: VarTable, order: _Order) -> Poly:
    return Poly._from_kernel(vars, {order.decode(m): c for m, c in f.items()})


class _Entry:
    """A reducer: a polynomial with positive leading coefficient, kept as its
    leading monomial (encoded, and as exponents with their support mask),
    leading coefficient and tail terms, plus its sugar degree."""

    __slots__ = ("lm", "exps", "mask", "lc", "tail", "deg", "sugar")

    def __init__(self, poly: dict[Mono, int], lm: Mono, run: "_Run", sugar: int):
        self.lm = lm
        self.exps = run.order.decode(lm)
        self.mask = _support(self.exps, run.bits)
        self.lc = poly[lm]
        self.tail = [(m, c) for m, c in poly.items() if m != lm]
        self.deg = sum(self.exps)
        self.sugar = sugar

    def poly(self) -> dict[Mono, int]:
        out = dict(self.tail)
        out[self.lm] = self.lc
        return out


def _reducer(exps: Mono, mask: int, reducers: list[_Entry]) -> _Entry | None:
    """First entry whose leading monomial divides exps, skipping by mask."""
    outside = ~mask
    for entry in reducers:
        if not entry.mask & outside and all(map(le, entry.exps, exps)):
            return entry
    return None


def _reduce_step(work: dict[Mono, int], heap: list[Mono], lm: Mono, reducer: _Entry) -> int:
    """work <- a*work - b*x^(lm/lm_r)*reducer in place, cancelling the term at
    lm; new monomials go on the lead heap.  Returns a > 0."""
    lc = work.pop(lm)
    g = math.gcd(lc, reducer.lc)
    a, nb = reducer.lc // g, -(lc // g)
    if a != 1:
        for m in work:
            work[m] *= a
    shift = _quo(lm, reducer.lm)
    get = work.get
    for m, c in reducer.tail:
        key = tuple(map(add, m, shift))  # _mul, inlined in the hottest loop
        v = get(key)
        if v is None:
            work[key] = nb * c
            heappush(heap, tuple(map(neg, key)))
        else:
            v += nb * c
            if v:
                work[key] = v
            else:
                del work[key]
    return a


def _lead_heap(work: dict[Mono, int]) -> list[Mono]:
    heap = [tuple(map(neg, m)) for m in work]
    heapify(heap)
    return heap


def _pop_lead(work: dict[Mono, int], heap: list[Mono]) -> Mono:
    """Leading monomial of a nonzero work; skips monomials that cancelled."""
    while True:
        m = tuple(map(neg, heappop(heap)))
        if m in work:
            return m


class _Run:
    """One Buchberger computation: its basis, pair queue, limits and clock."""

    def __init__(self, order: _Order, limits: ResourceLimits):
        self.order = order
        self.limits = limits
        self.start = time.monotonic()
        self.bits = [1 << i for i in range(order.arity)]
        self.basis: list[_Entry] = []
        self.pairs: dict[tuple[int, int], Mono] = {}  # live pair -> lcm exponents
        self.queue: list[tuple] = []  # heap of (sugar, encoded lcm, i, j)
        self.pairs_done = 0

    def limit(self, which: str, detail: str) -> LimitExceeded:
        """A trip of a count limit, saying how far the run got.  (The clock's
        message leaves the progress out: it changes from run to run, and the
        error message is part of a deterministic report.)"""
        return LimitExceeded(which, f"{detail} after {self.pairs_done} pairs (basis {len(self.basis)})")

    def check_room(self) -> None:
        """Trip max_basis_size before one more entry joins the basis."""
        if len(self.basis) >= self.limits.max_basis_size:
            raise self.limit("max_basis_size", f"basis grew past {self.limits.max_basis_size}")

    def check_clock(self) -> None:
        if time.monotonic() - self.start > self.limits.wall_clock_budget:
            raise LimitExceeded("wall_clock_budget", f"exceeded {self.limits.wall_clock_budget}s")

    def top_reduce(self, work: dict[Mono, int]) -> Mono | None:
        """Reduce work's leading term in place until no basis entry divides
        it, then strip the content.  Returns the leading monomial, None if
        work reduced to zero."""
        heap = _lead_heap(work)
        decode, bits, basis = self.order.decode, self.bits, self.basis
        steps = 0
        while work:
            lm = _pop_lead(work, heap)
            exps = decode(lm)
            reducer = _reducer(exps, _support(exps, bits), basis)
            if reducer is None:
                _strip_content(work)
                return lm
            _reduce_step(work, heap, lm, reducer)
            steps += 1
            if steps % 32 == 0:
                _strip_content(work)
                self.check_clock()
        return None

    def normal_form(
        self, work: dict[Mono, int], reducers: list[_Entry]
    ) -> tuple[dict[Mono, int], Fraction]:
        """Fully reduce every term of work (consumed).  Returns the
        content-free result and the positive factor s by which the
        fraction-free steps scaled it: result = s * (exact normal form)."""
        heap = _lead_heap(work)
        decode, bits = self.order.decode, self.bits
        done: dict[Mono, int] = {}
        scale, pending = Fraction(1), 1  # pending: multipliers not yet in scale
        steps = 0
        while work:
            lm = _pop_lead(work, heap)
            exps = decode(lm)
            reducer = _reducer(exps, _support(exps, bits), reducers)
            if reducer is None:
                done[lm] = work.pop(lm)
                continue
            a = _reduce_step(work, heap, lm, reducer)
            if a != 1:
                pending *= a
                for m in done:
                    done[m] *= a
            steps += 1
            if steps % 32 == 0:
                scale *= Fraction(pending, _strip_content(done, work) or 1)
                pending = 1
                self.check_clock()
        return done, scale * Fraction(pending, _strip_content(done) or 1)

    def add(self, entry: _Entry) -> None:
        """Gebauer-Moeller pair update: prune old pairs by the chain
        criterion, minimalize new lcms, drop coprime pairs, queue the rest,
        then append entry to the basis."""
        basis, pairs = self.basis, self.pairs
        t = len(basis)
        lmf = entry.exps

        stale = [
            (i, j)
            for (i, j), lij in pairs.items()
            if _divides(lmf, lij)
            and lij != _lcm(basis[i].exps, lmf)
            and lij != _lcm(basis[j].exps, lmf)
        ]
        for p in stale:
            del pairs[p]

        by_lcm: dict[Mono, list[int]] = {}
        for i in range(t):
            by_lcm.setdefault(_lcm(basis[i].exps, lmf), []).append(i)
        # a proper divisor has lower degree, so degree order finds the
        # divisibility-minimal lcms
        kept: list[Mono] = []
        for lcm in sorted(by_lcm, key=sum):
            if all(not _divides(other, lcm) for other in kept):
                kept.append(lcm)
        for lcm in kept:
            group = by_lcm[lcm]
            if any(not basis[i].mask & entry.mask for i in group):
                continue  # a coprime pair witnesses this lcm: S-poly reduces to zero
            i = group[0]
            deg = sum(lcm)
            sugar = max(basis[i].sugar + deg - basis[i].deg, entry.sugar + deg - entry.deg)
            pairs[(i, t)] = lcm
            heappush(self.queue, (sugar, self.order.encode(lcm), i, t))

        basis.append(entry)

    def next_pair(self) -> tuple[int, Mono, int, int]:
        """Pop the least live pair: (sugar, encoded lcm, i, j)."""
        while True:
            item = heappop(self.queue)
            if self.pairs.pop(item[2:], None) is not None:
                return item

    def s_poly(self, i: int, j: int, lcm: Mono) -> dict[Mono, int]:
        """Fraction-free S-polynomial of basis entries i and j at the encoded lcm."""
        gi, gj = self.basis[i], self.basis[j]
        c = math.gcd(gi.lc, gj.lc)
        shift = _quo(lcm, gi.lm)
        scale = gj.lc // c
        work = {_mul(m, shift): scale * v for m, v in gi.tail}
        shift = _quo(lcm, gj.lm)
        scale = -(gi.lc // c)
        for m, v in gj.tail:
            key = _mul(m, shift)
            s = work.get(key, 0) + scale * v
            if s:
                work[key] = s
            else:
                work.pop(key, None)
        return work


def buchberger(ideal: Ideal, limits: ResourceLimits | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under its term order."""
    if not ideal.generators:
        raise GroebnerError("buchberger needs at least one generator")
    limits = limits or ResourceLimits()
    vars = ideal.generators[0].vars
    order = _order(vars.arity, ideal.eliminate)
    degree = order.degree
    run = _Run(order, limits)
    basis = run.basis

    for g in ideal.generators:
        f, _ = _encode_poly(g, order)
        lm = run.top_reduce(f)
        if lm is not None:
            run.check_room()
            _positive_lead(f)
            run.add(_Entry(f, lm, run, max(map(degree, f))))

    while run.pairs:
        run.pairs_done += 1
        if run.pairs_done > limits.max_pairs:
            raise LimitExceeded(
                "max_pairs",
                f"processed more than {limits.max_pairs} pairs (basis {len(basis)})",
            )
        run.check_clock()
        sugar, lcm, i, j = run.next_pair()
        h = run.s_poly(i, j, lcm)
        lm = run.top_reduce(h)
        if lm is None:
            continue
        run.check_room()
        bits = max(c.bit_length() for c in h.values())
        if bits > limits.max_coefficient_bits:
            raise run.limit("max_coefficient_bits", f"coefficient reached {bits} bits")
        _positive_lead(h)
        run.add(_Entry(h, lm, run, max(sugar, max(map(degree, h)))))

    # minimalize: keep only entries whose lm no other kept lm divides
    minimal: list[_Entry] = []
    for entry in sorted(basis, key=lambda e: e.lm):
        if all(not _divides(kept.exps, entry.exps) for kept in minimal):
            minimal.append(entry)

    # interreduce: full normal form of each against the others
    reduced: list[tuple[Mono, dict[Mono, int]]] = []
    for k, entry in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1 :]
        nf, _ = run.normal_form(entry.poly(), others)
        _positive_lead(nf)
        reduced.append((entry.lm, nf))

    reduced.sort(key=lambda item: item[0], reverse=True)
    return GroebnerBasis(tuple(_to_poly(f, vars, order) for _, f in reduced), ideal.eliminate)


def _reducers(gb: GroebnerBasis, run: _Run) -> list[_Entry]:
    out = []
    for g in gb.basis:
        f, _ = _encode_poly(g, run.order)
        out.append(_Entry(f, max(f), run, 0))
    return out


def minimal_polynomial(
    p: Poly, gb: GroebnerBasis, out: VarTable, limits: ResourceLimits | None = None
) -> Poly | None:
    """Monic minimal polynomial, over the one-variable table `out`, of
    multiplication by p on Q[x]/<gb>; the constant 1 for the unit ideal,
    and None unless the ideal is zero-dimensional (some leading monomial
    is 1, or every variable has a pure-power leading monomial).

    The Krylov sequence v_0 = NF(1), v_k = NF(p * v_(k-1)) runs on integer
    dicts, each vector kept as s_k * v_k with s_k > 0 tracked exactly, until
    the first linear dependence; a fraction-free echelon keyed by leading
    monomial finds it.  As in FGLM, a step does not reduce p * v_(k-1): it
    combines the columns NF(p * b) of the standard monomials b in v_(k-1)'s
    support.  A column is built when first needed, from the column of
    b / x_i (x_i the last variable of b) and the normal forms of the border
    monomials x_i * m, each reduced once as a single term; only NF(p) itself
    reduces more than one term.  The loop shares the run's clock, and
    max_coefficient_bits holds for every Krylov vector."""
    order = _order(p.vars.arity, gb.eliminate)
    limits = limits or ResourceLimits()
    run = _Run(order, limits)
    reducers = _reducers(gb, run)
    pure = {e.mask for e in reducers if not e.mask & (e.mask - 1)}
    if 0 not in pure and len(pure) < len(run.bits):
        return None
    mult, alpha = _encode_poly(p, order)
    one = order.encode((0,) * order.arity)
    units = [order.encode(tuple(int(i == j) for j in range(order.arity))) for i in range(order.arity)]
    columns: dict[Mono, tuple[dict[Mono, int], Fraction]] = {}  # b -> (s_b * NF(mult * b), s_b)
    borders: dict[Mono, tuple[dict[Mono, int], Fraction]] = {}  # m -> (t_m * NF(m), t_m)

    def border(m: Mono) -> tuple[dict[Mono, int], Fraction]:
        if m not in borders:
            exps = order.decode(m)
            if _reducer(exps, _support(exps, run.bits), reducers) is None:
                borders[m] = {m: 1}, Fraction(1)
            else:
                borders[m] = run.normal_form({m: 1}, reducers)
        return borders[m]

    def column(b: Mono) -> tuple[dict[Mono, int], Fraction]:
        path = []  # (monomial, its last variable's unit), down to a built column
        while b not in columns and b != one:
            exps = order.decode(b)
            x = units[max(i for i, e in enumerate(exps) if e)]
            path.append((b, x))
            b = _quo(b, x)  # a divisor of a standard monomial is standard
        if b not in columns:
            columns[b] = run.normal_form(dict(mult), reducers)
            run.check_clock()
        for b, x in reversed(path):
            col, s = columns[_quo(b, x)]
            w, r = _combine([(c, *border(_mul(x, m))) for m, c in col.items()])
            columns[b] = w, s * r
            run.check_clock()
        return columns[b]

    vec, scale = run.normal_form({one: 1}, reducers)
    scales: list[Fraction] = []  # vector k is scales[k] * v_k
    rows: dict[Mono, tuple[dict[Mono, int], dict[int, int]]] = {}  # pivot -> (row, combination)
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
        vec, s = _combine([(c, *column(b)) for b, c in vec.items()])
        scale *= alpha * s
        run.check_clock()
    # sum comb[j] * scales[j] * v_j = 0, and comb[k] != 0 since v_0..v_(k-1) are independent
    lead = comb[k] * scales[k]
    return Poly(out, {(j,): c * scales[j] / lead for j, c in comb.items()})


def _combine(terms: list[tuple[int, dict[Mono, int], Fraction]]) -> tuple[dict[Mono, int], Fraction]:
    """The content-free w and r > 0 with w = r * sum(c / s * v), over
    (c, v, s) in terms, each s > 0."""
    lcm = math.lcm(*(s.numerator for _, _, s in terms))
    out: dict[Mono, int] = {}
    get = out.get
    for c, v, s in terms:
        k = c * s.denominator * (lcm // s.numerator)
        for m, d in v.items():
            out[m] = get(m, 0) + k * d
    out = {m: c for m, c in out.items() if c}
    return out, Fraction(lcm, _strip_content(out) or 1)


def _eliminate(
    row: dict[Mono, int], comb: dict[int, int], pivot: Mono, prow: dict[Mono, int], pcomb: dict[int, int]
) -> None:
    """row <- a*row - b*prow cancelling the pivot, comb <- a*comb - b*pcomb,
    both in place; then their joint content is divided out."""
    g = math.gcd(row[pivot], prow[pivot])
    a, b = prow[pivot] // g, row[pivot] // g
    for f, fp in ((row, prow), (comb, pcomb)):
        for m in f:
            f[m] *= a
        for m, c in fp.items():
            v = f.get(m, 0) - b * c
            if v:
                f[m] = v
            else:
                f.pop(m, None)
    _strip_content(row, comb)
