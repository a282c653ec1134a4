"""Buchberger's algorithm and elimination ideals, exact over the rationals.

The kernel is order-native.  On entry every monomial is encoded once by the
term order into a tuple whose natural tuple order is the term order:

  lex      the permuted exponents;
  grevlex  (deg, -e_n, ..., -e_1) over the permuted exponents e_1..e_n;
  block    the grevlex encodings of the two blocks, concatenated.

The encoding is linear in the exponents, so comparing two monomials is one
tuple compare and a monomial product or quotient is an elementwise add or
subtract.  Monomials are decoded only when the result `Poly` is built.
Coefficients are integers: denominators are cleared on entry and content is
stripped as the reductions go.

Reduction is fraction-free and in place.  The working polynomial is one
dict; a reduction step scales it, cancels its leading term against a
reducer, and adds the reducer's shifted tail into it.  The leading term
comes from a lazy heap over the working polynomial's monomials (negated
encodings, so the heap's minimum is the leading monomial; monomials that
cancelled are skipped when they surface).  Each basis entry keeps its
leading exponents and a support bitmask, and the reducer scan skips an entry
by mask before it compares exponents.  Top reduction and full normal form
share the same step; both check the clock every 32 steps.

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
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, itemgetter, le, neg, sub
from typing import Callable, Iterable, Literal, Sequence

from .poly import Poly, VarTable

Mono = tuple[int, ...]
OrderKind = Literal["grevlex", "lex", "block"]


class GroebnerError(Exception):
    """Structural misuse: empty ideal, bad order, mixed tables."""


class LimitExceeded(Exception):
    """A resource limit tripped; recoverable and reportable."""

    def __init__(self, which: str, detail: str):
        super().__init__(f"{which}: {detail}")
        self.which = which
        self.detail = detail


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on the Buchberger run; all positive."""

    max_pairs: int = 500_000
    max_basis_size: int = 10_000
    max_coefficient_bits: int = 1_000_000
    wall_clock_budget: float = 600.0

    def __post_init__(self) -> None:
        if min(self.max_pairs, self.max_basis_size, self.max_coefficient_bits) <= 0:
            raise GroebnerError("resource limits must be positive")
        if self.wall_clock_budget <= 0:
            raise GroebnerError("resource limits must be positive")


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: variable permutation plus comparison kind.

    var_order[k] is the table index of the variable at comparison position
    k (position 0 is the most significant).  For kind "block", the first
    `split` positions form the eliminated block: monomials compare grevlex
    on that block first, then grevlex on the rest, so any Groebner basis
    intersected with the kept variables generates the elimination ideal.
    """

    kind: OrderKind
    var_order: tuple[int, ...]
    split: int = 0

    def __post_init__(self) -> None:
        if sorted(self.var_order) != list(range(len(self.var_order))):
            raise GroebnerError(f"variable order {self.var_order} is not a permutation")
        if self.kind == "block" and not 0 <= self.split <= len(self.var_order):
            raise GroebnerError(f"block split {self.split} out of range")

    def permute(self, mono: Mono) -> Mono:
        return tuple(mono[i] for i in self.var_order)

    def unpermute(self, mono: Mono) -> Mono:
        out = [0] * len(mono)
        for pos, i in enumerate(self.var_order):
            out[i] = mono[pos]
        return tuple(out)

    def key(self, permuted: Mono) -> Mono:
        """Sort key on permuted exponents: larger key = larger monomial."""
        return self.encode(self.unpermute(permuted))

    @cached_property
    def _codec(self) -> tuple[Callable[[Mono], Mono], Callable[[Mono], Mono], Callable[[Mono], int]]:
        """(encode, decode, degree) on encoded monomials of this order."""
        vo = self.var_order
        if self.kind == "lex":
            return _picker(vo), _picker(self.unpermute(tuple(range(len(vo))))), sum
        # graded segments, each encoded as (deg, -e_last, ..., -e_first)
        if self.kind == "grevlex":
            segments = [vo[::-1]]
        else:
            segments = [vo[: self.split][::-1], vo[self.split :][::-1]]
        pickers = [_picker(segment) for segment in segments]
        positions = [0] * len(vo)  # encoded position of each table index
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

        return encode, decode, lambda m: sum(m[q] for q in degree_at)

    def encode(self, mono: Mono) -> Mono:
        """Encode table-order exponents; tuple order on encodings is this order."""
        return self._codec[0](mono)

    def decode(self, encoded: Mono) -> Mono:
        """Table-order exponents of an encoded monomial."""
        return self._codec[1](encoded)

    def degree(self, encoded: Mono) -> int:
        """Total degree of an encoded monomial."""
        return self._codec[2](encoded)


def _picker(indices: Sequence[int]) -> Callable[[Mono], Mono]:
    """mono -> tuple(mono[i] for i in indices), as one C call."""
    if len(indices) == 1:
        return lambda m, i=indices[0]: (m[i],)
    if not indices:
        return lambda m: ()
    return itemgetter(*indices)


def grevlex_order(arity: int) -> TermOrder:
    return TermOrder("grevlex", tuple(range(arity)))


def lex_order(arity: int) -> TermOrder:
    return TermOrder("lex", tuple(range(arity)))


def block_elim_order(arity: int, eliminate: Sequence[int]) -> TermOrder:
    """Order eliminating the given table indices (they compare above the rest)."""
    elim = list(eliminate)
    keep = [i for i in range(arity) if i not in set(elim)]
    return TermOrder("block", tuple(elim + keep), split=len(elim))


@dataclass(frozen=True)
class Ideal:
    """Generator list with an explicit term order for basis computations."""

    generators: tuple[Poly, ...]
    order: TermOrder

    def __post_init__(self) -> None:
        tables = {g.vars for g in self.generators}
        if len(tables) > 1:
            raise GroebnerError("generators over mixed variable tables")
        for g in self.generators:
            if g.is_zero():
                raise GroebnerError("zero generator in ideal")
        if self.generators and len(self.order.var_order) != self.generators[0].vars.arity:
            raise GroebnerError("order arity does not match generator table")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: content-free integer coefficients, positive leading
    coefficient, no leading monomial divides another, sorted by descending
    leading monomial."""

    basis: tuple[Poly, ...]
    order: TermOrder


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


def _encode_poly(p: Poly, order: TermOrder) -> dict[Mono, int]:
    """Encoded monomials, denominators cleared, content stripped."""
    lcm = 1
    for _, c in p.terms():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    out = {order.encode(m): int(c * lcm) for m, c in p.terms()}
    _strip_content(out)
    return out


def _strip_content(f: dict[Mono, int]) -> None:
    g = math.gcd(*f.values())
    if g > 1:
        for m in f:
            f[m] //= g


def _to_poly(f: dict[Mono, int], vars: VarTable, order: TermOrder) -> Poly:
    return Poly(vars, {order.decode(m): Fraction(c) for m, c in f.items()})


def _positive_lead(f: dict[Mono, int]) -> None:
    if f and f[max(f)] < 0:
        for m in f:
            f[m] = -f[m]


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

    def __init__(self, order: TermOrder, limits: ResourceLimits):
        self.order = order
        self.limits = limits
        self.start = time.monotonic()
        self.bits = [1 << i for i in range(len(order.var_order))]
        self.basis: list[_Entry] = []
        self.pairs: dict[tuple[int, int], Mono] = {}  # live pair -> lcm exponents
        self.queue: list[tuple] = []  # heap of (sugar, encoded lcm, i, j)
        self.pairs_done = 0

    def limit(self, which: str, detail: str) -> LimitExceeded:
        """A trip of a count limit, saying how far the run got.  (The clock's
        message leaves the progress out: it changes from run to run, and the
        error message is part of a deterministic report.)"""
        return LimitExceeded(which, f"{detail} after {self.pairs_done} pairs (basis {len(self.basis)})")

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

    def normal_form(self, work: dict[Mono, int], reducers: list[_Entry]) -> dict[Mono, int]:
        """Fully reduce every term of work (consumed); content-free result."""
        heap = _lead_heap(work)
        decode, bits = self.order.decode, self.bits
        done: dict[Mono, int] = {}
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
                for m in done:
                    done[m] *= a
            steps += 1
            if steps % 32 == 0:
                joint = math.gcd(*done.values(), *work.values())
                if joint > 1:
                    for f in (done, work):
                        for m in f:
                            f[m] //= joint
                self.check_clock()
        if done:
            _strip_content(done)
        return done

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
    order = ideal.order
    degree = order.degree
    vars = ideal.generators[0].vars
    run = _Run(order, limits)
    basis = run.basis

    for g in ideal.generators:
        f = _encode_poly(g, order)
        lm = run.top_reduce(f)
        if lm is not None:
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
        if len(basis) + 1 > limits.max_basis_size:
            raise run.limit("max_basis_size", f"basis grew past {limits.max_basis_size}")
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
        nf = run.normal_form(entry.poly(), others)
        _positive_lead(nf)
        reduced.append((entry.lm, nf))

    reduced.sort(key=lambda item: item[0], reverse=True)
    return GroebnerBasis(tuple(_to_poly(f, vars, order) for _, f in reduced), order)


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Full normal form of p modulo the basis (zero iff p is in the ideal)."""
    if p.is_zero():
        return p
    order = gb.order
    run = _Run(order, ResourceLimits())
    entries = []
    for g in gb.basis:
        f = _encode_poly(g, order)
        entries.append(_Entry(f, max(f), run, 0))
    nf = run.normal_form(_encode_poly(p, order), entries)
    _positive_lead(nf)
    return _to_poly(nf, p.vars, order)


def eliminate(ideal: Ideal, keep: Iterable[int], limits: ResourceLimits | None = None) -> Ideal:
    """Generators of the elimination ideal in the kept table indices.

    Uses a block order placing every eliminated variable above every kept
    one; basis elements involving only kept variables generate the
    elimination ideal.  The unit ideal eliminates to the unit ideal.
    """
    if not ideal.generators:
        raise GroebnerError("eliminate needs at least one generator")
    arity = ideal.generators[0].vars.arity
    keep_set = set(keep)
    if not keep_set <= set(range(arity)):
        raise GroebnerError(f"keep set {sorted(keep_set)} outside table range")
    elim = [i for i in ideal.order.var_order if i not in keep_set]
    kept = [i for i in ideal.order.var_order if i in keep_set]
    order = TermOrder("block", tuple(elim + kept), split=len(elim))
    gb = buchberger(Ideal(ideal.generators, order), limits)
    selected = tuple(g for g in gb.basis if g.variables_used() <= keep_set)
    return Ideal(selected, grevlex_order(arity))
