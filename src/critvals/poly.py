"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from monomial exponent tuples to nonzero
integer numerators over one positive denominator in lowest terms, tied to
an immutable table of variable names.  That is the form every exact kernel
reads, so `Poly.integer_terms` is a copy of the storage, and the integer
term-dict helpers the kernels share live here.  Coefficients are
`Fraction`s only where they are read one by one: `terms`, `coefficient`,
`constant_value`.

Terms are stored unordered; equality and hashing do not depend on the order.
`Poly.terms` makes the canonical one, grevlex descending over the variable
table, so equal polynomials serialize to identical strings on every
platform.  There is no floating point anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterator, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]
Terms = dict[Exponent, int]


class PolyError(Exception):
    """Structural misuse: arity mismatch, bad exponent, unknown variable."""


@dataclass(frozen=True)
class VarTable:
    """Ordered, immutable table of variable names.

    The position of a name is its variable index for every polynomial built
    over this table; two tables are interchangeable iff they list the same
    names in the same order.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise PolyError(f"duplicate variable names: {self.names}")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None

    def __str__(self) -> str:
        return "[" + ", ".join(self.names) + "]"


def grevlex_key(mono: Exponent) -> tuple:
    """Sort key under which max() picks the grevlex-largest monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients, kept
    as integer numerators over one positive denominator."""

    __slots__ = ("vars", "_terms", "_den", "_hash")

    def __init__(self, vars: VarTable, terms: dict[Exponent, Scalar], den: int = 1):
        """The polynomial terms / den.  Coefficients may be rational; the
        result is reduced to lowest terms."""
        if den < 1:
            raise PolyError(f"denominator must be positive, got {den}")
        arity = vars.arity
        if set(map(len, terms)) - {arity}:
            bad = next(m for m in terms if len(m) != arity)
            raise PolyError(f"exponent {bad} has wrong length for {vars}")
        if min(chain.from_iterable(terms), default=0) < 0:
            bad = next(m for m in terms if min(m) < 0)
            raise PolyError(f"negative exponent in {bad}")
        clean = {m: c for m, c in terms.items() if c}
        if not all(isinstance(c, int) for c in clean.values()):
            scale = math.lcm(*(Fraction(c).denominator for c in clean.values()))
            clean = {m: int(Fraction(c) * scale) for m, c in clean.items()}
            den *= scale
        self._store(vars, *_lowest_terms(clean, den))

    def _store(self, vars: VarTable, terms: Terms, den: int) -> None:
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # ---- constructors ----

    @classmethod
    def _from_kernel(cls, vars: VarTable, terms: Terms, den: int = 1) -> "Poly":
        """terms / den for integer terms a package kernel built over `vars`,
        with den > 0: zero coefficients dropped, reduced to lowest terms.
        The Poly may keep `terms` itself, so the caller hands it over.
        Skips the checks only untrusted input needs (exponent length and
        sign, rational coefficients); parsed or user-built terms go through
        `Poly(...)`."""
        p = object.__new__(cls)
        if not all(terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        p._store(vars, *_lowest_terms(terms, den))
        return p

    @classmethod
    def zero(cls, vars: VarTable) -> "Poly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: VarTable, value: Scalar) -> "Poly":
        return cls(vars, {(0,) * vars.arity: value})

    @classmethod
    def variable(cls, vars: VarTable, index: int) -> "Poly":
        if not 0 <= index < vars.arity:
            raise PolyError(f"variable index {index} out of range for {vars}")
        mono = tuple(1 if i == index else 0 for i in range(vars.arity))
        return cls(vars, {mono: 1})

    # ---- inspection ----

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Iterate (monomial, coefficient) in the canonical order, grevlex
        descending; the one place that order is made."""
        return ((m, self.coefficient(m)) for m in sorted(self._terms, key=grevlex_key, reverse=True))

    def coefficient(self, mono: Exponent) -> Fraction:
        return Fraction(self._terms.get(mono, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise PolyError("not a constant polynomial")
        return Fraction(self._terms.get((0,) * self.vars.arity, 0), self._den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._terms), default=-1)

    def variables_used(self) -> set[int]:
        """Indices of variables that occur with positive exponent."""
        used: set[int] = set()
        for mono in self._terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(i)
        return used

    def num_terms(self) -> int:
        return len(self._terms)

    def integer_terms(self) -> tuple[Terms, int]:
        """(den * self as a fresh unordered {monomial: int} dict, den), where
        den is the lcm of the coefficient denominators (1 for zero)."""
        return dict(self._terms), self._den

    # ---- ring operations ----

    def _require_same_table(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise PolyError(f"variable tables differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same_table(other)
        g = math.gcd(self._den, other._den)
        a, b = other._den // g, self._den // g  # over the common denominator
        out = {m: c * a for m, c in self._terms.items()}
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c * b
        return Poly._from_kernel(self.vars, out, self._den * a)

    def __neg__(self) -> "Poly":
        return Poly._from_kernel(self.vars, {m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._require_same_table(other)
        return Poly._from_kernel(self.vars, _product(self._terms, other._terms), self._den * other._den)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise PolyError("negative power of a polynomial")
        result = Poly.const(self.vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def partial_derivative(self, index: int) -> "Poly":
        """Exact formal partial derivative with respect to variable `index`."""
        if not 0 <= index < self.vars.arity:
            raise PolyError(f"variable index {index} out of range for {self.vars}")
        out: Terms = {}
        for mono, coeff in self._terms.items():
            e = mono[index]
            if e == 0:
                continue
            dm = mono[:index] + (e - 1,) + mono[index + 1 :]
            out[dm] = out.get(dm, 0) + coeff * e
        return Poly._from_kernel(self.vars, out, self._den)

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point; exact (a ring homomorphism to Q)."""
        if len(point) != self.vars.arity:
            raise PolyError(f"point has {len(point)} coordinates, expected {self.vars.arity}")
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            term = Fraction(coeff)
            for e, v in zip(mono, vals):
                if e:
                    term *= v**e
            total += term
        return total / self._den

    # ---- comparison & hashing ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vars, self._den, frozenset(self._terms.items()))))
        return self._hash

    # ---- canonical text form ----

    def __str__(self) -> str:
        return serialize_poly(self)

    def __repr__(self) -> str:
        return f"Poly({serialize_poly(self)!r}, vars={self.vars})"


# ---- integer term dicts, shared by the exact kernels ----


def _product(f: Terms, g: Terms) -> Terms:
    out: Terms = {}
    get = out.get
    for m, c in f.items():
        for n, d in g.items():
            key = tuple(map(add, m, n))
            out[key] = get(key, 0) + c * d
    return {m: c for m, c in out.items() if c}


def _strip_content(*fs: dict) -> int:
    """Divide out the joint content of the dicts' values in place and
    return it (0 if all are empty)."""
    g = math.gcd(*chain.from_iterable(f.values() for f in fs))
    if g > 1:
        for f in fs:
            for m in f:
                f[m] //= g
    return g


def _positive_lead(f: dict) -> None:
    """Negate f in place if its value at the largest key is negative."""
    if f and f[max(f)] < 0:
        for m in f:
            f[m] = -f[m]


def _lowest_terms(num: Terms, den: int) -> tuple[Terms, int]:
    """num / den with the common factor of num's coefficients and den
    divided out, and den > 0."""
    g = math.gcd(den, *num.values()) * (1 if den > 0 else -1)
    if g == 1:
        return num, den
    return {m: a // g for m, a in num.items()}, den // g


def serialize_poly(p: Poly) -> str:
    """Canonical text form: terms in `Poly.terms` order, explicit signs, '^', '*'.

    Bit-exact across runs and platforms; round-trips through parse_poly.
    """
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i, (mono, coeff) in enumerate(p.terms()):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors: list[str] = []
        if mag != 1 or not any(mono):
            factors.append(str(mag))  # Fraction prints as "a" or "a/b"
        for name, e in zip(p.vars.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


# ---- parsing ----


class ParseError(Exception):
    """Syntax or name error, with the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_OPS = set("+-*^()/,;")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # indexed names like "a[-1][2]" are single tokens (arc variables)
            while j < n and text[j] == "[":
                k = j + 1
                if k < n and text[k] == "-":
                    k += 1
                if k >= n or not text[k].isdigit():
                    break
                while k < n and text[k].isdigit():
                    k += 1
                if k >= n or text[k] != "]":
                    break
                j = k + 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ('^' int)?,
    atom := int ('/' int)? | name | '(' expr ')' | '-' factor.
    Implicit multiplication is rejected by construction.
    """

    def __init__(self, text: str, vars: VarTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", at)

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", at)
        return p

    def expr(self) -> Poly:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", at)
            p = p ** int(val)
        return p

    def atom(self) -> Poly:
        kind, val, at = self.take()
        if kind == "int":
            num = int(val)
            kind2, _, _ = self.peek()
            if kind2 == "op" and self.peek()[1] == "/":
                self.take()
                kind3, den, at3 = self.take()
                if kind3 != "int":
                    raise ParseError("denominator must be an integer", at3)
                if int(den) == 0:
                    raise ParseError("zero denominator", at3)
                return Poly.const(self.vars, Fraction(num, int(den)))
            return Poly.const(self.vars, num)
        if kind == "name":
            try:
                index = self.vars.index(val)
            except PolyError:
                raise ParseError(f"unknown variable {val!r}", at) from None
            return Poly.variable(self.vars, index)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        if kind == "op" and val == "-":
            return -self.factor()
        raise ParseError(f"unexpected {val or 'end of input'!r}", at)


def parse_poly(text: str, vars: VarTable) -> Poly:
    """Parse polynomial text over the given variable table.

    Grammar: identifiers, integer and rational ("3/2") literals, + - * ^,
    parentheses.  No implicit multiplication.  Raises ParseError with the
    offending position on bad input.
    """
    return _Parser(text, vars).parse()
