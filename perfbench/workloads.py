"""Seeded workloads: the operations a pass runs and the reference each is checked against.

`build(name, seed, cv)` turns a seed into a list of operations over the freshly
imported package `cv`.  An operation is one `cli.run` (plus the report
serialization the command line does), one `build_system`/`build_av_system`
call, or one `malgrange_probe` call.  Every call goes through the attribute of
the module that defines it, so the tracer's wrappers see it.

References never come from the program's own Groebner engine at run time:
arc-elim and real-certify compare against closed forms, arc-systems against an
independent evaluation of f along the arc, and k0-dense against references
pinned once in `k0_pinned.json` (see `pin_k0.py`).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("arc-elim", "k0-dense", "real-certify", "arc-systems")

# The default-shape Broughton run gets this many seconds of Groebner budget.
BUDGET_S = 0.5
# Real runs use a lighter certifier than the CLI default (32 restarts x 200
# iterations) so that a pass fits several times into one measured run.
CERT_RESTARTS = 24
CERT_ITERS = 25
CERT_SEED = 0
PROBE_RADII = (10.0, 100.0, 1000.0)
PINNED = Path(__file__).with_name("k0_pinned.json")
K0_PER_PASS = 3  # small degree-4 members drawn from the pinned pool per pass
K0_WARMUP = 25  # the cheapest fixed member (about 0.2 s) comes first: the warm-up operation


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output matches its reference
    expect_limit: str | None = None  # LimitExceeded.which this op is allowed to trip
    budget_s: float | None = None


# ---- polynomial text and an independent reader of the report's polynomials ----


def poly_text(terms: list[tuple[int, str]]) -> str:
    """'c*mono' terms joined with explicit signs; mono '' is the constant."""
    parts = []
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}" if parts else ("-" if c < 0 else "") + body)
    return " ".join(parts) or "0"


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def read_poly(text: str) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """Parse the serializer's 'c*v^e*w' sums into {((var, exp), ...): coeff}."""
    out: dict[tuple[tuple[str, int], ...], Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unreadable polynomial text {text!r}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        mono = []
        for factor in m.group(2).strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono.append((name, int(exp or 1)))
        key = tuple(sorted(mono))
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def normalized(coeffs: dict[Any, Fraction]) -> dict[Any, int]:
    """Content-free integer coefficients with a positive coefficient at the
    largest key, so polynomials equal up to a scalar compare equal."""
    if not coeffs:
        return {}
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {k: int(c * den) for k, c in coeffs.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[max(ints)] < 0:
        g = -g
    return {k: v // g for k, v in ints.items()}


def univariate(text: str, var: str) -> dict[int, int]:
    """Normalized {degree: coeff} of a univariate polynomial in the report."""
    out: dict[int, Fraction] = {}
    for mono, c in read_poly(text).items():
        if any(name != var for name, _ in mono):
            raise ValueError(f"{text!r} is not univariate in {var}")
        out[sum(e for _, e in mono)] = c
    return normalized(out)


def shifted(coeffs: dict[int, int], c: int) -> dict[int, int]:
    """Normalized coefficients of p(y - c) for p given by {degree: coeff}."""
    out: dict[int, Fraction] = {}
    for d, a in coeffs.items():
        for k in range(d + 1):
            out[k] = out.get(k, Fraction(0)) + a * comb(d, k) * (-c) ** (d - k)
    return normalized({k: v for k, v in out.items() if v})


def _expect_eliminant(value_set: str, expected: dict[int, int]) -> Callable[[Any], str | None]:
    def check(report_json: str) -> str | None:
        results = json.loads(report_json)["results"]
        got = univariate(results[value_set]["eliminant"], "y")
        if got != expected:
            return f"{value_set} eliminant {results[value_set]['eliminant']!r}, expected coefficients {expected}"
        return None

    return check


# ---- arc-elim: complex K_inf / K / S_F runs on the paper's examples ----

BROUGHTON_KINF = {1: 1}  # Kinf(x + x^2*y) = {0}: eliminant y
QUINTIC_KINF = {3: 3125, 1: 256}  # Kinf(x*(x^2+1)^2): 3125*y^3 + 256*y


def _cli(cv, cfg, text: str) -> Callable[[], str]:
    def call() -> str:
        return cv.cli.run(cfg, text).to_json()

    return call


def _arc_elim(seed: int, cv) -> list[Op]:
    """Every input is a paper example under x -> p*x, y -> q*y, f -> f + c
    with p, q = +-1 and c drawn by the seed.  A sign flip maps the arc
    system onto an isomorphic one and the shift only moves the constant of
    c0, so the seed changes every input but not the Groebner work: a pass
    takes the same time on every seed."""
    rng = random.Random(seed)
    p, q = rng.choice((1, -1)), rng.choice((1, -1))
    c, c1, c2 = (rng.randint(-9, 9) for _ in range(3))
    broughton = poly_text([(p, "x"), (q, "x^2*y"), (c, "")])
    quintic = poly_text([(p, f"x*({poly_text([(1, 'x^2'), (1, '')])})^2"), (c, "")])
    blowup = f"{poly_text([(p, 'x'), (c1, '')])}; {poly_text([(p * q, 'x*y'), (c2, '')])}"
    RunConfig = cv.cli.RunConfig
    xy = ("x", "y")
    bro_ref = shifted(BROUGHTON_KINF, c)
    qu_ref = shifted(QUINTIC_KINF, c)  # the quintic's values are symmetric under y -> -y

    def cli_op(name, text, value_set, bounds, ref, **extra) -> Op:
        cfg = RunConfig(value_set=value_set, bounds=bounds, variables=xy, **extra)
        return Op(name, _cli(cv, cfg, text), _expect_eliminant(value_set, ref))

    # S_F(x; x*y) is the line y1 = 0, here y1 = c1; at (2, 1) the generator is squared
    sf_terms = {(("y1", 2),): Fraction(1), (("y1", 1),): Fraction(-2 * c1), (): Fraction(c1 * c1)}
    sf_ref = normalized({m: v for m, v in sf_terms.items() if v})

    def sf_check(report_json: str) -> str | None:
        gens = json.loads(report_json)["results"]["sf"]["generators"]
        if [normalized(read_poly(g)) for g in gens] != [sf_ref]:
            return f"sf generators {gens}, expected (y1 - {c1})^2"
        return None

    budget = cv.groebner.ResourceLimits(wall_clock_budget=BUDGET_S)
    default_shape = RunConfig(value_set="kinf", variables=xy, limits=budget)
    return [
        cli_op("broughton-kinf-1-1", broughton, "kinf", (1, 1), bro_ref),
        cli_op("broughton-k-2-1", broughton, "k", (2, 1), bro_ref),
        cli_op("quintic-kinf-1-0", quintic, "kinf", (1, 0), qu_ref),
        Op("blowup-sf-2-1", _cli(cv, RunConfig(value_set="sf", bounds=(2, 1)), blowup), sf_check),
        cli_op("broughton-kinf-2-3", broughton, "kinf", (2, 3), bro_ref),
        cli_op("broughton-kinf-3-2", broughton, "kinf", (3, 2), bro_ref),
        cli_op("quintic-kinf-4-0", quintic, "kinf", (4, 0), qu_ref),
        cli_op("quintic-kinf-5-0", quintic, "kinf", (5, 0), qu_ref),
        Op(
            "broughton-kinf-default",
            _cli(cv, default_shape, broughton),
            _expect_eliminant("kinf", bro_ref),
            expect_limit="wall_clock_budget",
            budget_s=BUDGET_S,
        ),
    ]


# ---- k0-dense: complex K0 of dense bivariate polynomials from a pinned pool ----


def dense_poly(rng: random.Random, degree: int, coeff: Callable[[random.Random], int]) -> str:
    """Dense polynomial of total degree `degree`, every coefficient drawn by `coeff`."""
    terms = []
    for total in range(degree, -1, -1):
        for i in range(total, -1, -1):
            mono = "*".join(f for f in (_pow("x", i), _pow("y", total - i)) if f)
            terms.append((coeff(rng), mono))
    return poly_text(terms)


def _pow(v: str, e: int) -> str:
    return "" if e == 0 else (v if e == 1 else f"{v}^{e}")


def _small(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _large(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(100, 999)


def _unit(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def pool() -> list[tuple[str, int, bool]]:
    """The pinned pool as (text, degree, fixed).

    24 degree-4 members with coefficients in +-{1, 2, 3}, of which a seed
    draws K0_PER_PASS, and fixed members in every pass: three of degree 4
    with three-digit coefficients and one of degree 5 with coefficients +-1.
    A small member costs 0.06-0.13 s and a three-digit one 0.3-0.7 s, so the
    pass's median operation is always a fixed member and its time does not
    follow the seed.
    """
    members = [(dense_poly(random.Random(4000 + k), 4, _small), 4, False) for k in range(24)]
    members += [(dense_poly(random.Random(7000 + k), 4, _large), 4, True) for k in range(3)]
    members.append((dense_poly(random.Random(5100), 5, _unit), 5, True))
    return members


def _k0_dense(seed: int, cv) -> list[Op]:
    pinned = json.loads(PINNED.read_text())["pool"]
    if [(m["text"], m["degree"], m["fixed"]) for m in pinned] != pool():
        raise RuntimeError(f"{PINNED.name} does not match the pool generator; rerun pin_k0.py")
    rng = random.Random(seed)
    fixed = sorted((m for m in pinned if m["fixed"]), key=lambda m: m["id"] != K0_WARMUP)
    chosen = fixed + rng.sample([m for m in pinned if not m["fixed"]], K0_PER_PASS)
    cfg = cv.cli.RunConfig(value_set="k0", variables=("x", "y"))
    ops = []
    for m in chosen:
        ref = {int(d): int(v) for d, v in m["eliminant"].items()}
        ops.append(Op(f"k0-deg{m['degree']}-{m['id']}", _cli(cv, cfg, m["text"]), _expect_eliminant("k0", ref)))
    return ops


# ---- real-certify: real runs where the certifier dominates ----


def _real_certify(seed: int, cv) -> list[Op]:
    """The seed shifts every input by a constant c, f -> f + c, and every
    expected value with it.  The certifier's residual for f + c at y + c is
    the one for f at y, and its own seed is fixed, so the seed changes the
    inputs but not the certifier's work."""
    c = random.Random(seed).randint(-9, 9)
    cert = cv.certify.CertifyConfig(restarts=CERT_RESTARTS, max_iters=CERT_ITERS, seed=CERT_SEED)
    xy = ("x", "y")

    def real(value_set, bounds=None, variables=xy):
        return cv.cli.RunConfig(
            field="real", value_set=value_set, bounds=bounds, variables=variables, seed=CERT_SEED, certifier=cert
        )

    def expect(sets: dict[str, tuple[list[float], list[str]]]) -> Callable[[str], str | None]:
        """Per value set: the certified headline values and every root's status."""

        def check(report_json: str) -> str | None:
            results = json.loads(report_json)["results"]
            for name, (headline, statuses) in sets.items():
                got_h = results[name]["headline_real"]
                got_s = [r["certification"] for r in results[name]["real_roots"]]
                close = len(got_h) == len(headline) and all(abs(a - b - c) < 1e-6 for a, b in zip(got_h, headline))
                if not close or got_s != statuses:
                    return f"{name}: headline {got_h} statuses {got_s}, expected {headline} + {c} {statuses}"
            return None

        return check

    broughton, quintic = poly_text([(1, "x"), (1, "x^2*y"), (c, "")]), poly_text([(1, "x*(x^2+1)^2"), (c, "")])
    zero_ok = ([0.0], ["CertifiedReal"])
    zero_unc = ([], ["Uncertified"])
    f = cv.poly.parse_poly(broughton, cv.poly.VarTable(xy))

    def probe(y: float) -> Callable[[], Any]:
        # the probe keeps its default seed: its cost does not follow the run's seed
        return lambda: cv.certify.malgrange_probe(f, y + c, PROBE_RADII)

    def decays(trace) -> str | None:
        # an asymptotic critical value: min of |x|*|grad f| decays like 1/(4r)
        got = trace.running_minima()
        if all(abs(m * 4 * r - 1) < 0.05 for m, r in zip(got, PROBE_RADII)):
            return None
        return f"probe at y=0 gave {got}, expected about 1/(4r)"

    def floors(trace) -> str | None:
        got = trace.running_minima()
        if all(abs(m - 0.975) < 0.01 for m in got):
            return None
        return f"probe at y=1 gave {got}, expected a floor near 0.975"

    return [
        Op("cubic-k0", _cli(cv, real("k0", variables=("x",)), poly_text([(1, "x^3"), (-3, "x"), (c, "")])),
           expect({"k0": ([-2.0, 2.0], ["CertifiedReal", "CertifiedReal"])})),
        Op("broughton-kinf-1-1", _cli(cv, real("kinf", (1, 1)), broughton), expect({"kinf": zero_ok})),
        Op("broughton-all-1-1", _cli(cv, real("all", (1, 1)), broughton),
           expect({"k0": ([], []), "kinf": zero_ok, "k": zero_ok})),
        Op("quintic-kinf-1-0", _cli(cv, real("kinf", (1, 0)), quintic), expect({"kinf": zero_unc})),
        Op("quintic-all-1-0", _cli(cv, real("all", (1, 0)), quintic),
           expect({"k0": zero_unc, "kinf": zero_unc, "k": zero_unc})),
        Op("probe-broughton-y0", probe(0.0), decays),
        Op("probe-broughton-y1", probe(1.0), floors),
    ]


# ---- arc-systems: system construction only, no elimination ----


def _bidegree_poly(rng: random.Random, deg: int) -> dict[tuple[int, int], int]:
    return {(i, j): rng.choice((-1, 1)) * rng.randint(1, 9) for i in range(deg + 1) for j in range(deg + 1)}


def _text(coeffs: dict[tuple[int, int], int]) -> str:
    return poly_text([(c, "*".join(f for f in (_pow("x", i), _pow("y", j)) if f)) for (i, j), c in sorted(coeffs.items(), reverse=True)])


def _derivative(f: dict[tuple[int, int], int], var: int) -> dict[tuple[int, int], int]:
    out = {}
    for (i, j), c in f.items():
        e = (i, j)[var]
        if e:
            out[(i - 1, j) if var == 0 else (i, j - 1)] = c * e
    return out


def _times_var(f: dict[tuple[int, int], int], var: int) -> dict[tuple[int, int], int]:
    return {((i + 1, j) if var == 0 else (i, j + 1)): c for (i, j), c in f.items()}


def _laurent_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + va * vb
    return out


def along_arc(f: dict[tuple[int, int], int], arc: list[dict[int, Fraction]]) -> dict[int, Fraction]:
    """t-coefficients of f(x1(t), x2(t)) for arcs with rational coefficients."""
    powers = [[{0: Fraction(1)}], [{0: Fraction(1)}]]
    out: dict[int, Fraction] = {}
    for (i, j), c in f.items():
        for v, e in ((0, i), (1, j)):
            while len(powers[v]) <= e:
                powers[v].append(_laurent_mul(powers[v][-1], arc[v]))
        for k, val in _laurent_mul(powers[0][i], powers[1][j]).items():
            out[k] = out.get(k, Fraction(0)) + c * val
    return out


def _evaluate(p, point: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in p.terms():
        term = c
        for v, e in zip(point, mono):
            if e:
                term *= v**e
        total += term
    return total


def _system_check(seed: int, components: dict[tuple, dict], shape, normalized_arc: bool) -> Callable[[Any], str | None]:
    """Check s(a, t) = g(x(a, t)) coefficientwise at one seeded rational point.

    `components` maps each generator family key ('c',), ('d', i), ('e', i, j)
    or ('c', l) to the bivariate polynomial it expands, with the t-range its
    generators cover; family tags absent from the system must vanish there.
    """

    def check(system) -> str | None:
        rng = random.Random(seed)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(shape.num_vars)]
        arc = [{i: point[shape.var_index(i, j)] for i in shape.exponent_range()} for j in (1, 2)]
        got = {}
        for tag, g in zip(system.provenance, system.generators):
            got[(tag.family, *tag.indices)] = _evaluate(g, point)
        expected = {}
        c0 = []
        for key, (poly, ks) in components.items():
            series = along_arc(poly, arc)
            if key[0] == "c":
                c0.append(series.get(0, Fraction(0)))
            for k in ks:
                expected[(*key, k)] = series.get(k, Fraction(0))
        if normalized_arc:
            expected[("norm",)] = sum(point[shape.var_index(i, j)] for i in range(1, shape.D1 + 1) for j in (1, 2)) - 1
        for key, value in got.items():
            if key not in expected or expected[key] != value:
                return f"generator {key} is {value} at the check point, expected {expected.get(key)}"
        for key, value in expected.items():
            if key not in got and value != 0:
                return f"generator {key} is missing but its coefficient is {value}"
        got_c0 = [_evaluate(p, point) for p in system.c0]
        if got_c0 != c0:
            return f"c0 is {got_c0} at the check point, expected {c0}"
        return None

    return check


def _arc_systems(seed: int, cv) -> list[Op]:
    rng = random.Random(seed)
    table = cv.poly.VarTable(("x", "y"))
    ArcShape = cv.arcs.ArcShape
    ops = []
    for deg, mode, bounds in (
        (3, "BV", (1, 1)), (3, "GBV", (1, 1)), (4, "BV", (1, 1)), (4, "GBV", (1, 1)), (3, "BV", (2, 2)),
    ):
        f = _bidegree_poly(rng, deg)
        shape = ArcShape(n=2, D1=bounds[0], D2=bounds[1])
        d = 2 * deg
        components = {("c",): (f, range(1, d * shape.D1 + 1))}
        for i in (1, 2):
            components[("d", i)] = (_derivative(f, i - 1), range(0, (d - 1) * shape.D1 + 1))
            for j in (1, 2):
                components[("e", i, j)] = (_times_var(_derivative(f, j - 1), i - 1), range(0, d * shape.D1 + 1))
        fp = cv.poly.parse_poly(_text(f), table)
        check = _system_check(seed, components, shape, mode == "BV")
        ops.append(Op(f"{mode}-bideg{deg}-{bounds[0]}-{bounds[1]}",
                      (lambda fp=fp, shape=shape, mode=mode: cv.systems.build_system(fp, shape, mode)), check))
    F = [_bidegree_poly(rng, 2), _bidegree_poly(rng, 3)]
    Fp = [cv.poly.parse_poly(_text(g), table) for g in F]
    for bounds in ((1, 1), (2, 2)):
        shape = ArcShape(n=2, D1=bounds[0], D2=bounds[1])
        components = {("c", l): (g, range(1, 2 * deg_g * shape.D1 + 1)) for l, (g, deg_g) in enumerate(zip(F, (2, 3)), start=1)}
        ops.append(Op(f"AV-map-{bounds[0]}-{bounds[1]}",
                      (lambda shape=shape: cv.systems.build_av_system(Fp, shape)),
                      _system_check(seed, components, shape, True)))
    ops.sort(key=lambda op: op.name.startswith(("BV", "GBV")))  # cheap map systems first: one is the warm-up
    return ops


def build(name: str, seed: int, cv) -> list[Op]:
    """The operations of one pass of workload `name` for this seed."""
    return {
        "arc-elim": _arc_elim,
        "k0-dense": _k0_dense,
        "real-certify": _real_certify,
        "arc-systems": _arc_systems,
    }[name](seed, cv)
