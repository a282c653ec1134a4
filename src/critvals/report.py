"""Deterministic report assembly and rendering.

Reports are plain frozen dataclasses rendered to JSON (sorted keys, fixed
separators) or text.  For fixed input, config, and seed the bytes are
identical across runs and platforms: floats go through repr, exact
rationals through their canonical string form, and nothing iterates in
nondeterministic order.  Elapsed time is only attached when explicitly
requested, since it would break byte-level reproducibility.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Sequence

from .certify import CertificationOutcome
from .solve import Diagnostics, SFResult, UnivariateResult
from .poly import serialize_poly
from .univariate import ComplexRoot, RootInterval

REPORT_INTERVAL_WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class RealRootEntry:
    interval_lo: str
    interval_hi: str
    approx: float
    certification: str | None = None
    cert_residual: float | None = None


@dataclass(frozen=True)
class ValueSetReport:
    name: str
    eliminant: str
    completeness: str
    real_roots: tuple[RealRootEntry, ...]
    complex_roots: tuple[ComplexRoot, ...]
    headline_real: tuple[float, ...] | None
    diagnostics: Diagnostics


@dataclass(frozen=True)
class SFReport:
    generators: tuple[str, ...]
    image_variables: tuple[str, ...]
    diagnostics: Diagnostics


@dataclass(frozen=True)
class CriticalValueReport:
    input_polynomials: tuple[str, ...]
    input_variables: tuple[str, ...]
    config: dict[str, Any]
    value_sets: tuple[ValueSetReport, ...]
    sf: SFReport | None = None
    dumped_systems: dict[str, Any] | None = None
    timings_ms: dict[str, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "input": {
                "polynomials": list(self.input_polynomials),
                "variables": list(self.input_variables),
            },
            "config": self.config,
            "results": {vs.name: _value_set_dict(vs) for vs in self.value_sets},
        }
        if self.sf is not None:
            out["results"]["sf"] = {
                "generators": list(self.sf.generators),
                "image_variables": list(self.sf.image_variables),
                "diagnostics": asdict(self.sf.diagnostics),
            }
        if self.dumped_systems is not None:
            out["dumped_systems"] = self.dumped_systems
        if self.timings_ms is not None:
            out["timings_ms"] = self.timings_ms
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"input: {'; '.join(self.input_polynomials)}  over [{', '.join(self.input_variables)}]",
            "config: " + ", ".join(f"{k}={v}" for k, v in sorted(self.config.items())),
        ]
        for vs in self.value_sets:
            lines.append(f"{vs.name}:")
            lines.append(f"  eliminant: {vs.eliminant}")
            lines.append(f"  completeness: {vs.completeness}")
            if vs.real_roots:
                for r in vs.real_roots:
                    cert = f"  [{r.certification}]" if r.certification else ""
                    lines.append(
                        f"  real root in [{r.interval_lo}, {r.interval_hi}] ~ {r.approx!r}{cert}"
                    )
            else:
                lines.append("  real roots: none")
            if vs.complex_roots:
                for c in vs.complex_roots:
                    lines.append(f"  complex root ~ {c.re!r} + {c.im!r}i")
            if vs.headline_real is not None:
                body = ", ".join(repr(v) for v in vs.headline_real) or "empty"
                lines.append(f"  certified real values: {body}")
            d = vs.diagnostics
            lines.append(
                f"  diagnostics: variables={d.variable_count} "
                f"generators={d.generator_count} basis={d.basis_size}"
            )
        if self.sf is not None:
            lines.append("sf:")
            lines.append(
                "  ideal: <" + (", ".join(self.sf.generators) or "0") + ">"
                f" in [{', '.join(self.sf.image_variables)}]"
            )
        if self.timings_ms is not None:
            for k, v in sorted(self.timings_ms.items()):
                lines.append(f"timing {k}: {v} ms")
        return "\n".join(lines) + "\n"


def _value_set_dict(vs: ValueSetReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "eliminant": vs.eliminant,
        "completeness": vs.completeness,
        "real_roots": [asdict(r) for r in vs.real_roots],
        "complex_roots": [asdict(c) for c in vs.complex_roots],
        "diagnostics": asdict(vs.diagnostics),
    }
    if vs.headline_real is not None:
        out["headline_real"] = list(vs.headline_real)
    return out


def build_value_set_report(
    name: str,
    result: UnivariateResult,
    refined_roots: Sequence[RootInterval],
    certifications: list[CertificationOutcome] | None = None,
) -> ValueSetReport:
    """Package a solver result.  `refined_roots` are its real roots refined
    to REPORT_INTERVAL_WIDTH; certifications (real runs) pair with them in
    ascending order."""
    reals = []
    headline: list[float] | None = None
    if certifications is not None:
        headline = []
    for idx, refined in enumerate(refined_roots):
        cert = certifications[idx] if certifications is not None else None
        entry = RealRootEntry(
            interval_lo=str(refined.lo),
            interval_hi=str(refined.hi),
            approx=refined.approx(),
            certification=cert.status if cert else None,
            cert_residual=cert.residual if cert else None,
        )
        reals.append(entry)
        if cert is not None and cert.certified and headline is not None:
            headline.append(refined.approx())
    return ValueSetReport(
        name=name,
        eliminant=serialize_poly(result.eliminant),
        completeness=result.completeness,
        real_roots=tuple(reals),
        complex_roots=result.complex_roots,
        headline_real=tuple(headline) if headline is not None else None,
        diagnostics=result.diagnostics,
    )


def build_sf_report(result: SFResult) -> SFReport:
    return SFReport(
        generators=tuple(serialize_poly(g) for g in result.generators),
        image_variables=result.image_variables,
        diagnostics=result.diagnostics,
    )
