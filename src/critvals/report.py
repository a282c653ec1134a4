"""The report is its JSON document; text is rendered from it.

`build_value_set_report` and `build_sf_report` turn a solver result into
the JSON object the report prints for that value set, and `build_system_dump`
does the same for an arc system.  `CriticalValueReport` holds those
objects in run order: `to_json` prints them (sorted keys, fixed
separators) and `to_text` renders the same objects.  For fixed input,
config, and seed the bytes are identical across runs and platforms:
floats go through repr, exact rationals through their canonical string
form, and nothing iterates in nondeterministic order.  Elapsed time is
only attached when explicitly requested, since it would break byte-level
reproducibility.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Sequence

from .certify import CertificationOutcome
from .poly import serialize_poly
from .solve import SFResult, UnivariateResult
from .systems import EquationSystem
from .univariate import RootInterval

REPORT_INTERVAL_WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class CriticalValueReport:
    input_polynomials: tuple[str, ...]
    input_variables: tuple[str, ...]
    config: dict[str, Any]
    results: dict[str, dict[str, Any]]  # value set name -> its JSON object, in run order
    dumped_systems: dict[str, Any] | None = None
    timings_ms: dict[str, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "input": {
                "polynomials": list(self.input_polynomials),
                "variables": list(self.input_variables),
            },
            "config": self.config,
            "results": self.results,
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
            "config: " + ", ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in sorted(self.config.items())),
        ]
        for name, res in self.results.items():
            lines.append(f"{name}:")
            if name == "sf":
                lines.append(
                    "  ideal: <" + (", ".join(res["generators"]) or "0") + ">"
                    f" in [{', '.join(res['image_variables'])}]"
                )
                continue
            lines.append(f"  eliminant: {res['eliminant']}")
            lines.append(f"  completeness: {res['completeness']}")
            for r in res["real_roots"]:
                cert = f"  [{r['certification']}]" if r["certification"] else ""
                lines.append(
                    f"  real root in [{r['interval_lo']}, {r['interval_hi']}] ~ {r['approx']!r}{cert}"
                )
            if not res["real_roots"]:
                lines.append("  real roots: none")
            for c in res["complex_roots"]:
                lines.append(f"  complex root ~ {c['re']!r} + {c['im']!r}i")
            if "headline_real" in res:
                body = ", ".join(repr(v) for v in res["headline_real"]) or "empty"
                lines.append(f"  certified real values: {body}")
            d = res["diagnostics"]
            lines.append(
                f"  diagnostics: variables={d['variable_count']} "
                f"generators={d['generator_count']} basis={d['basis_size']}"
            )
        for name, dump in (self.dumped_systems or {}).items():
            lines.append(f"system {name}: mode={dump['mode']} field={dump['field']}")
            lines.extend(f"  {g['tag']}: {g['poly']}" for g in dump["generators"])
            lines.append(f"  c0: {'; '.join(dump['c0'])}")
        if self.timings_ms is not None:
            for k, v in sorted(self.timings_ms.items()):
                lines.append(f"timing {k}: {v} ms")
        return "\n".join(lines) + "\n"


def build_value_set_report(
    result: UnivariateResult,
    refined_roots: Sequence[RootInterval],
    certifications: list[CertificationOutcome] | None = None,
) -> dict[str, Any]:
    """The JSON object of a solver result.  `refined_roots` are its real
    roots refined to REPORT_INTERVAL_WIDTH; certifications (real runs)
    pair with them in ascending order and add the headline set of
    certified values."""
    certs = certifications if certifications is not None else [None] * len(refined_roots)
    out: dict[str, Any] = {
        "eliminant": serialize_poly(result.eliminant),
        "completeness": result.completeness,
        "real_roots": [
            {
                "interval_lo": str(refined.lo),
                "interval_hi": str(refined.hi),
                "approx": refined.approx(),
                "certification": cert.status if cert is not None else None,
                "cert_residual": cert.residual if cert is not None else None,
            }
            for refined, cert in zip(refined_roots, certs)
        ],
        "complex_roots": [asdict(c) for c in result.complex_roots],
        "diagnostics": asdict(result.diagnostics),
    }
    if certifications is not None:
        out["headline_real"] = [
            r["approx"] for r, cert in zip(out["real_roots"], certs) if cert.certified
        ]
    return out


def build_sf_report(result: SFResult) -> dict[str, Any]:
    return {
        "generators": [serialize_poly(g) for g in result.generators],
        "image_variables": list(result.image_variables),
        "diagnostics": asdict(result.diagnostics),
    }


def build_system_dump(system: EquationSystem) -> dict[str, Any]:
    """An arc system as built: its generators with their provenance tags, and c0."""
    return {
        "mode": system.mode,
        "field": system.shape.field,
        "arc_variables": list(system.shape.var_table().names),
        "generators": [
            {"tag": tag.label(), "poly": serialize_poly(g)}
            for tag, g in zip(system.provenance, system.generators)
        ],
        "c0": [serialize_poly(c) for c in system.c0],
    }
