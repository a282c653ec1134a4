"""Generalized critical values of rational polynomial maps.

Computes the critical values K0(f), the asymptotic critical values Kinf(f),
and their union K(f) for polynomials f in Q[x1..xn], over C and over R,
by eliminating arc coefficients from exact polynomial systems and certifying
candidate values numerically.  Also computes the non-properness set S_F of
a polynomial map F as an elimination ideal in the image variables.
"""

from .arcs import ArcError, ArcShape, paper_bounds_complex, paper_bounds_real
from .certify import (
    CertificationOutcome,
    CertifyConfig,
    CertifyError,
    ProbeTrace,
    certify_critical_point,
    certify_real,
    malgrange_probe,
)
from .groebner import (
    GroebnerBasis,
    GroebnerError,
    Ideal,
    LimitExceeded,
    ResourceLimits,
    buchberger,
)
from .poly import ParseError, Poly, PolyError, VarTable, parse_poly, serialize_poly
from .report import CriticalValueReport
from .solve import (
    InternalInvariantError,
    SFResult,
    SolveError,
    UnivariateResult,
    compute_k,
    compute_k0,
    compute_kinf,
    compute_sF,
    heuristic_shape,
)
from .systems import EquationSystem, SystemError, build_av_system, build_system
from .cli import RunConfig, run

__all__ = [
    "ArcError",
    "ArcShape",
    "CertificationOutcome",
    "CertifyConfig",
    "CertifyError",
    "CriticalValueReport",
    "EquationSystem",
    "GroebnerBasis",
    "GroebnerError",
    "Ideal",
    "InternalInvariantError",
    "LimitExceeded",
    "ParseError",
    "Poly",
    "PolyError",
    "ProbeTrace",
    "ResourceLimits",
    "RunConfig",
    "SFResult",
    "SolveError",
    "SystemError",
    "UnivariateResult",
    "VarTable",
    "buchberger",
    "build_av_system",
    "build_system",
    "certify_critical_point",
    "certify_real",
    "compute_k",
    "compute_k0",
    "compute_kinf",
    "compute_sF",
    "heuristic_shape",
    "malgrange_probe",
    "parse_poly",
    "paper_bounds_complex",
    "paper_bounds_real",
    "run",
    "serialize_poly",
]

__version__ = "0.1.0"
