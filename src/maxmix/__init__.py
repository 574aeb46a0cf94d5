"""maxmix: exact bounds and certified transforms for expected maxima.

An engine for the expected maximum of heterogeneous assemblies of
independent non-negative random variables, built entirely on exact rational
arithmetic.  It computes and verifies the mixing-factor bound chain, applies
mass rearrangements that provably preserve every member's similar-assembly
mean, constructs near-extremal two-point families, and cross-checks
everything against brute-force and Monte Carlo oracles.
"""

from .bounds import (
    BoundReport,
    ChainChecks,
    GamGapReport,
    equality_diagnosis,
    full_report,
    gam_gap,
    grouped_bounds,
    holder_lower,
    mixture_dominance_check,
    mixture_lower,
    performance_bounds,
)
from .dist import (
    DEFAULT_ATOM_CAP,
    DEFAULT_BIT_CAP,
    Assembly,
    FiniteDistribution,
    SurvivalStep,
    as_rational,
    discretize,
)
from .enclosure import DEFAULT_TOL, Enclosure, int_nth_root, nth_root
from .errors import (
    AssemblyParseError,
    InvariantViolation,
    PreconditionError,
    ResourceCapExceeded,
)
from .extremal import build, gap, realize, theta_sup
from .oracle import McEstimate, enumerate_expected_max, mc_expected_max
from .transforms import TransformOutcome, coalesce, down_project, phi, reduce_pair

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "AssemblyParseError",
    "BoundReport",
    "ChainChecks",
    "DEFAULT_ATOM_CAP",
    "DEFAULT_BIT_CAP",
    "DEFAULT_TOL",
    "Enclosure",
    "FiniteDistribution",
    "GamGapReport",
    "InvariantViolation",
    "McEstimate",
    "PreconditionError",
    "ResourceCapExceeded",
    "SurvivalStep",
    "TransformOutcome",
    "as_rational",
    "build",
    "coalesce",
    "discretize",
    "down_project",
    "enumerate_expected_max",
    "equality_diagnosis",
    "full_report",
    "gam_gap",
    "gap",
    "grouped_bounds",
    "holder_lower",
    "int_nth_root",
    "mc_expected_max",
    "nth_root",
    "phi",
    "realize",
    "reduce_pair",
    "mixture_dominance_check",
    "mixture_lower",
    "performance_bounds",
    "theta_sup",
]
