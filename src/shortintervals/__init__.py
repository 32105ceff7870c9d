"""Certified exceptional-set exponent bounds for the PNT in short intervals.

The library has three layers:

* exact arithmetic and piecewise rational-function algebra
  (``exact``, ``polys``, ``piecewise``, ``optimize``),
* the zero-density / additive-energy exponent tables and the certified
  exponent calculator built on them (``tables``, ``mu``, ``claims``),
* desk-scale empirical measurements against a real zero dataset
  (``empirical``).
"""

from .exact import BoundaryPoint
from .piecewise import (
    Piece,
    PiecewiseBound,
    RationalFunction,
    feasible_region,
    pointwise_min,
)
from .optimize import SupCell, SupResult, certified_sup
from .tables import (
    HypothesisMode,
    a_table,
    astar_table,
    checksum_rows,
    pintz_piece,
    sigma_cap,
    validate_tables,
)
from .mu import (
    CurvePoint,
    MuBoundResult,
    gap_exponent,
    mu2,
    mu4,
    mu_curve,
    mu_upper,
    theta_grid,
)
from .empirical import (
    ExceptionalScan,
    LambdaSieve,
    MomentStatistic,
    ZeroSet,
    additive_energy,
    default_zeros,
    exceptional_measure,
    explicit_formula_psi,
    interval_sum,
    load_zeros,
    moment_statistic,
    riemann_vonmangoldt,
    s_interval_sum,
    sieve_lambda,
)
from .claims import Claim, ClaimReport, run_claims

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint",
    "Claim",
    "ClaimReport",
    "CurvePoint",
    "ExceptionalScan",
    "HypothesisMode",
    "LambdaSieve",
    "MomentStatistic",
    "MuBoundResult",
    "Piece",
    "PiecewiseBound",
    "RationalFunction",
    "SupCell",
    "SupResult",
    "ZeroSet",
    "a_table",
    "additive_energy",
    "astar_table",
    "certified_sup",
    "checksum_rows",
    "default_zeros",
    "exceptional_measure",
    "explicit_formula_psi",
    "feasible_region",
    "gap_exponent",
    "interval_sum",
    "load_zeros",
    "moment_statistic",
    "mu2",
    "mu4",
    "mu_curve",
    "mu_upper",
    "pintz_piece",
    "pointwise_min",
    "riemann_vonmangoldt",
    "run_claims",
    "s_interval_sum",
    "sieve_lambda",
    "sigma_cap",
    "theta_grid",
    "validate_tables",
]
