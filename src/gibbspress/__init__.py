"""Certified interval approximation of topological pressure for
nearest-neighbor lattice interactions on the square lattice."""

from .errors import BudgetError, GibbsPressError, HypothesisError, UsageError
from .interaction import (
    Alphabet,
    Configuration,
    Interaction,
    build_checkerboard,
    build_full_shift,
    build_hard_square,
    build_ising,
    energy,
    energy_with_boundary,
    per_site_contribution,
)
from .lattice import Region, Site, box, boundary, canopy_decomposition, past_in_box
from .pressure import (
    PInterval,
    PressureEstimate,
    gk_pressure,
    p_interval,
)
from .sft import (
    PeriodicPoint,
    diagonal_3coloring_point,
    is_locally_admissible,
    monotone_check,
    orbit_sites,
    periodic_point_from_ssf,
    safe_symbol_check,
    ssf_check,
)
from .transfer import (
    ConstrainedRegion,
    StripBounds,
    box_log_partition,
    conditional_probability,
    conditional_sum_check,
    log_partition,
    strip_pressure,
    strip_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetError",
    "Configuration",
    "ConstrainedRegion",
    "GibbsPressError",
    "HypothesisError",
    "Interaction",
    "PInterval",
    "PeriodicPoint",
    "PressureEstimate",
    "Region",
    "Site",
    "StripBounds",
    "UsageError",
    "boundary",
    "box",
    "box_log_partition",
    "build_checkerboard",
    "build_full_shift",
    "build_hard_square",
    "build_ising",
    "canopy_decomposition",
    "conditional_probability",
    "conditional_sum_check",
    "diagonal_3coloring_point",
    "energy",
    "energy_with_boundary",
    "gk_pressure",
    "is_locally_admissible",
    "log_partition",
    "monotone_check",
    "orbit_sites",
    "p_interval",
    "past_in_box",
    "per_site_contribution",
    "periodic_point_from_ssf",
    "safe_symbol_check",
    "ssf_check",
    "strip_pressure",
    "strip_sequence",
]
