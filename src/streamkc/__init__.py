"""Memory-bounded sliding-window k-center clustering with outliers, plus
effective diameter estimation, sequential baselines and exhaustive oracles.
"""

from .core import InvariantError, Point, StreamParams, WindowView, dist, radius_excluding
from .histogram import (
    bump_and_trim,
    new_histogram,
    synthetic_full_window,
    weight_estimate,
)
from .coreset import GuessLadder, WeightedCoreset
from .solver import (
    SolveOutcome,
    brute_force_optimum,
    charikar,
    compute_solution,
    gonzalez,
    outliers_cluster,
    samp_charikar,
)
from .effdiam import (
    EffDiameterConfig,
    EffDiameterEstimate,
    FineCoresetState,
    coreset_effective_diameter,
    eff_sequential,
    exact_effective_diameter,
)

__version__ = "0.1.0"

__all__ = [
    "Point",
    "StreamParams",
    "WindowView",
    "dist",
    "radius_excluding",
    "InvariantError",
    "new_histogram",
    "bump_and_trim",
    "weight_estimate",
    "synthetic_full_window",
    "GuessLadder",
    "WeightedCoreset",
    "SolveOutcome",
    "outliers_cluster",
    "compute_solution",
    "brute_force_optimum",
    "gonzalez",
    "charikar",
    "samp_charikar",
    "EffDiameterConfig",
    "EffDiameterEstimate",
    "FineCoresetState",
    "exact_effective_diameter",
    "coreset_effective_diameter",
    "eff_sequential",
    "__version__",
]
