"""Solvers for the Closest String and Closest Substring problems.

Approximation pipelines (agreement-set decomposition, restricted LP with
derandomized rounding and its randomized fallback, random position
sampling) together with exponential-time exact oracles that certify the
ratios at desk scale.
"""

from .core import (
    Alphabet,
    BINARY,
    CenterSolution,
    DNA,
    Seq,
    StringInstance,
    SubstringInstance,
    agreement_positions,
    cost_string,
    cost_substring,
)
from .closest_string import ClosestStringConfig, solve_closest_string
from .closest_substring import (
    SubstringConfig,
    enumerate_window_tuples,
    sample_size,
    select_windows,
    solve_closest_substring,
    solve_small_substring,
    solve_substring,
)
from .exact import exact_closest_string, exact_closest_substring
from .io_cli import BenchReport, InstanceFile, PlantedMeta, generate_planted, run_bench
from .lp_round import (
    FractionalCenter,
    RestrictedProblem,
    RoundingConfig,
    build_restricted,
    enumerate_small_P,
    round_derandomized,
    round_randomized,
    sample_patch,
    solve_lp,
    solve_restricted,
)
from . import errors

__all__ = [
    "Alphabet",
    "BINARY",
    "BenchReport",
    "CenterSolution",
    "ClosestStringConfig",
    "DNA",
    "FractionalCenter",
    "InstanceFile",
    "PlantedMeta",
    "RestrictedProblem",
    "RoundingConfig",
    "Seq",
    "StringInstance",
    "SubstringConfig",
    "SubstringInstance",
    "agreement_positions",
    "build_restricted",
    "cost_string",
    "cost_substring",
    "enumerate_small_P",
    "enumerate_window_tuples",
    "errors",
    "exact_closest_string",
    "exact_closest_substring",
    "generate_planted",
    "round_derandomized",
    "round_randomized",
    "run_bench",
    "sample_patch",
    "sample_size",
    "select_windows",
    "solve_closest_string",
    "solve_closest_substring",
    "solve_lp",
    "solve_restricted",
    "solve_small_substring",
    "solve_substring",
]
