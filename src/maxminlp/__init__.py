"""Max-min resource sharing: exact solving, local algorithms and the
adversarial constructions that separate them.

The model: agents choose nonnegative activities, each resource row caps a
weighted sum of activities at one, and the goal is to maximise the smallest
weighted benefit across beneficiary rows.  Local algorithms must pick each
agent's activity from a bounded-radius view of the shared structure.
"""

from .model import (
    Assignment,
    DegreeBounds,
    Instance,
    PARTIAL,
    STRICT,
    ValidationReport,
    load_instance,
    restrict,
    save_instance,
    validate,
)
from .hypergraph import Hypergraph, View, extract_view, growth_factor, neighbourhood_ball
from .lp import solve_maxmin
from .algorithms import (
    LocalAlgorithm,
    LocalAveraging,
    SafeAlgorithm,
    ZeroAlgorithm,
    make_algorithm,
    run_local,
)
from .generators import TorusParams, gen_random, gen_torus
from .lowerbound import (
    AdversaryReport,
    adversarial_lower_bound,
    build_adversarial_instance,
    parity_solution,
    select_hard_subinstance,
    theoretical_ratio_floor,
)
from .evaluation import EvaluationReport, evaluate, feasibility, objective

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "DegreeBounds",
    "Instance",
    "PARTIAL",
    "STRICT",
    "ValidationReport",
    "load_instance",
    "restrict",
    "save_instance",
    "validate",
    "Hypergraph",
    "View",
    "extract_view",
    "growth_factor",
    "neighbourhood_ball",
    "solve_maxmin",
    "LocalAlgorithm",
    "LocalAveraging",
    "SafeAlgorithm",
    "ZeroAlgorithm",
    "make_algorithm",
    "run_local",
    "TorusParams",
    "gen_random",
    "gen_torus",
    "AdversaryReport",
    "adversarial_lower_bound",
    "build_adversarial_instance",
    "parity_solution",
    "select_hard_subinstance",
    "theoretical_ratio_floor",
    "EvaluationReport",
    "evaluate",
    "feasibility",
    "objective",
]
