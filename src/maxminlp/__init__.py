"""Max-min resource sharing: exact solving, local algorithms and the
adversarial constructions that separate them.

The model: agents choose nonnegative activities, each resource row caps a
weighted sum of activities at one, and the goal is to maximise the smallest
weighted benefit across beneficiary rows.  Local algorithms must pick each
agent's activity from a bounded-radius view of the shared structure.
"""

from .algorithms import make_algorithm, run_local
from .evaluation import evaluate
from .generators import TorusParams, gen_torus

__version__ = "0.1.0"

__all__ = [
    "TorusParams",
    "evaluate",
    "gen_torus",
    "make_algorithm",
    "run_local",
    "solve_maxmin",
]


def __getattr__(name):
    # the simplex, and numpy with it, loads on first use: a command that
    # solves no LP never imports it
    if name == "solve_maxmin":
        from .lp import solve_maxmin

        return solve_maxmin
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
