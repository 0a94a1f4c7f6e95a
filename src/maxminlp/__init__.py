"""Max-min resource sharing: exact solving, local algorithms and the
adversarial constructions that separate them.

The model: agents choose nonnegative activities, each resource row caps a
weighted sum of activities at one, and the goal is to maximise the smallest
weighted benefit across beneficiary rows.  Local algorithms must pick each
agent's activity from a bounded-radius view of the shared structure.
"""

__version__ = "0.1.0"

# the layer that defines each public name; a layer loads when one of its
# names is first looked up, so ``import maxminlp`` loads none of them, and
# numpy comes in only with the simplex in ``lp``
_LAYER_OF = {
    "TorusParams": "generators",
    "evaluate": "evaluation",
    "gen_torus": "generators",
    "make_algorithm": "algorithms",
    "run_local": "algorithms",
    "solve_maxmin": "lp",
}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{layer}"), name)
