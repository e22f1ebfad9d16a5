"""Capacity regions and queue simulation for the two-receiver broadcast
erasure channel with per-slot feedback and hidden Markov channel memory.

Importing the package loads the channel and error layers only. Every other
layer loads on the first use of one of its names (or of the submodule
attribute itself), so a caller that only reads a model compiles no LP,
region or simulator code."""

__version__ = "0.1.0"

from .channel import (ChannelModel, PATTERN_INDEX, PATTERNS, ValidationReport,
                      forgetting_margin, forgetting_rate_bound, load_model,
                      model_from_dict, model_to_dict, sample_trajectory,
                      save_model, stationary_distribution, validate_model)
from .errors import (ContractViolation, ModelFormatError, NoUniqueStationary,
                     NumericalFailure, ResourceLimit, StructuralError,
                     TraceFormatError, XorcastError, ZeroLikelihood)

# the names each lazily loaded layer exports at the package level
_LAYERS = {
    "filtering": ("ErasureStats", "WindowTable", "dump_window_table",
                  "empirical_forgetting", "exhaustive_forgetting", "filter_step",
                  "init_belief", "predict_pattern_probs", "predict_stats",
                  "window_codes", "window_index", "window_label", "window_table"),
    "lp": ("LinearProgram", "LpSolution", "solve"),
    "region": ("ActionDistribution", "CanonicalizationReport", "CapacitySet",
               "CutValues", "RegionWitness", "SandwichResult", "achievable_check",
               "boundary_sweep", "canonicalize", "cut_values", "dist_from_dict",
               "dist_to_dict", "link_capacities", "load_dist", "max_rate",
               "robust_witness", "sandwich", "save_dist", "simulation_distribution",
               "solve_region", "sweep_table", "witness_residual", "xy_to_actions"),
    "sim": ("DecodeReport", "SimReport", "decode_verify", "load_trace",
            "maxweight_action", "save_trace", "simulate", "stability_verdict",
            "substitute_action"),
}

__all__ = ([name for name in globals() if not name.startswith("_")]
           + [name for layer, names in _LAYERS.items() for name in (layer, *names)])


def __getattr__(name):
    # called only for a name not yet bound here: load its layer, then bind
    # the name so that later reads are plain attribute lookups
    for layer, names in _LAYERS.items():
        if name == layer or name in names:
            from importlib import import_module
            module = import_module(f".{layer}", __name__)
            value = globals()[name] = module if name == layer else getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
