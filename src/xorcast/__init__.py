"""Capacity regions and queue simulation for the two-receiver broadcast
erasure channel with per-slot feedback and hidden Markov channel memory."""

__version__ = "0.1.0"

from .channel import (ChannelModel, PATTERN_INDEX, PATTERNS, ValidationReport,
                      forgetting_rate_bound, load_model, model_from_dict,
                      model_to_dict, sample_trajectory, save_model,
                      stationary_distribution, validate_model)
from .errors import (ContractViolation, ModelFormatError, NoUniqueStationary,
                     NumericalFailure, ResourceLimit, StructuralError,
                     TraceFormatError, XorcastError, ZeroLikelihood)
from .filtering import (ErasureStats, WindowTable, dump_window_table,
                        empirical_forgetting, exhaustive_forgetting,
                        filter_step, init_belief, predict_pattern_probs,
                        predict_stats, window_codes, window_index,
                        window_label, window_table)
from .lp import LinearProgram, LpSolution, solve
from .region import (ActionDistribution, CanonicalizationReport, CapacitySet,
                     CutValues, RegionWitness, SandwichResult,
                     achievable_check, boundary_sweep, canonicalize,
                     cut_values, dist_from_dict, dist_to_dict, link_capacities,
                     load_dist, max_rate, region_lp, robust_witness, sandwich,
                     save_dist,
                     simulation_distribution, solve_region, sweep_table,
                     witness_residual, xy_to_actions)
from .sim import (DecodeReport, QueueState, SimReport, StepRecord,
                  decode_verify, load_trace, maxweight_action, save_trace,
                  simulate, stability_verdict, step, substitute_action)
