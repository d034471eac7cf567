"""Distributed Kalman filtering over a network with known linear state
equality constraints: time-based and event-triggered filters, offline design
tools (observability, trigger thresholds, communication-rate bounds), and a
reproducible simulation harness."""

from .model import (AgentSpec, GlobalConstraint, SystemModel, Topology,
                    build_global_constraint, metropolis_weights)
from .filter import (AgentState, ConsistentEstimate, ci_maps, init_consistent,
                     kalman_gain, projection_map)
from .event import TriggerState, epdkf_round, tpdkf_round, trigger_from_info
from .analysis import (EcoReport, RateReport, ThresholdReport, compute_beta,
                       compute_beta_bar, constraint_error, eco_check, eig_pos,
                       pilot_contraction_factors, rate_bound,
                       space_decomposition, threshold_bounds)
from .sim import (RunMetrics, ScenarioConfig, case1, case2, ckf_baseline,
                  consensus_baseline, generate_truth, load_scenario,
                  monte_carlo, run_event, run_time_based, save_scenario)

# the classes and functions, not the submodules: a star import shadows no builtin (`filter`)
__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]
