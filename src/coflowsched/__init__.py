"""Coflow scheduling toolkit: LP-ordered list scheduling with proven
approximation bounds, three baseline schedulers, a fluid simulator with an
independent validator, workload tooling, and an exact brute-force oracle
for desk-scale verification."""

from .model import (
    Coflow,
    CoflowInstance,
    FlowKey,
    effective_size,
    horizon,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    port_loads,
    prefix_bottlenecks,
    save_instance,
)
from .lpcore import Certificate, LpProblem, LpSolution, SolveStats, certify, check_feasible, solve
from .relaxations import (
    IntervalLpResult,
    OrderingLpResult,
    build_interval_lp,
    build_ordering_lp,
    lp_lower_bound,
    solve_interval_lp,
    solve_ordering_lp,
)
from .schedulers import (
    GroupPartition,
    Schedule,
    Segment,
    group_coflows,
    lp_ii_gb,
    lp_ov_gb,
    lp_ov_ls,
    lp_ov_ls_online,
    varys,
)
from .sim import FluidRun, ValidationReport, total_weighted_completion, validate
from .verify import (
    OracleResult,
    blocking_pair_fixture,
    check_prefix_halving,
    check_approximation_bounds,
    counterexample_fixture,
    equal_bottleneck_fixture,
    min_completion_under_deadline,
    oracle_opt,
    staggered_release_fixture,
)
from .workload import SyntheticConfig, TraceRecord, assign_weights, generate, ingest_trace

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
