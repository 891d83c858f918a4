"""Workload definitions, instance sampling, the timed pipeline and the
correctness checks of the benchmark.

The pipeline calls the public functions of coflowsched in the order
``coflowsched run`` uses them: the ordering LP, then each scheduler, each
followed by ``sim.validate``.  The checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import time
from dataclasses import dataclass, field

from coflowsched import relaxations, schedulers, sim, workload

BOUND_RTOL = 1e-9           # slack on "LP bound <= scheduler total"
REFERENCE_RTOL = 1e-6       # ordering LP objective against scipy's HiGHS
DRAWS_PER_RUN = 10_000      # instance seeds of one run: seed * DRAWS_PER_RUN + draw
# median of calibration_s() on the reference machine, a 2-core Intel Xeon VM
# (15-19 ms over minutes); times are reported at this speed
REFERENCE_CALIBRATION_S = 0.015


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # workload.SyntheticConfig.kind
    n_ports: int
    n_coflows: int
    releases: bool              # interarrival U(1, 100), else all released at 0
    weights: str                # workload.assign_weights mode
    schedulers: tuple
    # The ordering LP is reference work done in set-up (online workload),
    # instead of the first step of the timed pipeline.
    lp_in_setup: bool
    # Set-up, pipeline and checks of one instance on a 2-core Intel Xeon VM;
    # the run takes round(seconds / nominal_s) instances, so the work of a
    # run is fixed by --seconds and does not depend on the program's speed.
    nominal_s: float
    # Instances whose flow count falls outside this range are redrawn, so
    # every run schedules the same traffic volume per instance.
    flow_band: tuple | None = None


# Instance cost varies by 20-50% between seeds (simplex pivot counts, the
# sparse/dense mix), so the sizes are chosen to fit 17-40 instances into a
# 25-second run; a run's medians then move by a few percent between seeds.
# One workload is dominated by the LP, one by the schedulers and simulator,
# and one by many small LP solves between simulator events.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lp-dense-8x24",
            kind="dense",
            n_ports=8,
            n_coflows=24,
            releases=True,
            weights="unit",
            schedulers=("lp-ov-ls",),
            lp_in_setup=False,
            nominal_s=0.6,
        ),
        Workload(
            name="sched-combined-16x8",
            kind="combined",
            n_ports=16,
            n_coflows=8,
            releases=False,
            weights="uniform-random",
            schedulers=("lp-ov-ls", "varys", "lp-ii-gb", "lp-ov-gb"),
            lp_in_setup=False,
            nominal_s=1.5,
            flow_band=(550, 606),       # mean 578 flows for 8 combined coflows, +-5%
        ),
        Workload(
            name="online-dense-8x20",
            kind="dense",
            n_ports=8,
            n_coflows=20,
            releases=True,
            weights="unit",
            schedulers=("lp-ov-ls-online",),
            lp_in_setup=True,
            nominal_s=0.7,
        ),
    )
}

# Each runs on (instance, ordering LP result); the functions are looked up
# at call time so that a traced run sees the wrapped versions.
SCHEDULE = {
    "lp-ov-ls": lambda inst, lp: schedulers.lp_ov_ls(inst, lp),
    "lp-ov-ls-online": lambda inst, lp: schedulers.lp_ov_ls_online(inst),
    "varys": lambda inst, lp: schedulers.varys(inst),
    "lp-ii-gb": lambda inst, lp: schedulers.lp_ii_gb(inst),
    "lp-ov-gb": lambda inst, lp: schedulers.lp_ov_gb(inst, lp),
}


@dataclass
class Case:
    """One instance with its set-up cost and, when the workload computes it
    in set-up, its ordering LP."""

    instance: object
    seed: int
    flows: int
    setup_s: float
    lp: object = None
    lp_s: float | None = None
    error: str | None = None


@dataclass
class Op:
    """One (instance, scheduler) operation after its checks."""

    scheduler: str
    total: float | None = None
    ratio_to_lb: float | None = None
    segments: int = 0
    error: str | None = None


@dataclass
class PipelineRun:
    seconds: float
    lp: object
    lp_s: float | None
    ops: list = field(default_factory=list)


def calibration_s() -> float:
    """Wall time of a fixed interpreter loop that does not touch
    coflowsched: dict updates keyed by tuples and a keyed sort.

    On a host whose cores are shared, CPU speed drifts by up to a third
    within minutes.  The median of this loop over a run follows that drift
    for the whole pipeline, the numpy-heavy simplex included, to within a
    few percent, while single samples are too noisy to correct single calls.
    """
    gc.disable()    # keep collections of the pipeline's garbage out of the loop
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(12000):
            key = (i * 7919 % 97, i * 104729 % 89)
            table[key] = table.get(key, 0.0) + 0.5
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factor(loops: list) -> float:
    """Factor that converts times measured alongside these calibration
    loops to the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(loops)


def run_calibrated(calls: list) -> tuple[list, float]:
    """Run the zero-argument calls with a calibration loop before, between
    and after them.  Returns the results and their speed factor."""
    loops = [calibration_s()]
    results = []
    for call in calls:
        results.append(call())
        loops.append(calibration_s())
    return results, speed_factor(loops)


def instance_count(w: Workload, seconds: float, share: float = 1.0) -> int:
    return max(1, round(seconds * share / w.nominal_s))


def sample_cases(w: Workload, seed: int, count: int) -> tuple[list, list, float]:
    """The first ``count`` accepted instances of the seed's stream, the wall
    time of every ``workload.generate`` call made to draw them, and the
    speed factor of this set-up, from a calibration loop after each case."""
    cases, generate_s, loops = [], [], []
    draw = 0
    pending = 0.0   # generation time of rejected draws, charged to the next case
    while len(cases) < count:
        if draw >= DRAWS_PER_RUN:
            raise RuntimeError(f"{w.name}: too few instances inside the flow band")
        inst_seed = seed * DRAWS_PER_RUN + draw
        draw += 1
        t0 = time.perf_counter()
        inst = workload.generate(
            workload.SyntheticConfig(
                n_ports=w.n_ports,
                n_coflows=w.n_coflows,
                kind=w.kind,
                interarrival_range=(1, 100) if w.releases else None,
                seed=inst_seed,
            )
        )
        generate_s.append(time.perf_counter() - t0)
        flows = sum(len(cf.demands) for cf in inst.coflows)
        if w.flow_band and not w.flow_band[0] <= flows <= w.flow_band[1]:
            pending += time.perf_counter() - t0
            continue
        inst = workload.assign_weights(inst, w.weights, seed=inst_seed)
        case = Case(inst, inst_seed, flows, setup_s=0.0)
        if w.lp_in_setup:
            t_lp = time.perf_counter()
            try:
                case.lp = relaxations.solve_ordering_lp(inst)
                case.lp_s = time.perf_counter() - t_lp
            except Exception as exc:  # counted as failed operations, never skipped
                case.error = f"ordering LP: {type(exc).__name__}: {exc}"
        case.setup_s = pending + time.perf_counter() - t0
        pending = 0.0
        cases.append(case)
        loops.append(calibration_s())
    return cases, generate_s, speed_factor(loops)


def run_pipeline(w: Workload, case: Case, span=None) -> PipelineRun:
    """The timed pipeline of one instance.  ``span(name)`` opens a tracing
    span around each operation when the run is traced."""
    span = span or (lambda name: contextlib.nullcontext())
    outcomes = []
    t0 = time.perf_counter()
    lp, lp_s, lp_error = case.lp, case.lp_s, case.error
    if not w.lp_in_setup:
        t_lp = time.perf_counter()
        try:
            lp = relaxations.solve_ordering_lp(case.instance)
            lp_s = time.perf_counter() - t_lp
        except Exception as exc:
            lp_error = f"ordering LP: {type(exc).__name__}: {exc}"
    for name in w.schedulers:
        if lp_error:
            outcomes.append((name, None, None, lp_error))
            continue
        with span("op." + name):
            try:
                schedule = SCHEDULE[name](case.instance, lp)
                report = sim.validate(schedule, case.instance)
                outcomes.append((name, schedule, report, None))
            except Exception as exc:  # one failing scheduler must not stop the others
                outcomes.append((name, None, None, f"{type(exc).__name__}: {exc}"))
    seconds = time.perf_counter() - t0
    run = PipelineRun(seconds, lp if not lp_error else None, lp_s)
    run.ops = [check_op(w, case.instance, run.lp, *outcome) for outcome in outcomes]
    return run


def check_op(w: Workload, instance, lp, name, schedule, report, error) -> Op:
    """Validation, LP bound <= total, and the 4x/5x guarantee of lp-ov-ls."""
    if error:
        return Op(name, error=error)
    op = Op(name, segments=len(schedule.segments))
    if not report.ok:
        op.error = f"validation failed with {len(report.violations)} violations"
        return op
    op.total = sim.total_weighted_completion(schedule, instance)
    bound = lp.objective
    op.ratio_to_lb = op.total / bound if bound > 0 else math.inf
    if bound > op.total * (1.0 + BOUND_RTOL):
        op.error = f"LP bound {bound:.10g} exceeds total {op.total:.10g}"
    elif name == "lp-ov-ls":
        factor = 5.0 if any(cf.release > 0 for cf in instance.coflows) else 4.0
        if op.total > factor * bound * (1.0 + BOUND_RTOL):
            op.error = f"total {op.total:.10g} above {factor:g}x the LP bound {bound:.10g}"
    return op


def reference_objective(instance) -> float:
    """Optimum of the full precedence LP (``build_ordering_lp``) by scipy's
    HiGHS, an independent solver used only by this benchmark."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    prob = relaxations.build_ordering_lp(instance)
    rows = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for coeffs, relation, rhs in prob.constraints:
        kind, sign = ("eq", 1.0) if relation == "==" else ("ub", 1.0 if relation == "<=" else -1.0)
        data, cols, ptr, b = rows[kind]
        for j, c in coeffs.items():
            data.append(sign * c)
            cols.append(j)
            ptr.append(len(b))
        b.append(sign * rhs)

    def matrix(kind):
        data, cols, row_ids, b = rows[kind]
        if not b:
            return None, None
        return csr_matrix((data, (row_ids, cols)), shape=(len(b), prob.num_vars)), np.array(b)

    a_ub, b_ub = matrix("ub")
    a_eq, b_eq = matrix("eq")
    bounds = [(lo, None if math.isinf(hi) else hi) for lo, hi in prob.bounds]
    res = linprog(prob.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def reference_error(instance, objective: float) -> str | None:
    try:
        ref = reference_objective(instance)
    except Exception as exc:  # a check that cannot run counts as failed
        return f"reference LP: {type(exc).__name__}: {exc}"
    if abs(objective - ref) > REFERENCE_RTOL * max(1.0, abs(ref)):
        return f"ordering LP objective {objective:.12g} differs from HiGHS {ref:.12g}"
    return None


def mark_reference_failures(cases: list, runs_by_case: list) -> None:
    """Compare each instance's ordering LP with HiGHS; a mismatch fails
    every operation of that instance."""
    for case, runs in zip(cases, runs_by_case):
        lp = runs[0].lp
        if lp is None:
            continue
        error = reference_error(case.instance, lp.objective)
        if error:
            for run in runs:
                for op in run.ops:
                    op.error = op.error or error


def median(values):
    return statistics.median(values) if values else 0.0
