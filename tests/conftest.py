import pathlib

import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance


def make_tiny_instance(seed: int, zero_release: bool = False) -> CoflowInstance | None:
    """Random integer instance small enough for the exact oracle:
    at most 3 ports and total demand at most 12."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(2, 5))
    budget = 12
    coflows = []
    for _ in range(k):
        n_flows = int(rng.integers(1, 3))
        demands = {}
        for _ in range(n_flows):
            if budget <= 0:
                break
            size = int(rng.integers(1, min(3, budget) + 1))
            pair = (int(rng.integers(n)), int(rng.integers(n)))
            demands[pair] = demands.get(pair, 0) + size
            budget -= size
        if demands:
            release = 0.0 if zero_release else float(rng.integers(0, 4))
            weight = float(rng.integers(1, 4))
            coflows.append(Coflow(demands, release=release, weight=weight))
    if len(coflows) < 2:
        return None
    return CoflowInstance(n, coflows)


def tiny_instances(count: int, zero_release: bool = False, seed0: int = 0):
    out = []
    seed = seed0
    while len(out) < count:
        inst = make_tiny_instance(seed, zero_release)
        seed += 1
        if inst is not None:
            out.append(inst)
    return out


def schedule_document(segments, completions, flow_completions) -> dict:
    """The schedule file that ``Schedule.from_dict`` reads, of Segments whose
    rates map FlowKeys to rates, the coflow completions, and a map from
    FlowKey to completion time; every list in the order given."""
    def entries(by_key: dict, name: str) -> list:
        return [{"src": src, "dst": dst, "coflow": k, name: value} for (src, dst, k), value in by_key.items()]

    return {"segments": [{"start": seg.start, "end": seg.end, "rates": entries(seg.rates, "rate")}
                         for seg in segments],
            "completions": [float(c) for c in completions],
            "flow_completions": entries(flow_completions, "time")}


def lp_from_rows(num_vars: int, rows, **arrays):
    """An ``LpProblem`` whose rows are written by hand as ``(coeffs,
    relation, rhs)``, coeffs a {column: value} map listed in entry order and
    relation one of ``lpcore.RELATIONS``; ``arrays`` (objective, upper) go
    to the constructor as they are."""
    from coflowsched import lpcore

    rows = list(rows)
    return lpcore.LpProblem(
        num_vars,
        **arrays,
        row_of=[i for i, (coeffs, _, _) in enumerate(rows) for _ in coeffs],
        col_of=[j for coeffs, _, _ in rows for j in coeffs],
        val=[c for coeffs, _, _ in rows for c in coeffs.values()],
        rhs=[rhs for _, _, rhs in rows],
        rel=[lpcore.RELATIONS.index(relation) for _, relation, _ in rows],
    )


# the fixed-seed instances of the golden tests:
# name -> (kind, ports, coflows, interarrival range or None, seed, weight mode,
# capacity); every size is multiplied by the capacity, so the schedule's time
# scale stays that of capacity 1.  Kind "trace" ingests tests/data/mini_trace.csv
# on that many ports instead, at the trace link capacity 128 (slot 1/128).
GOLDEN_INSTANCES = {
    "dense-releases": ("dense", 5, 10, (1, 30), 11, "uniform-random", 1.0),
    "dense-zero": ("dense", 5, 10, None, 12, "unit", 1.0),
    "combined-releases": ("combined", 8, 12, (1, 30), 13, "uniform-random", 1.0),
    "combined-zero": ("combined", 8, 12, None, 14, "uniform-random", 1.0),
    # shaped like the benchmark's sched-combined-16x8 (lp-ov-gb's backfill)
    # and online-dense-8x20 (one re-solve per arrival)
    "combined-16x8-zero": ("combined", 16, 8, None, 19, "uniform-random", 1.0),
    "dense-8x20-releases": ("dense", 8, 20, (1, 100), 16, "unit", 1.0),
    # port ledgers and "port full" at a capacity other than 1
    "dense-5x8-capacity-0.37": ("dense", 5, 8, (1, 30), 17, "uniform-random", 0.37),
    "mini-trace-4": ("trace", 4),
}


def golden_instance(name: str) -> CoflowInstance:
    from coflowsched.workload import (
        SyntheticConfig,
        assign_weights,
        generate,
        ingest_trace,
        parse_trace_csv,
    )

    if GOLDEN_INSTANCES[name][0] == "trace":
        records = parse_trace_csv(pathlib.Path(__file__).parent / "data" / "mini_trace.csv")
        return ingest_trace(records, GOLDEN_INSTANCES[name][1])
    kind, ports, coflows, gaps, seed, weights, capacity = GOLDEN_INSTANCES[name]
    instance = generate(
        SyntheticConfig(
            n_ports=ports, n_coflows=coflows, kind=kind, interarrival_range=gaps, seed=seed
        )
    )
    instance = assign_weights(instance, weights, seed=seed)
    scaled = [
        Coflow({pair: size * capacity for pair, size in cf.demands.items()},
               release=cf.release, weight=cf.weight)
        for cf in instance.coflows
    ]
    return CoflowInstance(ports, scaled, capacity=capacity)


def lp_certificates(instance, ordering_result=None):
    """Certificates of the solutions behind ``solve_ordering_lp`` (or the
    given result of it) and ``solve_interval_lp`` on an instance."""
    from coflowsched import lpcore
    from coflowsched.relaxations import (
        _build_reduced_ordering_lp,
        build_interval_lp,
        solve_interval_lp,
        solve_ordering_lp,
    )

    ordering_result = ordering_result or solve_ordering_lp(instance)
    return [
        lpcore.certify(problem, result.solution.values, result.solution.duals)
        for problem, result in (
            (_build_reduced_ordering_lp(instance), ordering_result),
            (build_interval_lp(instance)[0], solve_interval_lp(instance)),
        )
    ]


def residual_instance(instance, remaining, now):
    """Instance of what is left at time ``now``: the demands of
    ``remaining``, a map from FlowKey to the demand left, above
    ``model._RESIDUAL_MIN_SIZE``, releases shifted to be relative to
    ``now``.  Returns the residual instance and the list mapping its coflow
    ids back to the original ids; coflows with no remaining demand are
    dropped.  The reference for ``model.residual``, which lp-ov-ls-online
    builds from the run's arrays."""
    from coflowsched.model import _RESIDUAL_MIN_SIZE

    per_coflow = {}
    for key, rem in remaining.items():
        if rem > _RESIDUAL_MIN_SIZE:
            per_coflow.setdefault(key.coflow, {})[(key.source, key.dest)] = rem
    ids = sorted(per_coflow)
    coflows = [
        Coflow(
            demands=per_coflow[k],
            release=max(instance.coflows[k].release - now, 0.0),
            weight=instance.coflows[k].weight,
        )
        for k in ids
    ]
    return CoflowInstance(instance.n_ports, coflows, instance.capacity), ids
