"""An instance's answers do not depend on how it was written down.

Trace ingestion spreads each reducer's volume over the coflow's mappers, so
trace-shaped instances have fractional sizes, whose sums depend on the order
of their terms, and list each coflow's flows reducer by reducer rather than
by (source, dest).  The load matrices add each port's flows in flow-id
order, so a JSON round trip (which lists the flows by (source, dest)), a
reshuffled listing, and lp-ov-ls-online's first residual LP of a
zero-release instance all give the same bits.
"""

import numpy as np

from coflowsched.model import Coflow, CoflowInstance, instance_from_dict, instance_to_dict, residual
from coflowsched.relaxations import lp_lower_bound, solve_interval_lp, solve_ordering_lp
from coflowsched.schedulers import SCHEDULERS
from coflowsched.workload import TraceRecord, assign_weights, ingest_trace


def trace_instance(seed: int, mode: str = "with-releases", n_ports: int = 6, n_coflows: int = 10) -> CoflowInstance:
    """Random shuffle records with volumes from 0.1 to 1000 MB, ingested on
    ``n_ports`` racks, with random weights."""
    rng = np.random.default_rng(seed)
    records = []
    for c in range(n_coflows):
        mappers = rng.choice(n_ports, int(rng.integers(1, n_ports + 1)), replace=False).tolist()
        racks = rng.choice(n_ports, int(rng.integers(1, n_ports + 1)), replace=False).tolist()
        volumes = np.round(10 ** rng.uniform(-1, 3, len(racks)), 3).tolist()
        records.append(TraceRecord(str(c), int(rng.integers(0, 2000)), mappers, list(zip(racks, volumes))))
    return assign_weights(ingest_trace(records, n_ports, mode), "uniform-random", seed=seed)


def answers(instance: CoflowInstance) -> dict:
    """Both LPs' solution bits, the LP bound and every schedule's arrays."""
    lp = solve_ordering_lp(instance)
    out = {
        "f_tilde": lp.f_tilde.tobytes(),
        "duals": lp.solution.duals.tobytes(),
        "interval x": solve_interval_lp(instance).x.tobytes(),
        "lp_lower_bound": lp_lower_bound(instance, lp),
    }
    for name, scheduler in SCHEDULERS.items():
        schedule = scheduler(instance, lp)
        out[name] = [a.tobytes() for a in (schedule.start, schedule.end, schedule.offsets, schedule.flow,
                                           schedule.rate, schedule.finished, schedule.finished_at,
                                           schedule.completions)]
    return out


def reshuffled(instance: CoflowInstance, seed: int) -> CoflowInstance:
    """``instance`` with each coflow's demands inserted in a random order."""
    rng = np.random.default_rng(seed)
    coflows = []
    for cf in instance.coflows:
        pairs = list(cf.demands)
        order = rng.permutation(len(pairs))
        coflows.append(Coflow({pairs[p]: cf.demands[pairs[p]] for p in order}, release=cf.release, weight=cf.weight))
    return CoflowInstance(instance.n_ports, coflows, instance.capacity)


def test_a_json_round_trip_changes_no_bit():
    for seed in range(100, 106):
        instance = trace_instance(seed)
        assert answers(instance_from_dict(instance_to_dict(instance))) == answers(instance), seed


def test_a_reshuffled_flow_listing_changes_no_bit():
    for seed in range(100, 106):
        instance = trace_instance(seed)
        assert answers(reshuffled(instance, seed)) == answers(instance), seed


def test_the_first_residual_lp_of_a_zero_release_instance_is_the_offline_lp():
    for seed in range(200, 210):
        instance = trace_instance(seed, "zero-release")
        offline = solve_ordering_lp(instance)
        first = solve_ordering_lp(residual(instance, np.array(instance.flow_sizes), 0.0))
        assert first.ordering == offline.ordering, seed
        assert first.f_tilde.tobytes() == offline.f_tilde.tobytes(), seed
        assert first.solution.duals.tobytes() == offline.solution.duals.tobytes(), seed
        assert first.solution.stats == offline.solution.stats, seed
