"""Every per-port array covers only the ports in use.

An instance numbers the ports its flows use, the sources ascending and then
the dests ascending, in its flow table; the load matrices, the schedulers'
loads, spare capacity and port-pair keys, and the validator's sums all
index those rows.  So a switch of 10^9 port labels costs what one of 6
does, and, since the numbering keeps the ports in order, gives the same
bits.  Runs and LPs read the table's arrays; FlowKeys are made only when a
schedule names its flows.
"""

import time
import tracemalloc

import numpy as np

from coflowsched.model import Coflow, CoflowInstance, FlowKey
from coflowsched.relaxations import lp_lower_bound, solve_interval_lp, solve_ordering_lp
from coflowsched.schedulers import SCHEDULERS
from coflowsched.sim import FluidRun, validate
from coflowsched.workload import SyntheticConfig, assign_weights, generate

WIDE = 10 ** 9


def _compact() -> CoflowInstance:
    """6 combined coflows with releases and random weights on 6 ports."""
    inst = generate(SyntheticConfig(n_ports=6, n_coflows=6, kind="combined", interarrival_range=(1, 30), seed=5))
    return assign_weights(inst, "uniform-random", seed=5)


def _spread(instance: CoflowInstance) -> CoflowInstance:
    """``instance`` on 10^9 ports, port p renamed p * (10^9 // n) + 3, on
    both sides: the order of the ports is kept."""
    step = WIDE // instance.n_ports
    return CoflowInstance(WIDE, [
        Coflow({(i * step + 3, j * step + 3): size for (i, j), size in cf.demands.items()},
               release=cf.release, weight=cf.weight)
        for cf in instance.coflows
    ], instance.capacity)


def _bits(schedule) -> list:
    return [a.tobytes() for a in (schedule.start, schedule.end, schedule.offsets, schedule.flow,
                                  schedule.rate, schedule.finished, schedule.finished_at,
                                  schedule.completions)]


def _measured(work):
    """``work()``, its wall time in seconds and its tracemalloc peak in MiB."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        out = work()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    return out, seconds, peak


def test_a_billion_port_labels_change_no_bit_and_cost_little():
    compact = _compact()
    wide = _spread(compact)
    lp, seconds, peak = _measured(lambda: solve_ordering_lp(wide))
    assert seconds < 1.0 and peak < 50.0, ("ordering LP", seconds, peak)
    compact_lp = solve_ordering_lp(compact)
    assert lp.ordering == compact_lp.ordering
    assert lp.f_tilde.tobytes() == compact_lp.f_tilde.tobytes()
    assert lp.solution.duals.tobytes() == compact_lp.solution.duals.tobytes()
    assert lp_lower_bound(wide, lp) == lp_lower_bound(compact, compact_lp)
    assert solve_interval_lp(wide).x.tobytes() == solve_interval_lp(compact).x.tobytes()
    for name, scheduler in SCHEDULERS.items():
        schedule, seconds, peak = _measured(lambda: scheduler(wide, lp))
        assert seconds < 1.0 and peak < 50.0, (name, seconds, peak)
        report, seconds, peak = _measured(lambda: validate(schedule, wide))
        assert report.ok, name
        assert seconds < 1.0 and peak < 50.0, ("validate", name, seconds, peak)
        assert _bits(schedule) == _bits(scheduler(compact, compact_lp)), name


def test_node_loads_has_one_row_per_port_in_use():
    inst = CoflowInstance(10, [Coflow({(7, 2): 1.0, (3, 2): 2.0}), Coflow({(3, 9): 4.0, (0, 5): 0.5})])
    # sources 0, 3, 7, then dests 2, 5, 9
    assert inst.ports.tolist() == [0, 3, 7, 2, 5, 9] and inst.num_source_ports == 3
    assert inst.flow_source_rows.tolist() == [1, 2, 0, 1]
    assert inst.flow_dest_rows.tolist() == [3, 3, 4, 5]
    assert inst.node_loads.tolist() == [[0.0, 0.5], [2.0, 4.0], [1.0, 0.0],
                                        [3.0, 0.0], [0.0, 0.5], [0.0, 4.0]]
    for inst in (_compact(), _spread(_compact())):
        split = inst.num_source_ports
        assert inst.node_loads.shape == (len(inst.ports), inst.num_coflows)
        assert inst.ports[:split].tolist() == sorted({key.source for key in inst.flow_keys})
        assert inst.ports[split:].tolist() == sorted({key.dest for key in inst.flow_keys})
        assert inst.node_loads.any(axis=1).all()


def test_runs_and_lps_make_no_flow_key():
    inst = _compact()
    lp = solve_ordering_lp(inst)
    run = FluidRun(inst)
    for rates in ({}, {0: 1.0}, (np.array([0]), np.array([1.0]))):  # to the first release, then twice serve flow 0
        run.set_rates(rates)
        run.step()
    assert "flow_keys" not in inst.__dict__
    schedule = SCHEDULERS["varys"](inst, lp)
    assert "flow_keys" in inst.__dict__ and schedule.keys is inst.flow_keys
    expected = [FlowKey(i, j, k) for k, cf in enumerate(inst.coflows) for i, j in sorted(cf.demands)]
    assert list(inst.flow_keys) == expected
