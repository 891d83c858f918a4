"""Differential test of the fluid policies ``varys`` and ``lp_ov_gb``: their
schedules must equal, byte for byte, those of the per-coflow dict loops
they replaced, kept here as ``_reference_varys`` and
``_reference_lp_ov_gb``.  The references keep each coflow's unfinished
flows in a dict built in flow id order (``instance.flow_keys``), and add
them in that order, as the policies add each coflow's id
range and lp_ov_gb its slices of the LP queue.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance, FlowKey, port_loads
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import group_coflows, lp_ov_gb, varys, _queue
from coflowsched.sim import CAPACITY_TOL, EVENT_EPS, FluidRun, Schedule, run_fluid
from coflowsched.workload import SyntheticConfig, assign_weights, generate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


class _Incomplete:
    """Each coflow's unfinished flows as an insertion-ordered dict of
    FlowKeys: built in flow id order, a flow dropped once it
    has finished."""

    def __init__(self, instance: CoflowInstance):
        self.flows: dict[int, dict] = {}
        self.ids = {key: i for i, key in enumerate(instance.flow_keys)}
        for key in instance.flow_keys:
            self.flows.setdefault(key.coflow, {})[key] = None

    def remaining_of(self, run: FluidRun, k: int) -> dict:
        members = self.flows[k]
        # a finished flow's remaining demand is exactly 0.0
        for key in [f for f in members if not run.remaining[self.ids[f]]]:
            del members[key]
        return {f: float(run.remaining[self.ids[f]]) for f in members}

    def by_id(self, rates: dict) -> dict:
        """The FlowKey rate map as FluidRun takes it, by flow id."""
        return {self.ids[f]: r for f, r in rates.items()}


def _reference_varys(instance: CoflowInstance) -> Schedule:
    cap = instance.capacity
    n = instance.n_ports
    incomplete = _Incomplete(instance)

    def policy(run: FluidRun) -> dict:
        flows_of = {k: incomplete.remaining_of(run, k) for k in run.active_coflows()}
        loads_of = {k: port_loads(flows, n) for k, flows in flows_of.items()}
        order = sorted(flows_of, key=lambda k: (max(map(max, loads_of[k])), k))
        rem_src = [cap] * n
        rem_dst = [cap] * n
        rates: dict[FlowKey, float] = {}
        skipped: list[int] = []
        for k in order:
            src_load, dst_load = loads_of[k]
            needed = [
                (load, rem)
                for load, rem in zip(src_load + dst_load, rem_src + rem_dst)
                if load > 0.0
            ]
            if any(rem <= CAPACITY_TOL for _, rem in needed):
                skipped.append(k)
                continue
            gamma = max(load / rem for load, rem in needed)
            flows = flows_of[k]
            for f in sorted(flows):
                r = flows[f] / gamma
                rates[f] = r
                rem_src[f.source] = max(rem_src[f.source] - r, 0.0)
                rem_dst[f.dest] = max(rem_dst[f.dest] - r, 0.0)
        spare: list[list] = [[] for _ in range(n)]
        for rank, k in enumerate(skipped):
            for f in flows_of[k]:
                if rem_src[f.source] > CAPACITY_TOL and rem_dst[f.dest] > CAPACITY_TOL:
                    spare[f.source].append((rank, f.dest, f))
        for i, candidates in enumerate(spare):
            for _, j, f in sorted(candidates):
                extra = min(rem_src[i], rem_dst[j])
                if extra <= CAPACITY_TOL:
                    continue
                rates[f] = extra
                rem_src[i] -= extra
                rem_dst[j] -= extra
                if rem_src[i] <= CAPACITY_TOL:
                    break
        return incomplete.by_id(rates)

    return run_fluid(FluidRun(instance), policy)


def _reference_lp_ov_gb(instance: CoflowInstance, ordering_result) -> Schedule:
    ordering = ordering_result.ordering
    groups = group_coflows(instance, ordering)
    ends = np.cumsum([len(grp) for grp in groups])
    keys = instance.flow_keys
    stages = [(grp, [keys[i] for i in _queue(instance, ordering[end:])]) for grp, end in zip(groups, ends)]
    cap = instance.capacity
    n = instance.n_ports
    incomplete = _Incomplete(instance)

    def policy(run: FluidRun) -> dict:
        group, later = next(
            (grp, rest) for grp, rest in stages if any(not run.is_complete(k) for k in grp)
        )
        demand: dict[tuple[int, int], float] = {}
        server: dict[tuple[int, int], FlowKey] = {}
        for k in group:
            if run.release[k] > run.time + EVENT_EPS:
                continue
            for f, d in incomplete.remaining_of(run, k).items():
                pair = (f.source, f.dest)
                demand[pair] = demand.get(pair, 0.0) + d
                server.setdefault(pair, f)
        rem_src = [cap] * n
        rem_dst = [cap] * n
        rates: dict[FlowKey, float] = {}

        def grant(f: FlowKey, amount: float) -> None:
            i, j, _ = f
            rates[f] = rates.get(f, 0.0) + amount
            rem_src[i] = max(rem_src[i] - amount, 0.0)
            rem_dst[j] = max(rem_dst[j] - amount, 0.0)

        if demand:
            finish = max(map(max, port_loads(demand, n))) / cap
            pairs = sorted(demand)
            for pair in pairs:
                grant(server[pair], demand[pair] / finish)
            for pair in pairs:
                extra = min(rem_src[pair[0]], rem_dst[pair[1]])
                if extra > CAPACITY_TOL:
                    grant(server[pair], extra)
        left = run.remaining.tolist()  # 0.0 exactly for a finished flow
        now = run.time + EVENT_EPS
        for f in later:
            i, j, k = f
            if not left[incomplete.ids[f]] or (i, j) in demand or run.release[k] > now:
                continue
            extra = min(rem_src[i], rem_dst[j])
            if extra > CAPACITY_TOL:
                grant(f, extra)
        return incomplete.by_id(rates)

    return run_fluid(FluidRun(instance), policy)


def _recorded(schedule: Schedule) -> tuple:
    """The schedule's JSON, and each segment's rates in the order recorded
    (the validator adds them in that order)."""
    return json.dumps(schedule.to_dict()), [list(seg.rates.items()) for seg in schedule.segments]


# equal sizes make bottleneck ties, and varys then skips coflows; sizes
# that are not dyadic make sums depend on the order of their terms
SIZES = (1.0, 1.0, 1.0, 2.0, 0.5, 3.0, 0.1, 0.7)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    port = st.integers(0, n - 1)
    size = st.just(1.0) if draw(st.booleans()) else st.sampled_from(SIZES)
    coflows = [
        Coflow(
            draw(st.dictionaries(st.tuples(port, port), size, min_size=1, max_size=6)),
            release=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 3.0))),
            weight=draw(st.sampled_from((1.0, 2.0, 0.5))),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return CoflowInstance(n, coflows, capacity=draw(st.sampled_from((1.0, 0.37, 2))))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_fluid_policies_match_the_dict_references(instance, data):
    ordering = SimpleNamespace(
        ordering=data.draw(st.permutations(range(instance.num_coflows)), label="ordering")
    )
    assert _recorded(varys(instance)) == _recorded(_reference_varys(instance))
    reference = _reference_lp_ov_gb(instance, ordering)
    assert _recorded(lp_ov_gb(instance, ordering)) == _recorded(reference)


def test_fluid_policies_match_the_dict_references_on_a_dense_instance():
    inst = generate(SyntheticConfig(n_ports=6, n_coflows=8, kind="dense",
                                    interarrival_range=(1, 20), seed=3))
    ordering = SimpleNamespace(ordering=list(range(inst.num_coflows))[::-1])
    assert _recorded(varys(inst)) == _recorded(_reference_varys(inst))
    assert _recorded(lp_ov_gb(inst, ordering)) == _recorded(_reference_lp_ov_gb(inst, ordering))


def test_fluid_policies_match_the_dict_references_on_a_wide_instance_with_releases():
    # 16 ports (up to 256 pairs per event), combined sizes, releases that
    # fall while earlier groups run, and the LP's ordering in five groups
    inst = generate(SyntheticConfig(n_ports=16, n_coflows=8, kind="combined",
                                    interarrival_range=(1, 20), seed=0))
    lp = solve_ordering_lp(inst)
    assert len(group_coflows(inst, lp.ordering)) >= 3
    assert len({cf.release for cf in inst.coflows}) == inst.num_coflows
    assert _recorded(varys(inst)) == _recorded(_reference_varys(inst))
    assert _recorded(lp_ov_gb(inst, lp)) == _recorded(_reference_lp_ov_gb(inst, lp))


@pytest.mark.parametrize("seed", [10_000, 70_000])
def test_fluid_policies_match_the_dict_references_on_the_benchmark_traffic(seed):
    # sched-combined-16x8's traffic: 16 ports, combined sizes, no releases
    # and random weights, so every coflow is active from the start and
    # varys's leftover pass walks the most skipped coflows
    inst = assign_weights(generate(SyntheticConfig(n_ports=16, n_coflows=8, kind="combined",
                                                   interarrival_range=None, seed=seed)),
                          "uniform-random", seed=seed)
    assert not any(cf.release for cf in inst.coflows)
    lp = solve_ordering_lp(inst)
    assert _recorded(varys(inst)) == _recorded(_reference_varys(inst))
    assert _recorded(lp_ov_gb(inst, lp)) == _recorded(_reference_lp_ov_gb(inst, lp))
