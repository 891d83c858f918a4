"""Differential test of list scheduling over port-pair heads: the schedules
of ``lp_ov_ls``, ``lp_ov_ls_online`` and ``lp_ii_gb`` must equal, byte for
byte, those of the loops they replaced, kept here as references.  The
references rescan, and rebuild, the whole priority queue at every event
(``_reference_greedy_matching``), and lp-ii-gb's reference finds each
permutation pair's flow by a scan of the pair's queue.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import residual_instance

from coflowsched.model import Coflow, CoflowInstance, FlowKey
from coflowsched.relaxations import slot_length, solve_interval_lp, solve_ordering_lp
from coflowsched.schedulers import _integer_bvn, group_coflows, lp_ii_gb, lp_ov_ls, lp_ov_ls_online
from coflowsched.sim import EVENT_EPS, FluidRun, Recorder, Schedule, run_fluid
from coflowsched.workload import SyntheticConfig, generate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _reference_queue(instance: CoflowInstance, ordering: list) -> list:
    return [FlowKey(i, j, k) for k in ordering for (i, j) in sorted(instance.coflows[k].demands)]


def _reference_greedy_matching(queue: list, finished, release: list, now: float, n: int) -> list:
    used_src: set[int] = set()
    used_dst: set[int] = set()
    served = []
    kept = []
    for idx, f in enumerate(queue):
        if f in finished:
            continue
        kept.append(f)
        if f.source in used_src or f.dest in used_dst or release[f.coflow] > now:
            continue
        served.append(f)
        used_src.add(f.source)
        used_dst.add(f.dest)
        if len(used_src) == n or len(used_dst) == n:
            kept.extend(queue[idx + 1:])
            break
    queue[:] = kept
    return served


def _reference_rates(run: FluidRun, queue: list) -> dict:
    instance = run.instance
    finished = {f for f, left in zip(run.flows, run.remaining.tolist()) if not left}
    served = _reference_greedy_matching(
        queue, finished, run.release, run.time + EVENT_EPS, instance.n_ports
    )
    return dict.fromkeys(map(run.flows.index, served), instance.capacity)


def _reference_lp_ov_ls(instance: CoflowInstance, ordering_result) -> Schedule:
    queue = _reference_queue(instance, ordering_result.ordering)
    return run_fluid(FluidRun(instance), lambda run: _reference_rates(run, queue))


def _reference_lp_ov_ls_online(instance: CoflowInstance) -> Schedule:
    queue: list[FlowKey] = []
    seen: set[int] = set()

    def policy(run: FluidRun) -> dict:
        active = run.active_coflows()
        if not seen.issuperset(active):
            seen.update(active)
            left, offsets = run.remaining.tolist(), instance.flow_offsets
            remaining = {run.flows[i]: left[i] for k in active
                         for i in range(offsets[k], offsets[k + 1]) if left[i] > 0.0}
            residual, ids = residual_instance(instance, remaining, run.time)
            residual_order = solve_ordering_lp(residual).ordering if ids else []
            rank = {ids[k]: p for p, k in enumerate(residual_order)}
            order = sorted(active, key=lambda k: (rank.get(k, len(rank)), run.release[k], k))
            queue[:] = _reference_queue(instance, order)
        return _reference_rates(run, queue)

    return run_fluid(FluidRun(instance), policy)


def _reference_lp_ii_gb(instance: CoflowInstance) -> Schedule:
    cap = instance.capacity
    u = slot_length(instance)
    remaining = {key: int(round(size / (cap * u))) for key, size in instance.flows()}
    ordering = solve_interval_lp(instance).ordering
    groups = group_coflows(instance, ordering)
    n = instance.n_ports
    release_slot = [math.ceil(cf.release / u - 1e-9) for cf in instance.coflows]
    queue = _reference_queue(instance, ordering)
    by_pair: dict[tuple[int, int], list[FlowKey]] = {}
    for f in queue:
        by_pair.setdefault((f.source, f.dest), []).append(f)
    flows_left = [len(cf.demands) for cf in instance.coflows]
    record = Recorder(instance)
    flow_id = {key: i for i, key in enumerate(instance.flow_keys)}
    finished: set[FlowKey] = set()
    slot = min(release_slot)
    gi = 0

    def servable(f: FlowKey) -> bool:
        return remaining[f] > 0 and release_slot[f.coflow] <= slot

    def emit(serving: list, length: int) -> None:
        nonlocal slot
        start, end = slot * u, (slot + length) * u
        record.segment(start, end, [flow_id[f] for f in serving], [cap] * len(serving))
        for f in serving:
            remaining[f] -= length
            if remaining[f] == 0:
                finished.add(f)
                flows_left[f.coflow] -= 1
        record.complete([flow_id[f] for f in serving if remaining[f] == 0], end)
        slot += length

    while any(flows_left):
        while not any(flows_left[k] for k in groups[gi]):
            gi += 1
        ready = [k for k in groups[gi] if flows_left[k] and release_slot[k] <= slot]
        next_release = min(
            (release_slot[k] for k, left in enumerate(flows_left) if left and release_slot[k] > slot),
            default=math.inf,
        )
        if not ready:
            serving = _reference_greedy_matching(queue, finished, release_slot, slot, n)
            if serving:
                emit(serving, min(next_release - slot, *(remaining[f] for f in serving)))
            else:
                slot = next_release
            continue
        matrix = np.zeros((n, n), dtype=np.int64)
        for k in ready:
            for (i, j) in instance.coflows[k].demands:
                matrix[i, j] += remaining[FlowKey(i, j, k)]
        for count, perm in _integer_bvn(matrix):
            while count > 0 and slot < next_release:
                served = (
                    next(filter(servable, by_pair.get(pair, ())), None)
                    for pair in enumerate(perm)
                )
                serving = [f for f in served if f is not None]
                length = min(count, next_release - slot, *(remaining[f] for f in serving))
                if serving:
                    emit(serving, length)
                else:
                    slot += length
                count -= length

    return record.schedule()


def _outcome(schedule_of, *args) -> str:
    """The schedule's JSON, or the error it raises (an LP that fails its
    certificate, say, must fail in both versions alike)."""
    try:
        return json.dumps(schedule_of(*args).to_dict())
    except Exception as exc:  # compared, never swallowed
        return f"{type(exc).__name__}: {exc}"


def _assert_same_schedules(instance: CoflowInstance, ordering) -> None:
    assert _outcome(lp_ov_ls, instance, ordering) == _outcome(_reference_lp_ov_ls, instance, ordering)
    assert _outcome(lp_ov_ls_online, instance) == _outcome(_reference_lp_ov_ls_online, instance)
    assert _outcome(lp_ii_gb, instance) == _outcome(_reference_lp_ii_gb, instance)


# sizes in time units (data / capacity); halves and quarters keep lp-ii-gb's
# slot a power of two, and ties make flows finish at the same event
UNITS = (1.0, 1.0, 2.0, 0.5, 3.0, 0.25, 1.5)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    port = st.integers(0, n - 1)
    cap = draw(st.sampled_from((1.0, 0.37)))
    size = st.sampled_from(UNITS).map(lambda t: t * cap)
    coflows = [
        Coflow(
            draw(st.dictionaries(st.tuples(port, port), size, min_size=1, max_size=6)),
            # equal releases, and releases that fall between slots
            release=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 1.25, 3.0))),
            weight=draw(st.sampled_from((1.0, 2.0, 0.5))),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return CoflowInstance(n, coflows, capacity=cap)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_list_schedulers_match_the_queue_references(instance, data):
    ordering = SimpleNamespace(
        ordering=data.draw(st.permutations(range(instance.num_coflows)), label="ordering")
    )
    _assert_same_schedules(instance, ordering)


def test_list_schedulers_match_the_queue_references_on_a_dense_instance():
    inst = generate(SyntheticConfig(n_ports=6, n_coflows=10, kind="dense",
                                    interarrival_range=(1, 20), seed=3))
    _assert_same_schedules(inst, SimpleNamespace(ordering=list(range(inst.num_coflows))[::-1]))
