"""Property tests: the FluidRun views agree with a brute-force recomputation
from ``run.remaining`` (by flow id) and the release dates after every
step of rates drawn by flow id, and each step hands over, and records, the
flows it finished; and rates handed over as a dict and as (ids, rates)
arrays step alike, to the bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from coflowsched.model import Coflow, CoflowInstance  # noqa: E402
from coflowsched.sim import EVENT_EPS, FluidRun  # noqa: E402

RATES = (0.25, 0.5, 1.0, 2.0)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    port = st.integers(0, n - 1)
    coflows = [
        Coflow(
            draw(st.dictionaries(st.tuples(port, port), st.integers(1, 6).map(float),
                                 min_size=1, max_size=5)),
            release=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.5, 4.0))),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    return CoflowInstance(n, coflows)


def _assert_views_match(run: FluidRun, instance: CoflowInstance) -> None:
    horizon = run.time + EVENT_EPS
    incomplete = [f for f, left in zip(instance.flow_keys, run.remaining.tolist()) if left > 0.0]
    active = sorted(
        {f.coflow for f in incomplete if instance.coflows[f.coflow].release <= horizon}
    )
    assert run.active_coflows() == active
    offsets = instance.flow_offsets
    for k in range(instance.num_coflows):
        ids = list(range(offsets[k], offsets[k + 1]))
        assert [i for i, f in enumerate(instance.flow_keys) if f.coflow == k] == ids
        assert run.live[k] == sum(f.coflow == k for f in incomplete)
    # a finished flow's remaining demand is exactly 0.0, and nothing else's;
    # the Recorder holds each finished flow once
    finished = list(run.record.finished)
    assert len(set(finished)) == len(finished)
    assert set(instance.flow_keys) - set(incomplete) == {instance.flow_keys[i] for i in finished}
    assert run.done() == (not incomplete)


def _unfinished(run: FluidRun) -> list:
    """The unfinished flow ids of the released coflows, ascending."""
    offsets = run.instance.flow_offsets
    return [i for k in run.active_coflows() for i in range(offsets[k], offsets[k + 1]) if run.remaining[i]]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_views_match_brute_force_after_every_step(instance, data):
    run = FluidRun(instance)
    _assert_views_match(run, instance)
    while not run.done():
        active = _unfinished(run)
        rates = {}
        for i in active:
            if data.draw(st.booleans(), label="serve"):
                rates[i] = data.draw(st.sampled_from(RATES), label="rate")
        if not rates and run.next_release() is None:
            rates[active[0]] = 1.0  # keep the run from stalling
        before, recorded = run.remaining.tolist(), len(run.record.finished)
        run.set_rates(rates)
        run.step()
        after = run.remaining.tolist()
        # the flows whose demand this step took to 0.0, in rate order, each
        # recorded once at the step's time
        assert run.finished == [i for i in rates if before[i] and not after[i]]
        assert list(run.record.finished[recorded:]) == run.finished
        assert list(run.record.finished_at[recorded:]) == [run.time] * len(run.finished)
        _assert_views_match(run, instance)


def _recorded(run: FluidRun) -> list:
    record = run.record
    return [bytes(a) for a in (record.start, record.end, record.offsets, record.flow, record.rate,
                               record.finished, record.finished_at)]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_rate_maps_and_rate_arrays_step_alike(instance, data):
    # the same rates, in the same order, as a dict and as (ids, rates)
    # arrays: every float the two runs keep is equal to the bit
    by_map, by_arrays = FluidRun(instance), FluidRun(instance)
    while not by_map.done():
        active = _unfinished(by_map)
        served = data.draw(st.permutations(active), label="order")[:data.draw(st.integers(0, len(active)))]
        rates = {i: data.draw(st.sampled_from(RATES + (0.0, -1.0, 1 / 3, 0.7)), label="rate") for i in served}
        if not any(r > 0.0 for r in rates.values()) and by_map.next_release() is None:
            rates[active[0]] = 1.0  # keep the run from stalling
        by_map.set_rates(rates)
        by_arrays.set_rates((np.fromiter(rates, dtype=np.int64, count=len(rates)),
                             np.fromiter(rates.values(), dtype=float, count=len(rates))))
        assert by_arrays.next_event() == by_map.next_event()
        by_map.step()
        by_arrays.step()
        assert by_arrays.remaining.tobytes() == by_map.remaining.tobytes()
        assert by_arrays.finished == by_map.finished
        assert by_arrays.live == by_map.live
        assert repr(by_arrays.time) == repr(by_map.time)
        assert _recorded(by_arrays) == _recorded(by_map)
    assert by_arrays.done()
