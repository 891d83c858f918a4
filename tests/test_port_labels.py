"""Port labels and the port count do not matter.

Renaming the ports in an order-preserving way keeps every flow id, since
flows are numbered by (coflow, source, dest); so a schedule of the renamed
instance must hold the same arrays, bit for bit, and the ordering LP must
give the same answer.  The schedulers keep state only for the port pairs
that occur, and lp-ii-gb decomposes over the ports the instance uses, so a
switch of 10^5 ports with two flows costs little.

lp-ii-gb needs whole power-of-two slots, so it is checked on dyadic sizes
and on at most 64 ports.
"""

import time
import tracemalloc

import pytest

from coflowsched.model import Coflow, CoflowInstance
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import SCHEDULERS, lp_ii_gb
from coflowsched.sim import validate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LABELS = 10 ** 5
# sizes that are not dyadic make sums depend on the order of their terms
SIZES = (1.0, 1.0, 2.0, 0.5, 3.0, 0.1, 0.7, 1 / 3)
DYADIC = (1.0, 2.0, 0.5, 3.0, 0.25)  # lp-ii-gb needs whole power-of-two slots
FLUID = ("lp-ov-ls", "lp-ov-ls-online", "varys", "lp-ov-gb")


@st.composite
def instances(draw, sizes=SIZES, capacities=(1.0, 0.37, 2.0)):
    n = draw(st.integers(1, 6))
    port = st.integers(0, n - 1)
    coflows = [
        Coflow(
            draw(st.dictionaries(st.tuples(port, port), st.sampled_from(sizes), min_size=1, max_size=8)),
            release=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 3.0))),
            weight=draw(st.sampled_from((1.0, 2.0, 0.5))),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return CoflowInstance(n, coflows, capacity=draw(st.sampled_from(capacities)))


def relabelled(instance: CoflowInstance, labels, n_ports: int) -> CoflowInstance:
    """``instance`` on ``n_ports`` ports, port p renamed ``labels[p]``."""
    return CoflowInstance(n_ports, [
        Coflow({(labels[i], labels[j]): size for (i, j), size in cf.demands.items()},
               release=cf.release, weight=cf.weight)
        for cf in instance.coflows
    ], instance.capacity)


def _bits(schedule) -> list:
    """A schedule's arrays as bytes: its segments, flow ids, rates, flow
    completions and coflow completions, without the FlowKeys."""
    return [a.tobytes() for a in (schedule.start, schedule.end, schedule.offsets, schedule.flow,
                                  schedule.rate, schedule.finished, schedule.finished_at,
                                  schedule.completions)]


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_order_preserving_relabelling_changes_no_bit(instance, data):
    # the policies take O(ports) per event, so most switches are narrow
    n = instance.n_ports
    width = data.draw(st.sampled_from((n + 1, 2 * n, 64, 4096, LABELS)), label="ports")
    labels = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=n, max_size=n), label="labels"))
    moved = relabelled(instance, labels, width)
    lp, moved_lp = solve_ordering_lp(instance), solve_ordering_lp(moved)
    assert moved_lp.ordering == lp.ordering
    assert moved_lp.f_tilde.tobytes() == lp.f_tilde.tobytes()
    for name in FLUID:
        assert _bits(SCHEDULERS[name](moved, moved_lp)) == _bits(SCHEDULERS[name](instance, lp)), name


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(instance=instances(DYADIC, (1.0, 2.0)), data=st.data())
def test_lp_ii_gb_is_unchanged_by_ports_added_before_and_after(instance, data):
    # lp-ii-gb decomposes over the used ports alone, so the ports around
    # them change no permutation
    n = instance.n_ports
    before = data.draw(st.integers(0, 64 - n), label="before")
    after = data.draw(st.integers(0, 64 - n - before), label="after")
    moved = relabelled(instance, range(before, before + n), before + n + after)
    assert _bits(lp_ii_gb(moved)) == _bits(lp_ii_gb(instance))


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(instance=instances(DYADIC, (1.0, 2.0)), data=st.data())
def test_lp_ii_gb_is_unchanged_by_an_order_preserving_relabelling(instance, data):
    n = instance.n_ports
    width = data.draw(st.sampled_from((n + 1, 2 * n, 64, LABELS)), label="ports")
    labels = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=n, max_size=n), label="labels"))
    assert _bits(lp_ii_gb(relabelled(instance, labels, width))) == _bits(lp_ii_gb(instance))


def test_lp_ii_gb_is_unchanged_by_an_unused_port_between_used_ones():
    wide = CoflowInstance(3, [Coflow({(0, 0): 1.0, (0, 2): 1.0, (2, 0): 2.0})])
    narrow = CoflowInstance(2, [Coflow({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 2.0})])
    assert _bits(lp_ii_gb(wide)) == _bits(lp_ii_gb(narrow))


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


def test_two_flows_on_a_hundred_thousand_ports_cost_little():
    n = LABELS
    inst = CoflowInstance(n, [Coflow({(3, n - 2): 1.0}),
                              Coflow({(n - 1, 3): 2.0}, release=0.5, weight=2.0)])
    lp, seconds, peak = _measured(lambda: solve_ordering_lp(inst))
    assert lp.ordering == [0, 1]
    assert seconds < 1.0 and peak < 50.0, ("ordering LP", seconds, peak)
    for name in FLUID:
        schedule, seconds, peak = _measured(lambda: SCHEDULERS[name](inst, lp))
        assert seconds < 1.0 and peak < 50.0, (name, seconds, peak)
        report, seconds, peak = _measured(lambda: validate(schedule, inst))
        assert report.ok, name
        assert seconds < 1.0 and peak < 50.0, ("validate", name, seconds, peak)
        assert schedule.completions.tolist() == [1.0, 2.5], name
    # lp-ii-gb starts coflow 1 at the first whole slot after its release
    schedule, seconds, peak = _measured(lambda: lp_ii_gb(inst))
    assert seconds < 1.0 and peak < 50.0, ("lp-ii-gb", seconds, peak)
    assert validate(schedule, inst).ok
    assert schedule.completions.tolist() == [1.0, 3.0]
