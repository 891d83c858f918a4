"""Property test: the FluidRun views agree with a brute-force recomputation
from ``run.remaining`` and the release dates after every step."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from coflowsched.model import Coflow, CoflowInstance, FlowKey  # noqa: E402
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
    incomplete = [f for f, left in run.remaining.items() if left > 0.0]
    active = sorted(
        {f.coflow for f in incomplete if instance.coflows[f.coflow].release <= horizon}
    )
    assert run.active_coflows() == active
    for k in range(instance.num_coflows):
        assert run.remaining_of(k) == {
            (f.source, f.dest): run.remaining[f] for f in incomplete if f.coflow == k
        }
    assert run.done() == (not incomplete)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_views_match_brute_force_after_every_step(instance, data):
    run = FluidRun(instance)
    _assert_views_match(run, instance)
    while not run.done():
        active = [
            FlowKey(i, j, k) for k in run.active_coflows() for (i, j) in sorted(run.remaining_of(k))
        ]
        rates = {}
        for f in active:
            if data.draw(st.booleans(), label="serve"):
                rates[f] = data.draw(st.sampled_from(RATES), label="rate")
        if not rates and run.next_release() is None:
            rates[active[0]] = 1.0  # keep the run from stalling
        run.set_rates(rates)
        run.step()
        _assert_views_match(run, instance)
