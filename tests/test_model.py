import json

import numpy as np
import pytest

from coflowsched.model import (
    Coflow,
    CoflowInstance,
    effective_size,
    horizon,
    instance_from_dict,
    instance_to_dict,
    node_load_matrix,
    port_loads,
    prefix_bottlenecks,
)
from coflowsched.verify import (
    blocking_pair_fixture,
    counterexample_fixture,
    staggered_release_fixture,
)


def test_aggregate_loads_spanning_pair():
    cf = Coflow({(0, 0): 2.0, (1, 1): 2.0})
    src, dst = port_loads(cf.demands, 2)
    assert src == [2.0, 2.0]
    assert dst == [2.0, 2.0]


def test_aggregate_loads_single_flow():
    src, dst = port_loads(Coflow({(0, 1): 5.0}).demands, 2)
    assert src == [5.0, 0.0]
    assert dst == [0.0, 5.0]


def test_aggregate_loads_first_staggered_coflow():
    cf = staggered_release_fixture().coflows[0]
    src, dst = port_loads(cf.demands, 2)
    assert src == [1.0, 0.0]
    assert dst == [1.0, 0.0]


def test_empty_demand_rejected():
    with pytest.raises(ValueError):
        Coflow({})


def test_nonpositive_demand_rejected():
    with pytest.raises(ValueError):
        Coflow({(0, 0): 0.0})
    with pytest.raises(ValueError):
        Coflow({(0, 0): -1.0})


def test_weight_and_release_validation():
    with pytest.raises(ValueError):
        Coflow({(0, 0): 1.0}, weight=0.0)
    with pytest.raises(ValueError):
        Coflow({(0, 0): 1.0}, release=-1.0)


def test_out_of_range_port_rejected():
    with pytest.raises(ValueError):
        CoflowInstance(2, [Coflow({(0, 2): 1.0})])
    with pytest.raises(IndexError):
        port_loads(Coflow({(3, 0): 1.0}).demands, 2)


def test_effective_size_examples():
    assert effective_size(Coflow({(0, 0): 2.0, (1, 1): 2.0}), 2) == 2.0
    assert effective_size(Coflow({(0, 0): 3.0}), 2) == 3.0
    assert effective_size(Coflow({(0, 1): 5.0}), 2) == 5.0


def test_cumulative_load_blocking_fixture():
    inst = blocking_pair_fixture()
    assert prefix_bottlenecks(inst, [0, 1, 2])[2] == 5.0
    assert node_load_matrix(inst)[: inst.n_ports].sum(axis=1).tolist() == [5.0, 5.0]


def test_cumulative_load_prefix_one_is_effective_size():
    inst = blocking_pair_fixture()
    for first in range(3):
        ordering = [first] + [k for k in range(3) if k != first]
        peak = prefix_bottlenecks(inst, ordering)[0]
        assert peak == effective_size(inst.coflows[first], inst.n_ports)


def test_cumulative_load_counterexample_prefix():
    inst = counterexample_fixture()
    assert prefix_bottlenecks(inst, [0, 1])[1] == 3.0


def test_cumulative_load_argument_errors():
    inst = blocking_pair_fixture()
    with pytest.raises(ValueError):
        prefix_bottlenecks(inst, [0, 1])
    with pytest.raises(ValueError):
        prefix_bottlenecks(inst, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        prefix_bottlenecks(inst, [0, 0, 2])


def test_horizon_examples():
    assert horizon(staggered_release_fixture()) == 8.0
    assert horizon(CoflowInstance(2, [Coflow({(0, 1): 4.0})])) == 4.0
    assert horizon(blocking_pair_fixture()) == 10.0


def test_horizon_dominates_releases():
    inst = staggered_release_fixture()
    assert horizon(inst) >= max(cf.release for cf in inst.coflows)


def test_effective_size_bounds_total_demand():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n * n + 1))
        pairs = rng.choice(n * n, size=m, replace=False)
        demands = {(int(p) // n, int(p) % n): float(rng.integers(1, 20)) for p in pairs}
        cf = Coflow(demands)
        w = effective_size(cf, n)
        assert w <= cf.total_demand + 1e-9
        assert cf.total_demand <= n * w + 1e-9


def test_cumulative_load_full_prefix_is_ordering_invariant():
    inst = staggered_release_fixture()
    base = prefix_bottlenecks(inst, [0, 1, 2, 3])[3]
    rng = np.random.default_rng(1)
    for _ in range(10):
        perm = list(rng.permutation(4))
        peak = prefix_bottlenecks(inst, perm)[3]
        assert peak == base


def test_cumulative_load_monotone_and_balanced():
    inst = blocking_pair_fixture()
    n = inst.n_ports
    prefix_loads = np.cumsum(node_load_matrix(inst)[:, [2, 0, 1]], axis=1)
    prev = 0.0
    for k, peak in enumerate(prefix_bottlenecks(inst, [2, 0, 1])):
        assert peak >= prev
        prev = peak
        assert abs(prefix_loads[:n, k].sum() - prefix_loads[n:, k].sum()) < 1e-9


def _prefix_peaks_flow_by_flow(inst, ordering):
    src = np.zeros(inst.n_ports)
    dst = np.zeros(inst.n_ports)
    peaks = []
    for k in ordering:
        for (i, j), size in inst.coflows[k].demands.items():
            src[i] += size
            dst[j] += size
        peaks.append(max(src.max(), dst.max()))
    return np.array(peaks)


def test_prefix_bottlenecks_match_flow_by_flow_loop():
    # each coflow's port loads are summed before they join the prefix, so
    # non-integer sizes may differ from the flow-by-flow loop in the last bits
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        coflows = []
        for _ in range(int(rng.integers(1, 8))):
            m = int(rng.integers(1, n * n + 1))
            pairs = rng.choice(n * n, size=m, replace=False)
            sizes = rng.integers(1, 20, size=m).astype(float)
            if trial % 2:
                sizes *= rng.uniform(0.01, 10.0, size=m)
            coflows.append(Coflow({(int(p) // n, int(p) % n): s for p, s in zip(pairs, sizes)}))
        inst = CoflowInstance(n, coflows)
        ordering = list(rng.permutation(len(coflows)))
        got = prefix_bottlenecks(inst, ordering)
        want = _prefix_peaks_flow_by_flow(inst, ordering)
        if trial % 2:
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        else:
            assert got.tolist() == want.tolist()


def test_instance_json_round_trip(tmp_path):
    inst = staggered_release_fixture()
    data = instance_to_dict(inst)
    text = json.dumps(data)
    back = instance_from_dict(json.loads(text))
    assert back.n_ports == inst.n_ports
    assert back.capacity == inst.capacity
    for a, b in zip(back.coflows, inst.coflows):
        assert a.demands == b.demands
        assert a.release == b.release
        assert a.weight == b.weight
