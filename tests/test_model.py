import json

import numpy as np
import pytest

from coflowsched.model import (
    Coflow,
    CoflowInstance,
    FlowKey,
    effective_size,
    horizon,
    instance_from_dict,
    instance_to_dict,
    port_loads,
    prefix_bottlenecks,
    residual,
    _load_matrix,
)
from coflowsched.sim import FluidRun
from coflowsched.verify import (
    blocking_pair_fixture,
    counterexample_fixture,
    staggered_release_fixture,
)
from coflowsched.workload import SyntheticConfig, assign_weights, generate

from conftest import residual_instance


def test_aggregate_loads_spanning_pair():
    cf = Coflow({(0, 0): 2.0, (1, 1): 2.0})
    src, dst = port_loads(cf.demands, 2)
    assert src == [2.0, 2.0]
    assert dst == [2.0, 2.0]


def test_aggregate_loads_single_flow():
    src, dst = port_loads(Coflow({(0, 1): 5.0}).demands, 2)
    assert src == [5.0, 0.0]
    assert dst == [0.0, 5.0]
    # flows named by FlowKeys, as the simulator names them, sum the same
    pairs = {(0, 1): 5.0, (1, 1): 2.0, (0, 0): 0.5}
    keyed = {FlowKey(i, j, 3): d for (i, j), d in pairs.items()}
    assert port_loads(keyed, 2) == port_loads(pairs, 2) == ([5.5, 2.0], [0.5, 7.0])


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


@pytest.mark.parametrize("make", [
    lambda: Coflow({(0, 0): 10**400}),
    lambda: Coflow({(0, 0): 1.0}, release=10**400),
    lambda: Coflow({(0, 0): 1.0}, weight=10**400),
    lambda: Coflow({(2**63, 0): 1.0}),
    lambda: Coflow({(0, 2**63): 1.0}),
    lambda: CoflowInstance(1, [Coflow({(0, 0): 1.0})], capacity=10**400),
], ids=["size", "release", "weight", "source-port", "dest-port", "capacity"])
def test_a_number_no_float_holds_or_a_port_no_int64_holds_is_refused(make):
    # Python integers have no size limit; these used to be accepted and end
    # later in an OverflowError or a TypeError
    with pytest.raises(ValueError, match="not finite|outside 0..2\\^63 - 1"):
        make()


def test_integer_sizes_past_int64_load_as_floats():
    # np.array of Python ints past 2^64 would be an object array
    inst = CoflowInstance(1, [Coflow({(0, 0): 2**64}), Coflow({(0, 0): 3})])
    assert inst.node_loads.dtype == float
    assert inst.node_loads.tolist() == [[2.0**64, 3.0], [2.0**64, 3.0]]


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
    assert inst.node_loads[: inst.n_ports].sum(axis=1).tolist() == [5.0, 5.0]


def test_time_loads_is_the_load_matrix_over_capacity_built_once_read_only():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        coflows = [
            Coflow({(int(i), int(j)): float(10.0 ** rng.uniform(-8, 8)) for i, j in rng.integers(0, n, (3, 2))})
            for _ in range(int(rng.integers(1, 6)))
        ]
        inst = CoflowInstance(n, coflows, capacity=float(rng.uniform(0.1, 3.0)))
        # each coflow's port loads over its demands listed by (source, dest)
        by_flow_id = np.array([np.concatenate(port_loads({pair: cf.demands[pair] for pair in sorted(cf.demands)}, n))
                               for cf in coflows]).T
        # node_loads keeps the rows of the ports in use, sources then dests; the others are zero
        split = inst.num_source_ports
        in_use = np.concatenate((inst.ports[:split], n + inst.ports[split:]))
        assert inst.node_loads.tobytes() == by_flow_id[in_use].tobytes()
        assert not np.delete(by_flow_id, in_use, axis=0).any()
        loads = inst.time_loads
        assert loads is inst.time_loads
        assert loads.tobytes() == (inst.node_loads / inst.capacity).tobytes()
        for array in (loads, inst.node_loads):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0



def test_releases_and_weights_are_built_once_read_only():
    inst = CoflowInstance(2, [Coflow({(0, 1): 1.0}, release=2.5, weight=3), Coflow({(1, 0): 2.0})])
    for name, expected in (("releases", [2.5, 0.0]), ("weights", [3.0, 1.0])):
        values = getattr(inst, name)
        assert values is getattr(inst, name)
        assert values.dtype == np.float64 and values.tolist() == expected
        with pytest.raises(ValueError):
            values[0] = 1.0


def _residual_cases():
    """(instance, remaining by flow id, now): flows left whole, in part, at
    and below the 1e-9 floor or finished, whole coflows finished, the
    unreleased flows at 0.0 as lp-ov-ls-online passes them, nothing left,
    and capacities other than 1 (an int one too)."""
    rng = np.random.default_rng(29)
    for trial in range(48):
        inst = generate(SyntheticConfig(n_ports=int(rng.integers(2, 7)), n_coflows=int(rng.integers(2, 10)),
                                        kind="dense" if trial % 2 else "combined",
                                        interarrival_range=(1, 30), seed=700 + trial))
        inst = assign_weights(inst, "uniform-random", seed=700 + trial)
        capacity = (1.0, 2.5, 0.75, 3)[trial % 4]
        inst = CoflowInstance(inst.n_ports, [
            Coflow({pair: size * capacity for pair, size in cf.demands.items()}, release=cf.release, weight=cf.weight)
            for cf in inst.coflows], capacity)
        sizes = np.array(inst.flow_sizes)
        choice = rng.integers(0, 6, len(sizes))
        left = np.select([choice == 0, choice == 1, choice == 2, choice == 3, choice == 4],
                         [sizes, sizes * rng.random(len(sizes)), np.full(len(sizes), 1e-9),
                          np.full(len(sizes), 4e-10), np.zeros(len(sizes))],
                         np.nextafter(1e-9, 1.0))
        offsets = inst.flow_offsets
        for k in rng.choice(inst.num_coflows, int(rng.integers(0, inst.num_coflows // 2 + 1)), replace=False):
            left[offsets[k]:offsets[k + 1]] = 0.0  # finished
        now = float(rng.uniform(inst.releases.min(), inst.releases.max() + 1.0))
        left[inst.releases[[key.coflow for key in inst.flow_keys]] > now] = 0.0
        yield inst, left, now
        if trial % 8 == 0:
            yield inst, np.zeros(len(sizes)), now  # nothing left


def _rows_among(inst, other) -> np.ndarray:
    """The rows of ``other``'s ports in use among those of ``inst``."""
    split, other_split = inst.num_source_ports, other.num_source_ports
    return np.concatenate((np.searchsorted(inst.ports[:split], other.ports[:other_split]),
                           split + np.searchsorted(inst.ports[split:], other.ports[other_split:])))


def test_residual_matches_the_instance_of_the_remaining_demands():
    seen_empty = seen_floor = seen_kept = 0
    for inst, left, now in _residual_cases():
        got = residual(inst, left, now)
        expected, expected_ids = residual_instance(inst, dict(zip(inst.flow_keys, left.tolist())), now)
        assert got.ids.tolist() == expected_ids and got.ids.dtype == np.int64
        assert got.num_coflows == expected.num_coflows == len(expected_ids)
        for name in ("time_loads", "releases", "weights"):
            want = getattr(expected, name)
            value = getattr(got, name)
            assert not value.flags.writeable
            if name == "time_loads":
                # the residual keeps the instance's rows; the reference uses
                # fewer ports, whose rows sit at theirs in the instance
                rows = _rows_among(inst, expected)
                assert not np.delete(value, rows, axis=0).any()
                value = value[rows]
            assert (value.dtype, value.shape, value.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert not got.ids.flags.writeable
        seen_empty += not expected_ids
        seen_kept += len(expected_ids) >= 3
        seen_floor += bool(((left > 0.0) & (left <= 1e-9)).any())
    assert seen_empty >= 5 and seen_floor >= 30 and seen_kept >= 10


def _unique_load_matrix(instance, keep, amounts):
    # the reference: the kept flows' coflows numbered by np.unique
    ids, of = np.unique(instance.flow_coflows[keep], return_inverse=True)
    rows, kk = len(instance.ports), len(ids)
    cells = np.concatenate((instance.flow_source_rows[keep] * kk + of, instance.flow_dest_rows[keep] * kk + of))
    return ids, np.bincount(cells, np.concatenate((amounts, amounts)), minlength=rows * kk).reshape(rows, kk)


def test_load_matrix_numbers_the_kept_coflows_as_unique_does():
    inst = generate(SyntheticConfig(n_ports=6, n_coflows=12, kind="combined", seed=4))
    sizes = np.array(inst.flow_sizes)
    rng = np.random.default_rng(9)
    keeps = [
        slice(None),                                                   # the instance's own
        np.arange(0),                                                  # nothing kept
        np.flatnonzero(~np.isin(inst.flow_coflows, [0, 5, 11])),       # whole coflows dropped
        *(np.flatnonzero(rng.random(len(sizes)) < share) for share in rng.random(200)),
    ]
    for keep in keeps:
        got = _load_matrix(inst, keep, sizes[keep])
        want = _unique_load_matrix(inst, keep, sizes[keep])
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_flow_arrays_are_the_flow_key_columns_built_once():
    inst = generate(SyntheticConfig(n_ports=5, n_coflows=6, kind="combined", interarrival_range=(1, 30), seed=3))
    names = ("flow_source_rows", "flow_dest_rows", "flow_coflows")
    for name, column in zip(names, zip(*inst.flow_keys)):
        array = getattr(inst, name)
        labels = array if name == "flow_coflows" else inst.ports[array]  # a port's row names its label
        assert array.dtype == np.int64 and labels.tolist() == list(column)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert not inst.ports.flags.writeable
    # a run keeps no ports or FlowKeys of its own, only a Python copy of the flows' coflows
    first, second = FluidRun(inst), FluidRun(inst)
    for run in (second, first):
        assert not any(hasattr(run, name) for name in ("flows", "source", "dest", "coflow"))
        assert run._coflow == inst.flow_coflows.tolist()
    assert first.flow_release.tolist() == [inst.coflows[k].release for k in inst.flow_coflows.tolist()]


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
    prefix_loads = np.cumsum(inst.node_loads[:, [2, 0, 1]], axis=1)
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


def test_instance_file_with_a_repeated_pair_is_rejected():
    # one coflow, two flows on (0, 1): neither size may be dropped silently
    data = {"n_ports": 2, "coflows": [{"flows": [{"src": 0, "dst": 1, "size": 1.0},
                                                  {"src": 1, "dst": 0, "size": 1.0},
                                                  {"src": 0, "dst": 1, "size": 2.0}]}]}
    with pytest.raises(ValueError, match="coflow 0: flows 0 and 2 both run from port 0 to port 1"):
        instance_from_dict(data)


def test_flows_are_built_once_in_coflow_source_dest_order():
    inst = CoflowInstance(3, [Coflow({(2, 0): 1.0, (0, 1): 2}), Coflow({(1, 1): 0.5, (0, 2): 3.0})])
    assert list(zip(inst.flow_keys, inst.flow_sizes)) == [
        (FlowKey(0, 1, 0), 2), (FlowKey(2, 0, 0), 1.0),
        (FlowKey(0, 2, 1), 3.0), (FlowKey(1, 1, 1), 0.5),
    ]
    # the sizes are the instance's own numbers, an int stays an int
    assert type(inst.flow_sizes[0]) is int
    assert inst.flow_keys is inst.flow_keys and inst.flow_sizes is inst.flow_sizes
