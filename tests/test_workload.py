import pathlib

import numpy as np
import pytest

from coflowsched.workload import (
    SyntheticConfig,
    TraceRecord,
    assign_weights,
    generate,
    ingest_trace,
    parse_trace_csv,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_dense_flow_counts_in_range():
    inst = generate(SyntheticConfig(n_ports=2, n_coflows=40, kind="dense", seed=0))
    for cf in inst.coflows:
        assert 2 <= len(cf.demands) <= 4


def test_generation_is_deterministic():
    cfg = SyntheticConfig(n_ports=4, n_coflows=10, kind="combined", seed=42)
    a = generate(cfg)
    b = generate(cfg)
    for x, y in zip(a.coflows, b.coflows):
        assert x.demands == y.demands
        assert x.release == y.release


def test_combined_sparse_fraction_near_half():
    inst = generate(
        SyntheticConfig(n_ports=16, n_coflows=10_000, kind="combined",
                        interarrival_range=None, seed=7)
    )
    # sparse coflows have at most N flows; dense ones hit exactly N only
    # once in N^2 - N + 1 draws, so the <= N fraction sits at ~0.502
    frac = sum(1 for cf in inst.coflows if len(cf.demands) <= 16) / 10_000
    assert frac == pytest.approx(0.502, abs=0.02)


def test_dense_mean_flow_count_concentrates():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=2000, kind="dense",
                                    interarrival_range=None, seed=11))
    mean = np.mean([len(cf.demands) for cf in inst.coflows])
    assert mean == pytest.approx((4 + 16) / 2, abs=0.5)


def test_release_modes():
    zero = generate(SyntheticConfig(n_ports=4, n_coflows=10, kind="dense",
                                    interarrival_range=None, seed=1))
    assert all(cf.release == 0 for cf in zero.coflows)
    spread = generate(SyntheticConfig(n_ports=4, n_coflows=10, kind="dense", seed=1))
    releases = [cf.release for cf in spread.coflows]
    assert all(b - a >= 1.0 for a, b in zip(releases, releases[1:]))
    assert releases[0] >= 1.0


def test_generated_sizes_respect_range():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=30, kind="dense",
                                    size_range=(5, 9), seed=3))
    sizes = [s for cf in inst.coflows for s in cf.demands.values()]
    assert min(sizes) >= 5 and max(sizes) <= 9
    assert all(float(s).is_integer() for s in sizes)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(kind="bogus")
    with pytest.raises(ValueError):
        SyntheticConfig(n_ports=0)
    with pytest.raises(ValueError):
        SyntheticConfig(size_range=(5, 2))


def test_unit_weights():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=5, kind="dense", seed=0))
    out = assign_weights(inst, "unit")
    assert all(cf.weight == 1.0 for cf in out.coflows)


def test_random_weights_deterministic_and_positive():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=50, kind="dense", seed=0))
    a = assign_weights(inst, "uniform-random", seed=9)
    b = assign_weights(inst, "uniform-random", seed=9)
    assert [cf.weight for cf in a.coflows] == [cf.weight for cf in b.coflows]
    assert all(0 < cf.weight <= 1 for cf in a.coflows)


def test_random_weights_mean_near_half():
    inst = generate(SyntheticConfig(n_ports=2, n_coflows=10_000, kind="combined",
                                    size_range=(1, 2), seed=2))
    out = assign_weights(inst, "uniform-random", seed=4)
    mean = float(np.mean([cf.weight for cf in out.coflows]))
    assert mean == pytest.approx(0.5, abs=0.02)


def test_ingest_spreads_reducer_volume_over_mappers():
    rec = TraceRecord("x", 0, [0, 1], [(2, 10.0)])
    inst = ingest_trace([rec], 4)
    assert inst.coflows[0].demands == {(0, 2): 5.0, (1, 2): 5.0}
    assert inst.capacity == 128.0


def test_ingest_release_scaling():
    rec = TraceRecord("x", 20000, [0], [(1, 8.0)])
    inst = ingest_trace([rec], 2, mode="with-releases")
    assert inst.coflows[0].release == pytest.approx(2.0)
    inst0 = ingest_trace([rec], 2, mode="zero-release")
    assert inst0.coflows[0].release == 0.0


def test_ingest_filter_drops_small_coflows():
    small = TraceRecord("s", 0, [0, 1], [(2, 4.0), (3, 4.0)])  # 4 flows
    big = TraceRecord("b", 0, list(range(4)), [(0, 4.0), (1, 4.0), (2, 4.0)])  # 12 flows
    inst = ingest_trace([small, big], 4, min_flows_filter=10)
    assert inst.num_coflows == 1
    with pytest.raises(ValueError):
        ingest_trace([small], 4, min_flows_filter=10)


def test_ingest_conserves_volume():
    records = parse_trace_csv(DATA / "mini_trace.csv")
    inst = ingest_trace(records, 4)
    total_mb = sum(mb for rec in records for _, mb in rec.reducer_entries)
    assert inst.total_demand == pytest.approx(total_mb, rel=1e-9)


def test_ingest_bad_rack_index():
    rec = TraceRecord("x", 0, [9], [(1, 8.0)])
    with pytest.raises(ValueError):
        ingest_trace([rec], 4)


def test_parse_trace_csv():
    records = parse_trace_csv(DATA / "mini_trace.csv")
    assert [r.coflow_id for r in records] == ["job0", "job1", "job2", "job3"]
    assert records[1].reducer_entries == [(1, 128.0), (2, 64.0)]


def test_trace_record_validation():
    with pytest.raises(ValueError):
        TraceRecord("x", 0, [], [(1, 8.0)])
    with pytest.raises(ValueError):
        TraceRecord("x", 0, [0], [(1, 0.0)])


def test_generated_instances_pass_model_invariants():
    for seed in range(5):
        inst = generate(SyntheticConfig(n_ports=4, n_coflows=8, kind="combined", seed=seed))
        assert inst.num_coflows == 8
        for cf in inst.coflows:
            assert cf.max_port < 4
            assert all(s > 0 for s in cf.demands.values())
