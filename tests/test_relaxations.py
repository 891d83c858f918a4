import numpy as np
import pytest

from coflowsched import lpcore
from coflowsched.model import Coflow, CoflowInstance, prefix_bottlenecks
from coflowsched.relaxations import (
    _build_reduced_ordering_lp,
    build_interval_lp,
    build_ordering_lp,
    interval_grid,
    lp_lower_bound,
    solve_interval_lp,
    solve_ordering_lp,
)
from coflowsched.verify import (
    blocking_pair_fixture,
    equal_bottleneck_fixture,
    oracle_opt,
    staggered_release_fixture,
)
from coflowsched.workload import SyntheticConfig, generate


def test_single_coflow_lp_optimum():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0)])
    sol = lpcore.solve(build_ordering_lp(inst))
    assert sol.objective_value == pytest.approx(5.0)


def test_structural_counts():
    for n, k in [(2, 3), (3, 4), (4, 6)]:
        rng = np.random.default_rng(n * 10 + k)
        coflows = [
            Coflow({(int(rng.integers(n)), int(rng.integers(n))): float(rng.integers(1, 9))})
            for _ in range(k)
        ]
        inst = CoflowInstance(n, coflows)
        prob = build_ordering_lp(inst)
        assert prob.num_vars == k + k * (k - 1)
        assert len(prob.constraints) == 2 * n * k + k + k * (k - 1) // 2


def test_equal_bottleneck_ordering_prefers_singles():
    res = solve_ordering_lp(equal_bottleneck_fixture())
    assert res.ordering.index(1) < res.ordering.index(0)
    assert res.ordering.index(2) < res.ordering.index(0)


def test_staggered_release_lower_bounds():
    res = solve_ordering_lp(staggered_release_fixture())
    assert (res.f_tilde >= np.array([1.0, 3.0, 3.0, 3.0]) - 1e-9).all()


def test_single_coflow_result():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0, weight=2.0)])
    res = solve_ordering_lp(inst)
    assert res.ordering == [0]
    assert res.objective == pytest.approx(2.0 * 5.0)


def test_identical_coflows_tie_broken_by_id():
    inst = CoflowInstance(2, [Coflow({(0, 0): 2.0}), Coflow({(0, 0): 2.0})])
    res = solve_ordering_lp(inst)
    assert res.ordering == [0, 1]


def test_blocking_pair_ordering():
    res = solve_ordering_lp(blocking_pair_fixture())
    assert res.ordering == [1, 2, 0]
    assert res.objective == pytest.approx(11.0)


def test_delta_pair_sums_and_range():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=8, kind="combined", seed=3))
    res = solve_ordering_lp(inst)
    kk = inst.num_coflows
    for a in range(kk):
        for b in range(kk):
            if a != b:
                assert res.delta[a, b] + res.delta[b, a] == pytest.approx(1.0)
                assert -1e-9 <= res.delta[a, b] <= 1 + 1e-9
    # completion times dominate release plus bottleneck
    from coflowsched.model import effective_size

    for k, cf in enumerate(inst.coflows):
        assert res.f_tilde[k] >= cf.release + effective_size(cf, 4) - 1e-6
    # sorted order is nondecreasing
    f_sorted = res.f_tilde[res.ordering]
    assert (np.diff(f_sorted) >= -1e-9).all()


def test_lower_bound_single_coflow_exact():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0, weight=3.0)])
    assert lp_lower_bound(inst) == pytest.approx(15.0)


def test_lower_bound_below_oracle():
    assert lp_lower_bound(staggered_release_fixture()) <= 12.0 + 1e-9
    for seed in range(8):
        inst = generate(
            SyntheticConfig(
                n_ports=2,
                n_coflows=3,
                kind="combined",
                size_range=(1, 2),
                interarrival_range=None,
                seed=seed,
            )
        )
        if inst.total_demand > 12:
            continue
        assert lp_lower_bound(inst) <= oracle_opt(inst).optimal_value + 1e-6


def test_reduced_formulation_matches_full():
    for seed in range(12):
        inst = generate(
            SyntheticConfig(
                n_ports=3,
                n_coflows=int(3 + seed % 4),
                kind="combined",
                interarrival_range=(1, 10) if seed % 2 else None,
                seed=seed,
            )
        )
        full = lpcore.solve(build_ordering_lp(inst))
        reduced = lpcore.solve(_build_reduced_ordering_lp(inst))
        assert full.objective_value == pytest.approx(reduced.objective_value, rel=1e-7)


def test_prefix_halving_property_random_sweep():
    # relaxed completions dominate half the cumulative bottleneck load
    checked = 0
    for seed in range(30):
        inst = generate(
            SyntheticConfig(
                n_ports=4,
                n_coflows=6,
                kind="combined",
                interarrival_range=(1, 50) if seed % 2 else None,
                seed=100 + seed,
            )
        )
        res = solve_ordering_lp(inst)
        for k, peak in enumerate(prefix_bottlenecks(inst, res.ordering), start=1):
            assert res.f_tilde[res.ordering[k - 1]] >= peak / 2 - 1e-6
        checked += 1
    assert checked == 30


def test_interval_grid_doubles_to_horizon():
    inst = staggered_release_fixture()  # horizon 8
    assert interval_grid(inst).tolist() == [0.0, 1.0, 2.0, 4.0, 8.0]


def test_interval_assignment_forced_past_bottleneck():
    inst = CoflowInstance(2, [Coflow({(0, 0): 4.0})])
    res = solve_interval_lp(inst)
    assert res.interval_endpoints.tolist() == [0.0, 1.0, 2.0, 4.0]
    assert res.x[0].tolist() == pytest.approx([0.0, 0.0, 1.0])
    assert res.relaxed_completions[0] == pytest.approx(2.0)


def test_interval_lp_ordering_matches_worked_example():
    res = solve_interval_lp(equal_bottleneck_fixture())
    assert res.ordering.index(1) < res.ordering.index(0)
    assert res.ordering.index(2) < res.ordering.index(0)


def test_interval_assignments_sum_to_one():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=6, kind="dense", seed=9))
    res = solve_interval_lp(inst)
    assert res.x.sum(axis=1) == pytest.approx(np.ones(6))
    assert ((res.x > -1e-9) & (res.x < 1 + 1e-9)).all()


def test_empty_instance_rejected():
    inst = CoflowInstance(2, [])
    with pytest.raises(ValueError):
        build_ordering_lp(inst)
    with pytest.raises(ValueError):
        build_interval_lp(inst)


@pytest.mark.parametrize("scale", [2.0**-30, 1e-9, 1e-6, 1e6, 1e9, 2.0**30])
def test_ordering_lp_does_not_depend_on_units(scale):
    # every size and release multiplied by the same factor: the relaxed
    # completions scale with it and the ordering stays
    for seed in range(8):
        inst = generate(SyntheticConfig(n_ports=5, n_coflows=10, kind="dense", seed=seed))
        scaled = CoflowInstance(
            inst.n_ports,
            [
                Coflow({pair: size * scale for pair, size in cf.demands.items()},
                       release=cf.release * scale, weight=cf.weight)
                for cf in inst.coflows
            ],
            inst.capacity,
        )
        base = solve_ordering_lp(inst)
        got = solve_ordering_lp(scaled)
        assert got.ordering == base.ordering
        np.testing.assert_allclose(got.f_tilde / scale, base.f_tilde, rtol=1e-9, atol=0.0)
