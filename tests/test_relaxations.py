import collections
import math

import numpy as np
import pytest

from conftest import GOLDEN_INSTANCES, golden_instance

from coflowsched import lpcore, schedulers
from coflowsched.model import Coflow, CoflowInstance, prefix_bottlenecks
from coflowsched.relaxations import (
    WarmStart,
    _bssi_order,
    _build_reduced_ordering_lp,
    _mapped_basis,
    _ordering_crash_basis,
    _port_row_keys,
    build_interval_lp,
    build_ordering_lp,
    delta_index,
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
from coflowsched.workload import SyntheticConfig, assign_weights, generate


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


def test_lower_bound_is_the_certified_dual_bound():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=8, kind="combined", seed=3))
    res = solve_ordering_lp(inst)
    certificate = lpcore.certify(_build_reduced_ordering_lp(inst), res.solution.values, res.solution.duals)
    assert certificate.ok
    assert lp_lower_bound(inst) == certificate.dual_bound
    assert lp_lower_bound(inst, res) == certificate.dual_bound
    assert abs(certificate.dual_bound - res.objective) <= 1e-9 * res.objective


def test_lower_bound_refuses_duals_that_do_not_certify(monkeypatch):
    solve_once = lpcore._solve_once

    def wrong_duals(*args, **kwargs):
        sol = solve_once(*args, **kwargs)
        sol.duals[0] = -1.0  # a >= row
        return sol

    monkeypatch.setattr(lpcore, "_solve_once", wrong_duals)
    with pytest.raises(lpcore.CertificateError, match=r"dual sign: y\[0\]"):
        solve_ordering_lp(staggered_release_fixture())


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


@pytest.mark.parametrize("scale", [2.0**-50, 1e-15, 2.0**-30, 1e-9, 1e-6, 1e6, 1e9, 2.0**30])
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


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the reduced LP keeps rows of coflow 1 on ports it does not load; "
                          "the simplex returns f_1 = 0 against the release row f_1 >= 1/3")
def test_coflows_that_share_no_port():
    # solves at a size of 1e5; at 2e5 the rows f_1 + 2e5 p >= 2e5 of
    # (src 0, coflow 1) and (dst 0, coflow 1) outweigh the release row
    inst = CoflowInstance(2, [Coflow({(0, 0): 2e5}), Coflow({(1, 1): 1 / 3})])
    res = solve_ordering_lp(inst)
    np.testing.assert_allclose(res.f_tilde, [2e5, 1 / 3], rtol=1e-9)
    assert res.ordering == [1, 0]


@pytest.mark.xfail(strict=True, raises=lpcore.CertificateError,
                   reason="mixed size ranges on one port: the simplex's snap and tolerances follow "
                          "the largest scale, and the answer fails its certificate's row checks")
def test_coflows_of_mixed_sizes_on_one_port():
    res = solve_ordering_lp(CoflowInstance(1, [Coflow({(0, 0): 100.0}), Coflow({(0, 0): 1e-4})]))
    # HiGHS: objective 100.0002
    np.testing.assert_allclose(res.f_tilde, [100.0001, 1e-4], rtol=1e-9)
    assert res.ordering == [1, 0]


# -- the array builders against row-by-row references ------------------------
#
# The references below write each LP row by row into {column: value} maps,
# the way the builders did before they wrote coordinate arrays; the solver
# turned such rows into arrays in row order, columns in insertion order.
# The array builders must give the same arrays bit for bit, so that the
# simplex sees the same input and takes the same pivots.

_TOL = 1e-12


def _reference_ordering_lp(instance):
    kk, loads = instance.num_coflows, instance.time_loads
    n = loads.shape[0] // 2
    num_vars = kk + kk * (kk - 1)
    bounds = [(0.0, math.inf)] * kk + [(0.0, 1.0)] * (num_vars - kk)
    rows = []
    for s in range(2 * n):
        for k in range(kk):
            coeffs = {k: 1.0}
            for kp in range(kk):
                if kp != k and loads[s, kp] > _TOL:
                    coeffs[delta_index(kk, kp, k)] = -loads[s, kp]
            rows.append((coeffs, ">=", loads[s, k]))
    for k in range(kk):
        rows.append(({k: 1.0}, ">=", loads[:, k].max() + instance.releases[k]))
    for a in range(kk):
        for b in range(a + 1, kk):
            rows.append(({delta_index(kk, a, b): 1.0, delta_index(kk, b, a): 1.0}, "==", 1.0))
    return _reference_problem(instance, num_vars, bounds, rows)


def _reference_pair_index(kk, a, b):
    return kk + a * kk - a * (a + 1) // 2 + (b - a - 1)


def _reference_reduced_lp(instance):
    kk, loads = instance.num_coflows, instance.time_loads
    n = loads.shape[0] // 2
    num_vars = kk + kk * (kk - 1) // 2
    bounds = [(0.0, math.inf)] * kk + [(0.0, 1.0)] * (num_vars - kk)
    rows = []
    for s in range(2 * n):
        users = np.flatnonzero(loads[s] > _TOL)
        if users.size == 0:
            continue
        total = float(loads[s].sum())
        for k in range(kk):
            if total - loads[s, k] <= _TOL:
                continue
            coeffs = {k: 1.0}
            rhs = loads[s, k]
            for kp in users:
                if kp < k:
                    coeffs[_reference_pair_index(kk, kp, k)] = loads[s, kp]
                    rhs += loads[s, kp]
                elif kp > k:
                    coeffs[_reference_pair_index(kk, k, kp)] = -loads[s, kp]
            rows.append((coeffs, ">=", rhs))
    for k in range(kk):
        rows.append(({k: 1.0}, ">=", loads[:, k].max() + instance.releases[k]))
    return _reference_problem(instance, num_vars, bounds, rows)


def _reference_problem(instance, num_vars, bounds, rows):
    objective = np.zeros(num_vars)
    objective[: instance.num_coflows] = instance.weights.tolist()
    return objective, bounds, rows


def _reference_interval_lp(instance):
    kk, loads = instance.num_coflows, instance.time_loads
    n = loads.shape[0] // 2
    grid = interval_grid(instance)
    nl = len(grid) - 1
    objective = np.zeros(kk * nl)
    bounds = [None] * (kk * nl)
    rows = []
    for k in range(kk):
        earliest = instance.releases[k] + loads[:, k].max()
        for l in range(nl):
            objective[k * nl + l] = instance.weights[k] * grid[l]
            bounds[k * nl + l] = (0.0, 0.0 if grid[l + 1] < earliest - 1e-9 else 1.0)
        rows.append(({k * nl + l: 1.0 for l in range(nl)}, "==", 1.0))
    for s in range(2 * n):
        if loads[s].sum() <= _TOL:
            continue
        for l in range(nl):
            coeffs = {}
            for k in range(kk):
                if loads[s, k] > _TOL:
                    for lp in range(l + 1):
                        coeffs[k * nl + lp] = loads[s, k]
            rows.append((coeffs, "<=", grid[l + 1]))
    return objective, bounds, rows


def _reference_bssi_order(instance):
    # from the last position back: the port with the most load left, then
    # the remaining coflow of least weight per load on it; every sum is a
    # plain left-to-right float sum (the builtin sum is compensated from
    # Python 3.12 on)
    kk = instance.num_coflows
    loads = instance.time_loads.tolist()
    weight = instance.weights.tolist()
    remaining = list(range(kk))
    order = []
    while remaining:
        left = []
        for row in loads:
            total = 0.0
            for k in remaining:
                total += row[k]
            left.append(total)
        port = loads[left.index(max(left))]
        ratio, last = min((weight[k] / port[k], k) for k in remaining if port[k] > 0.0)
        remaining.remove(last)
        for k in remaining:
            weight[k] -= ratio * port[k]
        order.append(last)
    return order[::-1]


def _reference_crash_basis(instance, rows):
    kk = instance.num_coflows
    rank = {k: p for p, k in enumerate(_reference_bssi_order(instance))}
    at_upper = [
        _reference_pair_index(kk, a, b)
        for a in range(kk)
        for b in range(a + 1, kk)
        if rank[b] < rank[a]
    ]
    upper_set = set(at_upper)
    best_row = {}
    for idx, (coeffs, _, rhs) in enumerate(rows):
        k = next(j for j, c in coeffs.items() if j < kk and c == 1.0)
        at_upper_sum = 0.0
        for j, c in coeffs.items():
            if j in upper_set:
                at_upper_sum += c
        eff_rhs = rhs - at_upper_sum
        if k not in best_row or eff_rhs > best_row[k][0]:
            best_row[k] = (eff_rhs, idx)
    kernel = sorted((idx, k) for k, (_, idx) in best_row.items())
    return [idx for idx, _ in kernel], [k for _, k in kernel], at_upper


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _assert_same_lp(prob, reference):
    objective, bounds, rows = reference
    sizes = [len(coeffs) for coeffs, _, _ in rows]
    expected = {
        "row_of": np.repeat(np.arange(len(rows)), sizes),
        "col_of": np.fromiter((j for coeffs, _, _ in rows for j in coeffs), dtype=np.int64),
        "val": np.fromiter((c for coeffs, _, _ in rows for c in coeffs.values()), dtype=float),
        "rhs": np.array([float(rhs) for _, _, rhs in rows]),
        "rel": np.array([lpcore.RELATIONS.index(rel) for _, rel, _ in rows], dtype=np.int8),
        "upper": np.array([hi for _, hi in bounds]),
        "objective": objective,
    }
    assert all(lo == 0.0 for lo, _ in bounds)
    for name, array in expected.items():
        assert _same_bits(getattr(prob, name), array), name


def _random_scaled_instances(count):
    rng = np.random.default_rng(2024)
    for seed in range(count):
        inst = generate(
            SyntheticConfig(
                n_ports=int(rng.integers(3, 9)),
                n_coflows=int(rng.integers(4, 13)),
                kind="dense" if seed % 2 else "combined",
                interarrival_range=(1, 50),
                seed=300 + seed,
            )
        )
        inst = assign_weights(inst, "uniform-random", seed=300 + seed)
        factor = float(rng.uniform(0.01, 100.0))
        yield CoflowInstance(
            inst.n_ports,
            [
                Coflow({pair: size * factor for pair, size in cf.demands.items()},
                       release=cf.release, weight=cf.weight)
                for cf in inst.coflows
            ],
            inst.capacity,
        )


def _online_residual_instances(monkeypatch):
    """Every residual that lp-ov-ls-online hands to the ordering LP, as
    ``model.OrderingInputs``, with the ``WarmStart`` it passes (None for
    the first), on two instances shaped like the online benchmark
    workload."""
    seen = []
    solve = schedulers.solve_ordering_lp

    def recording(instance, warm=None):
        seen.append((instance, warm))
        return solve(instance, warm)

    monkeypatch.setattr(schedulers, "solve_ordering_lp", recording)
    for seed in (10_000, 10_001):
        schedulers.lp_ov_ls_online(generate(
            SyntheticConfig(n_ports=8, n_coflows=20, kind="dense", interarrival_range=(1, 100), seed=seed)
        ))
    monkeypatch.undo()
    assert len(seen) >= 30
    return seen


def _assert_reduced_lp_matches(instance):
    reduced = _build_reduced_ordering_lp(instance)
    reference = _reference_reduced_lp(instance)
    _assert_same_lp(reduced, reference)
    start = _ordering_crash_basis(instance, reduced)
    for got, expected in zip(start, _reference_crash_basis(instance, reference[2]), strict=True):
        assert _same_bits(got, np.array(expected, dtype=np.int64))


def _assert_builders_match(instance):
    _assert_same_lp(build_ordering_lp(instance), _reference_ordering_lp(instance))
    _assert_reduced_lp_matches(instance)
    _assert_same_lp(build_interval_lp(instance)[0], _reference_interval_lp(instance))


@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_array_builders_match_row_by_row_reference_on_golden_instances(name):
    _assert_builders_match(golden_instance(name))


def test_array_builders_match_row_by_row_reference_on_scaled_random_instances():
    for instance in _random_scaled_instances(20):
        _assert_builders_match(instance)


def test_reduced_lp_and_crash_basis_match_reference_on_online_residuals(monkeypatch):
    for instance, _ in _online_residual_instances(monkeypatch):
        _assert_reduced_lp_matches(instance)


# -- the BSSI crash start ------------------------------------------------------


def test_bssi_order_by_hand():
    # one port: BSSI is Smith's rule, largest weight per size first
    one_port = CoflowInstance(1, [Coflow({(0, 0): size}, weight=w) for size, w in [(1, 3), (2, 2), (3, 1)]])
    assert _bssi_order(one_port) == [0, 1, 2]
    # two ports, unit weights: coflows 0 and 1 share source 0 with sizes 3
    # and 2, coflow 2 sends 4 from source 1.  Source 0 carries 5 > 4 (so
    # does destination 0, a higher port), and of its users coflow 0 has the
    # least weight per load (1/3), so it goes last; coflow 1's weight drops
    # to 1 - 2/3 = 1/3.  Of coflows 1 and 2, source 1 now carries 4 > 2, so
    # coflow 2 goes before coflow 0: the order is [1, 2, 0].  The greedy key
    # bottleneck / weight (3, 2, 4) would give [1, 0, 2].
    two_ports = CoflowInstance(2, [Coflow({(0, 0): 3.0}), Coflow({(0, 0): 2.0}), Coflow({(1, 1): 4.0})])
    assert _bssi_order(two_ports) == [1, 2, 0]
    # loads that underflow to 0 give no ratio: those coflows go first, by id
    tiny = Coflow({(0, 0): 1e-300})
    underflow = CoflowInstance(2, [tiny, Coflow({(1, 1): 3.0}), tiny], capacity=1e100)
    assert _bssi_order(underflow) == [0, 2, 1]


def _random_instances(count):
    rng = np.random.default_rng(2026)
    for seed in range(count):
        inst = generate(
            SyntheticConfig(
                n_ports=int(rng.integers(3, 9)),
                n_coflows=int(rng.integers(4, 13)),
                kind="dense" if seed % 2 else "combined",
                interarrival_range=(1, 50) if seed % 4 >= 2 else None,
                seed=500 + seed,
            )
        )
        yield assign_weights(inst, "uniform-random" if seed % 8 >= 4 else "unit", seed=500 + seed)


def _assert_crash_start_is_accepted_and_optimal(instance, warm=None):
    # the crash start, a cold start and, given an earlier residual LP, its
    # basis mapped onto this one reach the same optimum and the same
    # ordering, with completion times f~ equal to 1e-9 relative
    prob = _build_reduced_ordering_lp(instance)
    crash = _ordering_crash_basis(instance, prob)
    crashed = lpcore.solve(prob, crash)
    assert crashed.stats.start_use == "primal"
    assert not crashed.stats.phase1 and not crashed.stats.cold_retry
    solutions = [crashed, lpcore.solve(prob)]
    kk = instance.num_coflows
    if warm is not None:
        start = _mapped_basis(warm, instance, crash)
        # on these instances the re-pairing of lone kernel rows and columns
        # keeps every completion column basic
        assert set(range(kk)) <= set(np.asarray(start.columns).tolist())
        mapped = lpcore.solve(prob, (start, crash))
        assert mapped.stats.crash_accepted
        assert not mapped.stats.phase1 and not mapped.stats.cold_retry
        solutions.append(mapped)
    for sol in solutions[1:]:
        assert sol.certificate.ok
        assert sol.objective_value == pytest.approx(crashed.objective_value, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(sol.values[:kk], crashed.values[:kk], rtol=1e-9, atol=0.0)
        assert _ordering_of(sol.values[:kk]) == _ordering_of(crashed.values[:kk])
    return solutions


def _ordering_of(f_tilde):
    # as solve_ordering_lp orders: f~ ascending, ties to the lower id
    return sorted(range(len(f_tilde)), key=lambda k: (f_tilde[k], k))


@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_bssi_crash_is_accepted_and_optimal_on_golden_instances(name):
    _assert_crash_start_is_accepted_and_optimal(golden_instance(name))


def test_bssi_crash_is_accepted_and_optimal_on_random_instances():
    for instance in _random_instances(20):
        _assert_crash_start_is_accepted_and_optimal(instance)


def test_singular_mapped_start_falls_back_to_the_crash():
    # a warm start whose kernel pairs the release rows of coflows 0 and 1
    # with f_0 and the pair column of (0, 1), which no release row holds:
    # the kernel [[1, 0], [0, 0]] is singular, so the BSSI crash is used,
    # bit for bit as without the warm start, and phase 1 never runs
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=6, kind="dense", seed=5))
    kk = inst.num_coflows
    release_row = len(_port_row_keys(inst.time_loads)[0])
    warm = WarmStart(inst, lpcore.Basis([release_row, release_row + 1], [0, kk]), np.arange(kk))
    assert list(_mapped_basis(warm, inst, _ordering_crash_basis(inst, _build_reduced_ordering_lp(inst)))[0]) \
        == [release_row, release_row + 1]
    got, plain = solve_ordering_lp(inst, warm), solve_ordering_lp(inst)
    assert got.solution.stats.start_use == "fallback"
    assert not got.solution.stats.phase1
    assert got.f_tilde.tobytes() == plain.f_tilde.tobytes()
    assert got.ordering == plain.ordering
    assert got.solution.stats.pivots == plain.solution.stats.pivots


def test_bssi_crash_is_accepted_and_optimal_on_online_residuals(monkeypatch):
    uses = collections.Counter()
    for instance, warm in _online_residual_instances(monkeypatch):
        uses[_assert_crash_start_is_accepted_and_optimal(instance, warm)[-1].stats.start_use] += 1
    # the mapped starts take each path, and seldom give way to the crash
    assert uses["primal"] and uses["dual-flips"] and uses["dual-artificial"]
    assert uses["fallback"] <= 0.2 * sum(uses.values())
