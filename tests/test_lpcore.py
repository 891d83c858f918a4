import itertools

import numpy as np
import pytest

from coflowsched import lpcore
from coflowsched.lpcore import LpProblem, check_feasible, solve
from coflowsched.model import effective_size, node_load_matrix
from coflowsched.relaxations import build_ordering_lp, delta_index
from coflowsched.verify import equal_bottleneck_fixture, staggered_release_fixture


def test_single_binding_constraint():
    p = LpProblem(1, objective=[1.0])
    p.add_constraint({0: 1.0}, ">=", 3.0)
    s = solve(p)
    assert s.status == lpcore.OPTIMAL
    assert s.objective_value == pytest.approx(3.0)
    assert s.values[0] == pytest.approx(3.0)


def test_symmetric_cone():
    p = LpProblem(2, objective=[1.0, 1.0])
    p.add_constraint({0: 1.0, 1: 1.0}, ">=", 2.0)
    s = solve(p)
    assert s.status == lpcore.OPTIMAL
    assert s.objective_value == pytest.approx(2.0)


def _integral_ordering_value(instance, perm):
    # completion times forced by an integral precedence order
    loads = node_load_matrix(instance)
    value = 0.0
    for pos, k in enumerate(perm):
        best = instance.coflows[k].release + effective_size(
            instance.coflows[k], instance.n_ports
        )
        for s in range(loads.shape[0]):
            before = sum(loads[s, kp] for kp in perm[:pos])
            best = max(best, loads[s, k] + before)
        value += instance.coflows[k].weight * best
    return value


def test_lp_relaxation_below_best_integral_ordering():
    inst = equal_bottleneck_fixture()
    lp_value = solve(build_ordering_lp(inst)).objective_value
    best = min(
        _integral_ordering_value(inst, perm)
        for perm in itertools.permutations(range(3))
    )
    assert lp_value <= best + 1e-9
    assert best == pytest.approx(4.0)


def test_staggered_ip_point_is_feasible():
    # integral ordering variables and completions for the staggered fixture;
    # non-incident pairs (0,3) and (1,2) get an arbitrary direction
    inst = staggered_release_fixture()
    prob = build_ordering_lp(inst)
    kk = 4
    x = np.zeros(prob.num_vars)
    x[:4] = [1.0, 3.0, 3.0, 4.0]
    for a, b in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]:
        x[delta_index(kk, a, b)] = 1.0
    report = check_feasible(prob, x)
    assert report.ok, report.violations


def test_zero_completions_infeasible():
    inst = staggered_release_fixture()
    prob = build_ordering_lp(inst)
    x = np.zeros(prob.num_vars)
    report = check_feasible(prob, x)
    assert not report.ok
    # the release rows (past the 2NK port rows) must be among the violations
    port_rows = 2 * inst.n_ports * 4
    assert any(
        v.kind == "row" and port_rows <= v.index < port_rows + 4
        for v in report.violations
    )


def test_solution_feeds_back_feasible():
    inst = staggered_release_fixture()
    prob = build_ordering_lp(inst)
    s = solve(prob)
    assert s.status == lpcore.OPTIMAL
    assert check_feasible(prob, s.values).ok


def test_check_feasible_length_mismatch():
    p = LpProblem(2)
    with pytest.raises(ValueError):
        check_feasible(p, [1.0])


def test_infeasible_and_unbounded_statuses():
    p = LpProblem(1, objective=[1.0])
    p.add_constraint({0: 1.0}, "<=", 1.0)
    p.add_constraint({0: 1.0}, ">=", 2.0)
    assert solve(p).status == lpcore.INFEASIBLE

    p = LpProblem(1, objective=[-1.0])
    p.add_constraint({0: 1.0}, ">=", 1.0)
    assert solve(p).status == lpcore.UNBOUNDED


def test_upper_bounds_and_equality():
    p = LpProblem(2, objective=[-1.0, -2.0])
    p.set_bounds(0, 0.0, 1.0)
    p.set_bounds(1, 0.0, 1.0)
    p.add_constraint({0: 1.0, 1: 1.0}, "<=", 1.5)
    s = solve(p)
    assert s.objective_value == pytest.approx(-2.5)
    assert s.values.tolist() == pytest.approx([0.5, 1.0])

    p = LpProblem(2, objective=[3.0, 1.0])
    p.set_bounds(0, 0.0, 1.0)
    p.set_bounds(1, 0.0, 1.0)
    p.add_constraint({0: 1.0, 1: 1.0}, "==", 1.0)
    s = solve(p)
    assert s.objective_value == pytest.approx(1.0)


def test_shifted_lower_bounds():
    p = LpProblem(1, objective=[1.0], bounds=[(2.0, 10.0)])
    p.add_constraint({0: 1.0}, ">=", 1.0)
    s = solve(p)
    assert s.values[0] == pytest.approx(2.0)


def test_bad_problem_structure():
    p = LpProblem(1)
    with pytest.raises(ValueError):
        p.add_constraint({3: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        p.set_bounds(0, 5.0, 1.0)
    with pytest.raises(ValueError):
        LpProblem(2, objective=[1.0])


def test_determinism():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, n = 6, 4
        p = LpProblem(n, objective=rng.uniform(0.2, 2.0, n))
        for _ in range(m):
            coeffs = {j: float(rng.uniform(0, 2)) for j in range(n)}
            p.add_constraint(coeffs, ">=", float(rng.uniform(0, 5)))
        s1 = solve(p)
        s2 = solve(p)
        assert s1.status == s2.status
        assert np.array_equal(s1.values, s2.values)


def test_strong_duality_and_complementary_slackness():
    # primal: min c.x st Ax >= b, x >= 0; dual: max b.y st A'y <= c, y >= 0
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        A = rng.uniform(0.0, 2.0, (m, n))
        b = rng.uniform(0.0, 5.0, m)
        c = rng.uniform(0.1, 3.0, n)
        primal = LpProblem(n, objective=c)
        for i in range(m):
            primal.add_constraint({j: A[i, j] for j in range(n)}, ">=", b[i])
        dual = LpProblem(m, objective=-b)
        for j in range(n):
            dual.add_constraint({i: A[i, j] for i in range(m)}, "<=", c[j])
        ps = solve(primal)
        ds = solve(dual)
        assert ps.status == lpcore.OPTIMAL and ds.status == lpcore.OPTIMAL
        assert ps.objective_value == pytest.approx(-ds.objective_value, abs=1e-6)
        x, y = ps.values, ds.values
        for i in range(m):
            assert y[i] * (A[i] @ x - b[i]) == pytest.approx(0.0, abs=1e-5)
        for j in range(n):
            assert x[j] * (c[j] - y @ A[:, j]) == pytest.approx(0.0, abs=1e-5)


def test_degenerate_problem_terminates():
    # classic cycling-prone fixture; must terminate and find -0.05
    p = LpProblem(4, objective=[-0.75, 150.0, -0.02, 6.0])
    p.add_constraint({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, "<=", 0.0)
    p.add_constraint({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, "<=", 0.0)
    p.add_constraint({2: 1.0}, "<=", 1.0)
    s = solve(p)
    assert s.status == lpcore.OPTIMAL
    assert s.objective_value == pytest.approx(-0.05)


def test_basis_hint_matches_cold_solve():
    inst = staggered_release_fixture()
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis

    prob = _build_reduced_ordering_lp(inst)
    hint, upper = _ordering_crash_basis(inst, prob)
    warm = solve(prob, basis_hint=hint, upper_start=upper)
    cold = solve(prob)
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)


def test_bogus_basis_hint_falls_back():
    p = LpProblem(1, objective=[1.0])
    p.add_constraint({0: 1.0}, ">=", 3.0)
    s = solve(p, basis_hint=[-1])  # leaves the >= row infeasible at the corner
    assert s.status == lpcore.OPTIMAL
    assert s.objective_value == pytest.approx(3.0)
    assert not s.stats.crash_accepted
    assert s.stats.phase1
    assert not s.stats.cold_retry


def test_ordering_lp_crash_start_accepted():
    inst = staggered_release_fixture()
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis

    prob = _build_reduced_ordering_lp(inst)
    hint, upper = _ordering_crash_basis(inst, prob)
    s = solve(prob, basis_hint=hint, upper_start=upper)
    assert s.stats.crash_accepted
    assert not s.stats.phase1
    assert not s.stats.cold_retry
    assert s.stats.reinversions >= 1


def _ordering_lp_solution():
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis
    from coflowsched.workload import SyntheticConfig, generate

    inst = generate(SyntheticConfig(n_ports=4, n_coflows=6, kind="dense", seed=5))
    prob = _build_reduced_ordering_lp(inst)
    hint, upper = _ordering_crash_basis(inst, prob)
    return inst, prob, solve(prob, basis_hint=hint, upper_start=upper)


def test_duals_certify_the_optimum():
    _, prob, s = _ordering_lp_solution()
    cert = lpcore.certify(prob, s.values, s.duals)
    assert cert.ok, cert.violations
    assert cert.objective == pytest.approx(s.objective_value, rel=1e-15)
    assert abs(cert.gap) <= 1e-9


def test_certify_rejects_negative_dual_on_ge_row():
    _, prob, s = _ordering_lp_solution()
    y = s.duals.copy()
    row = next(i for i, (_, rel, _) in enumerate(prob.constraints) if rel == ">=")
    y[row] = -1.0
    cert = lpcore.certify(prob, s.values, y)
    assert not cert.ok
    assert any(v.startswith(f"dual sign: y[{row}]") for v in cert.violations)


def test_certify_rejects_negative_reduced_cost_on_completion_column():
    inst, prob, s = _ordering_lp_solution()
    y = s.duals.copy()
    # raising the dual of one of f_0's rows past its weight prices f_0 below zero
    row = next(i for i, (coeffs, _, _) in enumerate(prob.constraints) if coeffs.get(0) == 1.0)
    y[row] += 2.0 * inst.coflows[0].weight
    cert = lpcore.certify(prob, s.values, y)
    assert not cert.ok
    assert "reduced cost: variable 0 has" in " ".join(cert.violations)


def test_duals_in_caller_sign_convention():
    # min x0 + 2 x1 st x0 + x1 >= 2, x1 <= 5 (slack), x0 - x1 == 0: x = (1, 1)
    p = LpProblem(2, objective=[1.0, 2.0])
    p.add_constraint({0: 1.0, 1: 1.0}, ">=", 2.0)
    p.add_constraint({1: 1.0}, "<=", 5.0)
    p.add_constraint({0: 1.0, 1: -1.0}, "==", 0.0)
    s = solve(p)
    assert s.values.tolist() == pytest.approx([1.0, 1.0])
    # c - A'y = 0 on the two basic columns: y0 + y2 = 1, y0 - y2 = 2
    assert s.duals.tolist() == pytest.approx([1.5, 0.0, -0.5])
    cert = lpcore.certify(p, s.values, s.duals)
    assert cert.ok and cert.dual_bound == pytest.approx(3.0)
