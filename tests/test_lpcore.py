import itertools
import math

import numpy as np
import pytest

from coflowsched import lpcore
from coflowsched.lpcore import Basis, LpProblem, check_feasible, solve
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
    violations = check_feasible(prob, x)
    assert violations == [], violations


def test_zero_completions_infeasible():
    inst = staggered_release_fixture()
    prob = build_ordering_lp(inst)
    x = np.zeros(prob.num_vars)
    violations = check_feasible(prob, x)
    # the release rows (past the 2NK port rows) must be among the violations
    port_rows = 2 * inst.n_ports * 4
    assert any(
        v.startswith(f"primal: row {i} violated by ")
        for i in range(port_rows, port_rows + 4)
        for v in violations
    )


def test_solution_feeds_back_feasible():
    inst = staggered_release_fixture()
    prob = build_ordering_lp(inst)
    s = solve(prob)
    assert s.status == lpcore.OPTIMAL
    assert check_feasible(prob, s.values) == []


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
    p.set_upper(0, 1.0)
    p.set_upper(1, 1.0)
    p.add_constraint({0: 1.0, 1: 1.0}, "<=", 1.5)
    s = solve(p)
    assert s.objective_value == pytest.approx(-2.5)
    assert s.values.tolist() == pytest.approx([0.5, 1.0])

    p = LpProblem(2, objective=[3.0, 1.0])
    p.set_upper(0, 1.0)
    p.set_upper(1, 1.0)
    p.add_constraint({0: 1.0, 1: 1.0}, "==", 1.0)
    s = solve(p)
    assert s.objective_value == pytest.approx(1.0)


def test_bad_problem_structure():
    p = LpProblem(1)
    with pytest.raises(ValueError):
        p.add_constraint({3: 1.0}, "<=", 1.0)
    for upper in (-1.0, math.nan):
        with pytest.raises(ValueError):
            p.set_upper(0, upper)
        with pytest.raises(ValueError):
            LpProblem(1, upper=[upper])
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


def test_crash_start_matches_cold_solve():
    inst = staggered_release_fixture()
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis

    prob = _build_reduced_ordering_lp(inst)
    warm = solve(prob, _ordering_crash_basis(inst, prob))
    cold = solve(prob)
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)


def test_bogus_start_falls_back():
    p = LpProblem(1, objective=[1.0])
    p.add_constraint({0: 1.0}, ">=", 3.0)
    s = solve(p, Basis([], []))  # leaves the >= row infeasible at the corner
    assert s.status == lpcore.OPTIMAL
    assert s.objective_value == pytest.approx(3.0)
    assert not s.stats.crash_accepted
    assert s.stats.phase1
    assert not s.stats.cold_retry


def test_start_with_only_variables_at_upper_is_honoured():
    p = LpProblem(2, objective=[1.0, 1.0], upper=[1.0, 1.0])
    p.add_constraint({0: 1.0, 1: 1.0}, "<=", 5.0)
    s = solve(p, Basis([], [], [0, 1]))
    assert s.stats.crash_accepted
    assert s.stats.bound_flips == 2  # both variables flip down from their upper bound
    assert list(s.values) == [0.0, 0.0]


def _two_row_lp():
    # min x0 + 2 x1: x0 + x1 >= 2, x0 - x1 == 0, x0 + 3 x1 <= 10; optimum (1, 1)
    p = LpProblem(2, objective=[1.0, 2.0])
    p.add_constraint({0: 1.0, 1: 1.0}, ">=", 2.0)
    p.add_constraint({0: 1.0, 1: -1.0}, "==", 0.0)
    p.add_constraint({0: 1.0, 1: 3.0}, "<=", 10.0)
    return p


def test_valid_start_skips_phase_one():
    s = solve(_two_row_lp(), Basis([0, 1], [0, 1]))
    assert s.stats.crash_accepted
    assert not s.stats.phase1
    assert s.objective_value == pytest.approx(3.0)


@pytest.mark.parametrize("start", [
    Basis([0, 1], [0, 0]),  # one column named twice
    Basis([1, 1], [0, 1]),  # the == row named twice
    Basis([0], [0]),        # the == row left to its slack
], ids=["column-twice", "row-twice", "eq-row-slack"])
def test_unusable_start_falls_back_to_phase_one(start):
    p = _two_row_lp()
    s = solve(p, start)
    cold = solve(p)
    assert not s.stats.crash_accepted
    assert s.stats.phase1
    assert not s.stats.cold_retry
    assert s.status == cold.status == lpcore.OPTIMAL
    assert s.values.tobytes() == cold.values.tobytes()


def test_ordering_lp_crash_start_accepted():
    inst = staggered_release_fixture()
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis

    prob = _build_reduced_ordering_lp(inst)
    s = solve(prob, _ordering_crash_basis(inst, prob))
    assert s.stats.crash_accepted
    assert not s.stats.phase1
    assert not s.stats.cold_retry
    assert s.stats.reinversions >= 1


def _ordering_lp_solution():
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis
    from coflowsched.workload import SyntheticConfig, generate

    inst = generate(SyntheticConfig(n_ports=4, n_coflows=6, kind="dense", seed=5))
    prob = _build_reduced_ordering_lp(inst)
    return inst, prob, solve(prob, _ordering_crash_basis(inst, prob))


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


def test_hand_built_rows_and_bounds_read_back_as_added():
    p = LpProblem(3, objective=[1.0, 0.0, 2.0])
    rows = [
        ({2: 1.5, 0: -1.0}, "<=", 4.0),
        ({1: 1.0}, ">=", 0.25),
        ({}, "<=", 1.0),
        ({0: 1.0, 1: 1.0, 2: 1.0}, "==", 3.0),
    ]
    for coeffs, relation, rhs in rows:
        p.add_constraint(coeffs, relation, rhs)
    p.add_constraint({1: -2.0}, "=", 0.0)
    rows.append(({1: -2.0}, "==", 0.0))
    p.set_upper(1, 5.0)
    p.set_upper(2, 0.5)
    assert len(p.constraints) == len(rows)
    assert list(p.constraints) == rows
    # columns come back in the order they were added
    assert [list(coeffs) for coeffs, _, _ in p.constraints] == [list(c) for c, _, _ in rows]
    assert p.constraints[-1] == rows[-1]
    assert p.constraints[1:3] == rows[1:3]
    with pytest.raises(IndexError):
        p.constraints[len(rows)]
    assert list(p.bounds) == [(0.0, math.inf), (0.0, 5.0), (0.0, 0.5)]
    assert p.upper.tolist() == [math.inf, 5.0, 0.5]


def test_array_constructor_rejects_malformed_rows():
    rows = dict(row_of=[0, 1], col_of=[0, 1], val=[1.0, 1.0], rhs=[1.0, 1.0], rel=[lpcore.GE, lpcore.LE])
    assert len(LpProblem(2, **rows).constraints) == 2
    for change in (
        dict(row_of=[1, 0]),                    # not in row order
        dict(row_of=[0, 2]),                    # no row 2
        dict(col_of=[0, 2]),                    # no variable 2
        dict(rel=[lpcore.GE, 7]),
        dict(rhs=[1.0]),
    ):
        with pytest.raises(ValueError):
            LpProblem(2, **{**rows, **change})


def _scaled_ordering_instance(scale):
    from coflowsched.model import Coflow, CoflowInstance
    from coflowsched.workload import SyntheticConfig, generate

    inst = generate(SyntheticConfig(n_ports=5, n_coflows=10, kind="dense", seed=0))
    return CoflowInstance(
        inst.n_ports,
        [
            Coflow({pair: size * scale for pair, size in cf.demands.items()},
                   release=cf.release * scale, weight=cf.weight)
            for cf in inst.coflows
        ],
        inst.capacity,
    )


@pytest.mark.parametrize("wrong_calls", ["first", "all"])
def test_recheck_rejects_a_wrong_point_at_small_scale(monkeypatch, wrong_calls):
    # every size and release times 1e-9: right-hand sides near 1e-7, far
    # below an absolute tolerance of 1e-6, so only a relative re-check sees
    # completion times 0.6% too small
    from coflowsched.relaxations import solve_ordering_lp

    inst = _scaled_ordering_instance(1e-9)
    right = solve_ordering_lp(inst)
    solve_once = lpcore._solve_once
    calls = []

    def wrong(*args, **kwargs):
        sol = solve_once(*args, **kwargs)
        calls.append(sol)
        if wrong_calls == "all" or len(calls) == 1:
            sol.values[: inst.num_coflows] *= 0.994
        return sol

    monkeypatch.setattr(lpcore, "_solve_once", wrong)
    if wrong_calls == "all":
        with pytest.raises(RuntimeError, match="out-of-tolerance"):
            solve_ordering_lp(inst)
        return
    got = solve_ordering_lp(inst)
    assert got.solution.stats.cold_retry
    assert len(calls) == 2
    np.testing.assert_allclose(got.f_tilde, right.f_tilde, rtol=1e-9, atol=0.0)
