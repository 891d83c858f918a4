import collections
import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest

from coflowsched import lpcore
from coflowsched.lpcore import Basis, LpProblem, check_feasible, solve
from coflowsched.model import effective_size, node_load_matrix
from coflowsched.relaxations import build_interval_lp, build_ordering_lp, delta_index
from coflowsched.verify import equal_bottleneck_fixture, staggered_release_fixture

from conftest import golden_instance


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


# Each LP below was answered wrongly before the problem refused non-finite
# data: min x0 with x0 >= NaN came back optimal at x = [0] with a
# certificate marked ok, min NaN*x0 with x0 >= 1 optimal with a certificate
# marked ok, and a NaN or an infinite coefficient in x0 + x1 >= 1 raised
# "RuntimeError: phase-1 objective cannot be unbounded".
_NON_FINITE_LPS = {
    "nan right-hand side": ([1.0], {0: 1.0}, math.nan, "right-hand side of row 0 is nan"),
    "nan cost": ([math.nan], {0: 1.0}, 1.0, "cost of variable 0 is nan"),
    "nan coefficient": ([1.0, 1.0], {0: 1.0, 1: math.nan}, 1.0, "coefficient of variable 1 in row 0 is nan"),
    "inf coefficient": ([1.0, 1.0], {0: 1.0, 1: math.inf}, 1.0, "coefficient of variable 1 in row 0 is inf"),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_LPS))
def test_non_finite_data_is_refused(name):
    objective, coeffs, rhs, message = _NON_FINITE_LPS[name]
    rows = dict(row_of=[0] * len(coeffs), col_of=list(coeffs), val=list(coeffs.values()), rhs=[rhs], rel=[lpcore.GE])
    with pytest.raises(ValueError, match=message):
        LpProblem(len(objective), objective=objective, **rows)
    if math.isfinite(objective[0]):
        p = LpProblem(len(objective), objective=objective)
        with pytest.raises(ValueError, match=message):
            p.add_constraint(coeffs, ">=", rhs)
        assert len(p.constraints) == 0 and len(p.val) == 0  # nothing of the row was kept


def test_infinite_costs_and_right_hand_sides_are_refused():
    with pytest.raises(ValueError, match="cost of variable 1 is -inf"):
        LpProblem(2, objective=[1.0, -math.inf])
    with pytest.raises(ValueError, match="right-hand side of row 1 is inf"):
        LpProblem(1, row_of=[0, 1], col_of=[0, 0], val=[1.0, 1.0], rhs=[1.0, math.inf], rel=[lpcore.GE, lpcore.LE])
    p = LpProblem(1)
    p.add_constraint({0: 1.0}, ">=", 1.0)
    with pytest.raises(ValueError, match="right-hand side of row 1 is -inf"):
        p.add_constraint({0: 1.0}, "<=", -math.inf)
    assert len(p.constraints) == 1


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


def _random_bounded_lp(rng):
    """A sparse LP with <=, >= and == rows that a point inside the bounds
    satisfies; >= rows with a positive right-hand side and == rows give
    phase 1 artificials."""
    m, n = int(rng.integers(6, 14)), int(rng.integers(5, 12))
    upper = np.where(rng.random(n) < 0.7, rng.choice([0.5, 1.0, 3.0], n), math.inf)
    point = rng.uniform(0.0, 1.0, n) * np.where(np.isfinite(upper), upper, 2.0)
    p = LpProblem(n, objective=rng.uniform(-2.0, 2.0, n), upper=upper)
    for _ in range(m):
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {int(j): float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)) for j in support}
        lhs = sum(a * point[j] for j, a in coeffs.items())
        relation = rng.choice(["<=", ">=", "=="], p=[0.45, 0.4, 0.15])
        slack = float(rng.uniform(0.0, 1.0))
        p.add_constraint(coeffs, relation, lhs + slack if relation == "<=" else lhs - slack if relation == ">=" else lhs)
    return p


def _rebuilt(simplex):
    """A copy of the simplex whose basis bookkeeping is rebuilt from its
    kernel columns and rows by ``_positions()``."""
    fresh = copy.copy(simplex)
    fresh.kcols, fresh.krows = simplex.kcols.copy(), simplex.krows.copy()
    fresh._positions()
    return fresh


def test_pivots_keep_the_bookkeeping_a_rebuild_gives(monkeypatch):
    # after every basis change the positions, basic list, slack rows and
    # kernel entry lists equal a from-scratch rebuild, entry for entry and
    # in the same order, so every product adds the same terms in the same order
    pivot = lpcore._Simplex._pivot
    kinds = collections.Counter()

    def checked(self, q, r, alpha, leaving):
        # (a structural column enters, a kernel column leaves)
        kinds[{(True, True): "column replace", (True, False): "border grow",
               (False, True): "border shrink", (False, False): "row replace"}[q < self.nx, r < len(self.kcols)]] += 1
        pivot(self, q, r, alpha, leaving)
        fresh = _rebuilt(self)
        for name in ("colpos", "rowpos", "slack_rows", "basic", "kcols", "krows"):
            got, want = getattr(self, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        k = len(self.kcols)
        for name in ("kc", "kr"):
            got, want = getattr(self, name), getattr(fresh, name)
            for part in ("idx", "val", "owner"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
            assert got.ptr[:k + 1].tolist() == want.ptr[:k + 1].tolist(), name

    monkeypatch.setattr(lpcore._Simplex, "_pivot", checked)
    rng = np.random.default_rng(5)
    flips = phase1 = 0
    for _ in range(60):
        s = solve(_random_bounded_lp(rng))
        flips += s.stats.bound_flips
        phase1 += s.stats.pivots > 0 and s.stats.phase1
    from coflowsched.relaxations import solve_ordering_lp

    flips += solve_ordering_lp(golden_instance("dense-8x20-releases")).solution.stats.bound_flips
    assert set(kinds) == {"column replace", "border grow", "border shrink", "row replace"}, kinds
    assert flips > 0 and phase1 > 0


def _reference_pow2_scaling(row_of, col_of, val, m, n):
    # the extremes of each line by unbuffered maximum/minimum at every entry
    log_a = np.log2(np.abs(val))
    log_r, log_c = np.zeros(m), np.zeros(n)
    for _ in range(4):
        for log_s, idx, size in ((log_c, col_of, n), (log_r, row_of, m)):
            lv = log_a + log_r[row_of] + log_c[col_of]
            hi, lo = np.full(size, -np.inf), np.full(size, np.inf)
            np.maximum.at(hi, idx, lv)
            np.minimum.at(lo, idx, lv)
            used = np.isfinite(hi)
            log_s[used] -= np.floor((hi[used] + lo[used]) / 2 + 0.5)
    return np.exp2(log_r), np.exp2(log_c)


def test_pow2_scaling_takes_each_lines_extremes_exactly():
    # rows and columns without entries, and magnitudes from 1e-9 to 1e9
    rng = np.random.default_rng(8)
    for _ in range(40):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        cells = np.unique(rng.integers(0, m * n, int(rng.integers(0, m * n + 1))))
        row_of, col_of = np.divmod(cells, n)
        val = rng.choice([-1.0, 1.0], len(cells)) * 10.0 ** rng.uniform(-9, 9, len(cells))
        got = lpcore._pow2_scaling(row_of, col_of, val, m, n)
        want = _reference_pow2_scaling(row_of, col_of, val, m, n)
        assert [f.tobytes() for f in got] == [f.tobytes() for f in want]


def test_crash_start_matches_cold_solve():
    inst = staggered_release_fixture()
    from coflowsched.relaxations import _build_reduced_ordering_lp, _ordering_crash_basis

    prob = _build_reduced_ordering_lp(inst)
    warm = solve(prob, _ordering_crash_basis(inst, prob))
    cold = solve(prob)
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)


def test_bogus_start_falls_back():
    # the slack basis leaves the >= row infeasible at the corner, but it
    # installs and is dual feasible (x0 costs 1 at zero): one dual pivot
    # makes x0 basic at 3, with no phase 1
    p = LpProblem(1, objective=[1.0])
    p.add_constraint({0: 1.0}, ">=", 3.0)
    s = solve(p, Basis([], []))
    assert s.status == lpcore.OPTIMAL
    assert s.objective_value == 3.0
    assert s.stats.crash_accepted and s.stats.start_use == "dual-flips"
    assert s.stats.dual_pivots == 1 and s.stats.pivots == 0
    assert not s.stats.phase1
    assert not s.stats.cold_retry
    assert [list(part) for part in s.basis] == [[0], [0], []]


def test_start_with_only_variables_at_upper_is_honoured():
    p = LpProblem(2, objective=[1.0, 1.0], upper=[1.0, 1.0])
    p.add_constraint({0: 1.0, 1: 1.0}, "<=", 5.0)
    s = solve(p, Basis([], [], [0, 1]))
    assert s.stats.crash_accepted
    assert s.stats.bound_flips == 2  # both variables flip down from their upper bound
    assert list(s.values) == [0.0, 0.0]


def _without_columns(p, drop):
    """``p`` with the columns that ``drop`` marks removed by hand, and each
    kept column's new index."""
    keep = ~drop
    new_id = np.cumsum(keep) - 1
    entries = keep[p.col_of]
    return LpProblem(int(keep.sum()), objective=p.objective[keep], upper=p.upper[keep],
                     row_of=p.row_of[entries], col_of=new_id[p.col_of[entries]], val=p.val[entries],
                     rhs=p.rhs, rel=p.rel), new_id


def _assert_solved_alike(full, start, small, small_start, dropped):
    a, b = solve(full, start), solve(small, small_start)
    assert a.status == b.status == lpcore.OPTIMAL
    assert a.stats.dropped_columns == dropped.sum() and b.stats.dropped_columns == 0
    assert dataclasses.replace(a.stats, dropped_columns=0) == b.stats
    assert a.values[~dropped].tobytes() == b.values.tobytes()
    assert not a.values[dropped].any()
    assert a.duals.tobytes() == b.duals.tobytes()


# instances whose interval-LP columns fixed at zero leave the power-of-two
# scale factors as they are, so the LP without them is solved in the same units
@pytest.mark.parametrize("name", ["dense-zero", "dense-5x8-capacity-0.37", "mini-trace-4"])
def test_columns_fixed_at_zero_are_solved_as_if_removed(name):
    instance = golden_instance(name)
    p, grid = build_interval_lp(instance)
    kk, nl = instance.num_coflows, len(grid) - 1
    start = Basis(np.arange(kk), np.arange(kk) * nl + nl - 1)
    fixed = p.upper == 0.0
    dropped = fixed.copy()
    dropped[start.columns] = False  # the start's columns stay, fixed or not
    small, new_id = _without_columns(p, dropped)
    assert dropped.any()
    _assert_solved_alike(p, start, small, Basis(start.rows, new_id[start.columns]), dropped)
    # cold, every fixed column goes
    small, _ = _without_columns(p, fixed)
    _assert_solved_alike(p, None, small, None, fixed)


def test_fixed_column_named_by_the_start_is_kept():
    # min -x0 - x1 + x2 - x3: x0 + x1 <= 1, x1 + x2 + x3 <= 2, x0 - x3 >= -1; x2 and x3 fixed at 0
    p = LpProblem(4, objective=[-1.0, -1.0, 1.0, -1.0], upper=[1.0, 1.0, 0.0, 0.0])
    p.add_constraint({0: 1.0, 1: 1.0}, "<=", 1.0)
    p.add_constraint({1: 1.0, 2: 1.0, 3: 1.0}, "<=", 2.0)
    p.add_constraint({0: 1.0, 3: -1.0}, ">=", -1.0)
    s = solve(p, Basis([], [], [3]))  # x3 starts at its upper bound, 0
    assert s.stats.crash_accepted
    assert s.stats.dropped_columns == 1
    assert s.objective_value == -1.0
    x2 = np.array([False, False, True, False])
    small, new_id = _without_columns(p, x2)
    _assert_solved_alike(p, Basis([], [], [3]), small, Basis([], [], new_id[[3]]), x2)
    # an index out of range is refused as before, with the fixed columns gone
    bad = solve(p, Basis([0], [7]))
    assert not bad.stats.crash_accepted
    assert bad.stats.dropped_columns == 2


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


def test_certificate_gap_of_a_zero_optimum_is_relative_to_the_terms():
    # c.x = 0.1 + 0.2 - 0.3 cancels to 5.55e-17 and b.y to 2.78e-17: the
    # gap is measured against the terms summed, not against their residue
    p = LpProblem(3, objective=[1.0, 1.0, -1.0])
    p.add_constraint({0: 1.0}, ">=", 0.1)
    p.add_constraint({2: 1.0}, "<=", 0.3)
    p.add_constraint({1: 1.0}, ">=", 0.2)
    s = solve(p)
    assert s.values.tolist() == [0.1, 0.2, 0.3]
    cert = lpcore.certify(p, s.values, s.duals)
    assert cert.ok
    assert abs(cert.objective) < 1e-16
    assert abs(cert.gap) <= 1e-9
    assert lpcore.certify(LpProblem(1), [0.0], []).gap == 0.0


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
def test_certificate_rejects_a_wrong_point_at_small_scale(monkeypatch, wrong_calls):
    # every size and release times 1e-9: right-hand sides near 1e-7, far
    # below an absolute tolerance of 1e-6, so only a relative check sees
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
        with pytest.raises(lpcore.CertificateError, match="primal: row"):
            solve_ordering_lp(inst)
        return
    got = solve_ordering_lp(inst)
    assert got.solution.stats.cold_retry
    assert len(calls) == 2
    np.testing.assert_allclose(got.f_tilde, right.f_tilde, rtol=1e-9, atol=0.0)
