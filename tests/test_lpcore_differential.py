"""Differential tests: lpcore against scipy's HiGHS on random bounded LPs.

Each drawn LP mixes <=, >= and == rows, zero right-hand sides, duplicate
and degenerate rows, and coefficients from 1e-6 to 1e6 (a row magnitude
times a column magnitude, each from 1e-3 to 1e3, so the LP is badly
scaled but not ill-conditioned).  Some draws are infeasible or unbounded.  Every LP is
solved cold and from a random ``lpcore.Basis``; status and objective must
agree with HiGHS.  A random start that installs but is not primal feasible
takes the dual simplex path; a second test draws starts that also leave an
unbounded column with a negative reduced cost, so the dual path places a
temporary bound.

Each variable x_j is drawn with a lower end that may be negative, and the
LP is built in the offsets x_j - lower_j, which lie in [0, width_j] as
lpcore's variables do: every right-hand side loses sum_j a_ij lower_j.

``derandomize=True`` seeds Hypothesis from a hash of the test function, so
the 300 LPs drawn depend on the test's source: an edit to
``test_matches_highs`` draws a different set.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
optimize = pytest.importorskip("scipy.optimize")

from hypothesis import HealthCheck, given, settings  # noqa: E402

from coflowsched import lpcore  # noqa: E402

REL_TOL = 1e-9
MAGNITUDES = [10.0**e for e in range(-3, 4)]


@st.composite
def bounded_lps(draw, relations=("<=", ">=", "==")):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    col_mag = [draw(st.sampled_from(MAGNITUDES)) for _ in range(n)]
    problem = lpcore.LpProblem(
        n, objective=[draw(st.sampled_from((-2.0, -1.0, 0.0, 0.5, 1.0, 3.0))) / col_mag[j]
                      for j in range(n)]
    )
    lower = []
    for j in range(n):
        lower.append(draw(st.sampled_from((0.0, 0.0, -1.0, 2.0))) * col_mag[j])
        width = draw(st.sampled_from((math.inf, math.inf, 0.0, 1.0, 5.0)))
        problem.set_upper(j, width * col_mag[j])
    # a point inside the bounds, used to make most rows satisfiable
    point = [lower[j] + (min(hi, col_mag[j]) if math.isfinite(hi) else col_mag[j]) * 0.5
             for j, (_, hi) in enumerate(problem.bounds)]
    for _ in range(m):
        if problem.constraints and draw(st.integers(0, 4)) == 0:
            coeffs, relation, rhs = problem.constraints[draw(
                st.integers(0, len(problem.constraints) - 1))]
            problem.add_constraint(coeffs, relation, rhs)  # duplicate row
            continue
        row_mag = draw(st.sampled_from(MAGNITUDES))
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {
            j: row_mag * draw(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 3.0))) / col_mag[j]
            for j in support
        }
        relation = draw(st.sampled_from(relations))
        at_point = sum(c * point[j] for j, c in coeffs.items())
        rhs = draw(st.sampled_from(("zero", "point", "loose", "tight", "wrong")))
        if rhs == "zero":
            value = 0.0
        elif rhs == "point":
            value = at_point  # degenerate at the interior point
        elif rhs == "loose":
            value = at_point + (row_mag if relation == "<=" else -row_mag)
        elif rhs == "tight":
            value = at_point + (-row_mag if relation == "<=" else row_mag) * 0.25
        else:
            value = at_point + row_mag * 1.5
        problem.add_constraint(coeffs, relation, value - sum(c * lower[j] for j, c in coeffs.items()))
    return problem


def _highs(problem):
    n = problem.num_vars
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, relation, rhs in problem.constraints:
        row = np.zeros(n)
        for j, c in coeffs.items():
            row[j] = c
        if relation == "==":
            a_eq.append(row)
            b_eq.append(rhs)
        elif relation == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        else:
            a_ub.append(-row)
            b_ub.append(-rhs)
    res = optimize.linprog(
        problem.objective,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(lo, None if math.isinf(hi) else hi) for lo, hi in problem.bounds],
        method="highs",
    )
    return res


def _random_start(problem, seed):
    """A random start: each row keeps its slack or names a random column
    (so a column may be named twice, or an == row left to its slack, and
    the solver must fall back), and some bounded variables start at upper."""
    rng = np.random.default_rng(seed)
    n = problem.num_vars
    hint = [int(rng.integers(-1, n)) for _ in problem.constraints]
    rows = [i for i, h in enumerate(hint) if h >= 0]
    upper = [j for j, (_, hi) in enumerate(problem.bounds)
             if math.isfinite(hi) and j not in hint and rng.random() < 0.5]
    return lpcore.Basis(rows, [hint[i] for i in rows], upper)


def _objective_scale(problem, values):
    return max(1e-300, float(np.abs(problem.objective) @ np.abs(values)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(bounded_lps(), st.integers(0, 2**16))
def test_matches_highs(problem, seed):
    ref = _highs(problem)
    if ref.status not in (0, 2, 3):
        return  # HiGHS hit a limit; nothing to compare against
    expected = {0: lpcore.OPTIMAL, 2: lpcore.INFEASIBLE, 3: lpcore.UNBOUNDED}[ref.status]
    for start in (None, _random_start(problem, seed)):
        sol = lpcore.solve(problem, start)
        assert sol.status == expected, (start, ref.message)
        if expected == lpcore.OPTIMAL:
            scale = max(_objective_scale(problem, ref.x), _objective_scale(problem, sol.values))
            assert abs(sol.objective_value - ref.fun) <= REL_TOL * scale, (
                start, sol.objective_value, ref.fun)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(bounded_lps(relations=("<=", ">=")), st.integers(0, 4))
def test_dual_path_with_temporary_bounds_matches_highs(problem, pick):
    # column j gets no upper bound and a negative cost, so from the slack
    # basis (no == rows: it installs) its reduced cost has the wrong sign;
    # with a row violated at the slack basis the dual path must place a
    # temporary bound on it, and still agree with HiGHS
    j = pick % problem.num_vars
    problem.set_upper(j, math.inf)
    problem.objective[j] = -abs(problem.objective[j]) or -1.0
    violated = np.where(problem.rel == lpcore.LE, problem.rhs < -1e-9 * np.abs(problem.rhs).max(),
                        problem.rhs > 1e-9 * np.abs(problem.rhs).max())
    hypothesis.assume(violated.any())
    ref = _highs(problem)
    hypothesis.assume(ref.status in (0, 2, 3))
    expected = {0: lpcore.OPTIMAL, 2: lpcore.INFEASIBLE, 3: lpcore.UNBOUNDED}[ref.status]
    sol = lpcore.solve(problem, lpcore.Basis([], []))
    assert sol.stats.dual and sol.stats.artificial_bounds >= 1
    assert sol.status == expected, ref.message
    if expected == lpcore.OPTIMAL:
        scale = max(_objective_scale(problem, ref.x), _objective_scale(problem, sol.values))
        assert abs(sol.objective_value - ref.fun) <= REL_TOL * scale, (sol.objective_value, ref.fun)
