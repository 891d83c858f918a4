"""LP relaxations that order coflows for the schedulers.

Two formulations are provided: the pairwise-precedence LP (fractional
ordering variables, one per ordered coflow pair) and the interval-indexed
LP over a geometric time grid.  Both produce a relaxed completion time per
coflow; sorting by it yields the scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lpcore
from .model import CoflowInstance, effective_size, horizon, node_load_matrix

_LOAD_TOL = 1e-12


@dataclass
class OrderingLpResult:
    """Solution of the precedence LP.

    ``delta[a, b]`` is the fractional indicator that coflow a finishes all
    of its flows before coflow b does; complementary pairs sum to one.
    """

    f_tilde: np.ndarray
    delta: np.ndarray
    ordering: list
    objective: float
    solution: lpcore.LpSolution         # of the reduced LP: duals and solver counters


@dataclass
class IntervalLpResult:
    """Solution of the interval-indexed LP on the geometric grid."""

    interval_endpoints: np.ndarray
    x: np.ndarray                      # (K, L) completion-interval weights
    relaxed_completions: np.ndarray
    ordering: list
    solution: lpcore.LpSolution


def delta_index(num_coflows: int, k: int, kp: int) -> int:
    """Column of the ordering variable delta[k, kp] in the full LP layout.

    Layout: completion times occupy columns 0..K-1, then the K*(K-1)
    ordering variables in row-major order with the diagonal skipped.
    """
    if k == kp:
        raise ValueError("no ordering variable for a coflow against itself")
    return num_coflows + k * (num_coflows - 1) + (kp if kp < k else kp - 1)


def build_ordering_lp(instance: CoflowInstance) -> lpcore.LpProblem:
    """The full precedence LP: K completion variables, K*(K-1) ordering
    variables in [0,1], and 2NK + K + C(K,2) constraints.

    Port loads are expressed in time units (data / capacity) so the row
    "traffic through a port by a completion time fits in that time" is
    exact for any uniform link capacity.
    """
    kk = instance.num_coflows
    if kk == 0:
        raise ValueError("instance has no coflows")
    n = instance.n_ports
    loads = node_load_matrix(instance) / instance.capacity
    num_vars = kk + kk * (kk - 1)
    prob = lpcore.LpProblem(num_vars)
    prob.objective[:kk] = [cf.weight for cf in instance.coflows]
    for k in range(kk):
        for kp in range(kk):
            if kp != k:
                prob.set_bounds(delta_index(kk, k, kp), 0.0, 1.0)

    # port rows: source side then destination side
    for s in range(2 * n):
        for k in range(kk):
            coeffs = {k: 1.0}
            for kp in range(kk):
                if kp != k and loads[s, kp] > _LOAD_TOL:
                    coeffs[delta_index(kk, kp, k)] = -loads[s, kp]
            prob.add_constraint(coeffs, ">=", loads[s, k])
    # release rows
    for k, cf in enumerate(instance.coflows):
        prob.add_constraint({k: 1.0}, ">=", loads[:, k].max() + cf.release)
    # complementary pair rows
    for a in range(kk):
        for b in range(a + 1, kk):
            prob.add_constraint(
                {delta_index(kk, a, b): 1.0, delta_index(kk, b, a): 1.0}, "==", 1.0
            )
    return prob


def _pair_index(num_coflows: int, a: int, b: int) -> int:
    # triangular layout of pairs a < b after the K completion variables
    return num_coflows + a * num_coflows - a * (a + 1) // 2 + (b - a - 1)


def _build_reduced_ordering_lp(instance: CoflowInstance) -> lpcore.LpProblem:
    """Equivalent LP with one variable per unordered pair.

    Substituting the complement for half the ordering variables removes
    the complementary rows; rows for ports that no other coflow touches
    are dominated by the release row and dropped.  The pair variable for
    (a, b), a < b, carries "b finishes before a", so the solver's tie rule
    among optimal vertices (bounded variables nearest their lower bounds)
    prefers the lower-id-first ordering and exact ties come out
    reproducibly.  The optimum matches build_ordering_lp (asserted in the
    test suite).
    """
    kk = instance.num_coflows
    if kk == 0:
        raise ValueError("instance has no coflows")
    n = instance.n_ports
    loads = node_load_matrix(instance) / instance.capacity
    num_vars = kk + kk * (kk - 1) // 2
    prob = lpcore.LpProblem(num_vars)
    prob.objective[:kk] = [cf.weight for cf in instance.coflows]
    for j in range(kk, num_vars):
        prob.set_bounds(j, 0.0, 1.0)

    for s in range(2 * n):
        users = np.flatnonzero(loads[s] > _LOAD_TOL)
        if users.size == 0:
            continue
        total = float(loads[s].sum())
        for k in range(kk):
            other = total - loads[s, k]
            if other <= _LOAD_TOL:
                continue
            coeffs = {k: 1.0}
            rhs = loads[s, k]
            for kp in users:
                if kp == k:
                    continue
                if kp < k:
                    coeffs[_pair_index(kk, kp, k)] = loads[s, kp]
                    rhs += loads[s, kp]
                else:
                    coeffs[_pair_index(kk, k, kp)] = -loads[s, kp]
            prob.add_constraint(coeffs, ">=", rhs)
    for k, cf in enumerate(instance.coflows):
        prob.add_constraint({k: 1.0}, ">=", loads[:, k].max() + cf.release)
    return prob


def _ordering_crash_basis(instance: CoflowInstance, prob: lpcore.LpProblem):
    """Feasible starting vertex for the reduced LP: fix every pair variable
    to the corner of a greedy order (release plus bottleneck over weight),
    then make each completion variable basic in its tightest row.

    Any integral setting of the pair variables is feasible once each f_k
    sits at the largest induced right-hand side, so phase 1 can be
    skipped; a good greedy order keeps the phase-2 path short.
    """
    kk = instance.num_coflows
    cap = instance.capacity
    greedy = sorted(
        range(kk),
        key=lambda k: (
            instance.coflows[k].release
            + effective_size(instance.coflows[k], instance.n_ports)
            / (cap * instance.coflows[k].weight),
            k,
        ),
    )
    rank = {k: p for p, k in enumerate(greedy)}
    upper_start = [
        _pair_index(kk, a, b)
        for a in range(kk)
        for b in range(a + 1, kk)
        if rank[b] < rank[a]  # pair variable holds "b finishes before a"
    ]
    upper_set = set(upper_start)
    best_row: dict[int, tuple[float, int]] = {}
    for idx, (coeffs, _, rhs) in enumerate(prob.constraints):
        k = next(j for j, c in coeffs.items() if j < kk and c == 1.0)
        eff_rhs = rhs - sum(c for j, c in coeffs.items() if j in upper_set)
        if k not in best_row or eff_rhs > best_row[k][0]:
            best_row[k] = (eff_rhs, idx)
    hint = [-1] * len(prob.constraints)
    for k, (_, idx) in best_row.items():
        hint[idx] = k
    return hint, upper_start


def solve_ordering_lp(instance: CoflowInstance) -> OrderingLpResult:
    """Solve the precedence LP and extract the coflow ordering.

    The ordering sorts relaxed completion times ascending; ties go to the
    lower coflow id so repeated runs are reproducible.
    """
    kk = instance.num_coflows
    prob = _build_reduced_ordering_lp(instance)
    hint, upper_start = _ordering_crash_basis(instance, prob)
    sol = lpcore.solve(prob, basis_hint=hint, upper_start=upper_start)
    if sol.status != lpcore.OPTIMAL:
        raise RuntimeError(
            f"ordering LP should always be solvable, got status {sol.status!r}"
        )
    f_tilde = sol.values[:kk].copy()
    delta = np.zeros((kk, kk))
    for a in range(kk):
        for b in range(a + 1, kk):
            # the pair variable holds "b before a"
            v = min(max(sol.values[_pair_index(kk, a, b)], 0.0), 1.0)
            delta[b, a] = v
            delta[a, b] = 1.0 - v
    ordering = sorted(range(kk), key=lambda k: (f_tilde[k], k))
    weights = np.array([cf.weight for cf in instance.coflows])
    return OrderingLpResult(
        f_tilde=f_tilde,
        delta=delta,
        ordering=ordering,
        objective=float(weights @ f_tilde),
        solution=sol,
    )


def lp_lower_bound(instance: CoflowInstance) -> float:
    """Optimal precedence-LP value: a proven lower bound on the best
    achievable total weighted completion time."""
    return solve_ordering_lp(instance).objective


def interval_grid(instance: CoflowInstance, time_unit: float = 1.0) -> np.ndarray:
    """Geometric grid 0, u, 2u, 4u, ... covering the scheduling horizon."""
    if time_unit <= 0:
        raise ValueError("time_unit must be positive")
    end = horizon(instance)
    points = [0.0, float(time_unit)]
    while points[-1] < end - 1e-12:
        points.append(points[-1] * 2.0)
    return np.array(points)


def build_interval_lp(
    instance: CoflowInstance, time_unit: float = 1.0
) -> tuple[lpcore.LpProblem, np.ndarray]:
    """Interval-indexed LP: assignment weights x[l, k] say coflow k
    completes inside grid interval l; per-port rows keep the demand
    finished by each grid point within that point's capacity budget."""
    kk = instance.num_coflows
    if kk == 0:
        raise ValueError("instance has no coflows")
    n = instance.n_ports
    grid = interval_grid(instance, time_unit)
    nl = len(grid) - 1
    loads = node_load_matrix(instance) / instance.capacity

    def var(k: int, l: int) -> int:
        return k * nl + l

    prob = lpcore.LpProblem(kk * nl)
    for k, cf in enumerate(instance.coflows):
        earliest = cf.release + loads[:, k].max()
        for l in range(nl):
            prob.objective[var(k, l)] = cf.weight * grid[l]
            prob.set_bounds(var(k, l), 0.0, 1.0)
            if grid[l + 1] < earliest - 1e-9:
                prob.set_bounds(var(k, l), 0.0, 0.0)
        prob.add_constraint({var(k, l): 1.0 for l in range(nl)}, "==", 1.0)
    for s in range(2 * n):
        if loads[s].sum() <= _LOAD_TOL:
            continue
        for l in range(nl):
            coeffs = {}
            for k in range(kk):
                if loads[s, k] > _LOAD_TOL:
                    for lp in range(l + 1):
                        coeffs[var(k, lp)] = loads[s, k]
            prob.add_constraint(coeffs, "<=", grid[l + 1])
    return prob, grid


def solve_interval_lp(
    instance: CoflowInstance, time_unit: float = 1.0
) -> IntervalLpResult:
    """Solve the interval-indexed LP and order coflows by relaxed completion."""
    kk = instance.num_coflows
    prob, grid = build_interval_lp(instance, time_unit)
    nl = len(grid) - 1
    # crash basis: everything assigned to the last interval is feasible
    hint = [-1] * len(prob.constraints)
    for k in range(kk):
        hint[k] = k * nl + (nl - 1)
    sol = lpcore.solve(prob, basis_hint=hint)
    if sol.status != lpcore.OPTIMAL:
        raise RuntimeError(
            f"interval LP should always be solvable, got status {sol.status!r}"
        )
    x = sol.values.reshape(kk, nl).copy()
    completions = x @ grid[:-1]
    ordering = sorted(range(kk), key=lambda k: (completions[k], k))
    return IntervalLpResult(
        interval_endpoints=grid,
        x=x,
        relaxed_completions=completions,
        ordering=ordering,
        solution=sol,
    )
