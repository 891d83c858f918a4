"""LP relaxations that order coflows for the schedulers.

Two formulations are provided: the pairwise-precedence LP (fractional
ordering variables, one per ordered coflow pair) and the interval-indexed
LP over a geometric time grid.  Both produce a relaxed completion time per
coflow; sorting by it yields the scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lpcore
from .model import CoflowInstance, OrderingInputs, horizon


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
    solution: lpcore.LpSolution         # of the reduced LP: duals, certificate and solver counters


@dataclass
class IntervalLpResult:
    """Solution of the interval-indexed LP on the geometric grid."""

    interval_endpoints: np.ndarray
    x: np.ndarray                      # (K, L) completion-interval weights
    relaxed_completions: np.ndarray
    ordering: list
    solution: lpcore.LpSolution


class WarmStart(NamedTuple):
    """An earlier ordering LP to start the next one from: its inputs, its
    final basis, and for each of its coflows the index of the same coflow
    in the next LP (-1 when it is gone), increasing on those that stay."""

    inputs: OrderingInputs
    basis: lpcore.Basis
    moved: np.ndarray


def delta_index(num_coflows: int, k, kp):
    """Column of the ordering variable delta[k, kp] in the full LP layout
    (elementwise for arrays of k and kp).

    Layout: completion times occupy columns 0..K-1, then the K*(K-1)
    ordering variables in row-major order with the diagonal skipped.
    """
    if np.any(np.equal(k, kp)):
        raise ValueError("no ordering variable for a coflow against itself")
    return num_coflows + k * (num_coflows - 1) + kp - np.greater(kp, k)


def _pair_index(num_coflows: int, a, b):
    # triangular layout of pairs a < b after the K completion variables
    return num_coflows + a * num_coflows - a * (a + 1) // 2 + (b - a - 1)


def _port_row_keys(loads: np.ndarray) -> tuple:
    """(port, coflow) of each port row of the reduced LP, in row order: row
    (s, k) is kept when another coflow loads port s (a lone user's sum less
    its own is exactly 0)."""
    return np.nonzero(loads.sum(axis=1)[:, None] - loads > 0.0)


def _port_rows(loads: np.ndarray, s_of: np.ndarray, k_of: np.ndarray,
               col_table: np.ndarray, sign_table: np.ndarray, rhs: np.ndarray) -> tuple:
    """The port rows (s_of[r], k_of[r]) of an ordering LP, in row order, as
    (row_of, col_of, val, rhs, rel).  Row r holds first the completion
    variable f_k with coefficient 1, then, for each other coflow kp that
    loads port s, kp ascending, column col_table[k, kp] with coefficient
    sign_table[k, kp] * loads[s, kp]."""
    count = len(s_of)
    mask = np.ones((count, loads.shape[1] + 1), dtype=bool)
    mask[:, 1:] = loads[s_of] > 0.0
    mask[np.arange(count), 1 + k_of] = False
    cols = np.concatenate([k_of[:, None], col_table[k_of]], axis=1)
    vals = np.concatenate([np.ones((count, 1)), sign_table[k_of] * loads[s_of]], axis=1)
    row_of = np.repeat(np.arange(count), mask.sum(axis=1))
    return row_of, cols[mask], vals[mask], rhs, np.full(count, lpcore.GE)


def _ordering_problem(instance: OrderingInputs, num_vars: int, loads: np.ndarray,
                      port_rows: tuple, extra_rows: tuple = ()) -> lpcore.LpProblem:
    """An ordering LP from its port rows, the K release rows
    f_k >= release + bottleneck, and any further rows; each part is
    (row_of, col_of, val, rhs, rel) with row ids counted from zero."""
    kk = instance.num_coflows
    release_rows = (np.arange(kk), np.arange(kk), np.ones(kk), loads.max(axis=0) + instance.releases,
                    np.full(kk, lpcore.GE))
    parts = [port_rows, release_rows, *extra_rows]
    offsets = np.cumsum([0] + [len(part[3]) for part in parts[:-1]])
    objective = np.zeros(num_vars)
    objective[:kk] = instance.weights
    upper = np.ones(num_vars)
    upper[:kk] = np.inf
    return lpcore.LpProblem(
        num_vars,
        objective=objective,
        upper=upper,
        row_of=np.concatenate([part[0] + offset for part, offset in zip(parts, offsets)]),
        col_of=np.concatenate([part[1] for part in parts]),
        val=np.concatenate([part[2] for part in parts]),
        rhs=np.concatenate([part[3] for part in parts]),
        rel=np.concatenate([part[4] for part in parts]),
    )


def build_ordering_lp(instance: OrderingInputs) -> lpcore.LpProblem:
    """The full precedence LP: K completion variables, K*(K-1) ordering
    variables in [0,1], and 2NK + K + C(K,2) constraints.

    Port loads are expressed in time units (data / capacity) so the row
    "traffic through a port by a completion time fits in that time" is
    exact for any uniform link capacity.
    """
    kk = instance.num_coflows
    if kk == 0:
        raise ValueError("instance has no coflows")
    loads = instance.time_loads
    # port rows, source side then destination side:
    # f_k - sum_kp loads[s, kp] delta[kp, k] >= loads[s, k]
    s_of, k_of = np.divmod(np.arange(loads.size), kk)
    k, kp = np.indices((kk, kk))
    off_diagonal = k != kp
    col_table = np.zeros((kk, kk), dtype=np.int64)
    col_table[off_diagonal] = delta_index(kk, kp[off_diagonal], k[off_diagonal])
    port_rows = _port_rows(loads, s_of, k_of, col_table, np.full((kk, kk), -1.0), loads[s_of, k_of])
    # complementary pairs: delta[a, b] + delta[b, a] == 1
    a, b = np.triu_indices(kk, 1)
    pair_rows = (
        np.repeat(np.arange(len(a)), 2),
        np.stack([delta_index(kk, a, b), delta_index(kk, b, a)], axis=1).ravel(),
        np.ones(2 * len(a)),
        np.ones(len(a)),
        np.full(len(a), lpcore.EQ),
    )
    return _ordering_problem(instance, kk + kk * (kk - 1), loads, port_rows, (pair_rows,))


def _build_reduced_ordering_lp(instance: OrderingInputs) -> lpcore.LpProblem:
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
    loads = instance.time_loads
    # row (s, k): f_k + sum_{kp<k} loads[s, kp] p(kp, k) - sum_{kp>k} loads[s, kp] p(k, kp)
    #             >= loads[s, k] + sum_{kp<k} loads[s, kp]
    s_of, k_of = _port_row_keys(loads)
    k, kp = np.indices((kk, kk))
    col_table = _pair_index(kk, np.minimum(k, kp), np.maximum(k, kp))
    sign_table = np.where(kp < k, 1.0, -1.0)
    # the right-hand side adds the loads of the lower-id users in ascending
    # order, as a sequential sum would (adding 0.0 is exact)
    rhs = loads.copy()
    for lo in range(kk - 1):
        rhs[:, lo + 1:] += loads[:, lo:lo + 1]
    port_rows = _port_rows(loads, s_of, k_of, col_table, sign_table, rhs[s_of, k_of])
    return _ordering_problem(instance, kk + kk * (kk - 1) // 2, loads, port_rows)


def _bssi_order(instance: OrderingInputs) -> list:
    """Sincronia's BSSI order (Agarwal et al., SIGCOMM 2018), built from
    the last position back on the port loads in time units: take the port
    with the most load left among the remaining coflows (ties to the lowest
    port), put last the remaining coflow with the smallest weight over its
    load on that port (ties to the lowest id; a coflow that does not load
    the port cannot be picked), and lower every remaining coflow's weight
    by that ratio times its load on the port.  Releases are ignored."""
    kk = instance.num_coflows
    remaining = instance.time_loads.copy()  # placed coflows' columns zeroed
    weight = instance.weights.copy()
    order = []
    for _ in range(kk):
        # cumsum adds each port's loads in id order, one at a time
        port = remaining[np.argmax(np.cumsum(remaining, axis=1)[:, -1])]
        ratio = np.divide(weight, port, out=np.full(kk, np.inf), where=port > 0.0)
        last = int(np.argmin(ratio))
        if ratio[last] < np.inf:
            weight -= ratio[last] * port
        else:  # no finite ratio (loads that underflowed to 0): place the highest id left
            last = max(set(range(kk)).difference(order))
        remaining[:, last] = 0.0
        order.append(last)
    return order[::-1]


def _ordering_crash_basis(instance: OrderingInputs, prob: lpcore.LpProblem) -> lpcore.Basis:
    """Feasible starting vertex for the reduced LP: fix every pair variable
    to the corner of the BSSI order (``_bssi_order``), then make each
    completion variable basic in its tightest row.

    Any integral setting of the pair variables is feasible once each f_k
    sits at the largest induced right-hand side, so phase 1 can be
    skipped.  BSSI is itself a 4-approximate ordering for zero releases,
    so its corner sits close to the LP optimum and keeps the phase-2 path
    short: about half the pivots of a release-plus-bottleneck-over-weight
    greedy order at 8x24, and a fifth at 16x160.
    """
    kk = instance.num_coflows
    rank = np.empty(kk, dtype=np.int64)
    rank[_bssi_order(instance)] = np.arange(kk)
    a, b = np.triu_indices(kk, 1)
    later = rank[b] < rank[a]  # pair variable holds "b finishes before a"
    at_upper = _pair_index(kk, a[later], b[later])
    is_upper = np.zeros(prob.num_vars, dtype=bool)
    is_upper[at_upper] = True
    m = len(prob.rhs)
    # each row's right-hand side less its entries at their upper bound,
    # summed in entry order
    eff_rhs = prob.rhs - np.bincount(prob.row_of, np.where(is_upper[prob.col_of], prob.val, 0.0), minlength=m)
    # every row has one completion variable f_k, with coefficient 1
    is_f = (prob.col_of < kk) & (prob.val == 1.0)
    row_k = np.empty(m, dtype=np.int64)
    row_k[prob.row_of[is_f]] = prob.col_of[is_f]
    # per coflow, the first row with the largest effective right-hand side;
    # the kernel is factored in row order
    order = np.lexsort((-eff_rhs, row_k))
    best = np.sort(order[np.flatnonzero(np.diff(row_k[order], prepend=-1))])
    return lpcore.Basis(best, row_k[best], at_upper)


def _mapped_basis(warm: WarmStart, instance: OrderingInputs, crash: lpcore.Basis) -> lpcore.Basis:
    """``warm``'s basis on this instance's reduced LP.  Rows and columns of
    coflows that are gone drop out.  The kernel's rows and columns are
    paired only by position, so a kernel row whose column went takes a
    column whose row went, completion columns first, and what is left over
    of either leaves the kernel.  Each coflow new to this LP takes its pair
    columns' bounds and its completion column's row from ``crash``, the
    BSSI start."""
    old, basis, moved = warm
    kk = instance.num_coflows
    s_old, k_old = _port_row_keys(old.time_loads)
    s_new, k_new = _port_row_keys(instance.time_loads)
    table = np.full(instance.time_loads.shape, -1)
    table[s_new, k_new] = np.arange(len(s_new))
    # the new index of every old row and column, -1 for one that is gone
    to = moved[k_old]
    row_to = np.concatenate((np.where(to >= 0, table[s_old, to], -1), np.where(moved >= 0, len(s_new) + moved, -1)))
    a, b = moved[np.stack(np.triu_indices(old.num_coflows, 1))]
    col_to = np.concatenate((moved, np.where((a >= 0) & (b >= 0), _pair_index(kk, a, b), -1)))
    rows, cols = row_to[basis.rows], col_to[basis.columns]
    kept = (rows >= 0) & (cols >= 0)
    lone_rows = rows[(rows >= 0) & (cols < 0)]
    lone_cols = cols[(cols >= 0) & (rows < 0)]
    lone_cols = lone_cols[np.argsort(lone_cols >= kk, kind="stable")]
    paired = min(len(lone_rows), len(lone_cols))
    upper = col_to[basis.at_upper]
    new = np.ones(kk, dtype=bool)
    new[moved[moved >= 0]] = False
    a, b = np.triu_indices(kk, 1)
    crash_upper = np.asarray(crash.at_upper)
    pair = crash_upper - kk
    f_new = new[crash.columns]
    return lpcore.Basis(np.concatenate((rows[kept], lone_rows[:paired], crash.rows[f_new])),
                        np.concatenate((cols[kept], lone_cols[:paired], crash.columns[f_new])),
                        np.concatenate((upper[upper >= 0], crash_upper[new[a[pair]] | new[b[pair]]])))


def solve_ordering_lp(instance: OrderingInputs, warm: WarmStart | None = None) -> OrderingLpResult:
    """Solve the precedence LP and extract the coflow ordering.

    The ordering sorts relaxed completion times ascending; ties go to the
    lower coflow id so repeated runs are reproducible.  Of ``instance`` the
    LP reads only the four ``OrderingInputs`` fields, so a CoflowInstance
    and lp-ov-ls-online's residual inputs are solved alike.  The solve
    starts from the BSSI crash (``_ordering_crash_basis``), or with ``warm``
    from an earlier LP's final basis mapped onto this one
    (``_mapped_basis``), the crash taking over when its kernel is singular.
    Where the warm answer could differ from the crash's in its ordering, it
    is solved again from the crash: when its basis does not prove the
    optimum unique (``SolveStats.ties``), or when two completion times lie
    within 1e-9 relative of each other, so that rounding orders them.
    """
    kk = instance.num_coflows
    prob = _build_reduced_ordering_lp(instance)
    crash = _ordering_crash_basis(instance, prob)
    sol = lpcore.solve(prob, crash if warm is None else (_mapped_basis(warm, instance, crash), crash))
    if warm is not None and sol.status == lpcore.OPTIMAL and not sol.stats.start_index:
        f = np.sort(sol.values[:kk])
        if sol.stats.ties or (np.diff(f) <= 1e-9 * np.abs(f[1:])).any():
            first, sol = sol.stats, lpcore.solve(prob, crash)
            for name in ("pivots", "bound_flips", "reinversions", "dual_pivots", "start_flips", "artificial_bounds"):
                setattr(sol.stats, name, getattr(sol.stats, name) + getattr(first, name))
            sol.stats.tie_retry = True
    if sol.status != lpcore.OPTIMAL:
        raise RuntimeError(
            f"ordering LP should always be solvable, got status {sol.status!r}"
        )
    f_tilde = sol.values[:kk].copy()
    # the pair variable of (a, b), a < b, holds "b before a"
    a, b = np.triu_indices(kk, 1)
    before = np.minimum(np.maximum(sol.values[kk:], 0.0), 1.0)
    delta = np.zeros((kk, kk))
    delta[b, a] = before
    delta[a, b] = 1.0 - before
    ordering = sorted(range(kk), key=lambda k: (f_tilde[k], k))
    return OrderingLpResult(
        f_tilde=f_tilde,
        delta=delta,
        ordering=ordering,
        objective=float(instance.weights @ f_tilde),
        solution=sol,
    )


def lp_lower_bound(instance: OrderingInputs, result: OrderingLpResult | None = None) -> float:
    """A proven lower bound on the best achievable total weighted
    completion time: the dual bound of the precedence LP's certificate
    (weak duality), from ``result`` when given.  ``lpcore.solve`` raises
    ``lpcore.CertificateError`` for an answer whose duals do not certify
    it, so every result carries a certified bound."""
    if result is None:
        result = solve_ordering_lp(instance)
    return result.solution.certificate.dual_bound


def slot_length(instance: CoflowInstance) -> float:
    """The coarsest slot u = 2^-j (j = 0, 1, ...) in which every flow takes a
    whole positive number of slots at full rate, to 1e-9 * max(1, slots).
    Raises ValueError naming the largest flow when it would take over 2^52
    slots of a slot tried, the one returned included."""
    times = [size / instance.capacity for size in instance.flow_sizes]
    longest = max(range(len(times)), key=times.__getitem__)
    slot = 1.0
    while times[longest] / slot <= 2.0 ** 52:
        if all(abs(u - round(u)) <= 1e-9 * max(1.0, u) and round(u) > 0 for u in (t / slot for t in times)):
            return slot
        slot /= 2.0
    raise ValueError(f"flow {tuple(instance.flow_keys[longest])} would take {times[longest] / slot:.3g} "
                     f"slots of length {slot:g}, over 2^52: no power-of-two slot fits every flow size")


def interval_grid(instance: CoflowInstance) -> np.ndarray:
    """Geometric grid 0, u, 2u, 4u, ... covering the scheduling horizon,
    u the instance's slot_length."""
    end = horizon(instance)
    points = [0.0, slot_length(instance)]
    while points[-1] < end - 1e-12:
        points.append(points[-1] * 2.0)
    return np.array(points)


def build_interval_lp(instance: CoflowInstance) -> tuple[lpcore.LpProblem, np.ndarray]:
    """Interval-indexed LP: assignment weights x[l, k] say coflow k
    completes inside grid interval l; per-port rows keep the demand
    finished by each grid point within that point's capacity budget."""
    kk = instance.num_coflows
    if kk == 0:
        raise ValueError("instance has no coflows")
    grid = interval_grid(instance)
    nl = len(grid) - 1
    loads = instance.time_loads
    weight, release = instance.weights, instance.releases

    # variable k * nl + l; intervals ending before the coflow can finish are fixed at 0
    earliest = release + loads.max(axis=0)
    objective = (weight[:, None] * grid[None, :-1]).ravel()
    upper = np.where(grid[None, 1:] < earliest[:, None] - 1e-9, 0.0, 1.0).ravel()
    # assignment rows: sum_l x[k, l] == 1
    cols = np.arange(kk * nl)
    # port rows (s, l): sum_k loads[s, k] sum_{l' <= l} x[k, l'] <= grid[l + 1]
    ports = np.flatnonzero(loads.sum(axis=1) > 0.0)
    users = loads[ports] > 0.0
    done_by = np.tri(nl, dtype=bool)                      # [l, l']: l' <= l
    si, l, k, lp = np.nonzero(users[:, None, :, None] & done_by[None, :, None, :])
    n_port_rows = len(ports) * nl
    return lpcore.LpProblem(
        kk * nl,
        objective=objective,
        upper=upper,
        row_of=np.concatenate([cols // nl, kk + si * nl + l]),
        col_of=np.concatenate([cols, k * nl + lp]),
        val=np.concatenate([np.ones(kk * nl), loads[ports[si], k]]),
        rhs=np.concatenate([np.ones(kk), np.tile(grid[1:], len(ports))]),
        rel=np.concatenate([np.full(kk, lpcore.EQ), np.full(n_port_rows, lpcore.LE)]),
    ), grid


def solve_interval_lp(instance: CoflowInstance) -> IntervalLpResult:
    """Solve the interval-indexed LP and order coflows by relaxed completion."""
    kk = instance.num_coflows
    prob, grid = build_interval_lp(instance)
    nl = len(grid) - 1
    # crash basis: everything assigned to the last interval is feasible
    sol = lpcore.solve(prob, lpcore.Basis(np.arange(kk), np.arange(kk) * nl + nl - 1))
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
