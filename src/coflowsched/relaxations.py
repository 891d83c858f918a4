"""LP relaxations that order coflows for the schedulers.

Two formulations are provided: the pairwise-precedence LP (fractional
ordering variables, one per ordered coflow pair) and the interval-indexed
LP over a geometric time grid.  Both produce a relaxed completion time per
coflow; sorting by it yields the scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import lpcore
from .model import CoflowInstance, OrderingInputs, horizon


@dataclass
class OrderingLpResult:
    """Solution of the precedence LP.

    ``delta[a, b]`` is the fractional indicator that coflow a finishes all
    of its flows before coflow b does; complementary pairs sum to one.
    ``inputs`` is what was solved: the instance, or a residual's inputs.
    """

    f_tilde: np.ndarray
    delta: np.ndarray
    ordering: list
    objective: float
    solution: lpcore.LpSolution         # of the reduced LP: duals, certificate and solver counters
    inputs: OrderingInputs


@dataclass
class IntervalLpResult:
    """Solution of the interval-indexed LP on the geometric grid."""

    interval_endpoints: np.ndarray
    x: np.ndarray                      # (K, L) completion-interval weights, 0.0 where the LP has no variable
    relaxed_completions: np.ndarray
    ordering: list
    solution: lpcore.LpSolution


def delta_index(num_coflows: int, k, kp):
    """Column of the ordering variable delta[k, kp] in the full LP layout
    (elementwise for arrays of k and kp).

    Layout: completion times occupy columns 0..K-1, then the K*(K-1)
    ordering variables in row-major order with the diagonal skipped.
    """
    if np.any(np.equal(k, kp)):
        raise ValueError("no ordering variable for a coflow against itself")
    return num_coflows + k * (num_coflows - 1) + kp - np.greater(kp, k)


@lru_cache(maxsize=16)
def _pair_tables(num_coflows: int) -> tuple:
    """Read-only tables of the reduced LP for K coflows: the pairs a < b in
    the order of their columns (``np.triu_indices(K, 1)``); the column and
    sign tables of its port rows (``_port_rows``): per row coflow k, the
    completion column k with sign 1, then per coflow kp the column of the
    pair of k and kp, with sign +1 ("kp before k") when kp < k, else -1;
    and ``lower[k, kp]``, 1.0 when kp < k, else 0.0."""
    kk = num_coflows
    a, b = np.triu_indices(kk, 1)
    k, kp = np.indices((kk, kk))
    lower = (kp < k).astype(float)
    # triangular layout of the pairs lo < hi after the K completion variables
    lo, hi = np.minimum(k, kp), np.maximum(k, kp)
    col_table = np.column_stack((np.arange(kk), kk + lo * kk - lo * (lo + 1) // 2 + (hi - lo - 1)))
    sign_table = np.column_stack((np.ones(kk), np.where(kp < k, 1.0, -1.0)))
    for table in (a, b, col_table, sign_table, lower):
        table.flags.writeable = False
    return a, b, col_table, sign_table, lower


def _port_row_keys(loads: np.ndarray) -> tuple:
    """(port, coflow) of each port row of the reduced LP, in row order: row
    (s, k) is kept when another coflow loads port s (a lone user's sum less
    its own is exactly 0)."""
    return np.nonzero(loads.sum(axis=1)[:, None] - loads > 0.0)


def _port_rows(port_loads: np.ndarray, k_of: np.ndarray,
               col_table: np.ndarray, sign_table: np.ndarray, rhs: np.ndarray) -> tuple:
    """The port rows of an ordering LP, in row order, as (row_of, col_of,
    val, rhs, rel): row r is coflow k = k_of[r]'s on a port whose loads
    are port_loads[r].  It holds first the completion variable f_k with
    coefficient 1 (col_table[k, 0] and sign_table[k, 0]), then, for each
    other coflow kp that loads the port, kp ascending, column
    col_table[k, 1 + kp] with coefficient sign_table[k, 1 + kp] *
    port_loads[r, kp]."""
    count = len(k_of)
    load = np.ones((count, port_loads.shape[1] + 1))
    load[:, 1:] = port_loads
    used = load > 0.0
    used[np.arange(count), 1 + k_of] = False
    row_of, at = np.nonzero(used)
    k = k_of[row_of]
    return row_of, col_table[k, at], sign_table[k, at] * load[row_of, at], rhs, np.full(count, lpcore.GE)


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
    variables in [0,1], and PK + K + C(K,2) constraints (P ports in use).

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
    col_table = np.zeros((kk, kk + 1), dtype=np.int64)
    col_table[:, 0] = np.arange(kk)
    col_table[:, 1:][off_diagonal] = delta_index(kk, kp[off_diagonal], k[off_diagonal])
    sign_table = np.full((kk, kk + 1), -1.0)
    sign_table[:, 0] = 1.0
    port_rows = _port_rows(loads[s_of], k_of, col_table, sign_table, loads[s_of, k_of])
    # complementary pairs: delta[a, b] + delta[b, a] == 1
    a, b = _pair_tables(kk)[:2]
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
    col_table, sign_table, lower = _pair_tables(kk)[2:]
    port_loads = loads[s_of]
    # the right-hand side adds to the row's own load those of the lower-id
    # users, one at a time in ascending order (cumsum is sequential, and
    # adding the 0.0 of the others is exact)
    terms = np.empty((len(k_of), kk + 1))
    terms[:, 0] = loads[s_of, k_of]
    np.multiply(port_loads, lower[k_of], out=terms[:, 1:])
    port_rows = _port_rows(port_loads, k_of, col_table, sign_table, terms.cumsum(axis=1)[:, -1])
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
    for _ in range(kk - 1):
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
    # the one coflow left goes first: the placed ones' ratios are all infinite
    order.append(max(set(range(kk)).difference(order)))
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
    a, b = _pair_tables(kk)[:2]
    # the pair variable holds "b finishes before a"; pairs are numbered in column order
    at_upper = kk + np.flatnonzero(rank[b] < rank[a])
    is_upper = np.zeros(prob.num_vars, dtype=bool)
    is_upper[at_upper] = True
    m = len(prob.rhs)
    # each row's right-hand side less its entries at their upper bound,
    # summed in entry order
    eff_rhs = prob.rhs - np.bincount(prob.row_of, np.where(is_upper[prob.col_of], prob.val, 0.0), minlength=m)
    # every row has one completion variable f_k (a column below kk)
    row_k = prob.col_of[prob.col_of < kk]
    # per coflow, the first row with the largest effective right-hand side;
    # the kernel is factored in row order
    order = np.lexsort((-eff_rhs, row_k))
    best = np.sort(order[np.searchsorted(row_k[order], np.arange(kk))])
    return lpcore.Basis(best, row_k[best], at_upper)


def _coflow_map(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """For each of the ascending coflow ids ``old``, its index in the
    ascending ids ``new`` (not empty), or -1 when it is not there."""
    at = np.minimum(np.searchsorted(new, old), len(new) - 1)
    return np.where(new[at] == old, at, -1)


def _mapped_basis(last: OrderingLpResult, instance: OrderingInputs, crash: lpcore.Basis) -> lpcore.Basis:
    """``last``'s final basis on this residual's reduced LP, coflows matched
    by id.  Rows and columns of coflows that are gone drop out.  The
    kernel's rows and columns are paired only by position, so a kernel row
    whose column went takes a column whose row went, completion columns
    first, and what is left over of either leaves the kernel.  Each coflow
    new to this LP takes its pair columns' bounds and its completion
    column's row from ``crash``, the BSSI start."""
    old, basis = last.inputs, last.solution.basis
    moved = _coflow_map(old.ids, instance.ids)
    kk = instance.num_coflows
    s_old, k_old = _port_row_keys(old.time_loads)
    s_new, k_new = _port_row_keys(instance.time_loads)
    table = np.full(instance.time_loads.shape, -1)
    table[s_new, k_new] = np.arange(len(s_new))
    # the new index of every old row and column, -1 for one that is gone
    to = moved[k_old]
    row_to = np.concatenate((np.where(to >= 0, table[s_old, to], -1), np.where(moved >= 0, len(s_new) + moved, -1)))
    a, b = _pair_tables(old.num_coflows)[:2]
    a, b = moved[a], moved[b]
    col_to = np.concatenate((moved, np.where((a >= 0) & (b >= 0), _pair_tables(kk)[2][a, 1 + b], -1)))
    rows, cols = row_to[basis.rows], col_to[basis.columns]
    kept = (rows >= 0) & (cols >= 0)
    lone_rows = rows[(rows >= 0) & (cols < 0)]
    lone_cols = cols[(cols >= 0) & (rows < 0)]
    lone_cols = lone_cols[np.argsort(lone_cols >= kk, kind="stable")]
    paired = min(len(lone_rows), len(lone_cols))
    upper = col_to[basis.at_upper]
    new = np.ones(kk, dtype=bool)
    new[moved[moved >= 0]] = False
    a, b = _pair_tables(kk)[:2]
    crash_upper = np.asarray(crash.at_upper)
    pair = crash_upper - kk
    f_new = new[crash.columns]
    return lpcore.Basis(np.concatenate((rows[kept], lone_rows[:paired], crash.rows[f_new])),
                        np.concatenate((cols[kept], lone_cols[:paired], crash.columns[f_new])),
                        np.concatenate((upper[upper >= 0], crash_upper[new[a[pair]] | new[b[pair]]])))


def solve_ordering_lp(instance: OrderingInputs, warm: OrderingLpResult | None = None) -> OrderingLpResult:
    """Solve the precedence LP and extract the coflow ordering.

    The ordering sorts relaxed completion times ascending; ties go to the
    lower coflow id so repeated runs are reproducible.  Of ``instance`` the
    LP reads only the four ``OrderingInputs`` fields, so a CoflowInstance
    and lp-ov-ls-online's residual inputs are solved alike.  The solve
    starts from the BSSI crash (``_ordering_crash_basis``), or with
    ``warm``, an earlier residual's answer, from its final basis mapped by
    coflow id onto this residual (``_mapped_basis``; only residuals carry
    ids), the crash taking over when the mapped kernel is singular.
    Where the warm answer could differ from the crash's in its ordering, it
    is solved again from the crash: when its basis does not prove the
    optimum unique (``SolveStats.ties``), or when two completion times lie
    within 1e-9 relative of each other, so that rounding orders them; the
    stats then add up both solves' work counters.
    """
    kk = instance.num_coflows
    prob = _build_reduced_ordering_lp(instance)
    crash = _ordering_crash_basis(instance, prob)
    sol = lpcore.solve(prob, crash if warm is None else (_mapped_basis(warm, instance, crash), crash))
    if warm is not None and sol.status == lpcore.OPTIMAL and not sol.stats.start_index:
        f = np.sort(sol.values[:kk])
        if sol.stats.ties or (np.diff(f) <= 1e-9 * np.abs(f[1:])).any():
            first, sol = sol.stats, lpcore.solve(prob, crash)
            for name in (f.name for f in fields(first)):
                if type(getattr(first, name)) is int and name != "start_index":
                    setattr(sol.stats, name, getattr(sol.stats, name) + getattr(first, name))
            sol.stats.tie_retry = True
    if sol.status != lpcore.OPTIMAL:
        raise RuntimeError(
            f"ordering LP should always be solvable, got status {sol.status!r}"
        )
    f_tilde = sol.values[:kk].copy()
    # the pair variable of (a, b), a < b, holds "b before a"
    a, b = _pair_tables(kk)[:2]
    before = sol.values[kk:]  # lpcore keeps every value in [0, upper], 1 for a pair
    delta = np.zeros((kk, kk))
    delta[b, a] = before
    delta[a, b] = 1.0 - before
    ordering = np.argsort(f_tilde, kind="stable").tolist()  # ties to the lower id
    return OrderingLpResult(
        f_tilde=f_tilde,
        delta=delta,
        ordering=ordering,
        objective=float(instance.weights @ f_tilde),
        solution=sol,
        inputs=instance,
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


def build_interval_lp(instance: CoflowInstance) -> tuple[lpcore.LpProblem, np.ndarray, np.ndarray]:
    """Interval-indexed LP: assignment weights x[k, l] say coflow k
    completes inside grid interval l; per-port rows keep the demand
    finished by each grid point within that point's capacity budget.

    Only the intervals a coflow can finish in get a variable: those that
    end no earlier than its release plus bottleneck, to 1e-9.  The last
    interval always does (the grid covers the horizon).  Variables are
    numbered in (k, l) order, and a port row (s, l) is there only when it
    holds one.  Returns the LP, the grid and the (K, L) table of each
    cell's variable, -1 for an interval that ends too early."""
    kk = instance.num_coflows
    if kk == 0:
        raise ValueError("instance has no coflows")
    grid = interval_grid(instance)
    nl = len(grid) - 1
    loads = instance.time_loads
    weight, release = instance.weights, instance.releases

    earliest = release + loads.max(axis=0)
    live = grid[None, 1:] >= earliest[:, None] - 1e-9
    n = int(live.sum())
    table = np.full((kk, nl), -1)
    table[live] = np.arange(n)
    # assignment rows: sum_l x[k, l] == 1
    k_of = np.nonzero(live)[0]
    # port rows (s, l): sum_k loads[s, k] sum_{l' <= l} x[k, l'] <= grid[l + 1]
    ports = np.flatnonzero(loads.sum(axis=1) > 0.0)
    users = loads[ports] > 0.0
    done_by = np.tri(nl, dtype=bool)                      # [l, l']: l' <= l
    si, l, k, lp = np.nonzero(users[:, None, :, None] & done_by[None, :, None, :] & live[None, None])
    # the rows (s, l) that hold an entry, numbered in that order
    held, row = np.unique(si * nl + l, return_inverse=True)
    return lpcore.LpProblem(
        n,
        objective=(weight[:, None] * grid[None, :-1])[live],
        upper=np.ones(n),
        row_of=np.concatenate([k_of, kk + row]),
        col_of=np.concatenate([np.arange(n), table[k, lp]]),
        val=np.concatenate([np.ones(n), loads[ports[si], k]]),
        rhs=np.concatenate([np.ones(kk), grid[1 + held % nl]]),
        rel=np.concatenate([np.full(kk, lpcore.EQ), np.full(len(held), lpcore.LE)]),
    ), grid, table


def solve_interval_lp(instance: CoflowInstance) -> IntervalLpResult:
    """Solve the interval-indexed LP and order coflows by relaxed completion."""
    kk = instance.num_coflows
    prob, grid, table = build_interval_lp(instance)
    # crash basis: everything assigned to the last interval is feasible
    sol = lpcore.solve(prob, lpcore.Basis(np.arange(kk), table[:, -1]))
    if sol.status != lpcore.OPTIMAL:
        raise RuntimeError(
            f"interval LP should always be solvable, got status {sol.status!r}"
        )
    x = np.zeros(table.shape)
    x[table >= 0] = sol.values
    completions = x @ grid[:-1]
    ordering = np.argsort(completions, kind="stable").tolist()  # ties to the lower id, as the ordering LP's
    return IntervalLpResult(
        interval_endpoints=grid,
        x=x,
        relaxed_completions=completions,
        ordering=ordering,
        solution=sol,
    )
