"""The four scheduling policies.

* lp_ov_ls        -- LP-ordered list scheduling (offline; also the online
                     re-solving variant lp_ov_ls_online).
* varys           -- smallest-effective-bottleneck-first with rates chosen
                     so all flows of a coflow finish together.
* lp_ov_gb        -- LP ordering, geometric grouping, fluid rates per
                     aggregated group with backfilling.
* lp_ii_gb        -- interval-indexed LP ordering, grouping, and slotted
                     execution of each group via Birkhoff-von Neumann
                     matchings with backfilling.

The fluid schedulers are rate policies that sim.run_fluid drives over the
run's own flow state; lp_ii_gb steps its own slots.  All return a
sim.Schedule that passes the sim-module validator.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .model import CoflowInstance, FlowKey, port_loads, prefix_bottlenecks, residual_instance
from .relaxations import slot_length, solve_interval_lp, solve_ordering_lp
from .sim import CAPACITY_TOL, EVENT_EPS, FluidRun, Schedule, Segment, run_fluid


def _queue(instance: CoflowInstance, ordering: list) -> list[FlowKey]:
    """The flows of the coflows in ``ordering``, by (position in ordering,
    source, dest): the priority order of list scheduling."""
    return [FlowKey(i, j, k) for k in ordering for (i, j) in sorted(instance.coflows[k].demands)]


def _greedy_matching(queue: list, finished, release: list, now: float, n: int) -> list:
    """The flows that list scheduling serves at time ``now``: ``queue`` is
    scanned in order, and a flow is taken when it is released
    (``release[coflow] <= now``) and both of its ports are still free.

    Flows in ``finished`` are dropped from ``queue`` in place; unreleased
    ones are skipped but kept.  The scan stops once every source or every
    destination port is taken, because no later flow can fit then.
    """
    used_src: set[int] = set()
    used_dst: set[int] = set()
    served = []
    kept = []
    for idx, f in enumerate(queue):
        if f in finished:
            continue
        kept.append(f)
        if f.source in used_src or f.dest in used_dst or release[f.coflow] > now:
            continue
        served.append(f)
        used_src.add(f.source)
        used_dst.add(f.dest)
        if len(used_src) == n or len(used_dst) == n:
            kept.extend(queue[idx + 1:])
            break
    queue[:] = kept
    return served


# ---------------------------------------------------------------------------
# LP-ordered list scheduling
# ---------------------------------------------------------------------------

def lp_ov_ls(instance: CoflowInstance, ordering_result=None) -> Schedule:
    """Order coflows by the precedence LP, then list-schedule their flows.

    At every event the released incomplete flows are scanned in priority
    order (LP rank, then source id, then dest id) and a flow starts at full
    link rate whenever both of its ports are still free, so every segment
    is a partial matching of the switch.
    """
    queue = _queue(instance, (ordering_result or solve_ordering_lp(instance)).ordering)
    return run_fluid(instance, lambda run: _list_schedule_rates(run, queue))


def _list_schedule_rates(run: FluidRun, queue: list) -> dict:
    """Full link rate for each flow of the greedy matching over ``queue``."""
    instance = run.instance
    served = _greedy_matching(
        queue, run.flow_completions, run.release, run.time + EVENT_EPS, instance.n_ports
    )
    return dict.fromkeys(served, instance.capacity)


def lp_ov_ls_online(instance: CoflowInstance) -> Schedule:
    """List scheduling with the ordering recomputed online: the precedence
    LP is re-solved over the remaining demands of the released coflows at
    every arrival, and the queue rebuilt from the active coflows' flows by
    (residual LP rank, source, dest); coflows that the residual instance
    drops (all flows nearly done) go last, by (release, id).
    """
    queue: list[FlowKey] = []
    seen: set[int] = set()

    def policy(run: FluidRun) -> dict:
        active = run.active_coflows()
        if not seen.issuperset(active):
            seen.update(active)
            remaining = {f: d for k in active for f, d in run.remaining_of(k).items()}
            residual, ids = residual_instance(instance, remaining, run.time)
            residual_order = solve_ordering_lp(residual).ordering if ids else []
            rank = {ids[k]: p for p, k in enumerate(residual_order)}
            order = sorted(active, key=lambda k: (rank.get(k, len(rank)), run.release[k], k))
            # finished flows of the active coflows leave at the next scan
            queue[:] = _queue(instance, order)
        return _list_schedule_rates(run, queue)

    return run_fluid(instance, policy)


# ---------------------------------------------------------------------------
# Varys (smallest effective bottleneck first)
# ---------------------------------------------------------------------------

def varys(instance: CoflowInstance) -> Schedule:
    """Smallest remaining bottleneck first, all flows of a coflow paced to
    finish together, leftover capacity handed down the priority list.

    A coflow whose rate would need an exhausted port is skipped until
    capacity frees up (its share would otherwise be unbounded).
    """
    cap = instance.capacity
    n = instance.n_ports

    def policy(run: FluidRun) -> dict:
        # one snapshot of each active coflow's remaining demand and port
        # loads serves the bottleneck sort, the pacing and the leftover pass
        flows_of = {k: run.remaining_of(k) for k in run.active_coflows()}
        loads_of = {k: port_loads(flows, n) for k, flows in flows_of.items()}
        order = sorted(flows_of, key=lambda k: (max(map(max, loads_of[k])), k))
        rem_src = [cap] * n
        rem_dst = [cap] * n
        rates: dict[FlowKey, float] = {}
        skipped: list[int] = []
        for k in order:
            src_load, dst_load = loads_of[k]
            needed = [
                (load, rem)
                for load, rem in zip(src_load + dst_load, rem_src + rem_dst)
                if load > 0.0
            ]
            if any(rem <= CAPACITY_TOL for _, rem in needed):
                skipped.append(k)
                continue
            gamma = max(load / rem for load, rem in needed)
            flows = flows_of[k]
            for f in sorted(flows):
                r = flows[f] / gamma
                rates[f] = r
                rem_src[f.source] = max(rem_src[f.source] - r, 0.0)
                rem_dst[f.dest] = max(rem_dst[f.dest] - r, 0.0)
        # leftover pass over the skipped coflows: source ports ascending, then
        # flows in list order; coflows already paced to finish together keep
        # their rates (extra speed on a non-bottleneck flow would not move
        # their completion anyway).  Spare capacity only shrinks from here
        # on, so a flow with an exhausted port can never be served.
        spare: list[list] = [[] for _ in range(n)]
        for rank, k in enumerate(skipped):
            for f in flows_of[k]:
                if rem_src[f.source] > CAPACITY_TOL and rem_dst[f.dest] > CAPACITY_TOL:
                    spare[f.source].append((rank, f.dest, f))
        for i, candidates in enumerate(spare):
            for _, j, f in sorted(candidates):
                extra = min(rem_src[i], rem_dst[j])
                if extra <= CAPACITY_TOL:
                    continue
                rates[f] = extra
                rem_src[i] -= extra
                rem_dst[j] -= extra
                if rem_src[i] <= CAPACITY_TOL:
                    break
        return rates

    return run_fluid(instance, policy)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def group_coflows(instance: CoflowInstance, ordering: list) -> list[list[int]]:
    """Split an ordering of all coflow ids into groups by the geometric
    interval (2^(m-1), 2^m] that contains the cumulative bottleneck load of
    each order prefix, in time units (data / capacity): consecutive coflows
    in the same interval share a group, so the groups are consecutive
    slices of the ordering."""
    groups: list[list[int]] = []
    prev_m: int | None = None
    for k, peak in zip(ordering, prefix_bottlenecks(instance, ordering) / instance.capacity):
        m = math.ceil(math.log2(peak) - 1e-12)
        if m == prev_m:
            groups[-1].append(k)
        else:
            groups.append([k])
            prev_m = m
    return groups


# ---------------------------------------------------------------------------
# LP ordering + grouping + fluid backfilling
# ---------------------------------------------------------------------------

def lp_ov_gb(instance: CoflowInstance, ordering_result=None) -> Schedule:
    """Fluid grouped scheduling: each group is aggregated into one demand
    matrix D served at rates D_ij / W(D), then leftover capacity is raised
    pair by pair, and pairs with no group demand are backfilled from
    later-ordered coflows on the same pair.

    Groups run one after another; within a group, a pair's rate always
    serves its earliest-ordered member first.
    """
    ordering = (ordering_result or solve_ordering_lp(instance)).ordering
    groups = group_coflows(instance, ordering)
    # each group with the flows of the coflows ordered after it
    stages = [
        (grp, _queue(instance, ordering[end:]))
        for grp, end in zip(groups, accumulate(map(len, groups)))
    ]
    cap = instance.capacity
    n = instance.n_ports

    def policy(run: FluidRun) -> dict:
        group, later = next(
            (grp, rest) for grp, rest in stages if any(not run.is_complete(k) for k in grp)
        )
        demand: dict[tuple[int, int], float] = {}
        server: dict[tuple[int, int], FlowKey] = {}
        for k in group:
            if not run.released(k):
                continue
            for f, d in run.remaining_of(k).items():
                pair = (f.source, f.dest)
                demand[pair] = demand.get(pair, 0.0) + d
                server.setdefault(pair, f)
        rem_src = [cap] * n
        rem_dst = [cap] * n
        rates: dict[FlowKey, float] = {}

        def grant(f: FlowKey, amount: float) -> None:
            i, j, _ = f
            rates[f] = rates.get(f, 0.0) + amount
            rem_src[i] = max(rem_src[i] - amount, 0.0)
            rem_dst[j] = max(rem_dst[j] - amount, 0.0)

        if demand:
            finish = max(map(max, port_loads(demand, n))) / cap
            pairs = sorted(demand)
            for pair in pairs:
                grant(server[pair], demand[pair] / finish)
            # raise the group's own pair rates until a port saturates
            for pair in pairs:
                extra = min(rem_src[pair[0]], rem_dst[pair[1]])
                if extra > CAPACITY_TOL:
                    grant(server[pair], extra)
        # backfill pairs without group demand from later-ordered released
        # coflows, in pair order; spare capacity only shrinks, so each pair
        # is tested when it comes up
        finished = run.flow_completions
        now = run.time + EVENT_EPS
        for f in later:
            i, j, k = f
            if f in finished or (i, j) in demand or run.release[k] > now:
                continue
            extra = min(rem_src[i], rem_dst[j])
            if extra > CAPACITY_TOL:
                grant(f, extra)
        return rates

    return run_fluid(instance, policy)


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition
# ---------------------------------------------------------------------------

def _perfect_matching(cols_of: list) -> list:
    """Row -> column perfect matching, given each row's support as an
    ascending column list.

    Deterministic augmenting-path search (rows and columns ascending).
    The padded matrices handed to it always admit one; failure means the
    padding or the bookkeeping is broken.
    """
    n = len(cols_of)
    match_col = [-1] * n  # column -> row

    def augment(row: int, visited: set) -> bool:
        for col in cols_of[row]:
            if col not in visited:
                visited.add(col)
                if match_col[col] < 0 or augment(match_col[col], visited):
                    match_col[col] = row
                    return True
        return False

    for row in range(n):
        if not augment(row, set()):
            raise RuntimeError("no perfect matching on support; invariant violated")
    perm = [0] * n
    for col, row in enumerate(match_col):
        perm[row] = col
    return perm


def _pad_to_equal_line_sums(matrix: np.ndarray) -> np.ndarray:
    """Integer copy of ``matrix`` with nonnegative fill added so every row
    and column sums to the max line sum."""
    padded = matrix.astype(np.int64)
    n = padded.shape[0]
    target = max(padded.sum(axis=1).max(), padded.sum(axis=0).max())
    row_deficit = target - padded.sum(axis=1)
    col_deficit = target - padded.sum(axis=0)
    for i in range(n):
        for j in range(n):
            add = min(row_deficit[i], col_deficit[j])
            if add > 0:
                padded[i, j] += add
                row_deficit[i] -= add
                col_deficit[j] -= add
    return padded


def _integer_bvn(matrix: np.ndarray) -> list:
    """Birkhoff-von Neumann decomposition of a nonnegative integer matrix,
    used by the slotted scheduler: returns [(slot_count, perm)], perm[i] the
    column of row i, whose counts sum to the max line sum and whose
    permutations rebuild the padded matrix.

    Each matching is searched from scratch on the rows' supports, which are
    kept across peels: a column leaves a row's list when its entry reaches
    0.  Re-augmenting only the rows whose matched entry reached 0 would
    reuse the rest of the previous matching, but it finds other
    permutations: in a probe it gave the from-scratch decomposition on only
    97 of 300 random matrices, and lp-ii-gb's schedules follow these
    permutations.
    """
    padded = _pad_to_equal_line_sums(matrix).tolist()
    support = [[j for j, v in enumerate(row) if v > 0] for row in padded]
    out = []
    while any(support):
        perm = _perfect_matching(support)
        count = min(padded[i][j] for i, j in enumerate(perm))
        out.append((count, perm))
        for i, j in enumerate(perm):
            padded[i][j] -= count
            if not padded[i][j]:
                support[i].remove(j)
    return out


# ---------------------------------------------------------------------------
# interval-indexed LP + grouping + slotted BvN execution
# ---------------------------------------------------------------------------

def lp_ii_gb(instance: CoflowInstance) -> Schedule:
    """Slotted grouped scheduling driven by the interval-indexed LP.

    Time advances in slots of the instance's slot_length u, the coarsest
    power of two in which every flow takes whole slots; each slot executes
    one switch matching.  The released remaining demand of the active group
    (the first with an incomplete coflow) is decomposed into permutations
    (Birkhoff-von Neumann), and each permutation serves each of its pairs
    with the earliest-ordered released flow that has units left there: an
    active-group member, else a later-ordered coflow as backfill.  While the
    whole active group is unreleased, slots take the greedy port-disjoint
    matching in that same priority order.
    """
    cap = instance.capacity
    u = slot_length(instance)
    remaining = {key: int(round(size / (cap * u))) for key, size in instance.flows()}
    ordering = solve_interval_lp(instance).ordering
    groups = group_coflows(instance, ordering)
    n = instance.n_ports
    release_slot = [math.ceil(cf.release / u - 1e-9) for cf in instance.coflows]
    # the LP-priority queue, and each pair's flows in queue order
    queue = _queue(instance, ordering)
    by_pair: dict[tuple[int, int], list[FlowKey]] = {}
    for f in queue:
        by_pair.setdefault((f.source, f.dest), []).append(f)
    flows_left = [len(cf.demands) for cf in instance.coflows]
    flow_completions: dict[FlowKey, float] = {}
    segments: list[Segment] = []
    slot = min(release_slot)
    gi = 0

    def servable(f: FlowKey) -> bool:
        return remaining[f] > 0 and release_slot[f.coflow] <= slot

    def emit(serving: list, length: int) -> None:
        nonlocal slot
        start, end = slot * u, (slot + length) * u
        segments.append(Segment(start, end, {f: cap for f in serving}))
        for f in serving:
            remaining[f] -= length
            if remaining[f] == 0:
                flow_completions[f] = end
                flows_left[f.coflow] -= 1
        slot += length

    while any(flows_left):
        # earlier groups never reopen, so the active group only moves forward
        while not any(flows_left[k] for k in groups[gi]):
            gi += 1
        ready = [k for k in groups[gi] if flows_left[k] and release_slot[k] <= slot]
        next_release = min(
            (release_slot[k] for k, left in enumerate(flows_left) if left and release_slot[k] > slot),
            default=math.inf,
        )
        if not ready:
            # the whole active group is unreleased: a greedy matching instead
            serving = _greedy_matching(queue, flow_completions, release_slot, slot, n)
            if serving:
                emit(serving, min(next_release - slot, *(remaining[f] for f in serving)))
            else:
                slot = next_release
            continue
        matrix = np.zeros((n, n), dtype=np.int64)
        for k in ready:
            for (i, j) in instance.coflows[k].demands:
                matrix[i, j] += remaining[FlowKey(i, j, k)]
        # no release falls inside the decomposition, so the served set of
        # coflows stays fixed until slot reaches next_release
        for count, perm in _integer_bvn(matrix):
            while count > 0 and slot < next_release:
                served = (
                    next(filter(servable, by_pair.get(pair, ())), None)
                    for pair in enumerate(perm)
                )
                serving = [f for f in served if f is not None]
                length = min(count, next_release - slot, *(remaining[f] for f in serving))
                if serving:
                    emit(serving, length)
                else:
                    slot += length
                count -= length

    return Schedule.of_flows(segments, flow_completions, instance.num_coflows)


# CLI name -> (instance, ordering LP result) -> Schedule.  The lambdas look
# the policies up when called, so a wrapped module attribute sees every call.
SCHEDULERS = {
    "lp-ov-ls": lambda instance, lp: lp_ov_ls(instance, lp),
    "lp-ov-ls-online": lambda instance, lp: lp_ov_ls_online(instance),
    "varys": lambda instance, lp: varys(instance),
    "lp-ii-gb": lambda instance, lp: lp_ii_gb(instance),
    "lp-ov-gb": lambda instance, lp: lp_ov_gb(instance, lp),
}
