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

All schedulers emit a Schedule of piecewise-constant rate segments that
passes the sim-module validator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CoflowInstance, FlowKey, port_loads, prefix_bottlenecks, residual_instance
from .relaxations import solve_interval_lp, solve_ordering_lp
from .sim import EVENT_EPS, FluidRun, run_fluid

_EPS = 1e-9


@dataclass
class Segment:
    """Constant rate assignment over [start, end)."""

    start: float
    end: float
    rates: dict

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass
class Schedule:
    """Piecewise-constant rates plus per-flow and per-coflow completions."""

    segments: list
    completions: np.ndarray
    flow_completions: dict

    def to_dict(self) -> dict:
        return {
            "segments": [
                {
                    "start": seg.start,
                    "end": seg.end,
                    "rates": [
                        {"src": f.source, "dst": f.dest, "coflow": f.coflow, "rate": r}
                        for f, r in sorted(seg.rates.items())
                    ],
                }
                for seg in self.segments
            ],
            "completions": list(map(float, self.completions)),
            "flow_completions": [
                {"src": f.source, "dst": f.dest, "coflow": f.coflow, "time": t}
                for f, t in sorted(self.flow_completions.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        segments = [
            Segment(
                seg["start"],
                seg["end"],
                {
                    FlowKey(r["src"], r["dst"], r["coflow"]): r["rate"]
                    for r in seg["rates"]
                },
            )
            for seg in data["segments"]
        ]
        completions = np.array(data["completions"], dtype=float)
        flow_completions = {
            FlowKey(e["src"], e["dst"], e["coflow"]): e["time"]
            for e in data["flow_completions"]
        }
        return cls(segments, completions, flow_completions)


@dataclass
class GroupPartition:
    """Coflow ids grouped by the geometric interval of the cumulative
    bottleneck load along the LP ordering."""

    groups: list
    boundaries: list


def _schedule_from_run(run: FluidRun) -> Schedule:
    return Schedule(
        segments=[Segment(a, b, rates) for a, b, rates in run.segments],
        completions=run.coflow_completions.copy(),
        flow_completions=dict(run.flow_completions),
    )


def _flow_keys(instance: CoflowInstance) -> list:
    """Per coflow id, its (source, dest) pairs mapped to their FlowKeys."""
    return [
        {pair: FlowKey(*pair, k) for pair in cf.demands} for k, cf in enumerate(instance.coflows)
    ]


def _ordering_of(instance: CoflowInstance, ordering_result) -> list:
    if ordering_result is None:
        ordering_result = solve_ordering_lp(instance)
    return list(getattr(ordering_result, "ordering", ordering_result))


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
    ordering = _ordering_of(instance, ordering_result)
    pos = {k: p for p, k in enumerate(ordering)}
    queue = sorted(
        (key for key, _ in instance.flows()), key=lambda f: (pos[f.coflow], f.source, f.dest)
    )
    return _schedule_from_run(run_fluid(instance, lambda run: _list_schedule_rates(run, queue)))


def _list_schedule_rates(run: FluidRun, queue: list) -> dict:
    """Full-rate greedy matching over ``queue``, flows in priority order.

    Finished flows are dropped from ``queue`` in place and unreleased ones
    are skipped.  The scan stops once every source or every destination
    port is taken, because no later flow can fit then.
    """
    instance = run.instance
    cap = instance.capacity
    n = instance.n_ports
    horizon = run.time + EVENT_EPS
    finished = run.flow_completions
    used_src: set[int] = set()
    used_dst: set[int] = set()
    rates = {}
    kept = []
    for idx, f in enumerate(queue):
        if f in finished:
            continue
        kept.append(f)
        if (
            f.source in used_src
            or f.dest in used_dst
            or instance.coflows[f.coflow].release > horizon
        ):
            continue
        rates[f] = cap
        used_src.add(f.source)
        used_dst.add(f.dest)
        if len(used_src) == n or len(used_dst) == n:
            kept.extend(queue[idx + 1:])
            break
    queue[:] = kept
    return rates


def lp_ov_ls_online(instance: CoflowInstance) -> Schedule:
    """List scheduling with the ordering recomputed online: the precedence
    LP is re-solved over the remaining demands of the released coflows at
    every arrival.
    """
    run = FluidRun(instance)
    pos: dict[int, int] = {}
    seen: set[int] = set()

    def sort_key(f: FlowKey):
        if f.coflow in pos:
            return (0, pos[f.coflow], 0.0, f.coflow, f.source, f.dest)
        release = instance.coflows[f.coflow].release
        return (1, 0, release, f.coflow, f.source, f.dest)

    # the keys only change when pos does, so the queue is re-sorted at
    # re-solves alone
    queue = sorted((key for key, _ in instance.flows()), key=sort_key)

    def resolve(now: float) -> None:
        active = {
            key: run.remaining[key]
            for k in run.active_coflows()
            for key in run.incomplete_flows(k)
        }
        if not active:
            return
        residual, ids = residual_instance(instance, active, now)
        result = solve_ordering_lp(residual)
        pos.clear()
        pos.update({ids[k]: p for p, k in enumerate(result.ordering)})
        queue.sort(key=sort_key)

    while not run.done():
        active_now = set(run.active_coflows())
        if active_now - seen:
            resolve(run.time)
            seen = active_now
        run.set_rates(_list_schedule_rates(run, queue))
        run.step()
    return _schedule_from_run(run)


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
    keys = _flow_keys(instance)

    def policy(run: FluidRun) -> dict:
        # one snapshot of each active coflow's remaining demand and port
        # loads serves the bottleneck sort, the pacing and the leftover pass
        pairs_of = {k: run.remaining_of(k) for k in run.active_coflows()}
        loads_of = {k: port_loads(pairs, n) for k, pairs in pairs_of.items()}
        order = sorted(pairs_of, key=lambda k: (max(map(max, loads_of[k])), k))
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
            if any(rem <= _EPS for _, rem in needed):
                skipped.append(k)
                continue
            gamma = max(load / rem for load, rem in needed)
            pairs = pairs_of[k]
            for pair in sorted(pairs):
                r = pairs[pair] / gamma
                rates[keys[k][pair]] = r
                rem_src[pair[0]] = max(rem_src[pair[0]] - r, 0.0)
                rem_dst[pair[1]] = max(rem_dst[pair[1]] - r, 0.0)
        # leftover pass over the skipped coflows: source ports ascending, then
        # flows in list order; coflows already paced to finish together keep
        # their rates (extra speed on a non-bottleneck flow would not move
        # their completion anyway).  Spare capacity only shrinks from here
        # on, so a flow with an exhausted port can never be served.
        spare: list[list] = [[] for _ in range(n)]
        for rank, k in enumerate(skipped):
            for (i, j) in pairs_of[k]:
                if rem_src[i] > _EPS and rem_dst[j] > _EPS:
                    spare[i].append((rank, j, k))
        for i, candidates in enumerate(spare):
            for _, j, k in sorted(candidates):
                extra = min(rem_src[i], rem_dst[j])
                if extra <= _EPS:
                    continue
                rates[keys[k][(i, j)]] = extra
                rem_src[i] -= extra
                rem_dst[j] -= extra
                if rem_src[i] <= _EPS:
                    break
        return rates

    return _schedule_from_run(run_fluid(instance, policy))


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def group_coflows(ordering_result, instance: CoflowInstance) -> GroupPartition:
    """Partition the LP-ordered coflows by the geometric interval
    (2^(m-1), 2^m] that contains the cumulative bottleneck load of the
    order prefix; consecutive coflows in the same interval share a group."""
    ordering = _ordering_of(instance, ordering_result)
    groups: list[list[int]] = []
    boundaries: list[float] = []
    prev_m: int | None = None
    for k, peak in zip(ordering, prefix_bottlenecks(instance, ordering)):
        m = math.ceil(math.log2(peak) - 1e-12)
        if m == prev_m:
            groups[-1].append(k)
        else:
            groups.append([k])
            boundaries.append(2.0 ** m)
            prev_m = m
    return GroupPartition(groups=groups, boundaries=boundaries)


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
    if ordering_result is None:
        ordering_result = solve_ordering_lp(instance)
    ordering = list(ordering_result.ordering)
    groups = group_coflows(ordering_result, instance).groups
    pos = {k: p for p, k in enumerate(ordering)}
    cap = instance.capacity
    n = instance.n_ports
    keys = _flow_keys(instance)

    def policy(run: FluidRun) -> dict:
        gi = next(
            g for g, grp in enumerate(groups) if any(not run.is_complete(k) for k in grp)
        )
        members = [k for k in groups[gi] if not run.is_complete(k)]
        active_members = [k for k in members if run.released(k)]
        demand: dict[tuple[int, int], float] = {}
        server: dict[tuple[int, int], int] = {}
        for k in sorted(active_members, key=lambda k: pos[k]):
            for pair, d in run.remaining_of(k).items():
                demand[pair] = demand.get(pair, 0.0) + d
                server.setdefault(pair, k)
        rem_src = [cap] * n
        rem_dst = [cap] * n
        rates: dict[FlowKey, float] = {}

        def grant(pair: tuple[int, int], k: int, amount: float) -> None:
            key = keys[k][pair]
            rates[key] = rates.get(key, 0.0) + amount
            rem_src[pair[0]] = max(rem_src[pair[0]] - amount, 0.0)
            rem_dst[pair[1]] = max(rem_dst[pair[1]] - amount, 0.0)

        if demand:
            finish = max(map(max, port_loads(demand, n))) / cap
            pairs = sorted(demand)
            for pair in pairs:
                grant(pair, server[pair], demand[pair] / finish)
            # raise the group's own pair rates until a port saturates
            for pair in pairs:
                extra = min(rem_src[pair[0]], rem_dst[pair[1]])
                if extra > _EPS:
                    grant(pair, server[pair], extra)
        # backfill idle pairs from later-ordered released coflows; spare
        # capacity only shrinks, so pairs on an exhausted port are dropped
        # before the sort
        last_pos = max(pos[k] for k in groups[gi])
        for k in ordering[last_pos + 1:]:
            if run.is_complete(k) or not run.released(k):
                continue
            idle = [
                pair
                for pair in run.remaining_of(k)
                if pair not in demand and rem_src[pair[0]] > _EPS and rem_dst[pair[1]] > _EPS
            ]
            for pair in sorted(idle):
                extra = min(rem_src[pair[0]], rem_dst[pair[1]])
                if extra > _EPS:
                    grant(pair, k, extra)
        return rates

    return _schedule_from_run(run_fluid(instance, policy))


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition
# ---------------------------------------------------------------------------

def _perfect_matching(support: np.ndarray) -> np.ndarray:
    """Row -> column perfect matching on a boolean support matrix.

    Deterministic augmenting-path search (rows and columns ascending).
    The padded matrices handed to it always admit one; failure means the
    padding or the bookkeeping is broken.
    """
    n = support.shape[0]
    cols_of = [np.flatnonzero(row).tolist() for row in support]
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
    perm = np.empty(n, dtype=int)
    perm[match_col] = np.arange(n)
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
    permutations rebuild the padded matrix."""
    padded = _pad_to_equal_line_sums(matrix)
    out = []
    while padded.any():
        perm = _perfect_matching(padded > 0)
        count = int(min(padded[i, perm[i]] for i in range(len(perm))))
        out.append((count, perm))
        for i in range(len(perm)):
            padded[i, perm[i]] -= count
    return out


# ---------------------------------------------------------------------------
# interval-indexed LP + grouping + slotted BvN execution
# ---------------------------------------------------------------------------

def lp_ii_gb(
    instance: CoflowInstance, time_unit: float = 1.0, ordering_result=None
) -> Schedule:
    """Slotted grouped scheduling driven by the interval-indexed LP.

    Time advances in slots of ``time_unit``; each slot executes one switch
    matching.  The released remaining demand of the active group (the first
    with an incomplete coflow) is decomposed into permutations
    (Birkhoff-von Neumann), and each permutation serves each of its pairs
    with the earliest-ordered released flow that has units left there: an
    active-group member, else a later-ordered coflow as backfill.  While the
    whole active group is unreleased, slots take the greedy port-disjoint
    matching in that same priority order.
    Demands must be integer multiples of capacity x time_unit.
    """
    cap = instance.capacity
    quantum = cap * time_unit
    remaining: dict[FlowKey, int] = {}
    for key, size in instance.flows():
        u = size / quantum
        if abs(u - round(u)) > 1e-9 * max(1.0, u) or round(u) <= 0:
            raise ValueError(
                f"flow {tuple(key)} size {size} is not a positive multiple of "
                f"capacity*time_unit = {quantum}; rescale time_unit"
            )
        remaining[key] = int(round(u))
    if ordering_result is None:
        ordering_result = solve_interval_lp(instance, time_unit)
    groups = group_coflows(ordering_result, instance).groups
    pos = {k: p for p, k in enumerate(ordering_result.ordering)}
    n = instance.n_ports
    release_slot = [math.ceil(cf.release / time_unit - 1e-9) for cf in instance.coflows]
    keys = _flow_keys(instance)
    # the LP-priority queue, and each pair's flows in queue order
    queue = sorted(remaining, key=lambda f: (pos[f.coflow], f.source, f.dest))
    by_pair: dict[tuple[int, int], list[FlowKey]] = {}
    for f in queue:
        by_pair.setdefault((f.source, f.dest), []).append(f)
    flows_left = [len(flows) for flows in keys]
    flow_completions: dict[FlowKey, float] = {}
    segments: list[Segment] = []
    slot = min(release_slot)
    gi = 0

    def servable(f: FlowKey) -> bool:
        return remaining[f] > 0 and release_slot[f.coflow] <= slot

    def emit(serving: list, length: int) -> None:
        nonlocal slot
        start, end = slot * time_unit, (slot + length) * time_unit
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
            serving = []
            used_src: set[int] = set()
            used_dst: set[int] = set()
            for f in queue:
                if servable(f) and f.source not in used_src and f.dest not in used_dst:
                    serving.append(f)
                    used_src.add(f.source)
                    used_dst.add(f.dest)
            if serving:
                emit(serving, min(next_release - slot, *(remaining[f] for f in serving)))
            else:
                slot = next_release
            continue
        matrix = np.zeros((n, n), dtype=np.int64)
        for k in ready:
            for f in keys[k].values():
                matrix[f.source, f.dest] += remaining[f]
        # no release falls inside the decomposition, so the served set of
        # coflows stays fixed until slot reaches next_release
        for count, perm in _integer_bvn(matrix):
            while count > 0 and slot < next_release:
                served = (
                    next(filter(servable, by_pair.get(pair, ())), None)
                    for pair in enumerate(perm.tolist())
                )
                serving = [f for f in served if f is not None]
                length = min(count, next_release - slot, *(remaining[f] for f in serving))
                if serving:
                    emit(serving, length)
                else:
                    slot += length
                count -= length

    completions = np.zeros(instance.num_coflows)
    for f, t in flow_completions.items():
        completions[f.coflow] = max(completions[f.coflow], t)
    return Schedule(segments=segments, completions=completions, flow_completions=flow_completions)


# CLI name -> (instance, ordering LP result) -> Schedule.  The lambdas look
# the policies up when called, so a wrapped module attribute sees every call.
SCHEDULERS = {
    "lp-ov-ls": lambda instance, lp: lp_ov_ls(instance, lp),
    "lp-ov-ls-online": lambda instance, lp: lp_ov_ls_online(instance),
    "varys": lambda instance, lp: varys(instance),
    "lp-ii-gb": lambda instance, lp: lp_ii_gb(instance),
    "lp-ov-gb": lambda instance, lp: lp_ov_gb(instance, lp),
}
