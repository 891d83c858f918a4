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

The fluid schedulers are rate policies that sim.run_fluid drives over a
sim.FluidRun's flow state, returning rates by flow id (a flow's position
in the instance's flow table): list scheduling as a dict of at most one
rate per port; varys and lp_ov_gb, with hundreds of rates per event, as an
id array and a rate array.  lp_ii_gb steps its own slots.  All return a
sim.Schedule that passes the validator.

A priority queue of flow ids kept per port pair, _PairHeads, serves every
policy that takes each pair's first released unfinished flow, its head:
list scheduling's greedy matching (lp_ov_ls, lp_ov_ls_online) scans the
heads alone, lp_ii_gb's permutations serve each of their pairs with its
head, and lp_ov_gb splits the heads at its active group's end: those
before serve the group's pairs, those after backfill the others.  Heads
move only when a coflow is released or a head finishes, so no event
rescans the queue.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, repeat

import numpy as np

from .model import CoflowInstance, prefix_bottlenecks, residual
from .relaxations import solve_interval_lp, solve_ordering_lp
from .sim import CAPACITY_TOL, EVENT_EPS, FluidRun, Recorder, Schedule, run_fluid


def _queue(instance: CoflowInstance, ordering: list) -> list[int]:
    """The flow ids of the coflows in ``ordering``, by (position in
    ordering, source, dest): the priority order of list scheduling."""
    offsets = instance.flow_offsets
    return [i for k in ordering for i in range(offsets[k], offsets[k + 1])]


class _PairHeads:
    """A priority queue of flows, kept per port pair.

    ``queue`` lists flow ids in any priority order, and a flow's position in
    it is its key: (LP rank, source, dest) in every policy here, lp_ii_gb's
    rank from the interval LP.  Each port pair that occurs in the queue
    keeps the keys of its released, unfinished flows in ascending order; the
    first is the pair's *head*, and ``heads`` holds the heads' keys,
    ascending.  A coflow is released by ``now`` when ``release[coflow] <=
    now``.  Lines exist only for the pairs of port rows that occur in the queue.

    Head lemma: the greedy matching over the whole queue, which takes a
    released unfinished flow when both of its ports are still free, takes
    only heads.  Any other such flow on a pair comes after the pair's head,
    and when the scan reaches the head, the head either takes both ports or
    finds one of them taken; either way the later flow finds a port taken.
    So the same greedy over the heads alone serves the same flows in the
    same order.

    Heads change only on the pairs of coflows released since the last
    ``admit`` and on pairs whose head the caller reports finished; nothing
    rescans the queue.  The constructor takes in no coflow.  ``reset``
    starts over with a new queue of the same instance and takes in the
    coflows released by ``now`` at once: their keys, met in ascending
    order, are appended to their lines, and the lines' first keys are then
    the heads in ascending order, the state that ``admit(now)`` would reach.
    """

    def __init__(self, instance: CoflowInstance, queue: list, release: list):
        rows = self._rows = len(instance.ports)
        self._release = release
        # each flow's pair, source * rows + dest, its port bits, row r bit r,
        # and its coflow, by id
        self._pair = (instance.flow_source_rows * rows + instance.flow_dest_rows).tolist()
        self._bits = [(1 << pair // rows) | (1 << pair % rows) for pair in self._pair]
        self._coflow = instance.flow_coflows.tolist()
        self._most = min(instance.num_source_ports, rows - instance.num_source_ports)  # see matching
        self.reset(queue, -math.inf)

    def reset(self, queue: list, now: float) -> None:
        """Start over from ``queue``, the coflows released by ``now``
        taken in, keeping the per-flow tables."""
        self.queue = queue
        pair, coflow, release = self._pair, self._coflow, self._release
        self._ports = [self._bits[i] for i in queue]  # by key
        lines: dict[int, list[int]] = {}  # by pair
        keys_of: dict[int, list[int]] = {}
        for key, i in enumerate(queue):
            k = coflow[i]
            if release[k] <= now:
                lines.setdefault(pair[i], []).append(key)
            else:
                keys_of.setdefault(k, []).append(key)
        self._lines = lines
        self.heads: list[int] = [line[0] for line in lines.values()]
        # latest release first, so the next coflow to release is popped off the end
        self._arrivals = sorted(keys_of.items(), key=lambda item: release[item[0]], reverse=True)

    def admit(self, now: float) -> None:
        """Take in the flows of the coflows released by ``now``."""
        arrivals, heads = self._arrivals, self.heads
        while arrivals and self._release[arrivals[-1][0]] <= now:
            for key in arrivals.pop()[1]:
                line = self._lines.setdefault(self._pair[self.queue[key]], [])
                if not line or key < line[0]:
                    if line:
                        del heads[bisect_left(heads, line[0])]
                    insort(heads, key)
                insort(line, key)

    def finish(self, flows) -> None:
        """Advance the pairs of ``flows``, the ids of this queue's heads
        that have just finished, to their next released unfinished flow."""
        heads = self.heads
        for i in flows:
            line = self._lines[self._pair[i]]
            del heads[bisect_left(heads, line.pop(0))]
            if line:
                insort(heads, line[0])

    def head(self, source: int, dest: int) -> int | None:
        """The first released unfinished flow id on the pair of rows, if any."""
        line = self._lines.get(source * self._rows + dest)
        return self.queue[line[0]] if line else None

    def matching(self) -> list[int]:
        """The flow ids that list scheduling serves now: the heads in
        order, each taken when both of its ports are still free.  Each
        taken flow holds a source and a destination of its own, so once
        the smaller side's ports in use are all taken the scan stops."""
        queue, ports, most = self.queue, self._ports, self._most
        used = 0
        served = []
        for key in self.heads:
            if used & ports[key]:
                continue
            used |= ports[key]
            served.append(queue[key])
            if len(served) == most:
                break
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
    run = FluidRun(instance)
    heads = _PairHeads(instance, queue, run.release)

    def policy(run: FluidRun) -> dict:
        heads.finish(run.finished)
        return _list_schedule_rates(run, heads)

    return run_fluid(run, policy)


def _list_schedule_rates(run: FluidRun, heads: _PairHeads) -> dict:
    """Full link rate for each flow of the greedy matching over ``heads``,
    which has been told the flows the last step finished."""
    heads.admit(run.time + EVENT_EPS)
    return dict.fromkeys(heads.matching(), run.instance.capacity)


def lp_ov_ls_online(instance: CoflowInstance) -> Schedule:
    """List scheduling with the ordering recomputed online: the precedence
    LP is re-solved over the remaining demands of the released coflows at
    every arrival, and the queue rebuilt from the active coflows' unfinished
    flows by (residual LP rank, source, dest); coflows that the residual
    drops (all flows nearly done) go last, by (release, id).

    An arrival is the clock reaching the next release time recorded at the
    last solve, so the events between arrivals only serve the queue.  Each
    residual LP is handed the last one's answer, to start from its final
    basis (``solve_ordering_lp``'s ``warm``).
    """
    run = FluidRun(instance)
    heads = _PairHeads(instance, [], run.release)
    due = -math.inf  # the next release time after the last solve
    last = None  # the last residual LP's answer
    offsets = instance.flow_offsets

    def policy(run: FluidRun) -> dict:
        nonlocal due, last
        heads.finish(run.finished)  # the heads that served them, before any rebuild
        now = run.time
        if due <= now + EVENT_EPS:
            upcoming = run.next_release()
            due = math.inf if upcoming is None else upcoming
            left = run.remaining
            if upcoming is not None:  # leave out the flows not released yet
                left = np.where(run.flow_release <= now + EVENT_EPS, left, 0.0)
            inputs = residual(instance, left, now)
            order = []
            if inputs.num_coflows:
                # called by this module's name, which perfbench's tracer wraps
                last = solve_ordering_lp(inputs, last)
                order = inputs.ids[last.ordering].tolist()
            order += sorted(set(run.active_coflows()).difference(order), key=lambda k: (run.release[k], k))
            unfinished = run.remaining.tolist()
            # every queued flow is released: the queue is filled in one pass
            heads.reset([i for k in order for i in range(offsets[k], offsets[k + 1]) if unfinished[i]],
                        now + EVENT_EPS)
        return _list_schedule_rates(run, heads)

    return run_fluid(run, policy)


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
    run = FluidRun(instance)
    kk, offsets = instance.num_coflows, instance.flow_offsets
    # every coflow's loads on the ports in use, by row, in one bincount over
    # (coflow, row) cells that adds each cell in flow id order
    rows, source, dest = len(instance.ports), instance.flow_source_rows, instance.flow_dest_rows
    owner_cell = rows * instance.flow_coflows
    cells = np.concatenate((owner_cell + source, owner_cell + dest))
    # a coflow's flows run by (source, dest), so its flows on a source row
    # are one id range: coflow k's on row r are spans[r][k]
    bounds = np.searchsorted(owner_cell + source, np.arange(kk * rows + 1)).tolist()
    spans = [[range(bounds[k * rows + r], bounds[k * rows + r + 1]) for k in range(kk)]
             for r in range(instance.num_source_ports)]
    # by flow id: the dest row, and the demand left as Python floats (the
    # run updates ``remaining`` in place)
    dest_of, left_of = dest.tolist(), memoryview(run.remaining)

    def policy(run: FluidRun):
        active = run.active_coflows()
        if not active:
            return {}
        rem = run.remaining
        loads = np.bincount(cells, np.concatenate((rem, rem)), minlength=kk * rows).reshape(kk, rows)
        peak = loads.max(axis=1).tolist()
        order = sorted(active, key=peak.__getitem__)  # stable: a tie goes to the lower id
        needs = loads[order] > 0.0
        spare = np.full(rows, float(cap))  # capacity left, by row
        flows, rates = [], []  # id and rate arrays: each paced coflow's, then the leftover pass's
        skipped: list[int] = []
        at = 0
        while at < len(order):
            # spare capacity only shrinks, so every coflow before the next
            # one with capacity left on all its ports is skipped
            fits = ~(needs[at:] & (spare <= CAPACITY_TOL)).any(axis=1)
            nxt = at + int(fits.argmax())
            if not fits[nxt - at]:
                skipped += order[at:]
                break
            skipped += order[at:nxt]
            k, need = order[nxt], needs[nxt]
            gamma = (loads[k, need] / spare[need]).max()
            lo = offsets[k]
            ids = lo + np.flatnonzero(rem[lo:offsets[k + 1]] > 0.0)  # by (source, dest)
            paced = rem[ids] / gamma
            flows.append(ids)
            rates.append(paced)
            # each port's rates subtracted in flow order; the rates are
            # positive, so one clamp at the end gives the bits of a clamp
            # after each subtraction
            np.subtract.at(spare, source[ids], paced)
            np.subtract.at(spare, dest[ids], paced)
            np.maximum(spare, 0.0, out=spare)
            at = nxt + 1
        # leftover pass over the skipped coflows: source rows ascending, on
        # each the skipped coflows by rank and their unfinished flows there
        # by dest; a flow is raised by the smaller of its two ports' spare
        # capacity when both exceed CAPACITY_TOL.  A raise leaves one of its
        # ports with nothing, so the first flow met on a pair is the only
        # one raised there, and a saturated row is left at once.
        # Coflows already paced to finish together keep their rates (extra
        # speed on a non-bottleneck flow would not move their completion).
        left = spare.tolist()
        raised, extra = [], []
        for r, on_row in enumerate(spans):
            for i in (i for k in skipped for i in on_row[k]):
                if left[r] <= CAPACITY_TOL:
                    break
                j = dest_of[i]
                if left[j] > CAPACITY_TOL and left_of[i] > 0.0:
                    x = min(left[r], left[j])
                    raised.append(i)
                    extra.append(x)
                    left[r] -= x
                    left[j] -= x
        flows.append(np.array(raised, dtype=np.int64))
        rates.append(np.array(extra, dtype=float))
        return np.concatenate(flows), np.concatenate(rates)

    return run_fluid(run, policy)


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
    cap = instance.capacity
    rows = len(instance.ports)
    source, dest = instance.flow_source_rows.tolist(), instance.flow_dest_rows.tolist()  # by flow id
    run = FluidRun(instance)
    # each flow's port pair, numbered among the pairs that occur, in
    # (source, dest) order; pair_src and pair_dst give each pair's rows
    pair_key, pair = np.unique(instance.flow_source_rows * rows + instance.flow_dest_rows, return_inverse=True)
    pair_src, pair_dst = pair_key // rows, pair_key % rows
    queue = _queue(instance, ordering)
    # each queue position's flow id, pair and release
    q_flow = np.array(queue, dtype=np.int64)
    q_pair, q_release = pair[q_flow], run.flow_release[q_flow]
    ends = [0, *accumulate(sum(run.live[k] for k in grp) for grp in groups)]  # in the queue
    heads = _PairHeads(instance, queue, run.release)
    current = 0

    def policy(run: FluidRun) -> tuple:
        nonlocal current
        # earlier groups never reopen, so the active group only moves forward
        while all(map(run.is_complete, groups[current])):
            current += 1
        lo, hi = ends[current], ends[current + 1]
        heads.finish(run.finished)
        now = run.time + EVENT_EPS
        heads.admit(now)
        # every earlier group is finished, so the heads before the group's
        # end are its servers, each pair's first released unfinished member;
        # those after it are the backfill, on pairs with no such member
        keys = np.array(heads.heads, dtype=np.int64)
        cut = bisect_left(heads.heads, hi)
        served = keys[:cut]
        # the group's released demand per pair, added in queue order (a
        # finished flow adds 0.0); a pair has some exactly when it has a server
        weight = run.remaining[q_flow[lo:hi]]
        if run.next_release() is not None:  # some coflow is not released yet
            weight = np.where(q_release[lo:hi] <= now, weight, 0.0)
        demand = np.bincount(q_pair[lo:hi], weight, minlength=pair_key.size)
        by_seen = q_pair[served]  # the pairs in the order their servers appear
        by_pair = np.argsort(by_seen)
        pairs, servers = by_seen[by_pair], q_flow[served[by_pair]]
        spare = np.full(rows, float(cap))  # capacity left, by row
        amount = np.zeros(0)  # the servers' rates
        if served.size:
            # the port loads add the pairs in the order of their servers
            shares = demand[by_seen]
            loads = np.bincount(np.concatenate((pair_src[by_seen], pair_dst[by_seen])),
                                np.concatenate((shares, shares)), minlength=rows)
            finish = loads.max() / cap
            amount = demand[pairs] / finish
            # each port's grants subtracted in pair order; the grants are
            # positive, so one clamp at the end gives the bits of a clamp
            # after each grant
            np.subtract.at(spare, pair_src[pairs], amount)
            np.subtract.at(spare, pair_dst[pairs], amount)
            np.maximum(spare, 0.0, out=spare)
        # raise the group's own pair rates, then backfill pairs without group
        # demand from later-ordered released coflows, in queue order (LP
        # rank, then source, then dest), each by the smaller of its two
        # ports' spare capacity when both exceed CAPACITY_TOL; spare
        # capacity only shrinks, so only each pair's head can be served
        ids = np.concatenate((servers, q_flow[keys[cut:]]))
        rates = amount.tolist() + [0.0] * (ids.size - cut)  # a backfill head left at 0.0 is dropped
        left = spare.tolist()
        for at, i in enumerate(ids.tolist()):
            s, d = source[i], dest[i]
            if left[s] > CAPACITY_TOL and left[d] > CAPACITY_TOL:
                x = min(left[s], left[d])
                rates[at] += x
                left[s] -= x
                left[d] -= x
        return ids, np.array(rates)

    return run_fluid(run, policy)


# ---------------------------------------------------------------------------
# Birkhoff-von Neumann decomposition
# ---------------------------------------------------------------------------

def _perfect_matching(cols_of: list, states: list | None = None, start: int = 0) -> list:
    """Row -> column perfect matching, given each row's support as an
    ascending column list.

    Deterministic augmenting-path search (rows and columns ascending).
    Row r's search reads only the supports of rows 0..r, so the column ->
    row match before row r depends only on the supports of rows 0..r-1.
    ``states``, a list of n entries when given, keeps that match before
    each row (``states[r]``) from one call to the next: a call whose rows
    before ``start`` kept their supports since the last call on the same
    list resumes at row ``start`` and finds the matching a search from
    row 0 would.  The padded matrices handed to it always admit one;
    failure means the padding or the bookkeeping is broken.
    """
    n = len(cols_of)
    if states is None:
        states, start = [None] * n, 0
    match_col = states[start].copy() if start else [-1] * n  # column -> row

    def augment(row: int, visited: set) -> bool:
        for col in cols_of[row]:
            if col not in visited:
                visited.add(col)
                if match_col[col] < 0 or augment(match_col[col], visited):
                    match_col[col] = row
                    return True
        return False

    for row in range(start, n):
        states[row] = match_col.copy()
        if not augment(row, set()):
            raise RuntimeError("no perfect matching on support; invariant violated")
    perm = [0] * n
    for col, row in enumerate(match_col):
        perm[row] = col
    return perm


def _pad_to_equal_line_sums(matrix: list) -> list:
    """Copy of ``matrix``, a square list of int rows, with nonnegative fill
    added so every row and column sums to the max line sum."""
    padded = [list(row) for row in matrix]
    row_sums, col_sums = [sum(row) for row in padded], [sum(col) for col in zip(*padded)]
    target = max(row_sums + col_sums)
    row_deficit = [target - total for total in row_sums]
    col_deficit = [target - total for total in col_sums]
    for i, row in enumerate(padded):
        for j in range(len(row)):
            add = min(row_deficit[i], col_deficit[j])
            if add > 0:
                row[j] += add
                row_deficit[i] -= add
                col_deficit[j] -= add
    return padded


def _integer_bvn(matrix: list):
    """Birkhoff-von Neumann decomposition of a nonnegative integer matrix,
    a square list of int rows, used by the slotted scheduler: yields
    (slot_count, perm) pairs, perm[i] the column of row i, whose counts sum
    to the max line sum and whose permutations rebuild the padded matrix.
    Each is peeled when it is asked for, so a caller that stops early
    peels no more.

    Each matching is the one a search from scratch on the rows' supports
    finds.  The supports are kept across peels: a column leaves a row's
    list when its entry reaches 0.  The search resumes at the first row
    that lost a column in the last peel, from the match it kept before
    that row (``_perfect_matching``'s ``states``); the rows above kept their
    supports, so their part of the search would come out the same.
    Re-augmenting only the rows whose matched entry reached 0 would reuse
    more of the previous matching, but it finds other permutations: in a
    probe it gave the from-scratch decomposition on only 97 of 300 random
    matrices, and lp-ii-gb's schedules follow these permutations.
    """
    padded = _pad_to_equal_line_sums(matrix)
    support = [[j for j, v in enumerate(row) if v > 0] for row in padded]
    states = [None] * len(padded)
    start = 0
    while any(support):
        perm = _perfect_matching(support, states, start)
        count = min(padded[i][j] for i, j in enumerate(perm))
        yield count, perm
        start = -1
        for i, j in enumerate(perm):
            padded[i][j] -= count
            if not padded[i][j]:
                support[i].remove(j)
                if start < 0:
                    start = i


# ---------------------------------------------------------------------------
# interval-indexed LP + grouping + slotted BvN execution
# ---------------------------------------------------------------------------

def lp_ii_gb(instance: CoflowInstance) -> Schedule:
    """Slotted grouped scheduling driven by the interval-indexed LP.

    Time advances in slots of the instance's slot_length u, the coarsest
    power of two in which every flow takes whole slots and the first step
    of the interval LP's grid; each slot executes
    one switch matching.  The released remaining demand of the active group
    (the first with an incomplete coflow) is decomposed into permutations
    (Birkhoff-von Neumann) over the instance's ports in use, so an
    unused port changes nothing, and each permutation serves each of its
    pairs with the earliest-ordered released flow that has units left
    there: an active-group member, else a later-ordered coflow as backfill.
    The permutations are peeled as they are served, up to the next release,
    where the demand released by then is decomposed afresh.
    While the whole active group is unreleased, slots take the greedy
    port-disjoint matching in that same priority order.
    """
    cap = instance.capacity
    lp = solve_interval_lp(instance)
    u = float(lp.interval_endpoints[1])  # the grid is 0, u, 2u, 4u, ...
    offsets, coflow_of = instance.flow_offsets, instance.flow_coflows.tolist()
    remaining = [int(round(size / (cap * u))) for size in instance.flow_sizes]  # slots, by flow id
    # each flow's BvN row and column: its source's row, and its dest's row
    # less the count of sources; the padding comes after both
    sources, dests = instance.num_source_ports, len(instance.ports) - instance.num_source_ports
    row_of, col_of = instance.flow_source_rows.tolist(), (instance.flow_dest_rows - sources).tolist()
    width = max(sources, dests)
    groups = group_coflows(instance, lp.ordering)
    release_slot = [math.ceil(release / u - 1e-9) for release in instance.releases.tolist()]
    release_slots = sorted(set(release_slot))
    # the LP-priority queue, each pair's head the flow that serves it
    heads = _PairHeads(instance, _queue(instance, lp.ordering), release_slot)
    flows_left = np.diff(offsets).tolist()
    record = Recorder(instance)
    slot = min(release_slot)
    gi = 0

    def emit(serving: list, length: int) -> None:
        nonlocal slot
        start, end = slot * u, (slot + length) * u
        record.segment(start, end, serving, repeat(cap, len(serving)))
        finished = []
        for i in serving:
            remaining[i] -= length
            if remaining[i] == 0:
                flows_left[coflow_of[i]] -= 1
                finished.append(i)
        record.complete(finished, end)
        heads.finish(finished)
        slot += length

    while any(flows_left):
        # earlier groups never reopen, so the active group only moves forward
        while not any(flows_left[k] for k in groups[gi]):
            gi += 1
        heads.admit(slot)
        ready = [k for k in groups[gi] if flows_left[k] and release_slot[k] <= slot]
        # a coflow released after slot has all its flows left
        at = bisect_right(release_slots, slot)
        next_release = release_slots[at] if at < len(release_slots) else math.inf
        if not ready:
            # the whole active group is unreleased: a greedy matching instead
            serving = heads.matching()
            if serving:
                emit(serving, min(next_release - slot, *(remaining[i] for i in serving)))
            else:
                slot = next_release
            continue
        matrix = [[0] * width for _ in range(width)]
        for k in ready:
            for i in range(offsets[k], offsets[k + 1]):
                matrix[row_of[i]][col_of[i]] += remaining[i]
        # no release falls inside the decomposition, so the served set of
        # coflows, and each pair's head but for completions, stays fixed
        # until slot reaches next_release, which ends the decomposition:
        # the next pass decomposes the demand released by then
        for count, perm in _integer_bvn(matrix):
            while count > 0 and slot < next_release:
                serving = [i for row, c in enumerate(perm[:sources])
                           if c < dests and (i := heads.head(row, sources + c)) is not None]
                length = min(count, next_release - slot, *(remaining[i] for i in serving))
                if serving:
                    emit(serving, length)
                else:
                    slot += length
                count -= length
            if slot == next_release:
                break

    return record.schedule()


# CLI name -> (instance, ordering LP result) -> Schedule.  The lambdas look
# the policies up when called, so a wrapped module attribute sees every call.
SCHEDULERS = {
    "lp-ov-ls": lambda instance, lp: lp_ov_ls(instance, lp),
    "lp-ov-ls-online": lambda instance, lp: lp_ov_ls_online(instance),
    "varys": lambda instance, lp: varys(instance),
    "lp-ii-gb": lambda instance, lp: lp_ii_gb(instance),
    "lp-ov-gb": lambda instance, lp: lp_ov_gb(instance, lp),
}
