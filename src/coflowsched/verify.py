"""Exact brute-force oracle for tiny instances, bound checkers, and the
hand-built fixtures used throughout the test suite.

The oracle enumerates unit-slot matching schedules with memoization, so it
is exact for integer demands at unit capacity and deliberately refuses
anything big enough to blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Coflow, CoflowInstance, FlowKey, prefix_bottlenecks
from .relaxations import OrderingLpResult
from .schedulers import Schedule, Segment
from .sim import total_weighted_completion

DEFAULT_MAX_PORTS = 3
DEFAULT_MAX_TOTAL_DEMAND = 14
_STATE_LIMIT = 5_000_000


@dataclass
class OracleResult:
    optimal_value: float
    optimal_schedule: Schedule
    explored_states: int


class OracleLimitError(ValueError):
    """Raised when an instance exceeds the oracle's enumeration limits."""


def _require_small_integer_instance(
    instance: CoflowInstance, max_ports: int, max_total_demand: float
) -> None:
    if instance.capacity != 1.0:
        raise OracleLimitError("oracle requires unit capacity")
    if instance.n_ports > max_ports:
        raise OracleLimitError(
            f"oracle limited to {max_ports} ports, instance has {instance.n_ports}"
        )
    total = instance.total_demand
    if total > max_total_demand:
        raise OracleLimitError(
            f"oracle limited to total demand {max_total_demand}, instance has {total}"
        )
    for key, size in instance.flows():
        if abs(size - round(size)) > 1e-9:
            raise OracleLimitError(f"flow {tuple(key)} has non-integer size {size}")
    for cf in instance.coflows:
        if abs(cf.release - round(cf.release)) > 1e-9:
            raise OracleLimitError(f"release {cf.release} is not an integer")


def _maximal_matchings(flows: list) -> list:
    """All maximal sets of port-disjoint flows, each set produced once.

    ``flows`` holds (src, dst, index) triples; returns tuples of indices.
    """
    out = []
    total = len(flows)

    def extend(idx: int, used_src: int, used_dst: int, picked: tuple) -> None:
        if idx == total:
            for s, d, fi in flows:
                if not (used_src >> s & 1) and not (used_dst >> d & 1):
                    return  # not maximal: this flow could still be added
            out.append(picked)
            return
        s, d, fi = flows[idx]
        if not (used_src >> s & 1) and not (used_dst >> d & 1):
            extend(idx + 1, used_src | 1 << s, used_dst | 1 << d, picked + (fi,))
        extend(idx + 1, used_src, used_dst, picked)
        return

    extend(0, 0, 0, ())
    # drop duplicates caused by the exclude-branch reaching the same maximal set
    return sorted(set(out))


class _SlotSearch:
    """Unit-slot schedules of a small integer instance, as a search space.

    A state is the tuple of remaining units per flow, in ``instance.flows()``
    order.  From slot start ``t`` a state either idles until the next
    release, when none of its remaining flows is released yet, or serves
    one maximal matching of its released flows for the slot (t, t + 1].
    """

    def __init__(self, instance: CoflowInstance, max_ports: int, max_total_demand: float):
        _require_small_integer_instance(instance, max_ports, max_total_demand)
        flows = list(instance.flows())
        self.keys = [key for key, _ in flows]
        self.initial = tuple(int(round(size)) for _, size in flows)
        self.releases = [int(round(cf.release)) for cf in instance.coflows]
        self.flows_of = [
            [fi for fi, key in enumerate(self.keys) if key.coflow == k]
            for k in range(instance.num_coflows)
        ]

    def left(self, state: tuple, k: int) -> int:
        """Remaining units of coflow ``k``."""
        return sum(state[fi] for fi in self.flows_of[k])

    def successors(self, state: tuple, t: int):
        """Yields (matching, next state, next slot start); a matching of None
        idles until the next release."""
        pending = [fi for fi, units in enumerate(state) if units > 0]
        ready = [
            (self.keys[fi].source, self.keys[fi].dest, fi)
            for fi in pending
            if self.releases[self.keys[fi].coflow] <= t
        ]
        if not ready:
            yield None, state, min(self.releases[self.keys[fi].coflow] for fi in pending)
            return
        for matching in _maximal_matchings(ready):
            nxt = list(state)
            for fi in matching:
                nxt[fi] -= 1
            yield matching, tuple(nxt), t + 1


def oracle_opt(
    instance: CoflowInstance,
    max_ports: int = DEFAULT_MAX_PORTS,
    max_total_demand: float = DEFAULT_MAX_TOTAL_DEMAND,
) -> OracleResult:
    """Exact minimum total weighted completion time over unit-slot
    matching schedules, with the schedule that achieves it.

    Exhaustive depth-first search over maximal matchings per slot,
    memoized on (remaining demands, time).
    """
    search = _SlotSearch(instance, max_ports, max_total_demand)
    keys = search.keys
    weights = [cf.weight for cf in instance.coflows]
    memo: dict[tuple, tuple] = {}

    def solve(state: tuple, t: int) -> tuple:
        """Returns (cost-to-finish from t, matching, next slot start).

        ``matching`` of None means idle until the next slot start;
        otherwise the matching occupies the slot (t, t + 1].
        """
        if not any(state):
            return 0.0, None, t
        key = (state, t)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) > _STATE_LIMIT:
            raise OracleLimitError("oracle state limit exceeded")
        best = (math.inf, None, t)
        for matching, nxt, t_next in search.successors(state, t):
            finished = {
                keys[fi].coflow for fi in matching or () if not search.left(nxt, keys[fi].coflow)
            }
            cost = sum(weights[k] * t_next for k in finished) + solve(nxt, t_next)[0]
            if cost < best[0] - 1e-12:
                best = (cost, matching, t_next)
        memo[key] = best
        return best

    value, _, _ = solve(search.initial, 0)

    # rebuild the optimal schedule by replaying the memoized decisions
    segments: list[Segment] = []
    flow_completions: dict[FlowKey, float] = {}
    state, t = search.initial, 0
    while any(state):
        _, matching, t_next = solve(state, t)
        if matching is not None:
            rates = {keys[fi]: 1.0 for fi in matching}
            if segments and segments[-1].end == t and segments[-1].rates == rates:
                segments[-1] = Segment(segments[-1].start, t_next, rates)
            else:
                segments.append(Segment(float(t), float(t_next), rates))
            nxt = list(state)
            for fi in matching:
                nxt[fi] -= 1
                if nxt[fi] == 0:
                    flow_completions[keys[fi]] = float(t_next)
            state = tuple(nxt)
        t = t_next

    completions = np.zeros(instance.num_coflows)
    for key, done_at in flow_completions.items():
        completions[key.coflow] = max(completions[key.coflow], done_at)
    schedule = Schedule(
        segments=segments, completions=completions, flow_completions=flow_completions
    )
    return OracleResult(
        optimal_value=float(value),
        optimal_schedule=schedule,
        explored_states=len(memo),
    )


def min_completion_under_deadline(
    instance: CoflowInstance,
    constrained: int,
    deadline: float,
    target: int,
    max_ports: int = DEFAULT_MAX_PORTS,
    max_total_demand: float = DEFAULT_MAX_TOTAL_DEMAND,
) -> float:
    """Earliest completion of ``target`` over all unit-slot matching
    schedules that finish coflow ``constrained`` by ``deadline``.

    Returns +inf when no schedule meets the deadline.
    """
    search = _SlotSearch(instance, max_ports, max_total_demand)
    memo: dict[tuple, float] = {}

    def solve(state: tuple, t: int) -> float:
        if search.left(state, constrained) > 0 and t >= deadline - 1e-9:
            return math.inf
        if search.left(state, target) == 0:
            return float(t)
        key = (state, t)
        if key not in memo:
            # completion of target happens at the end of a served slot
            memo[key] = min(
                solve(nxt, t_next) for _, nxt, t_next in search.successors(state, t)
            )
        return memo[key]

    return solve(search.initial, 0)


# ---------------------------------------------------------------------------
# bound checkers
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    ratio: float
    limit: float
    total: float
    lp_bound: float
    total_ok: bool
    structural_ok: bool
    worst_structural_margin: float


def check_approximation_bounds(
    instance: CoflowInstance, schedule: Schedule, lp_bound: float, ordering=None
) -> BoundReport:
    """Check the proven guarantees of the list scheduler on one schedule:
    total within 5x the LP bound (4x when every release is zero), and each
    completion within release + twice the cumulative bottleneck load of
    its LP-order prefix."""
    total = total_weighted_completion(schedule, instance)
    zero_release = all(cf.release == 0 for cf in instance.coflows)
    limit = 4.0 if zero_release else 5.0
    ratio = total / lp_bound if lp_bound > 0 else math.inf
    total_ok = total <= limit * lp_bound + 1e-6

    structural_ok = True
    worst = math.inf
    if ordering is not None:
        ordering = list(getattr(ordering, "ordering", ordering))
        peaks = prefix_bottlenecks(instance, ordering) / instance.capacity
        for k, w_prefix in zip(ordering, peaks):
            bound_k = instance.coflows[k].release + 2.0 * w_prefix
            margin = bound_k - schedule.completions[k]
            worst = min(worst, margin)
            if margin < -1e-6:
                structural_ok = False
    return BoundReport(
        ratio=ratio,
        limit=limit,
        total=total,
        lp_bound=lp_bound,
        total_ok=total_ok,
        structural_ok=structural_ok,
        worst_structural_margin=worst,
    )


@dataclass
class PrefixBoundReport:
    ok: bool
    worst_margin: float


def check_prefix_halving(ordering_result: OrderingLpResult, instance: CoflowInstance) -> PrefixBoundReport:
    """Relaxed completions dominate half the cumulative bottleneck load:
    sorted by relaxed completion, f_k >= W(1..k)/2 - 1e-6 for every prefix."""
    ordering = ordering_result.ordering
    peaks = prefix_bottlenecks(instance, ordering) / instance.capacity
    worst = math.inf
    for k, w_prefix in zip(ordering, peaks):
        margin = ordering_result.f_tilde[k] - w_prefix / 2.0
        worst = min(worst, margin)
    return PrefixBoundReport(ok=worst >= -1e-6, worst_margin=worst)


# ---------------------------------------------------------------------------
# worked-example fixtures
# ---------------------------------------------------------------------------

def equal_bottleneck_fixture() -> CoflowInstance:
    """2x2 switch, three unit-bottleneck coflows: one spans both ports, the
    other two each use one port pair.  Bottleneck-size ordering cannot tell
    them apart, yet serving the two singles first is strictly better
    (total 4 versus 5)."""
    return CoflowInstance(
        n_ports=2,
        coflows=[
            Coflow({(0, 0): 1.0, (1, 1): 1.0}),
            Coflow({(0, 0): 1.0}),
            Coflow({(1, 1): 1.0}),
        ],
    )


def blocking_pair_fixture() -> CoflowInstance:
    """2x2 switch where the smallest-bottleneck coflow blocks both ports:
    serving it first gives total 12, serving the two larger singles first
    gives the optimal 11."""
    return CoflowInstance(
        n_ports=2,
        coflows=[
            Coflow({(0, 0): 2.0, (1, 1): 2.0}),
            Coflow({(0, 0): 3.0}),
            Coflow({(1, 1): 3.0}),
        ],
    )


def staggered_release_fixture() -> CoflowInstance:
    """2x2 switch, four single-flow coflows: one of size 1 released at 0,
    three of size 2 released at 1.  Exercises release handling; the exact
    optimum is 12."""
    return CoflowInstance(
        n_ports=2,
        coflows=[
            Coflow({(0, 0): 1.0}, release=0.0),
            Coflow({(0, 1): 2.0}, release=1.0),
            Coflow({(1, 0): 2.0}, release=1.0),
            Coflow({(1, 1): 2.0}, release=1.0),
        ],
    )


def counterexample_fixture() -> CoflowInstance:
    """3x3 instance showing that an ordering cannot always be executed so
    that the k-th coflow finishes by the cumulative bottleneck W(1..k).

    The heavy first coflow (weight 10 forces it first) fills both source
    ports for its whole duration, so the second coflow cannot finish
    before time 4 even though W(1,2) = 3.
    """
    return CoflowInstance(
        n_ports=3,
        coflows=[
            Coflow({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}, weight=10.0),
            Coflow({(0, 2): 1.0, (1, 2): 1.0}, weight=1.0),
        ],
    )
