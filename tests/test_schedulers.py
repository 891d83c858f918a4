import json
from types import SimpleNamespace

import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance, FlowKey
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import (
    SCHEDULERS,
    Schedule,
    _PairHeads,
    _integer_bvn,
    _pad_to_equal_line_sums,
    _perfect_matching,
    group_coflows,
    lp_ii_gb,
    lp_ov_gb,
    lp_ov_ls,
    lp_ov_ls_online,
    varys,
)
from coflowsched.sim import total_weighted_completion, validate
from coflowsched.verify import (
    blocking_pair_fixture,
    counterexample_fixture,
    equal_bottleneck_fixture,
    oracle_opt,
    staggered_release_fixture,
)
from coflowsched.workload import SyntheticConfig, generate


# -- lp_ov_ls ---------------------------------------------------------------

def test_list_scheduler_single_coflow():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0)])
    sched = lp_ov_ls(inst)
    assert sched.completions[0] == pytest.approx(5.0)


def test_list_scheduler_equal_bottleneck_total():
    inst = equal_bottleneck_fixture()
    assert total_weighted_completion(lp_ov_ls(inst), inst) == pytest.approx(4.0)


def test_list_scheduler_staggered_total():
    inst = staggered_release_fixture()
    sched = lp_ov_ls(inst)
    assert total_weighted_completion(sched, inst) == pytest.approx(12.0)
    assert validate(sched, inst).ok


def test_list_scheduler_segments_are_matchings():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=8, kind="dense", seed=2))
    sched = lp_ov_ls(inst)
    for seg in sched.segments:
        sources = [f.source for f, r in seg.rates.items() if r > 0]
        dests = [f.dest for f, r in seg.rates.items() if r > 0]
        assert len(sources) == len(set(sources))
        assert len(dests) == len(set(dests))
        assert all(r == pytest.approx(inst.capacity) for r in seg.rates.values())


def test_pair_heads_serve_released_heads_and_stop_when_full():
    inst = CoflowInstance(2, [
        Coflow({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}),
        Coflow({(1, 0): 1.0}),
        Coflow({(0, 0): 1.0, (1, 1): 1.0}),
    ])
    # flow ids, by (coflow, source, dest)
    done, first, second, done_after, late, clash, rest = range(7)
    queue = [done, late, first, clash, second, done_after, rest]
    assert [inst.flow_keys[i] for i in queue] == [
        FlowKey(0, 0, 0), FlowKey(1, 0, 1), FlowKey(0, 1, 0), FlowKey(0, 0, 2),
        FlowKey(1, 0, 0), FlowKey(1, 1, 0), FlowKey(1, 1, 2),
    ]
    heads = _PairHeads(inst, queue, [0.0, 5.0, 0.0])  # coflow 1 is released at 5.0
    heads.admit(1.0)
    # one head per pair, in queue order; late is not released yet
    assert [queue[key] for key in heads.heads] == [done, first, second, done_after]
    assert heads.matching() == [done, done_after]
    heads.finish([done, done_after])
    # clash and rest become their pairs' heads; clash lost its source port
    # to first, and both ports of each side are taken at second, so the
    # scan stops there
    assert heads.head(0, 0) == clash and heads.head(1, 1) == rest
    assert heads.matching() == [first, second]
    heads.finish([first, second])
    heads.admit(5.0)
    # late is its pair's head now; clash's destination is late's, and
    # rest's source too
    assert [queue[key] for key in heads.heads] == [late, clash, rest]
    assert heads.matching() == [late]
    assert heads.head(0, 1) is None


@pytest.mark.parametrize("pending", [False, True], ids=["all-released", "pending-releases"])
def test_pair_heads_filled_at_construction_match_insort_admission(pending):
    # lp-ov-ls-online rebuilds its queue with every queued flow released,
    # taken in at construction by appends; it must reach the state that
    # admit's insort path reaches from an empty queue, and serve alike after
    rng = np.random.default_rng(7 if pending else 3)
    for _ in range(40):
        inst = generate(SyntheticConfig(n_ports=int(rng.integers(2, 6)), n_coflows=int(rng.integers(1, 9)),
                                        kind="dense", seed=int(rng.integers(1 << 30))))
        queue = [int(i) for i in rng.permutation(len(inst.flow_keys)) if rng.random() < 0.8]
        release = rng.choice([0.0, 2.0, 4.0], size=inst.num_coflows).tolist() if pending else [0.0] * inst.num_coflows
        now = 2.0
        slow = _PairHeads(inst, queue, release)
        slow.admit(now)
        fast = _PairHeads(inst, queue, release, now)
        fast.admit(now)  # nothing more to take in
        for later in (now, 4.0):
            slow.admit(later)
            fast.admit(later)
            assert fast.heads == slow.heads
            assert fast._lines == slow._lines
            assert fast._arrivals == slow._arrivals
            assert fast._ports == slow._ports
            served = slow.matching()
            assert fast.matching() == served
            slow.finish(served)
            fast.finish(served)


# -- online variant ---------------------------------------------------------

def test_online_equals_offline_when_everything_released():
    inst = equal_bottleneck_fixture()
    off = lp_ov_ls(inst)
    on = lp_ov_ls_online(inst)
    assert np.allclose(off.completions, on.completions)


def test_online_single_coflow():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0)])
    assert lp_ov_ls_online(inst).completions[0] == pytest.approx(5.0)


def test_online_schedules_an_arrival_with_nothing_left_to_order():
    # at the arrival every flow is below the residual size floor, so the
    # residual instance is empty and the coflow goes last by (release, id)
    inst = CoflowInstance(2, [Coflow({(0, 0): 1e-10}, release=1.0)])
    sched = lp_ov_ls_online(inst)
    assert validate(sched, inst).ok
    assert sched.completions[0] == 1.0000000001


def test_online_staggered_within_bound():
    from coflowsched.relaxations import lp_lower_bound

    inst = staggered_release_fixture()
    sched = lp_ov_ls_online(inst)
    assert validate(sched, inst).ok
    assert total_weighted_completion(sched, inst) <= 5 * lp_lower_bound(inst) + 1e-6


# -- varys ------------------------------------------------------------------

def test_varys_blocking_pair_total():
    inst = blocking_pair_fixture()
    sched = varys(inst)
    assert total_weighted_completion(sched, inst) == pytest.approx(12.0)
    assert sched.completions.tolist() == pytest.approx([2.0, 5.0, 5.0])


def test_varys_single_coflow_finishes_together():
    inst = CoflowInstance(3, [Coflow({(0, 1): 4.0, (0, 2): 2.0, (1, 2): 2.0}, release=1.0)])
    sched = varys(inst)
    peak = 4.0 + 2.0  # bottleneck is source port 0
    assert sched.completions[0] == pytest.approx(1.0 + peak)
    finish_times = set(round(t, 9) for t in sched.finished_at.tolist())
    assert len(finish_times) == 1


def test_varys_equal_bottleneck_total():
    inst = equal_bottleneck_fixture()
    assert total_weighted_completion(varys(inst), inst) == pytest.approx(5.0)


# -- grouping ---------------------------------------------------------------

def test_single_coflow_single_group():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0})])
    assert group_coflows(inst, [0]) == [[0]]


def test_grouping_separates_distant_peaks():
    inst = CoflowInstance(
        2, [Coflow({(0, 0): 1.0}), Coflow({(0, 1): 2.0})]
    )  # peaks 1 then 3
    assert group_coflows(inst, [0, 1]) == [[0], [1]]


def test_grouping_geometric_intervals():
    # cumulative peaks 1 and 1.5 land in the intervals (0.5, 1] and (1, 2]
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}), Coflow({(0, 1): 0.5, (1, 0): 1.5})])
    assert group_coflows(inst, [0, 1]) == [[0], [1]]
    # same interval merges: peaks 1.2 then 1.8 both in (1, 2]
    inst2 = CoflowInstance(2, [Coflow({(0, 0): 1.2}), Coflow({(1, 1): 1.8})])
    assert group_coflows(inst2, [0, 1]) == [[0, 1]]


def test_grouped_schedulers_do_not_depend_on_the_unit_of_data():
    # sizes and capacity scaled alike leave every time, so every group and
    # every completion, as it was
    for seed in range(4):
        inst = generate(SyntheticConfig(n_ports=5, n_coflows=8, kind="dense",
                                        interarrival_range=(1, 30), seed=seed))
        ordering = solve_ordering_lp(inst).ordering
        for factor in (0.37, 1000.0):
            scaled = CoflowInstance(inst.n_ports, [
                Coflow({pair: size * factor for pair, size in cf.demands.items()},
                       release=cf.release, weight=cf.weight)
                for cf in inst.coflows
            ], capacity=inst.capacity * factor)
            assert group_coflows(scaled, ordering) == group_coflows(inst, ordering)
            for scheduler in (lp_ov_gb, lp_ii_gb):
                assert np.allclose(scheduler(scaled).completions, scheduler(inst).completions,
                                   rtol=1e-9, atol=0.0), (seed, factor, scheduler.__name__)


def test_grouping_counterexample_splits():
    inst = counterexample_fixture()
    assert group_coflows(inst, [0, 1]) == [[0], [1]]


# -- lp_ov_gb ---------------------------------------------------------------

def test_grouped_fluid_single_coflow_matches_varys():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0, (1, 0): 2.0}, release=1.0)])
    a = lp_ov_gb(inst)
    b = varys(inst)
    assert np.allclose(a.completions, b.completions)


def test_grouped_fluid_counterexample_green_finishes_at_four():
    inst = counterexample_fixture()
    sched = lp_ov_gb(inst)
    assert sched.completions[0] == pytest.approx(2.0)
    assert sched.completions[1] == pytest.approx(4.0)


def test_grouped_fluid_equal_bottleneck_total():
    inst = equal_bottleneck_fixture()
    sched = lp_ov_gb(inst)
    assert total_weighted_completion(sched, inst) == pytest.approx(4.0)
    assert validate(sched, inst).ok


def test_grouped_fluid_backfills_a_pair_whose_group_flow_is_unreleased():
    # coflow 0 forms the first group but arrives at 5; until then its pair
    # has no server, so coflow 1, the next group, backfills it alone
    inst = CoflowInstance(1, [Coflow({(0, 0): 1.0}, release=5.0), Coflow({(0, 0): 4.0})])
    assert group_coflows(inst, [0, 1]) == [[0], [1]]
    sched = lp_ov_gb(inst, SimpleNamespace(ordering=[0, 1]))
    assert [(seg.start, seg.end, seg.rates) for seg in sched.segments] == [
        (0.0, 4.0, {FlowKey(0, 0, 1): 1.0}),
        (5.0, 6.0, {FlowKey(0, 0, 0): 1.0}),
    ]
    assert sched.completions.tolist() == [6.0, 4.0]
    assert validate(sched, inst).ok


def test_integer_capacity_schedules_like_float_capacity():
    # an int capacity must not truncate the per-port residuals to integers
    base = generate(
        SyntheticConfig(n_ports=4, n_coflows=5, kind="dense", interarrival_range=None, seed=3)
    )
    as_int = CoflowInstance(4, base.coflows, capacity=1)
    for scheduler in (varys, lp_ov_gb):
        assert scheduler(as_int).to_dict() == scheduler(base).to_dict()


# -- lp_ii_gb ---------------------------------------------------------------

def test_slotted_single_flow_runs_consecutively():
    inst = CoflowInstance(2, [Coflow({(0, 1): 3.0})])
    sched = lp_ii_gb(inst)
    assert sched.completions[0] == pytest.approx(3.0)
    assert len(sched.segments) == 1  # consecutive slots merge into one chunk


def test_slotted_uniform_group_makespan_two():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0})])
    sched = lp_ii_gb(inst)
    assert sched.completions[0] == pytest.approx(2.0)


def test_slotted_staggered_dominates_oracle():
    inst = staggered_release_fixture()
    sched = lp_ii_gb(inst)
    assert validate(sched, inst).ok
    assert total_weighted_completion(sched, inst) >= 12.0 - 1e-9


def test_slotted_rejects_fractional_demand():
    # size 2.5 takes five slots of 1/2
    inst = CoflowInstance(2, [Coflow({(0, 1): 2.5})])
    sched = lp_ii_gb(inst)
    assert validate(sched, inst).ok
    assert sched.completions[0] == pytest.approx(2.5)
    # 1/3 needs a slot so fine that the 1e8 flow would take over 2^52 of them
    inst = CoflowInstance(2, [Coflow({(0, 1): 1e8}), Coflow({(1, 0): 1 / 3})])
    with pytest.raises(ValueError, match=r"flow \(0, 1, 0\) would take 6.71e\+15 slots"):
        lp_ii_gb(inst)


def test_slotted_respects_releases():
    inst = staggered_release_fixture()
    sched = lp_ii_gb(inst)
    for seg in sched.segments:
        for key in seg.rates:
            assert seg.start >= inst.coflows[key.coflow].release - 1e-9


# -- bvn --------------------------------------------------------------------

def test_integer_bvn_rebuilds_padded_matrix():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        m = rng.integers(0, 5, size=(n, n))
        if trial % 2:
            m[rng.integers(0, n)] += rng.integers(0, 6, size=n)  # unbalanced rows
        if not m.any():
            m[0, 0] = 1
        target = max(m.sum(axis=1).max(), m.sum(axis=0).max())
        padded = _pad_to_equal_line_sums(m)
        assert (padded >= m).all()
        assert padded.sum(axis=1).tolist() == [target] * n
        assert padded.sum(axis=0).tolist() == [target] * n
        parts = _integer_bvn(m)
        assert sum(count for count, _ in parts) == target
        rebuilt = np.zeros((n, n), dtype=np.int64)
        for count, perm in parts:
            assert count > 0
            assert sorted(perm) == list(range(n))
            rebuilt[np.arange(n), perm] += count
        assert (rebuilt == padded).all()


def _reference_integer_bvn(matrix: np.ndarray) -> list:
    """The decomposition with every matching's supports rebuilt from the
    padded matrix, as lp-ii-gb computed it before the supports were kept
    across peels."""

    def perfect_matching(support: np.ndarray) -> np.ndarray:
        n = support.shape[0]
        cols_of = [np.flatnonzero(row).tolist() for row in support]
        match_col = [-1] * n

        def augment(row: int, visited: set) -> bool:
            for col in cols_of[row]:
                if col not in visited:
                    visited.add(col)
                    if match_col[col] < 0 or augment(match_col[col], visited):
                        match_col[col] = row
                        return True
            return False

        for row in range(n):
            assert augment(row, set())
        perm = np.empty(n, dtype=int)
        perm[match_col] = np.arange(n)
        return perm

    padded = _pad_to_equal_line_sums(matrix)
    out = []
    while padded.any():
        perm = perfect_matching(padded > 0)
        count = int(min(padded[i, perm[i]] for i in range(len(perm))))
        out.append((count, perm.tolist()))
        for i in range(len(perm)):
            padded[i, perm[i]] -= count
    return out


def test_integer_bvn_equals_the_from_scratch_decomposition():
    rng = np.random.default_rng(11)
    matrices = [np.array([[3]]), np.array([[0]]), np.zeros((3, 3), dtype=np.int64),
                np.array([[0, 0], [0, 5]]), np.array([[4, 0, 0], [0, 0, 0], [0, 0, 0]])]
    for trial in range(300):
        n = int(rng.integers(1, 9))
        m = rng.integers(0, 6, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
        if trial % 3 == 1:
            m[rng.integers(0, n)] = 0  # a zero row, filled by the padding
        elif trial % 3 == 2:
            m[:, rng.integers(0, n)] += rng.integers(0, 9, size=n)  # an unbalanced column
        matrices.append(m)
    for m in matrices:
        assert _integer_bvn(m) == _reference_integer_bvn(m), m


def test_perfect_matching_resumes_where_the_supports_changed():
    # a search resumed at the first row whose support changed, from the
    # states of the last search, finds the matching of a fresh search
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        support = [[j for j in range(n) if rng.random() < 0.5 or j == i] for i in range(n)]
        states = [None] * n
        assert _perfect_matching(support, states) == _perfect_matching(support)
        start = int(rng.integers(0, n))
        for i in range(start, n):  # one column in or out, the diagonal kept for a perfect matching
            support[i] = sorted((set(support[i]) ^ {int(rng.integers(0, n))}) | {i})
        assert _perfect_matching(support, states, start) == _perfect_matching(support)


# -- schedule serialization ---------------------------------------------------

def test_schedule_json_round_trip():
    inst = generate(SyntheticConfig(n_ports=4, n_coflows=6, kind="combined",
                                    interarrival_range=(1, 40), seed=41))
    res = solve_ordering_lp(inst)
    for name, scheduler in SCHEDULERS.items():
        sched = scheduler(inst, res)
        text = json.dumps(sched.to_dict())
        back = Schedule.from_dict(json.loads(text), inst)
        assert json.dumps(back.to_dict()) == text, name
        assert validate(back, inst) == validate(sched, inst), name
        assert validate(back, inst).ok, name


# -- cross-scheduler sanity ---------------------------------------------------

def test_all_schedulers_validate_on_random_instances():
    for seed in range(4):
        inst = generate(
            SyntheticConfig(
                n_ports=4,
                n_coflows=6,
                kind="combined",
                interarrival_range=(1, 40) if seed % 2 else None,
                seed=40 + seed,
            )
        )
        res = solve_ordering_lp(inst)
        for sched in (
            lp_ov_ls(inst, res),
            lp_ov_ls_online(inst),
            varys(inst),
            lp_ov_gb(inst, res),
            lp_ii_gb(inst),
        ):
            report = validate(sched, inst)
            assert report.ok, report.violations[:3]
