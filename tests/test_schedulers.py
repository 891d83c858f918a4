import json

import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance, FlowKey
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import (
    Schedule,
    _integer_bvn,
    _pad_to_equal_line_sums,
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


# -- online variant ---------------------------------------------------------

def test_online_equals_offline_when_everything_released():
    inst = equal_bottleneck_fixture()
    off = lp_ov_ls(inst)
    on = lp_ov_ls_online(inst)
    assert np.allclose(off.completions, on.completions)


def test_online_single_coflow():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0)])
    assert lp_ov_ls_online(inst).completions[0] == pytest.approx(5.0)


def test_online_staggered_within_bound():
    from coflowsched.relaxations import lp_lower_bound

    inst = staggered_release_fixture()
    sched = lp_ov_ls_online(inst)
    assert validate(sched, inst).ok
    assert total_weighted_completion(sched, inst) <= 5 * lp_lower_bound(inst) + 1e-6


def test_online_periodic_mode():
    inst = staggered_release_fixture()
    sched = lp_ov_ls_online(inst, resolve_period=2.0)
    assert validate(sched, inst).ok
    with pytest.raises(ValueError):
        lp_ov_ls_online(inst, resolve_period=0.0)


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
    finish_times = set(round(t, 9) for t in sched.flow_completions.values())
    assert len(finish_times) == 1


def test_varys_equal_bottleneck_total():
    inst = equal_bottleneck_fixture()
    assert total_weighted_completion(varys(inst), inst) == pytest.approx(5.0)


# -- grouping ---------------------------------------------------------------

def test_single_coflow_single_group():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0})])
    part = group_coflows([0], inst)
    assert part.groups == [[0]]


def test_grouping_separates_distant_peaks():
    inst = CoflowInstance(
        2, [Coflow({(0, 0): 1.0}), Coflow({(0, 1): 2.0})]
    )  # peaks 1 then 3
    part = group_coflows([0, 1], inst)
    assert part.groups == [[0], [1]]
    assert part.boundaries == [1.0, 4.0]


def test_grouping_geometric_intervals():
    # cumulative peaks 1 and 1.5 land in the intervals (0.5, 1] and (1, 2]
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}), Coflow({(0, 1): 0.5, (1, 0): 1.5})])
    part = group_coflows([0, 1], inst)
    assert part.groups == [[0], [1]]
    # same interval merges: peaks 1.2 then 1.8 both in (1, 2]
    inst2 = CoflowInstance(2, [Coflow({(0, 0): 1.2}), Coflow({(1, 1): 1.8})])
    part2 = group_coflows([0, 1], inst2)
    assert part2.groups == [[0, 1]]


def test_grouping_counterexample_splits():
    inst = counterexample_fixture()
    part = group_coflows([0, 1], inst)
    assert part.groups == [[0], [1]]


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
    inst = CoflowInstance(2, [Coflow({(0, 1): 2.5})])
    with pytest.raises(ValueError):
        lp_ii_gb(inst)
    # rescaling the slot makes it integral again
    sched = lp_ii_gb(inst, time_unit=0.5)
    assert sched.completions[0] == pytest.approx(2.5)


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
            assert sorted(perm.tolist()) == list(range(n))
            rebuilt[np.arange(n), perm] += count
        assert (rebuilt == padded).all()


# -- schedule serialization ---------------------------------------------------

def test_schedule_json_round_trip():
    inst = staggered_release_fixture()
    sched = lp_ov_ls(inst)
    data = json.loads(json.dumps(sched.to_dict()))
    back = Schedule.from_dict(data)
    assert np.allclose(back.completions, sched.completions)
    assert back.flow_completions == sched.flow_completions
    assert len(back.segments) == len(sched.segments)
    assert validate(back, inst).ok


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
