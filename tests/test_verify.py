import numpy as np
import pytest

from conftest import tiny_instances

from coflowsched.model import Coflow, CoflowInstance, effective_size, prefix_bottlenecks
from coflowsched.relaxations import lp_lower_bound, solve_ordering_lp
from coflowsched.schedulers import lp_ov_gb, lp_ov_ls, varys
from coflowsched.sim import total_weighted_completion, validate
from coflowsched.verify import (
    OracleLimitError,
    blocking_pair_fixture,
    check_prefix_halving,
    check_approximation_bounds,
    counterexample_fixture,
    equal_bottleneck_fixture,
    oracle_opt,
    staggered_release_fixture,
)


def test_oracle_worked_examples():
    assert oracle_opt(equal_bottleneck_fixture()).optimal_value == pytest.approx(4.0)
    assert oracle_opt(blocking_pair_fixture()).optimal_value == pytest.approx(11.0)
    assert oracle_opt(staggered_release_fixture()).optimal_value == pytest.approx(12.0)


def test_oracle_limits_the_ports_in_use_not_the_labels():
    # two one-flow coflows on one port pair: 1 + 2, whatever the labels
    # and the switch size
    for n_ports, pair in ((2, (0, 1)), (8, (3, 7))):
        inst = CoflowInstance(n_ports, [Coflow({pair: 1.0}), Coflow({pair: 1.0})])
        assert oracle_opt(inst).optimal_value == 3.0


def test_oracle_schedule_is_consistent():
    inst = staggered_release_fixture()
    res = oracle_opt(inst)
    assert res.explored_states > 0
    report = validate(res.optimal_schedule, inst)
    assert report.ok, report.violations
    assert total_weighted_completion(res.optimal_schedule, inst) == pytest.approx(
        res.optimal_value
    )


def test_oracle_determinism():
    inst = blocking_pair_fixture()
    a = oracle_opt(inst)
    b = oracle_opt(inst)
    assert a.optimal_value == b.optimal_value
    assert a.explored_states == b.explored_states
    assert [tuple(sorted(s.rates)) for s in a.optimal_schedule.segments] == [
        tuple(sorted(s.rates)) for s in b.optimal_schedule.segments
    ]


def test_oracle_refuses_large_instances():
    # four source ports in use, over the limit of three a side
    wide = CoflowInstance(4, [Coflow({(s, 0): 1.0}) for s in range(4)])
    with pytest.raises(OracleLimitError, match="4 source and 1 destination"):
        oracle_opt(wide)
    heavy = CoflowInstance(2, [Coflow({(0, 0): 20.0}), Coflow({(1, 1): 1.0})])
    with pytest.raises(OracleLimitError):
        oracle_opt(heavy)
    fractional = CoflowInstance(2, [Coflow({(0, 0): 1.5}), Coflow({(1, 1): 1.0})])
    with pytest.raises(OracleLimitError):
        oracle_opt(fractional)


def test_approximation_bound_single_coflow_ratio_one():
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0)])
    res = solve_ordering_lp(inst)
    sched = lp_ov_ls(inst, res)
    report = check_approximation_bounds(inst, sched, res.objective, res.ordering)
    assert report.ratio == pytest.approx(1.0)
    assert report.total_ok and report.structural_ok


def test_approximation_bound_zero_release_uses_factor_four():
    inst = equal_bottleneck_fixture()
    res = solve_ordering_lp(inst)
    sched = lp_ov_ls(inst, res)
    report = check_approximation_bounds(inst, sched, res.objective, res.ordering)
    assert report.limit == 4.0
    assert report.ratio <= 4.0
    assert report.total_ok and report.structural_ok


def test_approximation_bound_random_sweep():
    for inst in tiny_instances(15, seed0=400):
        res = solve_ordering_lp(inst)
        sched = lp_ov_ls(inst, res)
        report = check_approximation_bounds(inst, sched, res.objective, res.ordering)
        assert report.total_ok, report
        assert report.structural_ok, report


def test_prefix_halving_single_and_fixture():
    single = CoflowInstance(2, [Coflow({(0, 1): 4.0})])
    assert check_prefix_halving(solve_ordering_lp(single), single).ok
    inst = blocking_pair_fixture()
    report = check_prefix_halving(solve_ordering_lp(inst), inst)
    assert report.ok
    assert report.worst_margin >= -1e-6


def test_prefix_halving_random_sweep():
    for inst in tiny_instances(15, seed0=500):
        assert check_prefix_halving(solve_ordering_lp(inst), inst).ok


def test_counterexample_fixture_structure():
    inst = counterexample_fixture()
    assert effective_size(inst.coflows[0], 3) == pytest.approx(2.0)
    assert prefix_bottlenecks(inst, [0, 1])[1] == pytest.approx(3.0)
    # the weights force the wide coflow first in the LP order
    assert solve_ordering_lp(inst).ordering == [0, 1]


def test_counterexample_grouped_schedule_finishes_late():
    inst = counterexample_fixture()
    sched = lp_ov_gb(inst)
    assert sched.completions[1] == pytest.approx(4.0)


def test_counterexample_is_fundamental():
    """Every unit-slot schedule that finishes the wide coflow by 2 finishes
    the other at 4 or later, though W(1..2) = 3.

    Coflow 0 puts 2 units through source port 0, so every schedule has
    C0 >= 2.  The oracle's optimum, the least 10 C0 + C1 over all unit-slot
    schedules, is 24 with completions [2, 4].  A schedule with C0 <= 2 thus
    has C0 = 2 and costs 20 + C1 >= 24, so C1 >= 4, and the optimum's
    schedule attains it.
    """
    inst = counterexample_fixture()
    least_c0 = inst.node_loads[:, 0].max()
    assert least_c0 == 2.0 and inst.weights.tolist() == [10.0, 1.0]
    res = oracle_opt(inst)
    assert res.optimal_value == 24.0
    assert res.optimal_schedule.completions.tolist() == [2.0, 4.0]
    assert res.optimal_value - 10.0 * least_c0 == 4.0


def test_oracle_sandwich_random_sweep():
    for inst in tiny_instances(12, seed0=600):
        bound = lp_lower_bound(inst)
        opt = oracle_opt(inst).optimal_value
        assert bound <= opt + 1e-6
        for sched in (lp_ov_ls(inst), varys(inst), lp_ov_gb(inst)):
            assert opt <= total_weighted_completion(sched, inst) + 1e-6
