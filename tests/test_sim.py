import math

import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance, FlowKey
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import SCHEDULERS, lp_ov_ls, varys
from coflowsched.sim import (
    FluidRun,
    Recorder,
    Schedule,
    Segment,
    total_weighted_completion,
    validate,
)
from coflowsched.verify import (
    blocking_pair_fixture,
    equal_bottleneck_fixture,
    oracle_opt,
    staggered_release_fixture,
)
from coflowsched.workload import SyntheticConfig, generate
from conftest import schedule_document


def test_list_scheduler_output_validates():
    inst = staggered_release_fixture()
    report = validate(lp_ov_ls(inst), inst)
    assert report.ok
    assert report.violations == []


def test_pre_release_transmission_flagged():
    inst = staggered_release_fixture()
    sched = Schedule.from_dict(schedule_document(
        segments=[Segment(0.0, 1.0, {FlowKey(1, 1, 3): 1.0})],
        completions=np.array([0.0, 0.0, 0.0, 0.0]),
        flow_completions={FlowKey(1, 1, 3): 1.0},
    ), inst)
    report = validate(sched, inst)
    assert not report.ok
    assert any(v.kind == "release" for v in report.violations)


def test_capacity_violation_magnitude():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}), Coflow({(0, 1): 1.0})])
    sched = Schedule.from_dict(schedule_document(
        segments=[Segment(0.0, 1.0, {FlowKey(0, 0, 0): 1.0, FlowKey(0, 1, 1): 1.0})],
        completions=np.array([1.0, 1.0]),
        flow_completions={FlowKey(0, 0, 0): 1.0, FlowKey(0, 1, 1): 1.0},
    ), inst)
    report = validate(sched, inst)
    violations = [v for v in report.violations if v.kind == "capacity_src"]
    assert len(violations) == 1
    assert violations[0].magnitude == pytest.approx(1.0)


def test_demand_shortfall_flagged():
    inst = CoflowInstance(2, [Coflow({(0, 0): 2.0})])
    sched = Schedule.from_dict(schedule_document(
        segments=[Segment(0.0, 1.0, {FlowKey(0, 0, 0): 1.0})],
        completions=np.array([1.0]),
        flow_completions={FlowKey(0, 0, 0): 1.0},
    ), inst)
    report = validate(sched, inst)
    assert any(v.kind == "demand" for v in report.violations)


def test_completion_definition_checked():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0})])
    sched = Schedule.from_dict(schedule_document(
        segments=[Segment(0.0, 1.0, {FlowKey(0, 0, 0): 1.0})],
        completions=np.array([2.5]),  # recorded later than the last flow
        flow_completions={FlowKey(0, 0, 0): 1.0},
    ), inst)
    report = validate(sched, inst)
    assert any(v.kind == "completion_def" for v in report.violations)


def test_malformed_segments_raise():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0})])
    bad_len = Schedule.from_dict(schedule_document(
        segments=[Segment(1.0, 1.0, {FlowKey(0, 0, 0): 1.0})],
        completions=np.array([1.0]),
        flow_completions={FlowKey(0, 0, 0): 1.0},
    ), inst)
    with pytest.raises(ValueError):
        validate(bad_len, inst)
    overlapping = Schedule.from_dict(schedule_document(
        segments=[
            Segment(0.0, 2.0, {FlowKey(0, 0, 0): 0.25}),
            Segment(1.0, 3.0, {FlowKey(0, 0, 0): 0.25}),
        ],
        completions=np.array([3.0]),
        flow_completions={FlowKey(0, 0, 0): 3.0},
    ), inst)
    with pytest.raises(ValueError):
        validate(overlapping, inst)


def test_validate_refuses_a_schedule_of_another_flow_table():
    inst = staggered_release_fixture()
    sched = lp_ov_ls(inst)
    # the same coflow count and ports, but coflow 3 has a second flow
    other = CoflowInstance(2, [*inst.coflows[:3], Coflow({(0, 0): 1.0, (1, 1): 2.0}, release=1.0)])
    with pytest.raises(ValueError, match="the schedule's flow ids are not the instance's"):
        validate(sched, other)
    # an equal flow table read back from JSON is the same numbering
    assert validate(Schedule.from_dict(sched.to_dict(), inst), CoflowInstance(2, list(inst.coflows))).ok


@pytest.mark.parametrize("rated, finished, bad", [([0, -1], [0, 1], -1), ([0, 2], [0, 1], 2), ([0, 1], [-1, 1], -1)],
                         ids=["rate-on-minus-one", "rate-on-nf", "completion-of-minus-one"])
def test_validate_refuses_a_recorded_flow_id_outside_the_instance(rated, finished, bad):
    # a rate on id -1 used to end in np.bincount's ValueError, one on id nf
    # in an IndexError, and a completion of id -1 counted as the last flow's
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}), Coflow({(1, 1): 1.0})])
    record = Recorder(inst)
    record.segment(0.0, 1.0, rated, [1.0, 1.0])
    record.complete(finished, 1.0)
    with pytest.raises(ValueError, match=f"^the schedule names {bad}, which is not a flow id in 0..1$"):
        validate(record.schedule(), inst)


def test_total_weighted_completion_examples():
    inst = blocking_pair_fixture()
    assert total_weighted_completion(varys(inst), inst) == pytest.approx(12.0)

    single = CoflowInstance(2, [Coflow({(0, 1): 3.0}, weight=2.0)])
    assert total_weighted_completion(lp_ov_ls(single), single) == pytest.approx(6.0)

    inst_a = equal_bottleneck_fixture()
    res = oracle_opt(inst_a)
    assert total_weighted_completion(res.optimal_schedule, inst_a) == pytest.approx(4.0)


def test_next_event_completion_before_arrival():
    inst = CoflowInstance(2, [Coflow({(0, 0): 2.0}), Coflow({(1, 1): 1.0}, release=5.0)])
    run = FluidRun(inst)
    run.set_rates({0: 1.0})
    assert run.next_event() == pytest.approx(2.0)


def test_next_event_coalesces_jitter():
    inst = CoflowInstance(
        2, [Coflow({(0, 0): 1.0 + 1e-12}), Coflow({(1, 1): 1.0}, release=1.0)]
    )
    run = FluidRun(inst)
    run.set_rates({0: 1.0})
    run.step()
    # the arrival and the completion collapse into one event
    assert run.is_complete(0)
    assert run.active_coflows() == [1]


def test_next_event_idle_until_arrival():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}, release=7.0)])
    run = FluidRun(inst)
    run.set_rates({})
    assert run.next_event() == pytest.approx(7.0)


def test_next_event_none_when_done():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0})])
    run = FluidRun(inst)
    run.set_rates({0: 1.0})
    run.step()
    assert run.done()
    assert run.next_event() is None


def test_flow_ids_number_the_instance_flows():
    inst = CoflowInstance(
        3, [Coflow({(2, 0): 1.0, (0, 1): 2.0}), Coflow({(1, 1): 4.0}, release=1.0)]
    )
    run = FluidRun(inst)
    assert "flow_keys" not in inst.__dict__  # a run makes no FlowKey
    assert list(inst.flow_keys) == [FlowKey(0, 1, 0), FlowKey(2, 0, 0), FlowKey(1, 1, 1)]
    # coflow k's ids are flow_offsets[k] to flow_offsets[k + 1] - 1
    assert inst.flow_offsets == (0, 2, 3)
    assert inst.ports[inst.flow_source_rows].tolist() == [0, 2, 1]
    assert inst.ports[inst.flow_dest_rows].tolist() == [1, 0, 1]
    assert inst.flow_coflows.tolist() == [0, 0, 1]
    assert run.remaining.tolist() == [2.0, 1.0, 4.0]
    assert run.live == [2, 1]
    run.set_rates({1: 1.0, 0: 1.0})
    run.step()
    # a finished flow's demand is exactly 0.0; its coflow counts one flow less
    assert run.remaining.tolist() == [1.0, 0.0, 4.0]
    assert run.live == [1, 1]
    # the schedule records rates and completions by flow id, in rate order
    assert list(run.record.flow) == [1, 0] and list(run.record.rate) == [1.0, 1.0]
    assert run.finished == [1]
    assert list(run.record.finished) == [1] and list(run.record.finished_at) == [1.0]
    assert list(run.record.schedule().segments[0].rates.items()) == [(FlowKey(2, 0, 0), 1.0),
                                                                     (FlowKey(0, 1, 0), 1.0)]
    assert run.active_coflows() == [0, 1]


def test_stalled_run_raises():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0})])
    run = FluidRun(inst)
    run.set_rates({})
    with pytest.raises(RuntimeError):
        run.step()


def test_rates_rejected_for_unreleased_or_unknown_flows():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}, release=2.0)])
    run = FluidRun(inst)
    with pytest.raises(ValueError, match="unreleased flow 0"):
        run.set_rates({0: 1.0})
    with pytest.raises(ValueError, match="not a flow id"):
        run.set_rates({1: 1.0})


@pytest.mark.parametrize("rates, message", [
    ({math.inf: 1.0}, "rate assigned to inf, which is not a flow id"),
    ({-1: 1.0}, "rate assigned to -1, which is not a flow id in 0..1"),
    ({2: 0.0}, "rate assigned to 2, which is not a flow id in 0..1"),
    ({FlowKey(0, 0, 0): 1.0}, r"rate assigned to FlowKey\(source=0, dest=0, coflow=0\)"),
    ({0: math.inf}, "rate inf assigned to flow 0 is not finite"),
    ({0: -math.inf}, "rate -inf assigned to flow 0 is not finite"),
    ({1: math.nan}, "rate nan assigned to flow 1 is not finite"),
], ids=["float-key", "negative-id", "id-past-the-end", "flowkey", "inf", "minus-inf", "nan"])
def test_set_rates_rejects_keys_that_are_not_ids_and_rates_that_are_not_finite(rates, message):
    # an infinite rate used to turn the flow's remaining demand into NaN,
    # and the next step then claimed that no rates were assigned
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0}), Coflow({(1, 1): 1.0})])
    run = FluidRun(inst)
    with pytest.raises(ValueError, match=message):
        run.set_rates(rates)
    assert run.next_event() is None  # no rate was taken
    run.set_rates({0: 1.0, 1: 0.5})
    run.step()
    with pytest.raises(ValueError, match="finished flow 0"):
        run.set_rates({0: 1.0})


def _ids(*ids):
    return np.array(ids, dtype=np.int64)


@pytest.mark.parametrize("ids, rates, message", [
    (_ids(0, 3), np.array([1.0, 1.0]), "rate assigned to 3, which is not a flow id in 0..2"),
    (_ids(0, -1), np.array([1.0, 1.0]), "rate assigned to -1, which is not a flow id in 0..2"),
    (_ids(-1), np.array([0.0]), "rate assigned to -1, which is not a flow id"),
    (np.array([0], dtype=np.int32), np.array([1.0]), "int64 flow ids and float64 rates"),
    (np.array([0.0]), np.array([1.0]), "int64 flow ids and float64 rates"),
    ([0], np.array([1.0]), "int64 flow ids and float64 rates"),
    (_ids(0), np.array([1], dtype=np.int64), "int64 flow ids and float64 rates"),
    (_ids(0, 1), np.array([1.0]), "int64 flow ids and float64 rates"),
    (_ids(0, 1), np.array([1.0, math.nan]), "rate nan assigned to flow 1 is not finite"),
    (_ids(1), np.array([math.inf]), "rate inf assigned to flow 1 is not finite"),
    (_ids(0), np.array([-math.inf]), "rate -inf assigned to flow 0 is not finite"),
    (_ids(2), np.array([1.0]), "rate assigned to unreleased flow 2"),
    (_ids(1, 0, 1), np.array([1.0, 0.5, 0.25]), "rate assigned twice to flow 1"),
    (_ids(0, 1, 0), np.array([0.5, 0.5, 0.5]), "rate assigned twice to flow 0"),
], ids=["past-the-end", "negative", "negative-zero-rate", "int32", "float-ids", "list", "int-rates",
        "lengths", "nan", "inf", "minus-inf", "unreleased", "twice", "twice-first"])
def test_rate_arrays_are_checked_like_rate_maps(ids, rates, message):
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0, (1, 1): 2.0}), Coflow({(0, 1): 1.0}, release=3.0)])
    run = FluidRun(inst)
    with pytest.raises(ValueError, match=message):
        run.set_rates((ids, rates))
    assert run.next_event() == 3.0  # no rate was taken
    run.set_rates((_ids(0, 1), np.array([1.0, 0.5])))
    run.step()
    with pytest.raises(ValueError, match="rate assigned to finished flow 0"):
        run.set_rates((_ids(1, 0), np.array([1.0, 1.0])))


def test_rate_arrays_drop_rates_of_zero_or_less():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0, (1, 1): 2.0}), Coflow({(0, 1): 1.0}, release=3.0)])
    run = FluidRun(inst)
    # the dropped rates may name finished and unreleased flows, as in a map
    run.set_rates((_ids(0, 1, 2), np.array([1.0, 0.0, -2.0])))
    assert run.next_event() == 1.0
    run.step()
    assert run.finished == [0]
    assert list(run.record.flow) == [0] and list(run.record.rate) == [1.0]
    run.set_rates((_ids(0, 1, 2), np.array([-0.0, 0.5, 0.0])))
    run.step()
    assert run.time == 3.0 and run.remaining.tolist() == [0.0, 1.0, 1.0]
    assert list(run.record.flow) == [0, 1] and list(run.record.rate) == [1.0, 0.5]
    run.set_rates((_ids(), np.array([])))
    assert run.next_event() is None


def test_work_conservation_on_random_instances():
    for seed in range(6):
        inst = generate(
            SyntheticConfig(
                n_ports=4,
                n_coflows=5,
                kind="combined",
                interarrival_range=(1, 20) if seed % 2 else None,
                seed=seed,
            )
        )
        sched = lp_ov_ls(inst)
        moved = sum(
            sum(seg.rates.values()) * (seg.end - seg.start) for seg in sched.segments
        )
        assert moved == pytest.approx(inst.total_demand, abs=1e-6)
        assert validate(sched, inst).ok


@pytest.mark.parametrize("ports, coflows, seed, power", [
    *((6, 10, seed, power) for seed in range(4) for power in (16, 20)),
    (8, 40, 1, 16),
    (8, 40, 2, 16),
])
def test_schedules_validate_with_sizes_and_releases_scaled_by_powers_of_two(ports, coflows, seed, power):
    # at times about 1e8, an event closer than half an ulp of the clock but
    # above EVENT_EPS used to leave a segment whose end equals its start,
    # which the validator refuses as malformed (varys and lp-ov-gb)
    base = generate(SyntheticConfig(n_ports=ports, n_coflows=coflows, seed=seed))
    factor = 2.0 ** power
    inst = CoflowInstance(ports, [
        Coflow({pair: size * factor for pair, size in cf.demands.items()},
               release=cf.release * factor, weight=cf.weight)
        for cf in base.coflows
    ])
    lp = solve_ordering_lp(inst)
    for name, scheduler in SCHEDULERS.items():
        report = validate(scheduler(inst, lp), inst)
        assert report.ok, (name, report.violations[:3])


def test_validation_report_serializes():
    inst = staggered_release_fixture()
    report = validate(lp_ov_ls(inst), inst)
    text = report.to_json()
    assert '"ok": true' in text
