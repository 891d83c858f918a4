"""Differential test of ``sim.validate``: its reports must equal, bit for bit
and in the same order, those of the plain per-segment, per-rate loop it
replaced, kept here as ``_reference_validate``.  Hypothesis draws small
instances and the schedules of every scheduler, then corrupts them."""

import math
import re

import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance, FlowKey, instance_from_dict, instance_to_dict
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import SCHEDULERS
from coflowsched.sim import (
    CAPACITY_TOL,
    DEMAND_TOL,
    EVENT_EPS,
    Schedule,
    Segment,
    ValidationReport,
    Violation,
    validate,
)

from conftest import schedule_document

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _completions_of(schedule: Schedule) -> dict:
    """The schedule's flow completions, FlowKey to time, in completion order."""
    keys = map(schedule.keys.__getitem__, schedule.finished.tolist())
    return dict(zip(keys, schedule.finished_at.tolist()))


def _reference_validate(schedule, instance: CoflowInstance) -> ValidationReport:
    """The validator as one loop over the segments and their rates."""
    cap = instance.capacity
    n = instance.n_ports
    sizes = dict(zip(instance.flow_keys, instance.flow_sizes))
    completed = _completions_of(schedule)
    violations: list[Violation] = []
    transmitted: dict[FlowKey, float] = {}
    last_end = -math.inf
    for idx, seg in enumerate(schedule.segments):
        start, end, rates = seg.start, seg.end, seg.rates
        if end <= start:
            raise ValueError(f"segment {idx} has non-positive length")
        if start < last_end - EVENT_EPS:
            raise ValueError(f"segment {idx} overlaps its predecessor")
        last_end = end
        src_sum = [0.0] * n
        dst_sum = [0.0] * n
        for key, rate in rates.items():
            # every recorded rate counts toward the volume, nonpositive ones too
            completion = completed.get(key)
            if completion is not None:
                span = max(min(end, completion) - start, 0.0)
                transmitted[key] = transmitted.get(key, 0.0) + rate * span
            if rate <= 0.0:
                continue
            src_sum[key.source] += rate
            dst_sum[key.dest] += rate
            release = instance.coflows[key.coflow].release
            if start < release - EVENT_EPS:
                violations.append(
                    Violation("release", f"segment {idx} flow {tuple(key)}", release - start)
                )
        for p in range(n):
            if src_sum[p] > cap + CAPACITY_TOL:
                violations.append(
                    Violation("capacity_src", f"segment {idx} port {p}", src_sum[p] - cap)
                )
            if dst_sum[p] > cap + CAPACITY_TOL:
                violations.append(
                    Violation("capacity_dst", f"segment {idx} port {p}", dst_sum[p] - cap)
                )

    flows_of: list[list[FlowKey]] = [[] for _ in range(instance.num_coflows)]
    for key, size in sizes.items():
        flows_of[key.coflow].append(key)
        got = transmitted.get(key, 0.0)
        if key not in completed:
            violations.append(Violation("demand", f"flow {tuple(key)} never completed", size))
            continue
        if abs(got - size) > DEMAND_TOL:
            violations.append(Violation("demand", f"flow {tuple(key)}", abs(got - size)))

    for k, flows in enumerate(flows_of):
        recorded = schedule.completions[k]
        finished = [completed[f] for f in flows if f in completed]
        if len(finished) < len(flows):
            continue  # already reported as a demand violation
        expected = max(finished)
        if abs(recorded - expected) > EVENT_EPS * max(1.0, abs(expected)):
            violations.append(Violation("completion_def", f"coflow {k}", abs(recorded - expected)))

    return ValidationReport(ok=not violations, violations=violations)


def _outcome(check, schedule, instance):
    """A report as comparable values, magnitudes by their bits, or the
    ValueError's message."""
    try:
        report = check(schedule, instance)
    except ValueError as exc:
        return "ValueError", str(exc)
    return report.ok, [(v.kind, v.location, float(v.magnitude).hex()) for v in report.violations]


SIZES = (0.5, 1.0, 1.5, 2.0, 3.0)
FACTORS = (0.0, -1.0, -0.25, 0.5, 0.999, 1.0000001, 1.5, 2.0)
SHIFTS = (-2.0, -0.5, -1e-10, 1e-10, 0.25, 1.0)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    port = st.integers(0, n - 1)
    coflows = [
        Coflow(
            draw(st.dictionaries(st.tuples(port, port), st.sampled_from(SIZES), min_size=1, max_size=4)),
            release=draw(st.sampled_from((0.0, 0.5, 1.0, 2.5))),
            weight=draw(st.sampled_from((1.0, 2.0, 0.5))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return CoflowInstance(n, coflows, capacity=draw(st.sampled_from((1.0, 1.0, 0.5))))


def _corrupt(draw, schedule: Schedule, instance: CoflowInstance) -> Schedule:
    segments = [Segment(s.start, s.end, dict(s.rates)) for s in schedule.segments]
    flow_completions = _completions_of(schedule)
    completions = np.array(schedule.completions, dtype=float)
    num = instance.num_coflows
    for _ in range(draw(st.integers(0, 5))):
        edit = draw(st.sampled_from(("scale", "shift", "split", "early", "drop", "add", "move", "recorded")))
        if edit in ("scale", "shift", "split", "early", "drop") and not segments:
            continue
        s = draw(st.integers(0, len(segments) - 1)) if segments else 0
        if edit == "scale" and segments[s].rates:
            key = draw(st.sampled_from(sorted(segments[s].rates)))
            segments[s].rates[key] *= draw(st.sampled_from(FACTORS))
        elif edit == "shift":
            delta = draw(st.sampled_from(SHIFTS))
            seg = segments[s]
            if draw(st.booleans()):
                seg.start += delta
            else:
                seg.end += delta
        elif edit == "split":
            seg = segments[s]
            mid = seg.start + (seg.end - seg.start) * draw(st.sampled_from((0.5, 0.25, 0.9)))
            segments[s:s + 1] = [Segment(seg.start, mid, dict(seg.rates)), Segment(mid, seg.end, dict(seg.rates))]
        elif edit == "early" and segments[s].rates:
            # a rate moved to the first segment, before its coflow's release
            # when that is later
            key = draw(st.sampled_from(sorted(segments[s].rates)))
            segments[0].rates[key] = segments[s].rates.pop(key)
        elif edit == "drop":
            if draw(st.booleans()) and segments[s].rates:
                del segments[s].rates[draw(st.sampled_from(sorted(segments[s].rates)))]
            elif flow_completions:
                del flow_completions[draw(st.sampled_from(sorted(flow_completions)))]
        elif edit == "add":  # an instance flow, in a segment that may lack it or among the completions
            key = draw(st.sampled_from(instance.flow_keys))
            if draw(st.booleans()) and segments:
                segments[s].rates[key] = draw(st.sampled_from((1.0, 0.5, 0.0, -1.0)))
            else:
                flow_completions[key] = draw(st.sampled_from((0.5, 2.0, 100.0)))
        elif edit == "move" and flow_completions:
            key = draw(st.sampled_from(sorted(flow_completions)))
            flow_completions[key] += draw(st.sampled_from(SHIFTS))
        elif edit == "recorded" and num:
            k = draw(st.integers(0, num - 1))
            completions[k] += draw(st.sampled_from((1e-10, 1e-6, -0.5, 3.0)))
    return Schedule.from_dict(schedule_document(segments, completions, flow_completions), instance)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_validate_matches_the_reference_loop(instance, data):
    name = data.draw(st.sampled_from(sorted(SCHEDULERS)), label="scheduler")
    schedule = SCHEDULERS[name](instance, solve_ordering_lp(instance))
    corrupted = _corrupt(data.draw, schedule, instance)
    # a copy whose flow keys equal the instance's but are not the same tuple
    copy = instance_from_dict(instance_to_dict(instance))
    for checked in (schedule, corrupted):
        expected = _outcome(_reference_validate, checked, instance)
        assert _outcome(validate, checked, instance) == expected
        assert _outcome(validate, checked, copy) == expected


def test_validate_matches_the_reference_on_hand_made_faults():
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0, (1, 1): 2.0}, release=1.0),
                              Coflow({(0, 1): 1.0, (1, 0): 0.5, (1, 1): 1.0})])
    sched = Schedule.from_dict(schedule_document(
        segments=[
            Segment(0.0, 1.0, {FlowKey(0, 0, 0): 1.0, FlowKey(0, 1, 1): 1.0, FlowKey(1, 0, 1): 0.5}),
            Segment(1.0, 2.0, {FlowKey(1, 1, 0): 1.5, FlowKey(0, 1, 1): -1.0, FlowKey(1, 1, 1): 1.0}),
            Segment(2.0, 4.0, {FlowKey(1, 1, 0): 0.25}),
        ],
        # flow (1, 1, 0) completes at 3.0 with 1.75 of its 2.0 sent, and
        # coflow 1's flows by 2.0, not at the recorded 1.5
        completions=[3.0, 1.5],
        flow_completions={FlowKey(0, 0, 0): 1.0, FlowKey(0, 1, 1): 1.0, FlowKey(1, 0, 1): 1.0,
                          FlowKey(1, 1, 1): 2.0, FlowKey(1, 1, 0): 3.0},
    ), inst)
    outcome = _outcome(validate, sched, inst)
    assert outcome == _outcome(_reference_validate, sched, inst)
    kinds = [kind for kind, _, _ in outcome[1]]
    assert kinds == ["release", "capacity_src", "capacity_dst", "capacity_src", "capacity_dst",
                     "demand", "completion_def"]


@pytest.mark.parametrize("key, message", [
    (FlowKey(2, 0, 0), "'src' 2 is outside 0..1"),
    (FlowKey(-1, 0, 0), "'src' -1 is outside 0..1"),
    (FlowKey(0, 0, 1), "'coflow' 1 is outside 0..0"),
], ids=["key0", "key1", "key2"])
def test_rates_outside_the_instance_raise(key, message):
    # refused where the file is read, so no schedule names such a flow
    inst = CoflowInstance(2, [Coflow({(0, 0): 1.0})])
    data = schedule_document(
        segments=[Segment(0.0, 1.0, {FlowKey(0, 0, 0): 1.0}), Segment(1.0, 2.0, {key: 0.5})],
        completions=[1.0],
        flow_completions={FlowKey(0, 0, 0): 1.0},
    )
    with pytest.raises(ValueError, match=re.escape(f"segment 1 rate 0: {message}")):
        Schedule.from_dict(data, inst)
