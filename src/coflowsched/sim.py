"""The schedule type, the event-driven fluid executor that builds it, and
the independent schedule validator.

run_fluid advances a policy's piecewise-constant rates between events
(coflow releases and flow completions, coalesced within EVENT_EPS) and
returns a Schedule, in which each coflow completes with its last flow.  The
validator re-checks any schedule against the model constraints: per-port
capacity, no pre-release transmission, demand conservation, and the
definition of coflow completion.  It reads only the schedule's segments,
so it stays independent of how the schedule was produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import CoflowInstance, FlowKey, _field

EVENT_EPS = 1e-9
CAPACITY_TOL = 1e-9
DEMAND_TOL = 1e-6


@dataclass
class Segment:
    """Constant rate assignment over [start, end)."""

    start: float
    end: float
    rates: dict


@dataclass
class Schedule:
    """Piecewise-constant rates plus per-flow and per-coflow completions."""

    segments: list
    completions: np.ndarray
    flow_completions: dict

    @classmethod
    def of_flows(cls, segments: list, flow_completions: dict, num_coflows: int) -> "Schedule":
        """The schedule in which each coflow completes with its last flow."""
        completions = [0.0] * num_coflows
        for f, t in flow_completions.items():
            completions[f.coflow] = max(completions[f.coflow], t)
        return cls(segments, np.array(completions), flow_completions)

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
    def from_dict(cls, data: dict, instance: CoflowInstance) -> "Schedule":
        """A stored schedule of ``instance``, with its coflow completions as
        recorded (the validator's completion_def check compares them with
        the flows').  A missing or mistyped field, a number that is not
        finite, a port or coflow id outside ``instance`` or a completions
        list of the wrong length, or a flow listed twice in one segment or
        among the flow completions, raises ValueError naming the entry."""
        limits = {"src": instance.n_ports, "dst": instance.n_ports, "coflow": instance.num_coflows}

        def flow(entry, where: str, seen: dict) -> FlowKey:
            ids = [_field(entry, name, "an integer", where) for name in limits]
            for (name, size), value in zip(limits.items(), ids):
                if not 0 <= value < size:
                    raise ValueError(f"{where}: {name!r} {value} is outside 0..{size - 1}")
            if tuple(ids) in seen:
                raise ValueError(f"{where}: flow {tuple(ids)} is listed twice")
            return FlowKey(*ids)

        segments = []
        for s, seg in enumerate(_field(data, "segments", "a list", "schedule")):
            where = f"segment {s}"
            rates = {}
            for r, entry in enumerate(_field(seg, "rates", "a list", where)):
                at = f"{where} rate {r}"
                rates[flow(entry, at, rates)] = _number(entry, "rate", at)
            start, end = _number(seg, "start", where), _number(seg, "end", where)
            segments.append(Segment(start, end, rates))
        recorded = dict(enumerate(_field(data, "completions", "a list", "schedule")))
        if len(recorded) != instance.num_coflows:
            raise ValueError(f"schedule: 'completions' has {len(recorded)} entries, "
                             f"not one per coflow ({instance.num_coflows})")
        completions = np.array([_number(recorded, k, "completions") for k in recorded], float)
        flow_completions = {}
        for e, entry in enumerate(_field(data, "flow_completions", "a list", "schedule")):
            where = f"flow completion {e}"
            flow_completions[flow(entry, where, flow_completions)] = _number(entry, "time", where)
        return cls(segments, completions, flow_completions)


def _number(data, key, where: str) -> float:
    """``data[key]`` of a schedule file, which must be a finite number."""
    value = _field(data, key, "a number", where)
    if not math.isfinite(value):
        raise ValueError(f"{where}: {key!r} must be finite, got {value!r}")
    return value


@dataclass
class Violation:
    kind: str          # capacity_src, capacity_dst, release, demand, completion_def
    location: str
    magnitude: float


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "violations": [
                    {"kind": v.kind, "location": v.location, "magnitude": v.magnitude}
                    for v in self.violations
                ],
            },
            indent=1,
        )


class FluidRun:
    """Mutable state of one scheduling run.

    A policy assigns rates at each event; ``step`` advances to the next
    event.  Segments and per-flow completions are accumulated for the final
    Schedule.
    """

    def __init__(self, instance: CoflowInstance):
        self.instance = instance
        self.time = 0.0
        self.remaining: dict[FlowKey, float] = {}
        self.flow_completions: dict[FlowKey, float] = {}
        self.segments: list[Segment] = []
        self.rates: dict[FlowKey, float] = {}
        self.release = [cf.release for cf in instance.coflows]  # by coflow id
        for key, size in instance.flows():
            self.remaining[key] = size
        self._release_times = sorted(
            {cf.release for cf in instance.coflows if cf.release > 0.0}
        )
        self._incomplete: dict[int, set[FlowKey]] = {}
        for key in self.remaining:
            self._incomplete.setdefault(key.coflow, set()).add(key)

    # -- views ------------------------------------------------------------

    def done(self) -> bool:
        return not self._incomplete

    def released(self, k: int) -> bool:
        return self.release[k] <= self.time + EVENT_EPS

    def is_complete(self, k: int) -> bool:
        return k not in self._incomplete

    def active_coflows(self) -> list:
        """Released, incomplete coflow ids, ascending."""
        return sorted(k for k in self._incomplete if self.released(k))

    def remaining_of(self, k: int) -> dict:
        """Remaining demand of coflow k's incomplete flows, by FlowKey."""
        return {f: self.remaining[f] for f in self._incomplete.get(k, ())}

    def next_release(self) -> float | None:
        for t in self._release_times:
            if t > self.time + EVENT_EPS:
                return t
        return None

    # -- stepping ---------------------------------------------------------

    def set_rates(self, rates: Mapping[FlowKey, float]) -> None:
        clean = {}
        for key, rate in rates.items():
            if rate <= 0.0:
                continue
            if key not in self.remaining or key in self.flow_completions:
                raise ValueError(f"rate assigned to unknown or finished flow {key}")
            if self.release[key.coflow] > self.time + EVENT_EPS:
                raise ValueError(f"rate assigned to unreleased flow {key}")
            clean[key] = float(rate)
        self.rates = clean

    def next_event(self) -> float | None:
        """Time to the next event (relative), or None when nothing remains.

        The next event is the earliest flow completion under the current
        rates or the next coflow release, whichever comes first; events
        closer than EVENT_EPS coalesce.
        """
        dt = math.inf
        for key, rate in self.rates.items():
            dt = min(dt, self.remaining[key] / rate)
        upcoming = self.next_release()
        if upcoming is not None:
            dt = min(dt, upcoming - self.time)
        return None if math.isinf(dt) else dt

    def step(self) -> None:
        """Advance to the next event, recording the segment traversed."""
        dt = self.next_event()
        if dt is None:
            if not self.done():
                raise RuntimeError(
                    "no rates assigned and no pending releases, but work remains"
                )
            return
        now = self.time + dt
        if dt > 0.0 and self.rates:
            self.segments.append(Segment(self.time, now, self.rates))
        for key, rate in self.rates.items():
            left = self.remaining[key] - rate * dt
            if left <= rate * EVENT_EPS:
                self.remaining[key] = 0.0
                self.flow_completions[key] = now
                members = self._incomplete[key.coflow]
                members.discard(key)
                if not members:
                    del self._incomplete[key.coflow]
            else:
                self.remaining[key] = left
        self.time = now
        self.rates = {}


def run_fluid(instance: CoflowInstance, policy) -> Schedule:
    """Drive a rate policy to completion and return its schedule.
    ``policy(run)`` returns the rate map to apply until the next event."""
    run = FluidRun(instance)
    while not run.done():
        run.set_rates(policy(run))
        run.step()
    return Schedule.of_flows(run.segments, run.flow_completions, instance.num_coflows)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(schedule, instance: CoflowInstance) -> ValidationReport:
    """Check a schedule against the model constraints.

    Inspects segment structure (ordered, non-overlapping), per-port rate
    sums, release dates, transmitted volume per flow at its recorded
    completion, and the coflow completion definition.
    """
    cap = instance.capacity
    n = instance.n_ports
    completed = schedule.flow_completions
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
    for key, size in instance.flows():
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


def total_weighted_completion(schedule, instance: CoflowInstance) -> float:
    """Objective value of a schedule: sum of weight x completion time."""
    return float(
        sum(
            instance.coflows[k].weight * schedule.completions[k]
            for k in range(instance.num_coflows)
        )
    )
