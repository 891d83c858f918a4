"""The schedule type and the Recorder through which every scheduler
records one, as parallel arrays of segments, rate entries and flow
completions; the event-driven fluid executor; and the independent
schedule validator.

run_fluid advances a policy's piecewise-constant rates between events
(coflow releases and flow completions, coalesced within EVENT_EPS) and
returns a Schedule, in which each coflow completes with its last flow.
The run's state is a FluidRun: flows numbered 0..F-1 in instance order,
their remaining demand in one float array that policies read whole with
numpy, and a count of unfinished flows per coflow.  Policies hand rates
over by flow id, as a dict (list scheduling, at most one rate per port) or
as an id array and a rate array (varys and lp_ov_gb, hundreds of rates),
and the Recorder keeps them and each flow's completion.

The validator re-checks any schedule against the model constraints:
per-port capacity, no pre-release transmission, demand conservation, and
the definition of coflow completion.  It reads only the schedule's
arrays, so it stays independent of how the schedule was produced.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .lpcore import _View
from .model import _PORT_TYPES, CoflowInstance, FlowKey, _field

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
    """Piecewise-constant rates plus per-flow and per-coflow completions.

    Segment s runs over [``start[s]``, ``end[s]``) with the entries
    ``offsets[s]`` to ``offsets[s + 1] - 1``, in recorded order: entry e
    runs flow ``keys[flow[e]]`` at ``rate[e]``.  Flow ``keys[finished[c]]``
    completes at ``finished_at[c]``, in completion order.  A recorded
    schedule's keys are ``instance.flow_keys``; one built ``of_segments``
    numbers its FlowKeys in order of first appearance, rates first.
    ``segments`` reads the arrays as Segments, made on access.
    """

    start: np.ndarray
    end: np.ndarray
    offsets: np.ndarray
    flow: np.ndarray
    rate: np.ndarray
    finished: np.ndarray
    finished_at: np.ndarray
    keys: tuple
    completions: np.ndarray

    @classmethod
    def of_segments(cls, segments: list, completions, flow_completions: dict) -> "Schedule":
        """The schedule of ``segments`` and ``flow_completions``, which name
        flows by FlowKey."""
        ids: dict = {}
        flow = [ids.setdefault(key, len(ids)) for seg in segments for key in seg.rates]
        rate = [r for seg in segments for r in seg.rates.values()]
        finished = [ids.setdefault(key, len(ids)) for key in flow_completions]
        offsets = np.cumsum([0, *(len(seg.rates) for seg in segments)])
        return cls(np.array([seg.start for seg in segments], dtype=float),
                   np.array([seg.end for seg in segments], dtype=float), offsets,
                   np.array(flow, dtype=np.int64), np.array(rate, dtype=float),
                   np.array(finished, dtype=np.int64), np.array([*flow_completions.values()], dtype=float),
                   tuple(ids), np.asarray(completions, dtype=float))

    @property
    def segments(self) -> Sequence:
        return _View(lambda: len(self.start), self._segment)

    def _segment(self, s: int) -> Segment:
        lo, hi = self.offsets[s:s + 2].tolist()
        flows = map(self.keys.__getitem__, self.flow[lo:hi].tolist())
        return Segment(float(self.start[s]), float(self.end[s]), dict(zip(flows, self.rate[lo:hi].tolist())))

    def to_dict(self) -> dict:
        def flows(by_key: dict, name: str) -> list:
            return [dict(zip(("src", "dst", "coflow"), f), **{name: v}) for f, v in sorted(by_key.items())]

        finished = map(self.keys.__getitem__, self.finished.tolist())
        return {
            "segments": [{"start": seg.start, "end": seg.end, "rates": flows(seg.rates, "rate")}
                         for seg in self.segments],
            "completions": list(map(float, self.completions)),
            "flow_completions": flows(dict(zip(finished, self.finished_at.tolist())), "time"),
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
            segments.append(Segment(_number(seg, "start", where), _number(seg, "end", where), rates))
        recorded = dict(enumerate(_field(data, "completions", "a list", "schedule")))
        if len(recorded) != instance.num_coflows:
            raise ValueError(f"schedule: 'completions' has {len(recorded)} entries, "
                             f"not one per coflow ({instance.num_coflows})")
        completions = [_number(recorded, k, "completions") for k in recorded]
        flow_completions = {}
        for e, entry in enumerate(_field(data, "flow_completions", "a list", "schedule")):
            where = f"flow completion {e}"
            flow_completions[flow(entry, where, flow_completions)] = _number(entry, "time", where)
        return cls.of_segments(segments, completions, flow_completions)


class Recorder:
    """A schedule of ``instance`` as it is recorded: ``segment`` appends
    [start, end) with its flows' ids and rates, in the policy's order, and
    ``complete`` the ids of the flows that finish at ``time``."""

    def __init__(self, instance: CoflowInstance):
        self.instance = instance
        self.start, self.end, self.rate = array("d"), array("d"), array("d")
        self.offsets, self.flow = array("q", [0]), array("q")
        self.finished, self.finished_at = array("q"), array("d")

    def segment(self, start: float, end: float, flows, rates) -> None:
        """``flows`` (ids) and ``rates``: iterables, such as lists, or the
        ``array`` objects FluidRun builds on a policy's id and rate arrays."""
        self.start.append(start)
        self.end.append(end)
        self.flow.extend(flows)
        self.rate.extend(rates)
        self.offsets.append(len(self.flow))

    def complete(self, flows: list, time: float) -> None:
        self.finished.extend(flows)
        self.finished_at.extend(repeat(time, len(flows)))

    def schedule(self) -> Schedule:
        """The schedule on these buffers, which then take no more; each
        coflow ends with its last flow (every coflow has one)."""
        *arrays, finished, at = map(np.asarray, (self.start, self.end, self.offsets, self.flow,
                                                 self.rate, self.finished, self.finished_at))
        finish = np.zeros(len(self.instance.flow_keys))  # by flow id
        finish[finished] = at
        completions = np.maximum.reduceat(finish, self.instance.flow_offsets[:-1])
        return Schedule(*arrays, finished, at, self.instance.flow_keys, completions)


def _number(data, key, where: str) -> float:
    """``data[key]`` of a schedule file, which must be a finite number."""
    value = _field(data, key, "a number", where)
    if not math.isfinite(value):
        raise ValueError(f"{where}: {key!r} must be finite, got {value!r}")
    return value


@dataclass
class Violation:
    kind: str          # capacity_src, capacity_dst, release, demand, completion_def, unknown_flow
    location: str
    magnitude: float


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


class FluidRun:
    """Mutable state of one scheduling run.

    A policy assigns rates at each event (``set_rates``), as a map from
    flow id to rate or as a pair of arrays, int64 flow ids and float64
    rates; ``step`` advances to the next event, records the segment
    traversed and the ids of the flows that finish, in rate order, in
    ``record``, and keeps those ids as ``finished``.  Both forms take the
    same float operations per rate, so they step alike to the bit.

    Flows have ids 0..F-1 in ``instance.flow_keys`` order, so coflow k's
    flows are the ids ``instance.flow_offsets[k]`` to
    ``instance.flow_offsets[k + 1] - 1``, by (source, dest).  ``remaining``
    holds each flow's demand left, by id, and is 0.0 exactly when the flow
    is finished; ``source``, ``dest`` and ``coflow`` give each id's ports
    and coflow, and ``live`` counts each coflow's unfinished flows.

    The policies add a coflow's flows in id order, so every sum they take
    follows the instance's flows and not the labels of its ports; a sum
    over a coflow's whole id range that adds 0.0 for the finished flows
    (``np.bincount`` adds its weights in order) has the bits of a loop over
    its unfinished flows.
    """

    def __init__(self, instance: CoflowInstance):
        self.instance = instance
        self.time = 0.0
        self.flows = list(instance.flow_keys)  # by id
        self.remaining = np.array(instance.flow_sizes, dtype=float)
        # the same buffer, read and written as Python floats: the executor's
        # per-rate loop indexes it one flow at a time
        self._left = memoryview(self.remaining)
        self.live = [len(cf.demands) for cf in instance.coflows]  # by coflow id
        self.record = Recorder(instance)
        self.finished: list[int] = []  # the ids the last step finished
        # the rates taken until the next event, and the time to the first completion under them
        self._ids, self._rates, self._first = [], [], math.inf
        self.release = [cf.release for cf in instance.coflows]  # by coflow id
        self._release_times = sorted({cf.release for cf in instance.coflows if cf.release > 0.0})

    # -- per-flow arrays, built when a policy first reads them -----------

    @cached_property
    def source(self) -> np.ndarray:
        return self._field(0)

    @cached_property
    def dest(self) -> np.ndarray:
        return self._field(1)

    @cached_property
    def coflow(self) -> np.ndarray:
        return self._field(2)

    @cached_property
    def flow_release(self) -> np.ndarray:  # each flow's coflow release, by id
        return np.array(self.release, dtype=float)[self.coflow]

    def _field(self, index: int) -> np.ndarray:
        return np.fromiter(map(itemgetter(index), self.flows), dtype=np.int64, count=len(self.flows))

    # -- views ------------------------------------------------------------

    def done(self) -> bool:
        return len(self.record.finished) == len(self.flows)

    def is_complete(self, k: int) -> bool:
        return not self.live[k]

    def active_coflows(self) -> list:
        """Released, incomplete coflow ids, ascending."""
        horizon = self.time + EVENT_EPS
        return [k for k, (left, release) in enumerate(zip(self.live, self.release))
                if left and release <= horizon]

    def next_release(self) -> float | None:
        times = self._release_times
        at = bisect_right(times, self.time + EVENT_EPS)
        return times[at] if at < len(times) else None

    # -- stepping ---------------------------------------------------------

    def set_rates(self, rates: Mapping[int, float] | tuple) -> None:
        """Take ``rates`` until the next event, dropping those of 0.0 or
        less: a map from flow id to rate, or a pair (ids, rates) of int64
        and float64 arrays.  Each id must be a flow id, named once, of a
        released unfinished flow, and each rate finite."""
        if type(rates) is tuple:
            return self._set_arrays(*rates)
        ids, kept, first = [], [], math.inf
        left, flows, release, nf = self._left, self.flows, self.release, len(self.flows)
        horizon = self.time + EVENT_EPS
        for i, rate in rates.items():
            if not (isinstance(i, int) and 0 <= i < nf):
                raise ValueError(f"rate assigned to {i!r}, which is not a flow id in 0..{nf - 1}")
            if not math.isfinite(rate):
                raise ValueError(f"rate {rate!r} assigned to flow {i} is not finite")
            if rate <= 0.0:
                continue
            if not left[i]:
                raise ValueError(f"rate assigned to finished flow {i}")
            if release[flows[i].coflow] > horizon:
                raise ValueError(f"rate assigned to unreleased flow {i}")
            rate = float(rate)
            ids.append(i)
            kept.append(rate)
            dt = left[i] / rate
            if dt < first:
                first = dt
        self._ids, self._rates, self._first = ids, kept, first

    def _set_arrays(self, ids: np.ndarray, rates: np.ndarray) -> None:
        """``set_rates`` of an id array and a rate array: the same checks
        and the same earliest completion, a few array operations each."""
        nf = len(self.flows)
        if not (isinstance(ids, np.ndarray) and isinstance(rates, np.ndarray) and ids.ndim == 1
                and (ids.dtype, rates.dtype, rates.shape) == (np.int64, np.float64, ids.shape)):
            raise ValueError("rate arrays must be int64 flow ids and float64 rates of one length")
        # a negative id reads as an unsigned one past the end
        _refuse(ids.view(np.uint64) >= nf, ids, rates, f"rate assigned to {{i}}, which is not a flow id in 0..{nf - 1}")
        _refuse(~np.isfinite(rates), ids, rates, "rate {r!r} assigned to flow {i} is not finite")
        keep = rates > 0.0
        if np.count_nonzero(keep) < len(keep):
            ids, rates = ids[keep], rates[keep]
        left = self.remaining[ids]
        _refuse(left == 0.0, ids, rates, "rate assigned to finished flow {i}")
        if self.next_release() is not None:  # some coflow is not released yet
            _refuse(self.flow_release[ids] > self.time + EVENT_EPS, ids, rates, "rate assigned to unreleased flow {i}")
        by_id = np.sort(ids)  # an id named twice sits next to itself
        _refuse(by_id[1:] == by_id[:-1], by_id[1:], by_id[1:], "rate assigned twice to flow {i}")
        self._ids, self._rates = ids, rates
        # the least of remaining / rate; argmin picks it, without NaN, whatever the order
        dt = left / rates
        self._first = float(dt[dt.argmin()]) if ids.size else math.inf

    def next_event(self) -> float | None:
        """Time to the next event (relative), or None when nothing remains.

        The next event is the earliest flow completion under the current
        rates or the next coflow release, whichever comes first; events
        closer than EVENT_EPS coalesce.
        """
        dt = self._first
        upcoming = self.next_release()
        if upcoming is not None:
            dt = min(dt, upcoming - self.time)
        return None if math.isinf(dt) else dt

    def step(self) -> None:
        """Advance to the next event, recording the segment traversed and the
        flows that finish."""
        dt = self.next_event()
        if dt is None:
            if not self.done():
                raise RuntimeError("no rates assigned and no pending releases, but work remains")
            return
        now = self.time + dt
        ids, rates = self._ids, self._rates
        moved = now > self.time  # a dt below half an ulp of the clock leaves no segment
        left, flows, live = self._left, self.flows, self.live
        finished = self.finished = []
        if type(ids) is list:
            if moved and ids:
                self.record.segment(self.time, now, ids, rates)
            for i, rate in zip(ids, rates):
                rest = left[i] - rate * dt
                if rest <= rate * EVENT_EPS:
                    left[i] = 0.0
                    finished.append(i)
                    live[flows[i].coflow] -= 1
                else:
                    left[i] = rest
        else:
            if moved and ids.size:  # the Recorder appends the arrays' bytes as they are
                self.record.segment(self.time, now, array("q", ids.tobytes()), array("d", rates.tobytes()))
            # the loop's float operations, elementwise: one subtraction, one mask
            rest = self.remaining[ids] - rates * dt
            done = rest <= rates * EVENT_EPS
            rest[done] = 0.0
            self.remaining[ids] = rest
            finished += ids[done].tolist()
            for i in finished:
                live[flows[i].coflow] -= 1
        self.record.complete(finished, now)
        self.time = now
        self._ids, self._rates, self._first = [], [], math.inf


def run_fluid(run: FluidRun, policy) -> Schedule:
    """Drive a rate policy over ``run`` to completion and return its
    schedule.  ``policy(run)`` returns the rates to apply until the next
    event, in either form that ``FluidRun.set_rates`` takes: lp_ov_ls and
    lp_ov_ls_online a dict by flow id, varys and lp_ov_gb an (ids, rates)
    pair of arrays."""
    while not run.done():
        run.set_rates(policy(run))
        run.step()
    return run.record.schedule()


def _refuse(bad: np.ndarray, ids: np.ndarray, rates: np.ndarray, message: str) -> None:
    """Raise ValueError(``message``) naming the first entry ``bad`` marks: id ``i``, rate ``r``."""
    if np.count_nonzero(bad):
        raise ValueError(message.format(i=ids[bad][0].item(), r=rates[bad][0].item()))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(schedule, instance: CoflowInstance) -> ValidationReport:
    """Check a schedule against the model constraints.

    Inspects segment structure (ordered, non-overlapping), per-port rate
    sums, release dates, rates and completions only on the instance's flows,
    transmitted volume per flow at its recorded completion, and the coflow
    completion definition.  A malformed segment, or a rate on a port or
    coflow outside the instance, raises ValueError naming the segment.

    Each of the schedule's keys is looked up once; its entries are read as
    recorded, and each sum adds them in entry order, the float additions
    of a loop over the segments.  Violations are listed per segment
    (releases, then ports ascending, source before destination), then
    unknown flows, demands and coflow completions.
    """
    cap, n, num = instance.capacity, instance.n_ports, instance.num_coflows
    keys, sizes, nf = instance.flow_keys, instance.flow_sizes, len(instance.flow_keys)
    index = {key: i for i, key in enumerate(keys)}
    starts, ends, flow, rate = schedule.start, schedule.end, schedule.flow, schedule.rate
    named, segments, entries = schedule.keys, len(starts), len(rate)
    seg_of = np.repeat(np.arange(segments), np.diff(schedule.offsets))

    previous = np.concatenate(([-math.inf], ends[:-1]))
    bad = np.flatnonzero((ends <= starts) | (starts < previous - EVENT_EPS))
    first_bad = int(bad[0]) if bad.size else segments
    # each named flow's instance id; the flows the instance lacks take the
    # ids from nf on, in order of first appearance
    own = np.fromiter(map(index.get, named, repeat(-1)), dtype=np.int64, count=len(named))
    strange = np.flatnonzero(own[flow] < 0)
    unknown: dict = {}
    for e in strange[np.sort(np.unique(flow[strange], return_index=True)[1])].tolist():
        s, key = int(seg_of[e]), named[flow[e]]
        if s >= first_bad:
            break
        if not all(isinstance(v, _PORT_TYPES) and 0 <= v < top for v, top in zip(key, (n, n, num))):
            raise ValueError(f"segment {s} flow {tuple(key)} is outside the instance "
                             f"({n} ports, {num} coflows)")
        own[flow[e]] = unknown.setdefault(key, nf + len(unknown))
    if first_bad < segments:
        if ends[first_bad] <= starts[first_bad]:
            raise ValueError(f"segment {first_bad} has non-positive length")
        raise ValueError(f"segment {first_bad} overlaps its predecessor")
    fi = own[flow]
    # (source, dest, coflow) of every flow a rate names
    ids = np.array(keys + tuple(unknown), dtype=np.int64).reshape(-1, 3)
    # each completion's flow; one the instance lacks and no rate names takes
    # the next id
    at = own[schedule.finished]
    for c in np.flatnonzero(at < 0).tolist():
        at[c] = unknown.setdefault(named[schedule.finished[c]], nf + len(unknown))
    total = nf + len(unknown)
    done = np.zeros(total, dtype=bool)  # has a recorded completion
    finish = np.zeros(total)
    done[at] = True
    finish[at] = schedule.finished_at
    # each entry sends rate x max(min(end, completion) - start, 0), or the whole
    # segment without a completion, in Python's min and max order (NaN stays)
    sent, got = ends[seg_of], finish[fi]
    np.copyto(sent, got, where=done[fi] & (got < sent))
    del got
    sent -= starts[seg_of]
    sent[sent < 0.0] = 0.0
    sent *= rate
    sent = np.bincount(fi, sent, minlength=total)

    # Per-(segment, port) sums and release checks, over the positive rates
    # (and NaN ones, as "not <= 0").  A zero weight in place of the others
    # leaves every sum's bits alone: the sums start at +0.0.
    found = []  # (segment, rank within the segment, violation)
    live = ~(rate <= 0.0)
    release = instance.releases
    late = np.flatnonzero((starts[seg_of] < (release[ids[:, 2]] - EVENT_EPS)[fi]) & live)
    for e in late.tolist():
        s = int(seg_of[e])
        gap = float(release[ids[fi[e], 2]] - starts[s])
        found.append((s, e, Violation("release", f"segment {s} flow {tuple(named[flow[e]])}", gap)))
    weight = np.where(live, rate, 0.0)
    # each entry's (segment, port) cell, segment * n + port, in one buffer for
    # both sides; seg_of holds segment * n from here on
    seg_of *= n
    cells = np.empty_like(seg_of)
    for side, kind in enumerate(("capacity_src", "capacity_dst")):
        np.take(ids[:, side], fi, out=cells, mode="clip")  # "raise" would buffer a copy
        cells += seg_of
        sums = np.bincount(cells, weight, minlength=segments * n)
        for cell in np.flatnonzero(sums > cap + CAPACITY_TOL).tolist():
            s, p = divmod(cell, n)
            found.append((s, entries + 2 * p + side,
                          Violation(kind, f"segment {s} port {p}", float(sums[cell]) - cap)))
    found.sort(key=lambda item: item[:2])
    violations = [v for _, _, v in found]

    for key in sorted(unknown):
        violations.append(Violation("unknown_flow", f"flow {tuple(key)}", float(sent[unknown[key]])))

    off = ~done[:nf] | (np.abs(sent[:nf] - np.fromiter(sizes, dtype=float, count=nf)) > DEMAND_TOL)
    for i in np.flatnonzero(off).tolist():
        key, size = keys[i], sizes[i]
        if done[i]:
            violations.append(Violation("demand", f"flow {tuple(key)}", abs(float(sent[i]) - size)))
        else:
            violations.append(Violation("demand", f"flow {tuple(key)} never completed", size))

    # a coflow completes with its last flow, by Python's max: NaN only when
    # its first flow's completion is NaN
    firsts = np.array(instance.flow_offsets[:-1], dtype=np.int64)
    all_done = np.logical_and.reduceat(done[:nf], firsts)
    last = np.fmax.reduceat(finish[:nf], firsts)
    last[np.isnan(finish[firsts])] = math.nan
    for k in np.flatnonzero(all_done).tolist():
        recorded, expected = schedule.completions[k], float(last[k])
        if abs(recorded - expected) > EVENT_EPS * max(1.0, abs(expected)):
            violations.append(Violation("completion_def", f"coflow {k}", abs(recorded - expected)))

    return ValidationReport(ok=not violations, violations=violations)


def total_weighted_completion(schedule, instance: CoflowInstance) -> float:
    """Objective value of a schedule: sum of weight x completion time."""
    return float(sum(cf.weight * schedule.completions[k] for k, cf in enumerate(instance.coflows)))
