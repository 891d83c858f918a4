"""In-memory span tracing around the public entry points of coflowsched.

The tracer wraps module attributes from the outside; no source file of the
package is changed.  A span records its name, start, end, parent span and
the instance it belongs to.  Self time is a span's duration minus the time
its child spans cover; calls are single-threaded and nested, so children
never overlap and that difference is exact.
"""

from __future__ import annotations

import contextlib
import time
from typing import NamedTuple

# function name in coflowsched.schedulers -> scheduler name used in reports
SCHEDULER_FUNCTIONS = {
    "lp_ov_ls": "lp-ov-ls",
    "lp_ov_ls_online": "lp-ov-ls-online",
    "varys": "varys",
    "lp_ii_gb": "lp-ii-gb",
    "lp_ov_gb": "lp-ov-gb",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int         # index into Tracer.spans, -1 for a root span
    instance: int
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``instance`` tags every span opened while
    it is set.  ``largest_ordering_lp`` keeps the largest LP that
    ``solve_ordering_lp`` handed to ``lpcore.solve`` for the current
    instance, as (size, problem, solution), for the tight-row count."""

    def __init__(self):
        self.spans: list = []
        self.instance = -1
        self.largest_ordering_lp = None
        self._stack: list = []      # [span index, time covered by children, name]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        frame, start = self._open(name)
        try:
            yield
        finally:
            self._close(name, frame, start)

    def open_names(self) -> list:
        """Names of the open spans, outermost first."""
        return [frame[2] for frame in self._stack]

    def _open(self, name: str):
        frame = [len(self.spans), 0.0, name]
        self.spans.append(None)
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, frame: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][1] += end - start
        self.spans[frame[0]] = Span(name, start, end, parent, self.instance, end - start - frame[1])


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the entry points of lpcore, relaxations, sim and schedulers for
    the duration of the block, then restore the originals.

    ``schedulers`` imports the two LP solvers by name, so those names are
    wrapped there too; the benchmark itself calls every entry point through
    its module attribute, so it sees the wrappers.
    """
    from coflowsched import lpcore, relaxations, schedulers, sim

    solve = lpcore.solve

    def solve_keeping_largest(problem, *args, **kwargs):
        solution = solve(problem, *args, **kwargs)
        # open spans end with [..., caller, "lpcore.solve"]
        if tracer.open_names()[-2:-1] == ["relaxations.solve_ordering_lp"]:
            size = problem.num_vars * max(1, len(problem.constraints))
            if tracer.largest_ordering_lp is None or size > tracer.largest_ordering_lp[0]:
                tracer.largest_ordering_lp = (size, problem, solution)
        return solution

    ordering = tracer.wrap("relaxations.solve_ordering_lp", relaxations.solve_ordering_lp)
    interval = tracer.wrap("relaxations.solve_interval_lp", relaxations.solve_interval_lp)
    patches = [
        (lpcore, "solve", tracer.wrap("lpcore.solve", solve_keeping_largest)),
        (relaxations, "solve_ordering_lp", ordering),
        (relaxations, "solve_interval_lp", interval),
        (schedulers, "solve_ordering_lp", ordering),
        (schedulers, "solve_interval_lp", interval),
        (sim.FluidRun, "step", tracer.wrap("sim.FluidRun.step", sim.FluidRun.step)),
        (sim, "validate", tracer.wrap("sim.validate", sim.validate)),
    ]
    for attr, name in SCHEDULER_FUNCTIONS.items():
        patches.append((schedulers, attr, tracer.wrap("schedulers." + name, getattr(schedulers, attr))))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)



_LP_LAYERS = ("relaxations.", "lpcore.")


def layer_totals(spans: list) -> dict:
    """Per-instance sums, in seconds or counts, keyed by layer metric name.

    Scheduler times exclude every LP solved inside the scheduler call, so
    the interval LP of lp-ii-gb and the residual LPs of lp-ov-ls-online are
    charged to ``relaxations``/``lpcore`` like the shared ordering LP.
    ``op.<scheduler>`` spans, opened by the benchmark around a scheduler
    call and its validation, attribute steps and validation to a scheduler.
    """
    op_of = [None] * len(spans)
    totals: dict = {}
    for i, s in enumerate(spans):
        # a parent is opened before its children, so its op is already known
        op = s.name[3:] if s.name.startswith("op.") else (op_of[s.parent] if s.parent >= 0 else None)
        op_of[i] = op
        d = totals.setdefault(s.instance, {})

        def add(key, value):
            d[key] = d.get(key, 0) + value

        if s.name == "relaxations.solve_ordering_lp":
            add("relaxations.ordering", s.self_s)
        elif s.name == "relaxations.solve_interval_lp":
            add("relaxations.interval", s.self_s)
        elif s.name == "lpcore.solve":
            add("lpcore.solve", s.duration)
            add("lpcore.calls", 1)
        elif s.name.startswith("schedulers."):
            add(f"schedulers.{op}.wall", s.duration)
            add(f"schedulers.{op}.policy", s.self_s)
        elif s.name == "sim.FluidRun.step":
            add(f"sim.events.{op}", 1)
            add(f"sim.step.{op}", s.duration)
        elif s.name == "sim.validate":
            add(f"sim.validate.{op}", s.duration)
        if (
            op is not None
            and s.name.startswith(_LP_LAYERS)
            and not spans[s.parent].name.startswith(_LP_LAYERS)
        ):
            add(f"schedulers.{op}.lp", s.duration)
    return totals
