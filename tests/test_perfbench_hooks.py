"""The benchmark's tracer must still find every entry point it wraps.

``perfbench/tracing.py`` patches module attributes of coflowsched by name,
so renaming or dropping one of them breaks the traced benchmark run.  This
runs the benchmark's own pipeline under the tracer on two tiny instances
with every scheduler and checks that each wrapped entry point recorded a
span, that no operation failed and that each instance's ordering LP
matches HiGHS.
"""

import importlib.util
import sys
from pathlib import Path

from coflowsched import lpcore, relaxations, schedulers, sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_traced_pipeline_records_every_entry_point():
    w = workloads.Workload(
        name="tiny-combined-4x5",
        kind="combined",
        n_ports=4,
        n_coflows=5,
        releases=True,
        weights="uniform-random",
        schedulers=tuple(workloads.SCHEDULE),
        lp_in_setup=False,
        nominal_s=1.0,
    )
    cases, _, _ = workloads.sample_cases(w, seed=3, count=2)
    originals = [schedulers.lp_ii_gb, sim.validate, lpcore.solve, relaxations.solve_interval_lp]
    tracer = tracing.Tracer()
    runs = []
    with tracing.instrument(tracer):
        for index, case in enumerate(cases):
            tracer.instance = index
            runs.append(workloads.run_pipeline(w, case, span=tracer.span))
    assert [schedulers.lp_ii_gb, sim.validate, lpcore.solve, relaxations.solve_interval_lp] == originals
    # the HiGHS cross-check reads the LP's rows and bounds through their views
    for case, run in zip(cases, runs, strict=True):
        assert workloads.reference_error(case.instance, run.lp.objective) is None
    ops = [op for run in runs for op in run.ops]

    assert len(ops) == 2 * len(workloads.SCHEDULE)
    assert [op.error for op in ops if op.error] == []
    names = {span.name for span in tracer.spans}
    expected = {
        "sim.FluidRun.step",
        "sim.validate",
        "lpcore.solve",
        "relaxations.solve_ordering_lp",
        "relaxations.solve_interval_lp",
    } | {"schedulers." + name for name in tracing.SCHEDULER_FUNCTIONS.values()}
    assert expected <= names
    totals = tracing.layer_totals(tracer.spans)
    assert sorted(totals) == [0, 1]
    assert all(totals[i]["relaxations.interval"] > 0 for i in totals)
