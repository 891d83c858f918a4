"""Benchmark of coflowsched: end-to-end times, memory and schedule quality
per workload, and a traced run that splits the time by layer.

    python3 perfbench/run.py --workload lp-dense-8x24 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and starts no other process.  Workloads (see workloads.py):

  lp-dense-8x24        one ordering LP, lp-ov-ls and validation per instance;
                       the LP is most of the time.
  sched-combined-16x8  16-port combined instances with zero releases and
                       random weights, the four default schedulers; the
                       schedulers, simulator and validator are most of it.
  online-dense-8x20    lp-ov-ls-online, which re-solves the ordering LP at
                       every arrival: many small solves between events.

``--seconds`` sets how many instances a run takes, from the nominal cost of
one instance, so a run does fixed work.  The seed fixes the instances; use
``--seed 1`` while developing a change and confirm a claim on the held-out
``--seed 7``.

Times are reported at a reference speed.  A fixed interpreter loop
(``workloads.calibration_s``) runs after each instance's set-up and before,
between and after the timed instances.  Every time is multiplied by the
speed factor of the phase it was measured in: the loop's reference time
over its median in that phase.  Where cores are shared, CPU speed drifts by
tens of percent within minutes; the factor removes most of that drift.
``setup_s``, mostly imports, is reported as measured.  Each reported time
is printed next to its measured value.

With ``--trace 0`` the run prints every end-to-end metric.  With
``--trace 1`` it runs half as many instances, each once plain and once with
spans around the public entry points of lpcore, relaxations, sim and
schedulers, prints the per-layer metrics and writes the spans to
``.perfbench-out/``.  Every line before the last is a readable
``name value unit`` report; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Correctness checks (validation,
LP bound <= every total, the 4x/5x guarantee of lp-ov-ls, and the LP
objective against scipy's HiGHS) run outside the timed region, and every
failed check counts as a failed operation.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
HELDOUT_SEED = 7
SPEED_NOTE = "(reference calibration time over this run's median; times above are multiplied by it)"
_TIGHT_TOL = 1e-7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coflowsched" / "__init__.py").is_file():
        print(f"error: no coflowsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and coflowsched

    import_s = time.perf_counter() - _T0
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    run = traced_run if args.trace else plain_run
    lines, metrics, ops, spans = run(w, args, import_s)
    attempted = len(ops)
    failures = [op for op in ops if op.error]
    for op in failures[:10]:
        print(f"failed: {op.scheduler}: {op.error}", file=sys.stderr)
    provenance = collect_provenance(w, args)
    lines.append(("failed_frac", len(failures) / attempted, "ratio", f"(of {attempted} operations)"))
    for name, value, unit, note in lines:
        print(f"{name} {value:.6g} {unit} {note}".rstrip())
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        write_trace(w, args, provenance, lines, spans)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def plain_run(w, args, import_s):
    import workloads

    cases, _, setup_scale = workloads.sample_cases(w, args.seed, workloads.instance_count(w, args.seconds))
    runs, scale = workloads.run_calibrated([partial(workloads.run_pipeline, w, c) for c in cases])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workloads.mark_reference_failures(cases, [[r] for r in runs])
    ops = [op for r in runs for op in r.ops]
    ratios = {}
    for op in ops:
        if not op.error:
            ratios.setdefault(op.scheduler, []).append(op.ratio_to_lb)
    all_ratios = [x for values in ratios.values() for x in values]
    reps = [r.seconds for r in runs]
    lps = [r.lp_s for r in runs if r.lp_s is not None]
    measured = {    # name: (value, speed factor of the phase it was measured in)
        # mostly imports, which the calibration loop does not track: as measured
        "setup_s": (import_s + statistics.median(c.setup_s for c in cases), 1.0),
        "wall_s": (sum(reps), scale),
        "rep_s.p50": (statistics.median(reps), scale),
        "lp_bound_s.p50": (workloads.median(lps), setup_scale if w.lp_in_setup else scale),
    }
    metrics, lines = {}, []
    for name, (value, factor) in measured.items():
        sample = f"n={len(reps)}, " if name.endswith(".p50") else ""
        metrics[name] = (value * factor, "s")
        lines.append((name, value * factor, "s", f"({sample}measured {value:.6g} s)"))
    for name, value, unit in (
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("ratio_to_lb", statistics.fmean(all_ratios) if all_ratios else 0.0, "ratio"),
    ):
        metrics[name] = (value, unit)
        lines.append((name, value, unit, ""))
    for name in w.schedulers:
        if name in ratios:
            lines.append((f"ratio_to_lb.{name}", statistics.fmean(ratios[name]), "ratio",
                          f"(n={len(ratios[name])})"))
    lines.append(("speed_factor", scale, "ratio", SPEED_NOTE))
    lines.append(("speed_factor.setup", setup_scale, "ratio", "(the same, over the set-up phase)"))
    return lines, metrics, ops, None


def traced_run(w, args, import_s):
    import workloads
    from tracing import Tracer, instrument, layer_totals

    count = workloads.instance_count(w, args.seconds, share=0.5)
    cases, generate_s, setup_scale = workloads.sample_cases(w, args.seed, count)
    tracer = Tracer()
    tight, integral, largest = [], [], (0, 0)

    def traced_pipeline(i, case):
        nonlocal largest
        tracer.instance, tracer.largest_ordering_lp = i, None
        with instrument(tracer):
            with tracer.span("instance"):
                run = workloads.run_pipeline(w, case, span=tracer.span)
        if tracer.largest_ordering_lp is not None:
            _, problem, solution = tracer.largest_ordering_lp
            tight.append(tight_fraction(problem, solution.values))
            largest = max(largest, (problem.num_vars, len(problem.constraints)))
        if run.lp is not None:
            integral.append(pair_integral_fraction(run.lp.delta))
        return run

    calls = []
    for i, case in enumerate(cases):
        pair = [partial(workloads.run_pipeline, w, case), partial(traced_pipeline, i, case)]
        calls += pair if i % 2 == 0 else pair[::-1]   # neither pass always goes first
    results, scale = workloads.run_calibrated(calls)
    plain = [results[2 * i + i % 2] for i in range(len(cases))]
    traced = [results[2 * i + 1 - i % 2] for i in range(len(cases))]
    workloads.mark_reference_failures(cases, [[p, t] for p, t in zip(plain, traced)])
    ops = [op for r in plain + traced for op in r.ops]
    by_instance = layer_totals(tracer.spans)
    totals = [by_instance.get(i, {}) for i in range(len(cases))]

    def p50_ms(*keys, minus=()):
        """Median over instances of the summed keys, less the ``minus`` keys,
        in ms at the reference speed."""
        return workloads.median([
            sum(d.get(k, 0.0) for k in keys) - sum(d.get(k, 0.0) for k in minus) for d in totals
        ]) * 1e3 * scale

    def total(*keys):
        return sum(d.get(k, 0) for d in totals for k in keys)

    def total_ms(*keys):
        return total(*keys) * 1e3 * scale

    names = w.schedulers
    segments = {n: sum(op.segments for r in traced for op in r.ops if op.scheduler == n) for n in names}
    failed = {n: sum(1 for op in ops if op.scheduler == n and op.error) for n in names}
    events = total(*(f"sim.events.{n}" for n in names))
    # lp-ii-gb runs its own slotted loop, not FluidRun: it has no events
    stepping = [n for n in names if total(f"sim.events.{n}")]
    policy_ms = total_ms(*(f"schedulers.{n}.policy" for n in stepping))
    rep_plain = statistics.median(r.seconds for r in plain) * scale
    rep_traced = statistics.median(r.seconds for r in traced) * scale
    metrics = {
        "workload.generate_ms": (statistics.median(generate_s) * 1e3 * setup_scale, "ms"),
        "model.flows": (sum(c.flows for c in cases), "count"),
        "relaxations.ordering_ms": (p50_ms("relaxations.ordering"), "ms"),
        "lpcore.solve_ms": (p50_ms("lpcore.solve"), "ms"),
        "lpcore.calls": (total("lpcore.calls"), "count"),
        "lpcore.vars": (largest[0], "count"),
        "lpcore.rows": (largest[1], "count"),
        "lpcore.rows_tight_frac": (statistics.fmean(tight) if tight else 0.0, "ratio"),
        "lpcore.pair_integral_frac": (statistics.fmean(integral) if integral else 0.0, "ratio"),
        "schedulers.ms": (p50_ms(*(f"schedulers.{n}.wall" for n in names),
                                 minus=[f"schedulers.{n}.lp" for n in names]), "ms"),
        "schedulers.policy_ms": (p50_ms(*(f"schedulers.{n}.policy" for n in names)), "ms"),
        "schedulers.failed": (sum(failed.values()), "count"),
        "sim.events": (events, "count"),
        "sim.step_ms": (p50_ms(*(f"sim.step.{n}" for n in names)), "ms"),
        "sim.policy_ms_per_event": (policy_ms / events if events else 0.0, "ms/event"),
        "sim.segments": (sum(segments.values()), "count"),
        "sim.validate_ms": (p50_ms(*(f"sim.validate.{n}" for n in names)), "ms"),
        "trace.overhead_s": (rep_traced - rep_plain, "s"),
    }
    lines = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    lines += [
        ("rep_s.p50", rep_plain, "s", f"(untraced, n={len(plain)})"),
        ("trace.rep_s.p50", rep_traced, "s", f"(traced, n={len(traced)})"),
        ("relaxations.interval_ms", p50_ms("relaxations.interval"), "ms", ""),
    ]
    for n in names:
        n_events = total(f"sim.events.{n}")
        lines += [
            (f"schedulers.{n}.ms", p50_ms(f"schedulers.{n}.wall", minus=[f"schedulers.{n}.lp"]), "ms", ""),
            (f"schedulers.{n}.policy_ms", p50_ms(f"schedulers.{n}.policy"), "ms", ""),
            (f"schedulers.{n}.failed", failed[n], "count", ""),
            (f"sim.events.{n}", n_events, "count", ""),
            (f"sim.step_ms.{n}", p50_ms(f"sim.step.{n}"), "ms", ""),
            (f"sim.policy_ms_per_event.{n}",
             total_ms(f"schedulers.{n}.policy") / n_events if n_events else 0.0, "ms/event", ""),
            (f"sim.segments.{n}", segments[n], "count", ""),
            (f"sim.validate_ms.{n}", p50_ms(f"sim.validate.{n}"), "ms", ""),
        ]
    lines.append(("speed_factor", scale, "ratio", SPEED_NOTE))
    return lines, metrics, ops, tracer.spans


def tight_fraction(problem, x) -> float:
    """Share of rows of ``problem`` that hold with equality at ``x``."""
    tight = 0
    for coeffs, _, rhs in problem.constraints:
        lhs = sum(c * x[j] for j, c in coeffs.items())
        tight += abs(lhs - rhs) <= _TIGHT_TOL * max(1.0, abs(rhs))
    return tight / len(problem.constraints) if problem.constraints else 1.0


def pair_integral_fraction(delta) -> float:
    """Share of pair variables (one per unordered coflow pair) at 0 or 1."""
    k = delta.shape[0]
    pairs = [delta[b, a] for a in range(k) for b in range(a + 1, k)]
    if not pairs:
        return 1.0
    return sum(min(v, 1.0 - v) <= 1e-9 for v in pairs) / len(pairs)


def collect_provenance(w, args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": w.name,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
    }


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown.
    scipy, imported for the reference checks, may load a second OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths, key=lambda p: "numpy" not in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_trace(w, args, provenance, lines, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "provenance": provenance,
            "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in lines},
            "span_fields": ["name", "start", "end", "parent", "instance", "self_s"],
            "spans": [list(s) for s in spans],
        }, fh)
    print(f"spans {len(spans)} count (written to {path.relative_to(ROOT)})")


if __name__ == "__main__":
    sys.exit(main())
