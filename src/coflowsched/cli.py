"""Experiment runner: generate or load instances, run schedulers, validate
every schedule, and emit per-run reports as CSV or JSON.

Verbs: gen, run, oracle, validate, lp-bound.  Exit codes: 0 success,
1 a schedule failed validation (run, validate), 2 bad input.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import schedulers, verify, workload
from .model import CoflowInstance, load_instance, save_instance
from .relaxations import solve_ordering_lp
from .sim import total_weighted_completion, validate

SCHEDULER_NAMES = list(schedulers.SCHEDULERS)
DEFAULT_SCHEDULERS = ["lp-ov-ls", "varys", "lp-ii-gb", "lp-ov-gb"]
WEIGHT_MODES = {"unit": "unit", "random": "uniform-random"}  # --weights -> assign_weights


@dataclass
class ScheduleReport:
    instance_id: str
    scheduler: str
    total_weighted_completion: float
    lp_lower_bound: float
    ratio_to_lb: float
    ratio_to_lpovls: float | None
    wall_ms: float
    valid: bool


REPORT_COLUMNS = [f.name for f in fields(ScheduleReport)]


def _synthetic(args: argparse.Namespace, seed: int) -> CoflowInstance:
    """The weighted synthetic instance that the shared gen/run flags describe."""
    ports, coflows = (16, 160) if args.paper_scale else (args.ports, args.coflows)
    instance = workload.generate(
        workload.SyntheticConfig(
            n_ports=ports,
            n_coflows=coflows,
            kind=args.workload,
            interarrival_range=None if args.zero_release else (1, 100),
            seed=seed,
        )
    )
    return workload.assign_weights(instance, WEIGHT_MODES[args.weights], seed=seed)


def _instance_for_rep(args: argparse.Namespace, rep: int) -> CoflowInstance:
    seed = args.seed + rep
    if args.instance:
        instance = load_instance(args.instance)
        if args.weights == "unit":
            return instance  # keep the stored weights untouched
    elif args.trace:
        records = workload.parse_trace_csv(args.trace)
        ports = 1 + max(
            max(max(r.mapper_ports) for r in records),
            max(max(rack for rack, _ in r.reducer_entries) for r in records),
        )
        mode = "zero-release" if args.zero_release else "with-releases"
        instance = workload.ingest_trace(records, ports, mode, args.filter_min_flows)
    else:
        return _synthetic(args, seed)
    return workload.assign_weights(instance, WEIGHT_MODES[args.weights], seed=seed)


def _run_one_rep(args: argparse.Namespace, rep: int) -> list:
    instance = _instance_for_rep(args, rep)
    ordering_result = solve_ordering_lp(instance)
    lp_bound = ordering_result.objective
    rows = []
    totals = {}
    schedules = {}
    for name in args.schedulers:
        t0 = time.perf_counter()
        schedule = schedulers.SCHEDULERS[name](instance, ordering_result)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        report = validate(schedule, instance)
        total = total_weighted_completion(schedule, instance)
        totals[name] = total
        schedules[name] = schedule
        rows.append(
            ScheduleReport(
                instance_id=f"rep{rep:03d}",
                scheduler=name,
                total_weighted_completion=total,
                lp_lower_bound=lp_bound,
                ratio_to_lb=total / lp_bound if lp_bound > 0 else math.inf,
                ratio_to_lpovls=None,
                wall_ms=wall_ms,
                valid=report.ok,
            )
        )
    base = totals.get("lp-ov-ls")
    for row in rows:
        if base:
            row.ratio_to_lpovls = row.total_weighted_completion / base
    if args.dump_schedules:  # per-rep instance and lp-ov-ls schedule JSON
        schedule = schedules.get("lp-ov-ls") or schedulers.lp_ov_ls(instance, ordering_result)
        os.makedirs(args.dump_schedules, exist_ok=True)
        save_instance(instance, f"{args.dump_schedules}/rep{rep:03d}_instance.json")
        with open(f"{args.dump_schedules}/rep{rep:03d}_lp_ov_ls.json", "w") as fh:
            json.dump(schedule.to_dict(), fh)
    return rows


def run_experiment(args: argparse.Namespace) -> list:
    """All per-(instance, scheduler) reports, ordered by (rep, scheduler)."""
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            chunks = list(pool.map(_run_one_rep, [args] * args.reps, range(args.reps)))
    else:
        chunks = [_run_one_rep(args, rep) for rep in range(args.reps)]
    return [row for chunk in chunks for row in chunk]


def summarize(rows: list) -> dict:
    by_scheduler: dict[str, list] = {}
    for row in rows:
        by_scheduler.setdefault(row.scheduler, []).append(row)
    summary = {}
    for name, items in sorted(by_scheduler.items()):
        mean_total = sum(r.total_weighted_completion for r in items) / len(items)
        mean_ratio = sum(r.ratio_to_lb for r in items) / len(items)
        norm = [r.ratio_to_lpovls for r in items if r.ratio_to_lpovls is not None]
        summary[name] = {
            "mean_total": mean_total,
            "mean_ratio_to_lb": mean_ratio,
            "mean_ratio_to_lpovls": sum(norm) / len(norm) if norm else None,
            "all_valid": all(r.valid for r in items),
        }
    return summary


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def reports_to_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in REPORT_COLUMNS])
    return buf.getvalue()


def reports_to_json(rows: list) -> str:
    payload = {
        "reports": [asdict(row) for row in rows],
        "summary": summarize(rows),
    }
    return json.dumps(payload, indent=1)


def report_emit(rows: list, fmt: str, path: str | None) -> str:
    """Render reports to csv/json and write them to ``path`` when given."""
    text = reports_to_csv(rows) if fmt == "csv" else reports_to_json(rows)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _scheduler_list(text: str) -> list:
    return [name.strip() for name in text.split(",") if name.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coflowsched", description="coflow scheduling experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synthetic = argparse.ArgumentParser(add_help=False)
    synthetic.add_argument("--workload", choices=["dense", "combined"], default="dense")
    synthetic.add_argument("--ports", type=int, default=8)
    synthetic.add_argument("--coflows", type=int, default=40)
    synthetic.add_argument("--seed", type=int, default=0)
    synthetic.add_argument("--zero-release", action="store_true")
    synthetic.add_argument("--weights", choices=WEIGHT_MODES, default="unit")
    synthetic.add_argument("--paper-scale", action="store_true",
                           help="use the large evaluation scale (16 ports, 160 coflows)")

    gen = sub.add_parser("gen", parents=[synthetic], help="emit a synthetic instance as JSON")
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", parents=[synthetic],
                         help="run schedulers over generated or trace instances")
    run.add_argument("--trace", help="trace CSV path (overrides --workload)")
    run.add_argument("--instance",
                     help="instance JSON path (overrides --workload/--trace; "
                          "keeps the stored weights unless --weights random)")
    run.add_argument("--filter-min-flows", type=int, default=1)
    run.add_argument("--schedulers", type=_scheduler_list, default=",".join(DEFAULT_SCHEDULERS),
                     help="comma-separated subset of " + ",".join(SCHEDULER_NAMES))
    run.add_argument("--reps", type=int, default=20)
    run.add_argument("--out")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--dump-schedules", help="directory for schedule JSON files")

    oracle = sub.add_parser("oracle", help="exact optimum of a tiny instance")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--max-ports", type=int, default=verify.DEFAULT_MAX_PORTS)
    oracle.add_argument("--max-demand", type=float, default=verify.DEFAULT_MAX_TOTAL_DEMAND)

    val = sub.add_parser("validate", help="check a schedule file against an instance")
    val.add_argument("--instance", required=True)
    val.add_argument("--schedule", required=True)

    bound = sub.add_parser("lp-bound", help="print the LP lower bound of an instance")
    bound.add_argument("--instance", required=True)
    return parser


def _cmd_gen(args) -> int:
    instance = _synthetic(args, args.seed)
    save_instance(instance, args.out)
    print(f"wrote {instance.num_coflows} coflows on {instance.n_ports} ports to {args.out}")
    return 0


def _cmd_run(args) -> int:
    if args.reps < 1:
        raise ValueError("repetitions must be at least 1")
    if not args.schedulers:
        raise ValueError("select at least one scheduler")
    for name in args.schedulers:
        if name not in SCHEDULER_NAMES:
            raise ValueError(f"unknown scheduler {name!r}")
    rows = run_experiment(args)
    text = report_emit(rows, args.format, args.out)
    if not args.out:
        print(text, end="")
    summary = summarize(rows)
    for name, stats in summary.items():
        norm = stats["mean_ratio_to_lpovls"]
        norm_s = f"{norm:.4f}" if norm is not None else "n/a"
        print(
            f"{name}: mean_total={stats['mean_total']:.2f} "
            f"mean_ratio_to_lb={stats['mean_ratio_to_lb']:.4f} "
            f"normalized={norm_s} valid={stats['all_valid']}",
            file=sys.stderr,
        )
    if not all(stats["all_valid"] for stats in summary.values()):
        print("invariant violation: some schedule failed validation", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    result = verify.oracle_opt(instance, args.max_ports, args.max_demand)
    print(f"optimal_value {result.optimal_value:.10g}")
    print(f"explored_states {result.explored_states}")
    return 0


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    with open(args.schedule) as fh:
        schedule = schedulers.Schedule.from_dict(json.load(fh))
    report = validate(schedule, instance)
    print(report.to_json())
    return 0 if report.ok else 1


def _cmd_lp_bound(args) -> int:
    instance = load_instance(args.instance)
    print(f"{solve_ordering_lp(instance).objective:.10g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "validate": _cmd_validate,
        "lp-bound": _cmd_lp_bound,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
