"""Experiment runner: generate or load instances, run schedulers, validate
every schedule, and emit per-run reports as CSV or JSON.

Verbs: gen, run, oracle, validate, lp-bound.  Exit codes: 0 success,
1 invariant violation (infeasible schedule or broken bound), 2 bad input.
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
from dataclasses import dataclass, field

from . import schedulers, verify, workload
from .model import CoflowInstance, load_instance, save_instance
from .relaxations import solve_ordering_lp
from .sim import total_weighted_completion, validate

SCHEDULER_NAMES = list(schedulers.SCHEDULERS)
DEFAULT_SCHEDULERS = ["lp-ov-ls", "varys", "lp-ii-gb", "lp-ov-gb"]
REPORT_COLUMNS = [
    "instance_id",
    "scheduler",
    "total_weighted_completion",
    "lp_lower_bound",
    "ratio_to_lb",
    "ratio_to_lpovls",
    "wall_ms",
    "valid",
]


@dataclass
class ExperimentConfig:
    n_ports: int = 8
    n_coflows: int = 40
    kind: str = "dense"
    zero_release: bool = False
    trace_path: str | None = None
    instance_path: str | None = None
    min_flows_filter: int = 1
    schedulers: list = field(default_factory=lambda: list(DEFAULT_SCHEDULERS))
    repetitions: int = 20
    seed: int = 0
    weight_mode: str = "unit"
    workers: int = 1
    dump_dir: str | None = None  # per-rep instance and lp-ov-ls schedule JSON

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.schedulers:
            raise ValueError("select at least one scheduler")
        for name in self.schedulers:
            if name not in SCHEDULER_NAMES:
                raise ValueError(f"unknown scheduler {name!r}")


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


def _instance_for_rep(config: ExperimentConfig, rep: int) -> CoflowInstance:
    if config.instance_path:
        instance = load_instance(config.instance_path)
        if config.weight_mode == "unit":
            return instance  # keep the stored weights untouched
        return workload.assign_weights(instance, config.weight_mode, seed=config.seed + rep)
    if config.trace_path:
        records = workload.parse_trace_csv(config.trace_path)
        ports = 1 + max(
            max(max(r.mapper_ports) for r in records),
            max(max(rack for rack, _ in r.reducer_entries) for r in records),
        )
        mode = "zero-release" if config.zero_release else "with-releases"
        instance = workload.ingest_trace(records, ports, mode, config.min_flows_filter)
    else:
        instance = workload.generate(
            workload.SyntheticConfig(
                n_ports=config.n_ports,
                n_coflows=config.n_coflows,
                kind=config.kind,
                interarrival_range=None if config.zero_release else (1, 100),
                seed=config.seed + rep,
            )
        )
    return workload.assign_weights(instance, config.weight_mode, seed=config.seed + rep)


def _run_one_rep(config: ExperimentConfig, rep: int) -> list:
    instance = _instance_for_rep(config, rep)
    ordering_result = solve_ordering_lp(instance)
    lp_bound = ordering_result.objective
    rows = []
    totals = {}
    schedules = {}
    for name in config.schedulers:
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
    if config.dump_dir:
        schedule = schedules.get("lp-ov-ls") or schedulers.lp_ov_ls(instance, ordering_result)
        os.makedirs(config.dump_dir, exist_ok=True)
        save_instance(instance, f"{config.dump_dir}/rep{rep:03d}_instance.json")
        with open(f"{config.dump_dir}/rep{rep:03d}_lp_ov_ls.json", "w") as fh:
            json.dump(schedule.to_dict(), fh)
    return rows


def run_experiment(config: ExperimentConfig) -> list:
    """All per-(instance, scheduler) reports, ordered by (rep, scheduler)."""
    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(
                pool.map(_run_one_rep, [config] * config.repetitions, range(config.repetitions))
            )
    else:
        chunks = [_run_one_rep(config, rep) for rep in range(config.repetitions)]
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
        "reports": [
            {col: getattr(row, col) for col in REPORT_COLUMNS} for row in rows
        ],
        "summary": summarize(rows),
    }
    return json.dumps(payload, indent=1)


def report_emit(rows: list, fmt: str, path: str | None) -> str:
    """Render reports to csv/json and write them to ``path`` when given."""
    if not rows:
        raise ValueError("nothing to report")
    text = reports_to_csv(rows) if fmt == "csv" else reports_to_json(rows)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coflowsched", description="coflow scheduling experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a synthetic instance as JSON")
    gen.add_argument("--workload", choices=["dense", "combined"], default="dense")
    gen.add_argument("--ports", type=int, default=8)
    gen.add_argument("--coflows", type=int, default=40)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--zero-release", action="store_true")
    gen.add_argument("--weights", choices=["unit", "random"], default="unit")
    gen.add_argument("--paper-scale", action="store_true",
                     help="use the large evaluation scale (16 ports, 160 coflows)")
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run schedulers over generated or trace instances")
    run.add_argument("--workload", choices=["dense", "combined"], default="dense")
    run.add_argument("--trace", help="trace CSV path (overrides --workload)")
    run.add_argument("--instance",
                     help="instance JSON path (overrides --workload/--trace; "
                          "keeps the stored weights unless --weights random)")
    run.add_argument("--filter-min-flows", type=int, default=1)
    run.add_argument("--ports", type=int, default=8)
    run.add_argument("--coflows", type=int, default=40)
    run.add_argument("--zero-release", action="store_true")
    run.add_argument("--schedulers", default=",".join(DEFAULT_SCHEDULERS),
                     help="comma-separated subset of " + ",".join(SCHEDULER_NAMES))
    run.add_argument("--reps", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--weights", choices=["unit", "random"], default="unit")
    run.add_argument("--out")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--paper-scale", action="store_true")
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
    ports, coflows = (16, 160) if args.paper_scale else (args.ports, args.coflows)
    instance = workload.generate(
        workload.SyntheticConfig(
            n_ports=ports,
            n_coflows=coflows,
            kind=args.workload,
            interarrival_range=None if args.zero_release else (1, 100),
            seed=args.seed,
        )
    )
    mode = "unit" if args.weights == "unit" else "uniform-random"
    instance = workload.assign_weights(instance, mode, seed=args.seed)
    save_instance(instance, args.out)
    print(f"wrote {instance.num_coflows} coflows on {ports} ports to {args.out}")
    return 0


def _cmd_run(args) -> int:
    ports, coflows = (16, 160) if args.paper_scale else (args.ports, args.coflows)
    config = ExperimentConfig(
        n_ports=ports,
        n_coflows=coflows,
        kind=args.workload,
        zero_release=args.zero_release,
        trace_path=args.trace,
        instance_path=args.instance,
        min_flows_filter=args.filter_min_flows,
        schedulers=[s.strip() for s in args.schedulers.split(",") if s.strip()],
        repetitions=args.reps,
        seed=args.seed,
        weight_mode="unit" if args.weights == "unit" else "uniform-random",
        workers=args.workers,
        dump_dir=args.dump_schedules,
    )
    rows = run_experiment(config)
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
