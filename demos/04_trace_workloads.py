#!/usr/bin/env python3
"""Ingest a MapReduce-style shuffle trace and schedule it.

Each record carries an arrival time, mapper racks, and per-reducer shuffle
megabytes; reducer volume is spread evenly over the mappers, links run at
128 MB/s, and arrivals are compressed tenfold into release times.  The
slotted scheduler picks the coarsest power-of-two slot in which every flow
takes whole slots: 1/128 s here, so one slot moves one megabyte.
"""

import pathlib

from coflowsched import lp_ii_gb, lp_ov_ls, solve_ordering_lp, varys
from coflowsched.relaxations import slot_length
from coflowsched.sim import total_weighted_completion, validate
from coflowsched.workload import ingest_trace, parse_trace_csv

trace_path = pathlib.Path(__file__).parent.parent / "tests" / "data" / "mini_trace.csv"
records = parse_trace_csv(trace_path)
print(f"parsed {len(records)} trace records:")
for rec in records:
    print(f"  {rec.coflow_id}: arrival={rec.arrival_ms}ms mappers={rec.mapper_ports} "
          f"reducers={rec.reducer_entries} ({rec.num_flows} flows)")

inst = ingest_trace(records, n_ports=4, mode="with-releases", min_flows_filter=1)
print(f"\ninstance: {inst.num_coflows} coflows, link capacity {inst.capacity} MB/s")
print(f"releases (s): {[round(cf.release, 2) for cf in inst.coflows]}")

result = solve_ordering_lp(inst)
print(f"LP lower bound: {result.objective:.3f} weighted seconds")

for name, sched in (
    ("lp-ov-ls", lp_ov_ls(inst, result)),
    ("varys", varys(inst)),
    (f"lp-ii-gb @ 1/{1 / slot_length(inst):g} s", lp_ii_gb(inst)),
):
    total = total_weighted_completion(sched, inst)
    print(f"  {name:18s} total={total:8.3f}  feasible={validate(sched, inst).ok}")

filtered = ingest_trace(records, n_ports=4, mode="zero-release", min_flows_filter=3)
print(f"\nkeeping only coflows with at least 3 flows: {filtered.num_coflows} coflow remains")
