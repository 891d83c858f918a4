"""Synthetic instance generation and shuffle-trace ingestion.

Synthetic instances mirror the dense/combined workloads used for the
scheduler comparisons; trace ingestion turns MapReduce-style shuffle
records (arrival, mapper racks, per-reducer megabytes) into a
CoflowInstance on a switch with 128 MB/s links.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import Coflow, CoflowInstance

TRACE_LINK_CAPACITY_MBPS = 128.0
ARRIVAL_TIME_COMPRESSION = 10.0     # trace arrivals are compressed tenfold
_TRACE_HEADER = ["coflow_id", "arrival_ms", "mappers", "reducers"]


@dataclass
class SyntheticConfig:
    """Knobs for random instance generation.

    ``kind`` is "dense" (flow count uniform on {N..N^2}) or "combined"
    (fair coin between sparse {1..N} and dense).  ``interarrival_range``
    of None puts every release at zero.
    """

    n_ports: int = 16
    n_coflows: int = 160
    kind: str = "dense"
    size_range: tuple = (1, 100)
    interarrival_range: tuple | None = (1, 100)
    seed: int = 0

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be at least 1")
        if self.n_coflows < 1:
            raise ValueError("n_coflows must be at least 1")
        if self.kind not in ("dense", "combined"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        lo, hi = self.size_range
        if lo < 1 or hi < lo:
            raise ValueError("size_range must be a nonempty range of positive integers")
        if self.interarrival_range is not None:
            lo, hi = self.interarrival_range
            if lo < 0 or hi < lo:
                raise ValueError("interarrival_range must be nonempty and nonnegative")


@dataclass
class TraceRecord:
    """One trace coflow: arrival, mapper racks, (reducer rack, MB) pairs."""

    coflow_id: str
    arrival_ms: int
    mapper_ports: list
    reducer_entries: list

    def __post_init__(self):
        if not self.mapper_ports or not self.reducer_entries:
            raise ValueError(f"coflow {self.coflow_id} needs mappers and reducers")
        if self.arrival_ms < 0:
            raise ValueError(f"coflow {self.coflow_id} arrives at a negative time")
        if min([*self.mapper_ports, *(rack for rack, _ in self.reducer_entries)]) < 0:
            raise ValueError(f"coflow {self.coflow_id} names a negative rack id")
        for _, mb in self.reducer_entries:
            if not 0 < mb < math.inf:
                raise ValueError(f"coflow {self.coflow_id} has a shuffle volume that is not finite and positive")

    @property
    def num_flows(self) -> int:
        return len(self.mapper_ports) * len(self.reducer_entries)


def generate(config: SyntheticConfig) -> CoflowInstance:
    """Deterministic random instance for a seed.

    Each coflow draws its own substream (seed spawned per coflow id), so
    instances are reproducible and stable under config tweaks elsewhere.
    """
    n = config.n_ports
    streams = np.random.SeedSequence(config.seed).spawn(config.n_coflows + 1)
    arrival_rng = np.random.default_rng(streams[0])
    releases = np.zeros(config.n_coflows)
    if config.interarrival_range is not None:
        lo, hi = config.interarrival_range
        gaps = arrival_rng.uniform(lo, hi, size=config.n_coflows)
        releases = np.cumsum(gaps)
    lo_size, hi_size = config.size_range
    coflows = []
    for k in range(config.n_coflows):
        rng = np.random.default_rng(streams[k + 1])
        if config.kind == "dense":
            m = int(rng.integers(n, n * n + 1))
        else:
            if rng.random() < 0.5:
                m = int(rng.integers(1, n + 1))
            else:
                m = int(rng.integers(n, n * n + 1))
        pair_ids = rng.choice(n * n, size=m, replace=False)
        sizes = rng.integers(lo_size, hi_size + 1, size=m)
        demands = {
            (int(p) // n, int(p) % n): float(s) for p, s in zip(pair_ids, sizes)
        }
        coflows.append(Coflow(demands=demands, release=float(releases[k])))
    return CoflowInstance(n_ports=n, coflows=coflows)


def assign_weights(instance: CoflowInstance, mode: str = "unit", seed: int = 0) -> CoflowInstance:
    """Return a copy with unit weights or weights drawn uniformly from
    (0, 1] (zero excluded so weights stay positive)."""
    if mode == "unit":
        weights = np.ones(instance.num_coflows)
    elif mode == "uniform-random":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        weights = 1.0 - rng.random(instance.num_coflows)
    else:
        raise ValueError(f"unknown weight mode {mode!r}")
    coflows = [
        Coflow(demands=cf.demands, release=cf.release, weight=float(w))
        for cf, w in zip(instance.coflows, weights)
    ]
    return CoflowInstance(instance.n_ports, coflows, instance.capacity)


def ingest_trace(
    records: list,
    n_ports: int,
    mode: str = "with-releases",
    min_flows_filter: int = 1,
) -> CoflowInstance:
    """Build an instance from trace records.

    Every reducer's shuffle volume is spread evenly over the coflow's
    mappers.  Arrivals (milliseconds) become releases in seconds
    compressed tenfold; "zero-release" mode puts everything at time 0.
    Coflows with fewer than ``min_flows_filter`` flows are dropped.
    """
    if mode not in ("with-releases", "zero-release"):
        raise ValueError(f"unknown release mode {mode!r}")
    coflows = []
    for rec in records:
        if rec.num_flows < min_flows_filter:
            continue
        for port in rec.mapper_ports:
            if not 0 <= port < n_ports:
                raise ValueError(f"mapper rack {port} outside switch of width {n_ports}")
        demands: dict[tuple[int, int], float] = {}
        n_mappers = len(rec.mapper_ports)
        for rack, mb in rec.reducer_entries:
            if not 0 <= rack < n_ports:
                raise ValueError(f"reducer rack {rack} outside switch of width {n_ports}")
            share = mb / n_mappers
            for mapper in rec.mapper_ports:
                key = (mapper, rack)
                demands[key] = demands.get(key, 0.0) + share
        release = 0.0
        if mode == "with-releases":
            release = rec.arrival_ms / 1000.0 / ARRIVAL_TIME_COMPRESSION
        coflows.append(Coflow(demands=demands, release=release))
    if not coflows:
        raise ValueError("no coflows survive the flow-count filter")
    return CoflowInstance(
        n_ports=n_ports, coflows=coflows, capacity=TRACE_LINK_CAPACITY_MBPS
    )


def parse_trace_csv(path) -> list:
    """Read trace records from the CSV layout
    ``coflow_id,arrival_ms,mappers,reducers`` where mappers are
    ';'-separated rack ids and reducers ';'-separated rack:megabytes.
    A malformed line raises ValueError naming the line and the column."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _TRACE_HEADER if c not in header]
        if missing:
            raise ValueError(f"trace file missing columns: {missing}")
        for fields in reader:
            if not fields:
                continue  # a blank line
            try:
                if len(fields) != len(header):
                    raise ValueError(f"{len(fields)} fields where the header has {len(header)}")
                records.append(_trace_record(dict(zip(header, fields))))
            except ValueError as exc:
                raise ValueError(f"trace line {reader.line_num}: {exc}") from None
    if not records:
        raise ValueError("trace file has no records")
    return records


def _trace_record(row: dict) -> TraceRecord:
    reducers = []
    for part in filter(None, row["reducers"].split(";")):
        fields = part.split(":")
        if len(fields) != 2:
            raise ValueError(f"'reducers' entry {part!r} is not rack:megabytes")
        try:
            mb = float(fields[1])
        except ValueError:
            raise ValueError(f"'reducers' entry {part!r} has a volume that is not a number") from None
        reducers.append((_integer("reducers", fields[0]), mb))
    return TraceRecord(
        coflow_id=row["coflow_id"],
        arrival_ms=_integer("arrival_ms", row["arrival_ms"]),
        mapper_ports=[_integer("mappers", x) for x in row["mappers"].split(";") if x],
        reducer_entries=reducers,
    )


def _integer(column: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{column!r} entry {text!r} is not an integer") from None
