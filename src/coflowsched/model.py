"""Domain types for coflow scheduling on an N x N non-blocking switch.

A coflow is a bundle of point-to-point transfers (flows) between switch
ports; it completes only when its last flow finishes.  Instances, per-port
load arithmetic, and the JSON interchange format defined here are consumed
by every other module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

_RESIDUAL_MIN_SIZE = 1e-9  # smaller remaining demands count as finished


class FlowKey(NamedTuple):
    """One flow: (source port, destination port, owning coflow id)."""

    source: int
    dest: int
    coflow: int


@dataclass(frozen=True)
class Coflow:
    """A sparse demand matrix plus release time and weight.

    ``demands`` maps (source, dest) port pairs to strictly positive sizes;
    zero entries are never stored.  Instances are treated as immutable
    after construction.
    """

    demands: Mapping[tuple[int, int], float]
    release: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if not self.demands:
            raise ValueError("a coflow must contain at least one flow")
        for (i, j), size in self.demands.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative port index in flow ({i}, {j})")
            if not size > 0:
                raise ValueError(f"flow ({i}, {j}) has non-positive size {size}")
        if not self.weight > 0:
            raise ValueError("coflow weight must be positive")
        if self.release < 0:
            raise ValueError("release time must be nonnegative")
        object.__setattr__(self, "demands", dict(self.demands))

    @property
    def total_demand(self) -> float:
        return sum(self.demands.values())

    @property
    def max_port(self) -> int:
        return max(max(i, j) for i, j in self.demands)


@dataclass(frozen=True)
class CoflowInstance:
    """A scheduling problem: switch width, coflows, per-link capacity.

    Coflow ids are the dense 0-based positions in ``coflows``.
    """

    n_ports: int
    coflows: Sequence[Coflow]
    capacity: float = 1.0

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be at least 1")
        if not self.capacity > 0:
            raise ValueError("capacity must be positive")
        object.__setattr__(self, "coflows", tuple(self.coflows))
        for k, cf in enumerate(self.coflows):
            if cf.max_port >= self.n_ports:
                raise ValueError(
                    f"coflow {k} uses port {cf.max_port} outside switch of width {self.n_ports}"
                )

    @property
    def num_coflows(self) -> int:
        return len(self.coflows)

    def flows(self) -> Iterator[tuple[FlowKey, float]]:
        """All (FlowKey, size) pairs, in (coflow, source, dest) order."""
        for k, cf in enumerate(self.coflows):
            for (i, j) in sorted(cf.demands):
                yield FlowKey(i, j, k), cf.demands[(i, j)]

    @property
    def total_demand(self) -> float:
        return sum(cf.total_demand for cf in self.coflows)


def port_loads(pairs: Mapping[tuple[int, int], float], n_ports: int) -> tuple[list, list]:
    """Source-side and destination-side totals of a {(source, dest): amount}
    map, each port summed in the map's iteration order."""
    src = [0.0] * n_ports
    dst = [0.0] * n_ports
    for (i, j), d in pairs.items():
        src[i] += d
        dst[j] += d
    return src, dst


def effective_size(coflow: Coflow, n_ports: int) -> float:
    """The bottleneck port load of a coflow.

    This is a lower bound on its standalone processing time at unit
    capacity: no port can move data faster than one unit per time unit.
    """
    return max(map(max, port_loads(coflow.demands, n_ports)))


def horizon(instance: CoflowInstance) -> float:
    """Upper bound on the time needed to finish everything: latest release
    plus the time to push the total demand through a single link."""
    if not instance.coflows:
        return 0.0
    latest = max(cf.release for cf in instance.coflows)
    return latest + instance.total_demand / instance.capacity


def node_load_matrix(instance: CoflowInstance) -> np.ndarray:
    """(2N, K) matrix of per-node loads: rows 0..N-1 are source ports,
    rows N..2N-1 are destination ports."""
    n, kk = instance.n_ports, instance.num_coflows
    loads = np.zeros((2 * n, kk))
    for k, cf in enumerate(instance.coflows):
        loads[:n, k], loads[n:, k] = port_loads(cf.demands, n)
    return loads


def prefix_bottlenecks(instance: CoflowInstance, ordering: Sequence[int]) -> np.ndarray:
    """Bottleneck load W(1..p+1) of every prefix of ``ordering``.

    Entry p is the peak per-port data load of the first p + 1 coflows of
    ``ordering``, which must be a permutation of all coflow ids.
    """
    ordering = list(ordering)
    if sorted(ordering) != list(range(instance.num_coflows)):
        raise ValueError("ordering must be a permutation of all coflow ids")
    return np.cumsum(node_load_matrix(instance)[:, ordering], axis=1).max(axis=0)


def residual_instance(
    instance: CoflowInstance,
    remaining: Mapping[FlowKey, float],
    now: float,
) -> tuple[CoflowInstance, list[int]]:
    """Instance of what is left at time ``now``: remaining demands, releases
    shifted to be relative to ``now``.

    Returns the residual instance and the list mapping its coflow ids back
    to the original ids.  Coflows with no remaining demand are dropped.
    """
    per_coflow: dict[int, dict[tuple[int, int], float]] = {}
    for key, rem in remaining.items():
        if rem > _RESIDUAL_MIN_SIZE:
            per_coflow.setdefault(key.coflow, {})[(key.source, key.dest)] = rem
    ids = sorted(per_coflow)
    coflows = [
        Coflow(
            demands=per_coflow[k],
            release=max(instance.coflows[k].release - now, 0.0),
            weight=instance.coflows[k].weight,
        )
        for k in ids
    ]
    return CoflowInstance(instance.n_ports, coflows, instance.capacity), ids


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

def instance_to_dict(instance: CoflowInstance) -> dict:
    return {
        "n_ports": instance.n_ports,
        "capacity": instance.capacity,
        "coflows": [
            {
                "release": cf.release,
                "weight": cf.weight,
                "flows": [
                    {"src": i, "dst": j, "size": cf.demands[(i, j)]}
                    for (i, j) in sorted(cf.demands)
                ],
            }
            for cf in instance.coflows
        ],
    }


def instance_from_dict(data: dict) -> CoflowInstance:
    coflows = [
        Coflow(
            demands={(f["src"], f["dst"]): f["size"] for f in entry["flows"]},
            release=entry.get("release", 0.0),
            weight=entry.get("weight", 1.0),
        )
        for entry in data["coflows"]
    ]
    return CoflowInstance(
        n_ports=data["n_ports"],
        coflows=coflows,
        capacity=data.get("capacity", 1.0),
    )


def save_instance(instance: CoflowInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1)


def load_instance(path) -> CoflowInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
