"""Domain types for coflow scheduling on an N x N non-blocking switch.

A coflow is a bundle of point-to-point transfers (flows) between switch
ports; it completes only when its last flow finishes.  Instances, per-port
load arithmetic, and the JSON interchange format defined here are consumed
by every other module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import inf
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

_RESIDUAL_MIN_SIZE = 1e-9  # smaller remaining demands count as finished
_PORT_TYPES = (int, np.integer)


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
            if not (isinstance(i, _PORT_TYPES) and isinstance(j, _PORT_TYPES)):
                raise ValueError(f"flow ({i}, {j}) has a non-integer port index")
            if i < 0 or j < 0:
                raise ValueError(f"negative port index in flow ({i}, {j})")
            if not 0.0 < size < inf:
                raise ValueError(f"flow ({i}, {j}) has size {size}, not finite and positive")
        if not 0.0 < self.weight < inf:
            raise ValueError(f"coflow weight {self.weight} is not finite and positive")
        if not 0.0 <= self.release < inf:
            raise ValueError(f"release time {self.release} is not finite and nonnegative")
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
        if not 0.0 < self.capacity < inf:
            raise ValueError(f"capacity {self.capacity} is not finite and positive")
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
        return zip(self.flow_keys, self.flow_sizes)

    @cached_property
    def flow_keys(self) -> tuple[FlowKey, ...]:
        """Every flow's FlowKey, in (coflow, source, dest) order; built once
        per instance."""
        return tuple(
            FlowKey(i, j, k) for k, cf in enumerate(self.coflows) for (i, j) in sorted(cf.demands)
        )

    @cached_property
    def flow_sizes(self) -> tuple:
        """Every flow's size, in ``flow_keys`` order; built once per
        instance."""
        return tuple(self.coflows[k].demands[(i, j)] for i, j, k in self.flow_keys)

    @cached_property
    def flow_offsets(self) -> tuple:
        """Coflow k's flow ids are ``flow_offsets[k]`` to ``flow_offsets[k + 1] - 1``."""
        return (0, *accumulate(len(cf.demands) for cf in self.coflows))

    @cached_property
    def time_loads(self) -> np.ndarray:
        """``node_load_matrix`` in time units (data over the link capacity);
        built once per instance and read-only."""
        return _read_only(node_load_matrix(self) / self.capacity)

    @cached_property
    def releases(self) -> np.ndarray:
        """Every coflow's release time, by id; built once and read-only."""
        return _read_only(np.array([cf.release for cf in self.coflows], dtype=float))

    @cached_property
    def weights(self) -> np.ndarray:
        """Every coflow's weight, by id; built once and read-only."""
        return _read_only(np.array([cf.weight for cf in self.coflows], dtype=float))

    @property
    def total_demand(self) -> float:
        return sum(cf.total_demand for cf in self.coflows)


def port_loads(flows: Mapping[tuple, float], n_ports: int) -> tuple[list, list]:
    """Source-side and destination-side totals of a map from (source, dest)
    pairs or FlowKeys to amounts, each port summed in the map's order."""
    src = [0.0] * n_ports
    dst = [0.0] * n_ports
    for key, d in flows.items():
        src[key[0]] += d
        dst[key[1]] += d
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


class OrderingInputs(NamedTuple):
    """All that the ordering LP reads of an instance (``CoflowInstance``
    has the same four fields): the coflow count, the (2N, K) load matrix
    in time units, and each coflow's release and weight."""

    num_coflows: int
    time_loads: np.ndarray
    releases: np.ndarray
    weights: np.ndarray


def residual(instance: CoflowInstance, source: np.ndarray, dest: np.ndarray, coflow: np.ndarray,
             remaining: np.ndarray, now: float) -> tuple[OrderingInputs, np.ndarray]:
    """The ordering LP's inputs for what is left at time ``now``: the flows
    with more than _RESIDUAL_MIN_SIZE of ``remaining`` (each flow's demand
    left, by flow id; ``source``, ``dest`` and ``coflow`` give each flow's
    ports and coflow), their coflows numbered in id order, and releases
    shifted to be relative to ``now``.

    Returns the inputs and the array mapping their coflow ids back to the
    instance's.  Each load cell adds its flows in id order, as
    ``port_loads`` over a coflow's demands does, so the loads have the bits
    of an instance built of the remaining demands.
    """
    keep = np.flatnonzero(remaining > _RESIDUAL_MIN_SIZE)
    ids, of = np.unique(coflow[keep], return_inverse=True)
    n, kk = instance.n_ports, len(ids)
    left = remaining[keep]
    cells = np.concatenate((source[keep] * kk + of, (n + dest[keep]) * kk + of))
    loads = np.bincount(cells, np.concatenate((left, left)), minlength=2 * n * kk).reshape(2 * n, kk)
    inputs = OrderingInputs(kk, _read_only(loads / instance.capacity),
                            _read_only(np.maximum(instance.releases[ids] - now, 0.0)),
                            _read_only(instance.weights[ids]))
    return inputs, ids


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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


_KINDS = {"an integer": int, "a number": (int, float), "a list": list}


def _field(data, key: str, kind: str, where: str, default=None):
    """``data[key]`` of ``kind`` (a key of _KINDS), or ``default`` when it is
    absent and given; otherwise ValueError names the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object")
    value = data.get(key, default)
    if value is None:
        raise ValueError(f"{where} has no {key!r}")
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ValueError(f"{where}: {key!r} must be {kind}, got {value!r}")
    return value


def instance_from_dict(data: dict) -> CoflowInstance:
    coflows = []
    for k, entry in enumerate(_field(data, "coflows", "a list", "instance")):
        where = f"coflow {k}"
        demands, first = {}, {}
        for f, flow in enumerate(_field(entry, "flows", "a list", where)):
            at = f"{where} flow {f}"
            pair = (_field(flow, "src", "an integer", at), _field(flow, "dst", "an integer", at))
            if pair in first:
                raise ValueError(f"{where}: flows {first[pair]} and {f} both run from port {pair[0]} to port {pair[1]}")
            first[pair] = f
            demands[pair] = _field(flow, "size", "a number", at)
        release = _field(entry, "release", "a number", where, 0.0)
        weight = _field(entry, "weight", "a number", where, 1.0)
        try:
            coflows.append(Coflow(demands=demands, release=release, weight=weight))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return CoflowInstance(
        n_ports=_field(data, "n_ports", "an integer", "instance"),
        coflows=coflows,
        capacity=_field(data, "capacity", "a number", "instance", 1.0),
    )


def save_instance(instance: CoflowInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1)


def load_instance(path) -> CoflowInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
