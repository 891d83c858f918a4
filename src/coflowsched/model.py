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
from itertools import accumulate, chain
from sys import float_info
from typing import Mapping, NamedTuple, Sequence

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
        # a number is finite when its float is: an int past float_info.max is not
        if not self.demands:
            raise ValueError("a coflow must contain at least one flow")
        for (i, j), size in self.demands.items():
            if not (isinstance(i, _PORT_TYPES) and isinstance(j, _PORT_TYPES)):
                raise ValueError(f"flow ({i}, {j}) has a non-integer port index")
            if not (0 <= i < 2**63 and 0 <= j < 2**63):  # the flow table keeps int64 labels
                raise ValueError(f"flow ({i}, {j}) has a port index outside 0..2^63 - 1")
            if not 0.0 < size <= float_info.max:
                raise ValueError(f"flow ({i}, {j}) has size {size}, not finite and positive")
        if not 0.0 < self.weight <= float_info.max:
            raise ValueError(f"coflow weight {self.weight} is not finite and positive")
        if not 0.0 <= self.release <= float_info.max:
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

    Coflow ids are the dense 0-based positions in ``coflows``.  Its flow
    table numbers the flows by (coflow, source, dest) and the *ports in use*,
    the sources that flows use, ascending, then the dests: every per-port
    array indexes them by row, and ``ports`` holds their labels.
    """

    n_ports: int
    coflows: Sequence[Coflow]
    capacity: float = 1.0

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be at least 1")
        if not 0.0 < self.capacity <= float_info.max:
            raise ValueError(f"capacity {self.capacity} is not finite and positive")
        object.__setattr__(self, "coflows", tuple(self.coflows))
        sizes, labels = [], []
        for k, cf in enumerate(self.coflows):
            if cf.max_port >= self.n_ports:
                raise ValueError(
                    f"coflow {k} uses port {cf.max_port} outside switch of width {self.n_ports}"
                )
            pairs = sorted(cf.demands)
            sizes += map(cf.demands.__getitem__, pairs)
            labels += chain.from_iterable(pairs)
        (sources, source_rows), (dests, dest_rows) = (
            np.unique(side, return_inverse=True) for side in np.array(labels, dtype=np.int64).reshape(-1, 2).T)
        self.__dict__.update({  # frozen: set as cached_property sets its values
            "flow_sizes": tuple(sizes),
            "flow_coflows": _read_only(np.repeat(np.arange(self.num_coflows), np.diff(self.flow_offsets))),
            "ports": _read_only(np.concatenate((sources, dests))),
            "num_source_ports": len(sources),
            "flow_source_rows": _read_only(source_rows),
            "flow_dest_rows": _read_only(dest_rows + len(sources)),
        })

    @property
    def num_coflows(self) -> int:
        return len(self.coflows)

    @cached_property
    def flow_keys(self) -> tuple[FlowKey, ...]:
        """Every flow's FlowKey, by flow id, made when first read: a schedule's
        ``keys`` start with them, while no run, LP or oracle search reads them."""
        columns = (self.ports[self.flow_source_rows], self.ports[self.flow_dest_rows], self.flow_coflows)
        return tuple(map(FlowKey, *(column.tolist() for column in columns)))

    @cached_property
    def flow_offsets(self) -> tuple:
        """Coflow k's flow ids are ``flow_offsets[k]`` to ``flow_offsets[k + 1] - 1``."""
        return (0, *accumulate(len(cf.demands) for cf in self.coflows))

    @cached_property
    def node_loads(self) -> np.ndarray:
        """``_load_matrix`` of every flow in data units, a row per port in use:
        the same bits however each coflow's demands were listed.  Read-only."""
        return _read_only(_load_matrix(self, slice(None), np.array(self.flow_sizes, dtype=float))[1])

    @cached_property
    def time_loads(self) -> np.ndarray:
        """``node_loads`` in time units (data over the link capacity); built
        once per instance and read-only."""
        return _read_only(self.node_loads / self.capacity)

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
        return sum(self.flow_sizes)


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
    return float(instance.releases.max(initial=0.0)) + instance.total_demand / instance.capacity


def _load_matrix(instance: CoflowInstance, keep, amounts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coflow ids of the flows ``keep`` (ascending ids, or a slice), ascending,
    and their loads, a row per port in use and a column per coflow: each
    cell adds its flows' ``amounts`` in id order (``np.bincount``), as
    ``port_loads`` over a coflow's demands listed by (source, dest) does.
    The kept flows' coflows ascend, so each coflow starts a run of equal
    values, and a flow's column counts the runs started up to it."""
    coflows = instance.flow_coflows[keep]
    starts = np.empty(len(coflows), dtype=bool)
    starts[:1] = True
    np.not_equal(coflows[1:], coflows[:-1], out=starts[1:])
    ids, of = coflows[starts], np.cumsum(starts) - 1
    rows, kk = len(instance.ports), len(ids)
    cells = np.concatenate((instance.flow_source_rows[keep] * kk + of, instance.flow_dest_rows[keep] * kk + of))
    return ids, np.bincount(cells, np.concatenate((amounts, amounts)), minlength=rows * kk).reshape(rows, kk)


def prefix_bottlenecks(instance: CoflowInstance, ordering: Sequence[int]) -> np.ndarray:
    """Bottleneck load W(1..p+1) of every prefix of ``ordering``.

    Entry p is the peak per-port data load of the first p + 1 coflows of
    ``ordering``, which must be a permutation of all coflow ids.
    """
    ordering = list(ordering)
    if sorted(ordering) != list(range(instance.num_coflows)):
        raise ValueError("ordering must be a permutation of all coflow ids")
    return np.cumsum(instance.node_loads[:, ordering], axis=1).max(axis=0)


class OrderingInputs(NamedTuple):
    """All that the ordering LP reads of an instance (``CoflowInstance``
    has the same four fields): the coflow count, the load matrix in time
    units (a row per port in use), and each coflow's release and weight;
    and the ids in the instance of the residual's coflows, ascending
    (``residual``)."""

    num_coflows: int
    time_loads: np.ndarray
    releases: np.ndarray
    weights: np.ndarray
    ids: np.ndarray


def residual(instance: CoflowInstance, remaining: np.ndarray, now: float) -> OrderingInputs:
    """The ordering LP's inputs for what is left at time ``now``: the flows
    with more than _RESIDUAL_MIN_SIZE of ``remaining`` (each flow's demand
    left, by flow id), their coflows numbered in id order, and releases
    shifted to be relative to ``now``.

    The loads are ``_load_matrix``'s, as the instance's are: at time 0 with
    nothing served they are ``instance.time_loads`` to the bit.
    """
    keep = np.flatnonzero(remaining > _RESIDUAL_MIN_SIZE)
    ids, loads = _load_matrix(instance, keep, remaining[keep])
    return OrderingInputs(len(ids), _read_only(loads / instance.capacity),
                          _read_only(np.maximum(instance.releases[ids] - now, 0.0)),
                          _read_only(instance.weights[ids]), _read_only(ids))


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
    absent and given; otherwise ValueError names the key.  A number must be
    finite as a float: JSON's NaN and Infinity, and integers past the
    largest float, are refused."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object")
    value = data.get(key, default)
    if value is None:
        raise ValueError(f"{where} has no {key!r}")
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ValueError(f"{where}: {key!r} must be {kind}, got {value!r}")
    if kind == "a number" and not -float_info.max <= value <= float_info.max:
        raise ValueError(f"{where}: {key!r} must be finite, got {value!r}")
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
