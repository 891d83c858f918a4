import numpy as np
import pytest

from coflowsched.model import Coflow, CoflowInstance


def make_tiny_instance(seed: int, zero_release: bool = False) -> CoflowInstance | None:
    """Random integer instance small enough for the exact oracle:
    at most 3 ports and total demand at most 12."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(2, 5))
    budget = 12
    coflows = []
    for _ in range(k):
        n_flows = int(rng.integers(1, 3))
        demands = {}
        for _ in range(n_flows):
            if budget <= 0:
                break
            size = int(rng.integers(1, min(3, budget) + 1))
            pair = (int(rng.integers(n)), int(rng.integers(n)))
            demands[pair] = demands.get(pair, 0) + size
            budget -= size
        if demands:
            release = 0.0 if zero_release else float(rng.integers(0, 4))
            weight = float(rng.integers(1, 4))
            coflows.append(Coflow(demands, release=release, weight=weight))
    if len(coflows) < 2:
        return None
    return CoflowInstance(n, coflows)


def tiny_instances(count: int, zero_release: bool = False, seed0: int = 0):
    out = []
    seed = seed0
    while len(out) < count:
        inst = make_tiny_instance(seed, zero_release)
        seed += 1
        if inst is not None:
            out.append(inst)
    return out


def lp_certificates(instance, ordering_result=None):
    """Certificates of the solutions behind ``solve_ordering_lp`` (or the
    given result of it) and ``solve_interval_lp`` on an instance."""
    from coflowsched import lpcore
    from coflowsched.relaxations import (
        _build_reduced_ordering_lp,
        build_interval_lp,
        solve_interval_lp,
        solve_ordering_lp,
    )

    ordering_result = ordering_result or solve_ordering_lp(instance)
    return [
        lpcore.certify(problem, result.solution.values, result.solution.duals)
        for problem, result in (
            (_build_reduced_ordering_lp(instance), ordering_result),
            (build_interval_lp(instance)[0], solve_interval_lp(instance)),
        )
    ]
