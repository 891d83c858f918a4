"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The random suites are built once and shared.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import lp_certificates, tiny_instances

from coflowsched import cli
from coflowsched.model import Coflow, CoflowInstance, effective_size, prefix_bottlenecks
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import lp_ii_gb, lp_ov_gb, lp_ov_ls, varys
from coflowsched.sim import total_weighted_completion, validate
from coflowsched.verify import (
    blocking_pair_fixture,
    check_prefix_halving,
    check_approximation_bounds,
    counterexample_fixture,
    equal_bottleneck_fixture,
    oracle_opt,
    staggered_release_fixture,
)
from coflowsched.workload import SyntheticConfig, generate


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _suite_params():
    rng = np.random.default_rng(20240)
    params = []
    for n in (2, 4, 8):
        for kind in ("dense", "combined"):
            for zero_release in (False, True):
                for _ in range(17):
                    params.append((n, kind, zero_release, int(rng.integers(2, 41))))
    return params


@pytest.fixture(scope="module")
def random_suite():
    """>= 200 seeded instances with the LP solved and the list scheduler run."""
    t0 = time.monotonic()
    entries = []
    for idx, (n, kind, zero_release, k) in enumerate(_suite_params()):
        inst = generate(
            SyntheticConfig(
                n_ports=n,
                n_coflows=k,
                kind=kind,
                interarrival_range=None if zero_release else (1, 100),
                seed=50_000 + idx,
            )
        )
        result = solve_ordering_lp(inst)
        schedule = lp_ov_ls(inst, result)
        entries.append((inst, result, schedule))
    return entries, time.monotonic() - t0


@pytest.fixture(scope="module")
def tiny_suite():
    return tiny_instances(30, zero_release=False, seed0=1000) + tiny_instances(
        30, zero_release=True, seed0=5000
    )


def test_criterion_1_worked_example_fidelity():
    with criterion(1, "worked-example fidelity"):
        t0 = time.monotonic()
        inst_a = equal_bottleneck_fixture()
        assert total_weighted_completion(varys(inst_a), inst_a) == 5.0
        assert oracle_opt(inst_a).optimal_value == 4.0
        inst_b = blocking_pair_fixture()
        assert total_weighted_completion(varys(inst_b), inst_b) == 12.0
        assert oracle_opt(inst_b).optimal_value == 11.0
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_ordering_counterexample():
    with criterion(2, "ordering counterexample"):
        t0 = time.monotonic()
        inst = counterexample_fixture()
        prefix_peak = prefix_bottlenecks(inst, [0, 1])[1]
        assert prefix_peak == 3.0
        schedule = lp_ov_gb(inst)
        assert schedule.completions[0] == 2.0
        assert schedule.completions[1] == 4.0
        assert time.monotonic() - t0 < 1.0


def test_criterion_3_approximation_guarantees(random_suite):
    with criterion(3, "4/5-approximation guarantees"):
        entries, build_seconds = random_suite
        t0 = time.monotonic()
        assert len(entries) >= 200
        for inst, result, schedule in entries:
            report = check_approximation_bounds(
                inst, schedule, result.objective, result.ordering
            )
            assert report.total_ok, (report.ratio, report.limit)
            assert report.structural_ok, report.worst_structural_margin
        assert build_seconds + (time.monotonic() - t0) < 600.0


def test_criterion_4_prefix_halving(random_suite):
    with criterion(4, "relaxed completions dominate half the prefix load"):
        entries, _ = random_suite
        for inst, result, _ in entries:
            report = check_prefix_halving(result, inst)
            assert report.ok, report.worst_margin


def test_lp_duals_certify_both_optima(random_suite):
    entries, _ = random_suite
    for inst, result, _ in entries:
        for certificate in lp_certificates(inst, result):
            assert certificate.ok, certificate.violations
            assert abs(certificate.gap) <= 1e-9


def test_criterion_5_oracle_sandwich(tiny_suite):
    with criterion(5, "oracle sandwich on tiny instances"):
        t0 = time.monotonic()
        assert len(tiny_suite) >= 50
        fig = staggered_release_fixture()
        assert oracle_opt(fig).optimal_value == 12.0
        for inst in tiny_suite:
            result = solve_ordering_lp(inst)
            opt = oracle_opt(inst).optimal_value
            assert result.objective <= opt + 1e-6
            totals = {}
            for name, schedule in (
                ("lp-ov-ls", lp_ov_ls(inst, result)),
                ("varys", varys(inst)),
                ("lp-ov-gb", lp_ov_gb(inst, result)),
                ("lp-ii-gb", lp_ii_gb(inst)),
            ):
                totals[name] = total_weighted_completion(schedule, inst)
                assert opt <= totals[name] + 1e-6, (name, opt, totals[name])
            if all(cf.release == 0 for cf in inst.coflows):
                assert totals["lp-ov-ls"] <= 4.0 * opt + 1e-6
        assert time.monotonic() - t0 < 300.0


def test_criterion_6_all_schedulers_feasible(random_suite, tiny_suite):
    with criterion(6, "every emitted schedule is feasible"):
        entries, _ = random_suite
        for inst, _, schedule in entries:
            assert validate(schedule, inst).ok
        for inst in tiny_suite:
            result = solve_ordering_lp(inst)
            for schedule in (
                lp_ov_ls(inst, result),
                varys(inst),
                lp_ov_gb(inst, result),
                lp_ii_gb(inst),
            ):
                report = validate(schedule, inst)
                assert report.ok, report.violations[:3]
        for seed in range(8):
            inst = generate(
                SyntheticConfig(
                    n_ports=8,
                    n_coflows=12,
                    kind="dense" if seed % 2 else "combined",
                    interarrival_range=(1, 100) if seed < 4 else None,
                    seed=70_000 + seed,
                )
            )
            result = solve_ordering_lp(inst)
            for schedule in (
                lp_ov_ls(inst, result),
                varys(inst),
                lp_ov_gb(inst, result),
                lp_ii_gb(inst),
            ):
                report = validate(schedule, inst)
                assert report.ok, report.violations[:3]


def test_criterion_7_desk_scale_comparison():
    with criterion(7, "desk-scale scheduler comparison"):
        means = {"lp-ov-ls": 0.0, "varys": 0.0, "lp-ov-gb": 0.0}
        for rep in range(20):
            inst = generate(
                SyntheticConfig(n_ports=8, n_coflows=40, kind="dense", seed=90_000 + rep)
            )
            result = solve_ordering_lp(inst)
            means["lp-ov-ls"] += total_weighted_completion(lp_ov_ls(inst, result), inst)
            means["varys"] += total_weighted_completion(varys(inst), inst)
            means["lp-ov-gb"] += total_weighted_completion(lp_ov_gb(inst, result), inst)
        assert means["lp-ov-ls"] <= means["varys"]
        assert means["lp-ov-ls"] <= means["lp-ov-gb"]
        ratios = []
        for rep in range(10):
            inst = generate(
                SyntheticConfig(
                    n_ports=8,
                    n_coflows=40,
                    kind="dense",
                    interarrival_range=None,
                    seed=95_000 + rep,
                )
            )
            result = solve_ordering_lp(inst)
            total = total_weighted_completion(lp_ov_ls(inst, result), inst)
            ratios.append(total / result.objective)
            assert ratios[-1] <= 2.0
        print(
            f"  typical zero-release dense ratio_to_lb: mean={np.mean(ratios):.4f} "
            f"max={max(ratios):.4f} (recorded, not asserted)"
        )


def test_criterion_8_deterministic_reports(tmp_path):
    with criterion(8, "deterministic experiment reports"):
        args = [
            "run", "--workload", "combined", "--ports", "4", "--coflows", "6",
            "--reps", "2", "--seed", "17",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0

        def rows_without_timing(path):
            with open(path, newline="") as fh:
                return [
                    {k: v for k, v in row.items() if k != "wall_ms"}
                    for row in csv.DictReader(fh)
                ]

        assert rows_without_timing(out1) == rows_without_timing(out2)
