import csv
import json
import pathlib

import pytest

from coflowsched import cli
from coflowsched.model import Coflow, CoflowInstance, load_instance, save_instance
from coflowsched.verify import blocking_pair_fixture, staggered_release_fixture

DATA = pathlib.Path(__file__).parent / "data"


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_writes_loadable_instance(tmp_path):
    out = tmp_path / "inst.json"
    rc = cli.main(["gen", "--workload", "dense", "--ports", "4", "--coflows", "6",
                   "--seed", "2", "--out", str(out)])
    assert rc == 0
    inst = load_instance(out)
    assert inst.n_ports == 4
    assert inst.num_coflows == 6


def test_gen_paper_scale_and_random_weights(tmp_path):
    out = tmp_path / "big.json"
    rc = cli.main(["gen", "--paper-scale", "--weights", "random", "--seed", "1",
                   "--out", str(out)])
    assert rc == 0
    inst = load_instance(out)
    assert inst.n_ports == 16
    assert inst.num_coflows == 160
    assert any(cf.weight != 1.0 for cf in inst.coflows)


def test_gen_and_run_share_one_instance_path(tmp_path):
    flags = ["--workload", "combined", "--ports", "5", "--coflows", "7", "--seed", "3",
             "--weights", "random", "--zero-release"]
    gen_out, dumps = tmp_path / "gen.json", tmp_path / "dumps"
    assert cli.main(["gen", *flags, "--out", str(gen_out)]) == 0
    assert cli.main(["run", *flags, "--reps", "1", "--schedulers", "lp-ov-ls",
                     "--out", str(tmp_path / "r.csv"), "--dump-schedules", str(dumps)]) == 0
    assert (dumps / "rep000_instance.json").read_bytes() == gen_out.read_bytes()


def test_run_produces_report_rows(tmp_path):
    out = tmp_path / "report.csv"
    rc = cli.main(["run", "--workload", "combined", "--ports", "4", "--coflows", "5",
                   "--reps", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 2 * 4  # reps x default schedulers
    assert list(rows[0]) == cli.REPORT_COLUMNS
    for row in rows:
        assert row["valid"] == "true"
        assert float(row["ratio_to_lb"]) >= 1.0 - 1e-9
        if row["scheduler"] == "lp-ov-ls":
            assert float(row["ratio_to_lpovls"]) == pytest.approx(1.0)


def test_single_run_csv_has_header_and_row():
    reports = [
        cli.ScheduleReport(
            instance_id="rep000",
            scheduler="lp-ov-ls",
            total_weighted_completion=10.0,
            lp_lower_bound=8.0,
            ratio_to_lb=1.25,
            ratio_to_lpovls=1.0,
            wall_ms=3.2,
            valid=True,
        )
    ]
    text = cli.reports_to_csv(reports)
    assert len(text.strip().splitlines()) == 2


def test_json_report_round_trips(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["run", "--workload", "dense", "--ports", "2", "--coflows", "3",
                   "--reps", "1", "--seed", "0", "--schedulers", "lp-ov-ls,varys",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert {r["scheduler"] for r in payload["reports"]} == {"lp-ov-ls", "varys"}
    assert payload["summary"]["lp-ov-ls"]["all_valid"] is True
    assert payload["summary"]["lp-ov-ls"]["mean_ratio_to_lpovls"] == pytest.approx(1.0)


def test_run_determinism_excluding_wall_ms(tmp_path):
    args = ["run", "--workload", "combined", "--ports", "4", "--coflows", "5",
            "--reps", "2", "--seed", "11"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    strip = lambda path: [
        {k: v for k, v in row.items() if k != "wall_ms"} for row in _read_rows(path)
    ]
    assert strip(out1) == strip(out2)


def test_oracle_verb(tmp_path, capsys):
    inst_path = tmp_path / "tiny.json"
    save_instance(staggered_release_fixture(), inst_path)
    rc = cli.main(["oracle", "--instance", str(inst_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optimal_value 12" in out


def test_oracle_verb_refuses_big_instances(tmp_path):
    inst_path = tmp_path / "big.json"
    cli.main(["gen", "--workload", "dense", "--ports", "6", "--coflows", "6",
              "--seed", "0", "--out", str(inst_path)])
    rc = cli.main(["oracle", "--instance", str(inst_path)])
    assert rc == 2


def test_lp_bound_verb(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(staggered_release_fixture(), inst_path)
    rc = cli.main(["lp-bound", "--instance", str(inst_path)])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(10.0)


def test_validate_verb_accepts_and_rejects(tmp_path):
    dumps = tmp_path / "dumps"
    rc = cli.main(["run", "--workload", "dense", "--ports", "2", "--coflows", "2",
                   "--reps", "1", "--seed", "5", "--schedulers", "lp-ov-ls",
                   "--out", str(tmp_path / "r.csv"), "--dump-schedules", str(dumps)])
    assert rc == 0
    inst = dumps / "rep000_instance.json"
    sched = dumps / "rep000_lp_ov_ls.json"
    assert cli.main(["validate", "--instance", str(inst), "--schedule", str(sched)]) == 0

    data = json.loads(sched.read_text())
    for seg in data["segments"]:
        for entry in seg["rates"]:
            entry["rate"] *= 0.5  # schedule no longer moves all the demand
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert cli.main(["validate", "--instance", str(inst), "--schedule", str(broken)]) == 1


def test_dump_schedules_same_with_workers_and_without_lp_ov_ls(tmp_path):
    common = ["run", "--workload", "dense", "--ports", "3", "--coflows", "4",
              "--reps", "2", "--seed", "3"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert cli.main(common + ["--schedulers", "lp-ov-ls", "--out", str(tmp_path / "a.csv"),
                              "--dump-schedules", str(serial)]) == 0
    # lp-ov-ls is not among the schedulers run here, so the dump schedules it itself
    assert cli.main(common + ["--schedulers", "varys", "--workers", "2",
                              "--out", str(tmp_path / "b.csv"),
                              "--dump-schedules", str(pooled)]) == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == ["rep000_instance.json", "rep000_lp_ov_ls.json",
                     "rep001_instance.json", "rep001_lp_ov_ls.json"]
    assert sorted(p.name for p in pooled.iterdir()) == names
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


def test_trace_run(tmp_path):
    out = tmp_path / "trace.csv"
    rc = cli.main(["run", "--trace", str(DATA / "mini_trace.csv"), "--reps", "1",
                   "--schedulers", "lp-ov-ls,varys,lp-ov-gb", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    assert all(row["valid"] == "true" for row in rows)


def test_bad_inputs_exit_two(tmp_path, capsys):
    assert cli.main(["run", "--schedulers", "bogus", "--reps", "1"]) == 2
    assert cli.main(["run", "--schedulers", ",", "--reps", "1"]) == 2
    assert "select at least one scheduler" in capsys.readouterr().err
    assert cli.main(["run", "--reps", "0"]) == 2
    assert "repetitions must be at least 1" in capsys.readouterr().err
    assert cli.main(["lp-bound", "--instance", str(tmp_path / "missing.json")]) == 2


def test_smoke_run_all_schedulers(tmp_path):
    out = tmp_path / "smoke.csv"
    rc = cli.main(["run", "--workload", "dense", "--ports", "8", "--coflows", "20",
                   "--reps", "5", "--seed", "21",
                   "--schedulers", ",".join(cli.SCHEDULER_NAMES),
                   "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 5 * 5
    assert all(row["valid"] == "true" for row in rows)
    for row in rows:
        if row["scheduler"] == "lp-ov-ls":
            assert float(row["ratio_to_lb"]) <= 5.0


def test_single_coflow_all_schedulers_agree(tmp_path):
    inst = CoflowInstance(2, [Coflow({(0, 1): 4.0}, release=1.0, weight=2.0)])
    path = tmp_path / "single.json"
    save_instance(inst, path)
    out = tmp_path / "single.csv"
    rc = cli.main(["run", "--instance", str(path), "--reps", "1",
                   "--schedulers", ",".join(cli.SCHEDULER_NAMES), "--out", str(out)])
    assert rc == 0
    totals = {row["scheduler"]: float(row["total_weighted_completion"])
              for row in _read_rows(out)}
    assert all(t == pytest.approx(10.0) for t in totals.values())


def test_blocking_fixture_varys_total(tmp_path):
    path = tmp_path / "blocking.json"
    save_instance(blocking_pair_fixture(), path)
    out = tmp_path / "blocking.csv"
    rc = cli.main(["run", "--instance", str(path), "--reps", "1",
                   "--schedulers", "varys", "--out", str(out)])
    assert rc == 0
    (row,) = _read_rows(out)
    assert float(row["total_weighted_completion"]) == pytest.approx(12.0)


def test_workers_flag_matches_sequential(tmp_path):
    args = ["run", "--workload", "dense", "--ports", "2", "--coflows", "3",
            "--reps", "2", "--seed", "8", "--schedulers", "lp-ov-ls"]
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert cli.main(args + ["--out", str(seq)]) == 0
    assert cli.main(args + ["--out", str(par), "--workers", "2"]) == 0
    strip = lambda path: [
        {k: v for k, v in row.items() if k != "wall_ms"} for row in _read_rows(path)
    ]
    assert strip(seq) == strip(par)
