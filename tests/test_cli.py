import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from coflowsched import cli
from coflowsched.model import Coflow, CoflowInstance, instance_to_dict, load_instance, save_instance
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


def test_failed_lp_certificate_exits_one(tmp_path, capsys, monkeypatch):
    from coflowsched import lpcore

    inst_path = tmp_path / "inst.json"
    save_instance(staggered_release_fixture(), inst_path)

    def failing(problem, x, y):
        return lpcore.Certificate(False, 10.0, 10.0, 0.0, ["dual sign: y[3] = -1 on a >= row"])

    monkeypatch.setattr(lpcore, "certify", failing)
    for argv in (["lp-bound"], ["run", "--reps", "1", "--schedulers", "lp-ov-ls"]):
        assert cli.main(argv + ["--instance", str(inst_path)]) == 1
        captured = capsys.readouterr()
        assert "invariant violation" in captured.err
        assert "dual sign: y[3] = -1 on a >= row" in captured.err
        assert "Traceback" not in captured.err


def test_unexpected_exception_exits_one_in_one_line(tmp_path, capsys, monkeypatch):
    from coflowsched import schedulers

    inst_path = tmp_path / "inst.json"
    save_instance(staggered_release_fixture(), inst_path)

    def broken(instance):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(schedulers, "varys", broken)
    argv = ["run", "--instance", str(inst_path), "--reps", "1", "--schedulers", "varys"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: run: varys: ZeroDivisionError: float division by zero"]
    assert "Traceback" not in err


def _rows_of(fmt, path):
    if fmt == "csv":
        return _read_rows(path)
    return json.loads(path.read_text())["reports"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_scheduler_that_raises_keeps_the_other_rows(tmp_path, capsys, monkeypatch, fmt):
    from coflowsched import schedulers

    inst_path = tmp_path / "inst.json"
    save_instance(staggered_release_fixture(), inst_path)

    def broken(instance, lp):
        raise KeyError("no such pair")

    monkeypatch.setitem(schedulers.SCHEDULERS, "lp-ov-gb", broken)
    out = tmp_path / f"out.{fmt}"
    argv = ["run", "--instance", str(inst_path), "--reps", "2", "--format", fmt, "--out", str(out),
            "--schedulers", "lp-ov-ls,lp-ov-gb,varys"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: run: lp-ov-gb: KeyError: 'no such pair'"]
    rows = _rows_of(fmt, out)
    assert [row["scheduler"] for row in rows] == ["lp-ov-ls", "lp-ov-gb", "varys"] * 2
    for row in rows:
        failed = row["scheduler"] == "lp-ov-gb"
        assert row["valid"] in ((False, "false") if failed else (True, "true"))
        assert (row["error"] or None) == ("KeyError: 'no such pair'" if failed else None)
        assert math.isnan(float(row["total_weighted_completion"])) == failed


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_tiny_flow_reports_every_scheduler(tmp_path, capsys, fmt):
    # one flow of size 1e-300: lp-ii-gb's interval LP is infeasible in
    # floating point, and the other four schedulers still report
    path = tmp_path / "tiny.json"
    save_instance(CoflowInstance(1, [Coflow({(0, 0): 1e-300})]), path)
    out = tmp_path / f"out.{fmt}"
    names = ["lp-ov-ls", "lp-ov-ls-online", "varys", "lp-ii-gb", "lp-ov-gb"]
    argv = ["run", "--instance", str(path), "--reps", "1", "--format", fmt, "--out", str(out),
            "--schedulers", ",".join(names)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run: lp-ii-gb: RuntimeError: interval LP")
    rows = _rows_of(fmt, out)
    assert [row["scheduler"] for row in rows] == names
    for row in rows:
        failed = row["scheduler"] == "lp-ii-gb"
        assert row["valid"] in ((False, "false") if failed else (True, "true"))
        assert bool(row["error"]) == failed
        if not failed:
            assert float(row["total_weighted_completion"]) == 1e-300


def test_lp_that_fails_its_certificate_exits_one_naming_the_rows(tmp_path):
    # sizes 100 and 1e-4 on one port: the ordering LP's answer violates rows
    # (tests/test_relaxations.py::test_coflows_of_mixed_sizes_on_one_port);
    # a fresh interpreter shows everything the command prints
    inst_path = tmp_path / "mixed.json"
    save_instance(CoflowInstance(1, [Coflow({(0, 0): 100.0}), Coflow({(0, 0): 1e-4})]), inst_path)
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for argv in (["run", "--reps", "1"], ["lp-bound"]):
        proc = subprocess.run([sys.executable, "-m", "coflowsched.cli", *argv, "--instance", str(inst_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "invariant violation" in proc.stderr
        assert "primal: row" in proc.stderr
        assert "Traceback" not in proc.stderr


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


def test_validate_into_a_reader_that_closes_early_exits_without_a_traceback(tmp_path):
    # each of 3000 segments runs the one flow at twice the capacity: the
    # report lists 6000 violations, far more than a pipe holds, so the
    # command is still writing when the reader closes, as under `| head -3`
    inst = tmp_path / "instance.json"
    save_instance(CoflowInstance(1, [Coflow({(0, 0): 1.0})]), inst)
    flow = {"src": 0, "dst": 0, "coflow": 0}
    sched = tmp_path / "schedule.json"
    sched.write_text(json.dumps({
        "segments": [{"start": s / 2, "end": (s + 1) / 2, "rates": [dict(flow, rate=2.0)]} for s in range(3000)],
        "completions": [1500.0], "flow_completions": [dict(flow, time=1500.0)]}))
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "coflowsched.cli", "validate", "--instance", str(inst),
                             "--schedule", str(sched)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(16).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_validate_verb_rejects_a_flow_the_instance_lacks(tmp_path, capsys):
    from coflowsched.schedulers import lp_ov_ls

    instance = CoflowInstance(3, [Coflow({(0, 0): 1.0}), Coflow({(1, 1): 1.0})])
    inst = tmp_path / "instance.json"
    save_instance(instance, inst)
    data = lp_ov_ls(instance).to_dict()
    data["segments"][0]["rates"].append({"src": 2, "dst": 2, "coflow": 1, "rate": 0.5})
    data["flow_completions"].append({"src": 2, "dst": 2, "coflow": 1, "time": 99.0})
    sched = tmp_path / "schedule.json"
    sched.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["validate", "--instance", str(inst), "--schedule", str(sched)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [v["kind"] for v in report["violations"]] == ["unknown_flow"]
    assert report["violations"][0]["location"] == "flow (2, 2, 1)"


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
    # the default schedulers; lp-ii-gb runs the megabyte flows in 1/128 s slots
    out = tmp_path / "trace.csv"
    rc = cli.main(["run", "--trace", str(DATA / "mini_trace.csv"), "--reps", "1",
                   "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert [row["scheduler"] for row in rows] == cli.DEFAULT_SCHEDULERS
    assert all(row["valid"] == "true" for row in rows)


def _set(*path, value):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


MALFORMED = {
    "release-nan": _set("coflows", 1, "release", value=math.nan),
    "size-infinity": _set("coflows", 0, "flows", 0, "size", value=math.inf),
    "weight-infinity": _set("coflows", 0, "weight", value=math.inf),
    "capacity-infinity": _set("capacity", value=math.inf),
    "size-string": _set("coflows", 0, "flows", 0, "size", value="3"),
    "no-coflows": lambda data: data.pop("coflows"),
    "fractional-port": _set("coflows", 0, "flows", 0, "src", value=0.5),
    "repeated-pair": lambda data: data["coflows"][0]["flows"].append(
        dict(data["coflows"][0]["flows"][0], size=2.0)),
    "top-level-list": None,
}


@pytest.mark.parametrize("verb", ["run", "lp-bound"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_instance_exits_two(tmp_path, capsys, case, verb):
    data = instance_to_dict(staggered_release_fixture())
    if MALFORMED[case] is None:
        data = [data]
    else:
        MALFORMED[case](data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    extra = ["--reps", "1", "--schedulers", "lp-ov-ls"] if verb == "run" else []
    assert cli.main([verb, "--instance", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


def test_lp_ii_gb_slot_count_too_large_exits_two_naming_the_flow(tmp_path, capsys):
    # each 1e300 flow takes 1e300 slots of length 1, which no int64 slot
    # count holds; lp-ii-gb used to end in an OverflowError
    inst = CoflowInstance(1, [Coflow({(0, 0): 1e300}), Coflow({(0, 0): 1e300})])
    path = tmp_path / "huge.json"
    save_instance(inst, path)
    assert cli.main(["run", "--instance", str(path), "--reps", "1", "--schedulers", "lp-ii-gb"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: flow (0, 0, 0) would take 1e+300 slots of length 1, over 2^52: "
        "no power-of-two slot fits every flow size"
    ]


MALFORMED_SCHEDULE = {  # case: (edit, text the error must contain)
    "segment-without-rates": (lambda data: data["segments"][0].pop("rates"),
                              "segment 0 has no 'rates'"),
    "top-level-list": (None, "schedule is not a JSON object"),
    "completions-too-short": (lambda data: data["completions"].pop(),
                              "'completions' has 1 entries"),
    "rate-on-coflow-9": (_set("segments", 0, "rates", 0, "coflow", value=9),
                         "segment 0 rate 0: 'coflow' 9 is outside 0..1"),
    "src-minus-one": (_set("segments", 0, "rates", 0, "src", value=-1),
                      "segment 0 rate 0: 'src' -1 is outside 0..1"),
    "rate-nan": (_set("segments", 0, "rates", 0, "rate", value=math.nan),
                 "segment 0 rate 0: 'rate' must be finite"),
    "completion-time-string": (_set("flow_completions", 0, "time", value="2"),
                               "flow completion 0: 'time' must be a number"),
    "rate-listed-twice": (lambda data: data["segments"][0]["rates"].append(
                              dict(data["segments"][0]["rates"][0], rate=5.0)),
                          "is listed twice"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCHEDULE))
def test_malformed_schedule_exits_two(tmp_path, capsys, case):
    from coflowsched.schedulers import lp_ov_ls

    inst = CoflowInstance(2, [Coflow({(0, 1): 2.0, (1, 0): 1.0}), Coflow({(1, 1): 1.0})])
    data = lp_ov_ls(inst).to_dict()
    edit, message = MALFORMED_SCHEDULE[case]
    if edit is None:
        data = [data]
    else:
        edit(data)
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "bad.json"
    save_instance(inst, inst_path)
    sched_path.write_text(json.dumps(data))
    assert cli.main(["validate", "--instance", str(inst_path), "--schedule", str(sched_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


_TRACE_HEADER = "coflow_id,arrival_ms,mappers,reducers\n"
_TRACE_ROW = "c0,0,0;1,2:10\n"  # a valid line 2
MALFORMED_TRACE = {  # case: (file text, text the error must contain)
    "too-few-fields": (_TRACE_HEADER + "c1,5\n", "trace line 2: 2 fields where the header has 4"),
    "header-only": (_TRACE_HEADER, "trace file has no records"),
    "mapper-not-integer": (_TRACE_HEADER + _TRACE_ROW + "c1,5,0;x,1:4\n",
                           "trace line 3: 'mappers' entry 'x' is not an integer"),
    "empty-arrival": (_TRACE_HEADER + "c1,,0,1:4\n", "trace line 2: 'arrival_ms' entry '' is not an integer"),
    "reducer-with-dash": (_TRACE_HEADER + _TRACE_ROW + "c1,5,0,1-5\n",
                          "trace line 3: 'reducers' entry '1-5' is not rack:megabytes"),
    "reducer-with-three-parts": (_TRACE_HEADER + "c1,5,0,1:3:4\n",
                                 "trace line 2: 'reducers' entry '1:3:4' is not rack:megabytes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACE))
def test_malformed_trace_exits_two(tmp_path, capsys, case):
    text, message = MALFORMED_TRACE[case]
    path = tmp_path / "trace.csv"
    path.write_text(text)
    assert cli.main(["run", "--trace", str(path), "--reps", "1", "--schedulers", "lp-ov-ls"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_run_imports_no_test_only_or_masked_array_modules(tmp_path):
    # scipy and hypothesis are test-only extras, and numpy.ma would add to the
    # import time of every run; a fresh interpreter shows what a run imports
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from coflowsched import cli\n"
        f"rc = cli.main(['run', '--ports', '4', '--coflows', '6', '--reps', '1',\n"
        f"               '--schedulers', {','.join(cli.SCHEDULER_NAMES)!r},\n"
        f"               '--out', {str(tmp_path / 'r.csv')!r}])\n"
        "print(rc, sorted({'scipy', 'hypothesis', 'numpy.ma'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []"


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
