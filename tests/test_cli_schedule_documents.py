"""The schedule-document half of the input gate: ``coflowsched validate`` on
a drawn instance and one schedule document for it ends in a JSON report
(exit 0 or 1) or in one stderr line (exit 2), and no exception escapes
``cli.main``.  Hypothesis draws the small instances of
``test_validate_differential``, a scheduler's own schedule of each, and one
edit of its document."""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile

import pytest

from coflowsched import cli
from coflowsched.model import CoflowInstance, save_instance
from coflowsched.relaxations import solve_ordering_lp
from coflowsched.schedulers import SCHEDULERS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_validate_differential import instances  # noqa: E402


def _fields(document: dict):
    """(container, key, kind) of each field of a schedule document: kind
    "list", "flow" for a flow's src, dst and coflow, or "number"."""
    for name in ("segments", "completions", "flow_completions"):
        yield document, name, "list"
    for seg in document["segments"]:
        yield seg, "start", "number"
        yield seg, "end", "number"
        yield seg, "rates", "list"
    for k in range(len(document["completions"])):
        yield document["completions"], k, "number"
    for entry, number, _ in _entries(document):
        for name in ("src", "dst", "coflow"):
            yield entry, name, "flow"
        yield entry, number, "number"


def _entries(document: dict):
    """Each rate entry and flow completion, with the name of its number and
    the list that holds it."""
    for seg in document["segments"]:
        for entry in seg["rates"]:
            yield entry, "rate", seg["rates"]
    for entry in document["flow_completions"]:
        yield entry, "time", document["flow_completions"]


def _validate(directory: pathlib.Path, document) -> tuple:
    """``cli.main`` on ``validate`` of the document: exit code, stdout, stderr."""
    path = directory / "schedule.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--instance", str(directory / "instance.json"), "--schedule", str(path)])
    return code, out.getvalue(), err.getvalue()


def _near_valid(draw, document: dict, instance: CoflowInstance) -> str:
    """Applies one edit that makes ``document`` bad input, and names it."""
    edit = draw(st.sampled_from(("removed", "wrong-type", "nan", "oversized", "foreign-flow", "twice", "short")))
    if edit in ("removed", "wrong-type", "nan", "oversized"):
        container, key, kind = draw(st.sampled_from(list(_fields(document))))
        if edit == "removed":
            del container[key]  # from the completions list: one short
        elif edit == "wrong-type":
            container[key] = draw(st.sampled_from(("1", True, {}, *(() if kind == "list" else ([],)))))
        else:
            container[key] = math.nan if edit == "nan" else draw(st.sampled_from((10**400, -10**400)))
    elif edit == "foreign-flow":
        entry, _, _ = draw(st.sampled_from(list(_entries(document))))
        n, num = instance.n_ports, instance.num_coflows
        absent = [(i, j, k) for k in range(num) for i in range(n) for j in range(n)
                  if (i, j) not in instance.coflows[k].demands]
        entry["src"], entry["dst"], entry["coflow"] = draw(st.sampled_from([*absent, (0, 0, num)]))
    elif edit == "twice":
        entry, _, listed = draw(st.sampled_from(list(_entries(document))))
        listed.append(dict(entry))
    else:
        document["completions"].pop()
    return edit


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(instance=instances(), data=st.data())
def test_validate_ends_in_a_report_or_one_line_on_every_document(instance, data):
    name = data.draw(st.sampled_from(sorted(SCHEDULERS)), label="scheduler")
    document = SCHEDULERS[name](instance, solve_ordering_lp(instance)).to_dict()
    with tempfile.TemporaryDirectory() as folder:
        directory = pathlib.Path(folder)
        save_instance(instance, directory / "instance.json")

        code, out, err = _validate(directory, document)
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True, (out, err)

        scaled = copy.deepcopy(document)
        entry, number, _ = data.draw(st.sampled_from(list(_entries(scaled))), label="scaled entry")
        entry[number] *= data.draw(st.sampled_from((0.0, -1.0, 0.5, 2.0, 1000.0)), label="factor")
        code, out, err = _validate(directory, scaled)
        assert code in (0, 1) and err == "" and json.loads(out)["ok"] is (code == 0), (code, out, err)

        edited = copy.deepcopy(document)
        edit = _near_valid(data.draw, edited, instance)
        code, out, err = _validate(directory, edited)
        lines = err.splitlines()
        assert (code, out) == (2, "") and len(lines) == 1 and lines[0].startswith("error: "), (edit, code, out, err)
