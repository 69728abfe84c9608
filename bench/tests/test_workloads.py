"""Seeded inputs and the known-failure ledger."""

import json
from pathlib import Path

import ledger
import run
import workloads


def test_rounds_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_round(name, 7, 1)
        assert a == workloads.make_round(name, 7, 1)
        assert a != workloads.make_round(name, 8, 1)
        assert run.inputs_sha256([a]) == run.inputs_sha256(
            [workloads.make_round(name, 7, 1)])


def test_round_composition_does_not_depend_on_seed():
    def shape(specs):
        return sorted(s.get("family") or s.get("command") or s["kind"]
                      for s in specs)

    for name in workloads.WORKLOADS:
        for index in range(2):
            assert shape(workloads.make_round(name, 1, index)) == \
                shape(workloads.make_round(name, 99, index))


def test_ledger_matches_on_input_and_signature():
    dim1 = workloads._spinc_request("point_pair")
    genus5 = workloads._seifert_request([[0] * 10] * 10, 5)
    genus2 = workloads._seifert_request([[0] * 4] * 4, 2)
    out = ledger.explain("cli", [(dim1, "traceback:IndexError"),
                                 (genus5, "timeout"),
                                 (genus2, "timeout"),
                                 (dim1, "traceback:KeyError")])
    assert out["entries"]["spinc-dim1-indexerror"] == 1
    assert out["entries"]["seifert-snf-blowup"] == 1
    assert [u["signature"] for u in out["unexplained"]] == \
        ["timeout", "traceback:KeyError"]
    assert ledger.explain("flow", [({"kind": "flow"}, "timeout")])[
        "unexplained"]


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
