"""Each oracle accepts hmrkit's real report and rejects a corrupted one."""

import copy
import json

import numpy as np
import pytest

import oracles
import workloads


def corrupt(report, **changes):
    out = copy.deepcopy(report)
    out.update(changes)
    return out


def test_flow_oracle():
    spec = workloads.flow_spec(np.random.default_rng(3), 2)
    report = workloads.run_flow(spec)
    assert oracles.check_flow(spec, report) is None
    phi = list(report["terminal_phi"])
    phi[0] += 1e-3
    assert oracles.check_flow(spec, corrupt(report, terminal_phi=phi))
    assert oracles.check_flow(spec, corrupt(
        report, terminal_lambda=report["terminal_lambda"] + 1e-3))
    assert oracles.check_flow(spec, corrupt(
        report, predicted_eigen_index=report["predicted_eigen_index"] + 1))
    flipped = [-x for x in report["terminal_phi"]]
    assert oracles.check_flow(spec, corrupt(report,
                                            terminal_phi=flipped)) is None


def test_morse_oracle():
    spec = workloads.morse_spec(np.random.default_rng(5), 30, 3)
    report = workloads.run_morse(spec)
    assert oracles.check_morse(spec, report) is None
    homology = dict(report["homology"], bar=report["homology"]["bar"] + 1)
    assert oracles.check_morse(spec, corrupt(report, homology=homology))
    assert oracles.check_morse(spec, corrupt(report, les_exact=False))
    assert oracles.check_morse(spec, corrupt(report, d_squared=False))


@pytest.mark.parametrize("family,k", [("2,3,+1", 4), ("2,3,-1", 3),
                                      ("2,5,-1", 3), ("2,5,+1", 2),
                                      ("2,7,29", 1)])
def test_brieskorn_oracle(family, k):
    spec = {"kind": "brieskorn", "family": family, "k": k}
    report = workloads.run_brieskorn(spec)
    assert oracles.check_brieskorn(spec, report) is None
    assert oracles.check_brieskorn(spec, corrupt(
        report, divisor_pairs=report["divisor_pairs"] + 1))
    check = dict(report["check"], finite=report["check"]["finite"] + [[9, 2]])
    assert oracles.check_brieskorn(spec, corrupt(report, check=check))


def test_brieskorn_undetermined_hat_is_pinned():
    spec = {"kind": "brieskorn", "family": "2,3,-1", "k": 2}
    report = workloads.run_brieskorn(spec)
    hat = dict(report["hat"], undetermined=False)
    assert oracles.check_brieskorn(spec, corrupt(report, hat=hat))


def test_census_oracle():
    spec = {"kind": "spinc", "lens": [5, 2]}
    report = workloads.run_spinc(spec)
    assert oracles.check_spinc(spec, report) is None
    assert oracles.check_spinc(spec, corrupt(report, size=4))
    rotation = {"kind": "spinc", "fixture": "s1_x_s2_rotation"}
    report = workloads.run_spinc(rotation)
    assert oracles.check_spinc(rotation, report) is None
    assert oracles.check_spinc(rotation,
                               corrupt(report, real_structure_classes=[]))


@pytest.mark.parametrize("rows,want", [
    ([[-1, 1], [0, -1]], (3, 0)),   # trefoil
    ([[1, -1], [0, -1]], (5, 0)),   # figure eight
    ([[0]], (0, 1)),                # split unlink
])
def test_seifert_oracle(rows, want):
    assert oracles.symmetrized_invariants(rows) == want
    spec = {"kind": "seifert", "genus": 1, "data": rows}
    report = workloads.run_seifert(spec)
    assert oracles.check_seifert(spec, report) is None
    assert oracles.check_seifert(spec, corrupt(
        report, h1_order=report["h1_order"] + 1))
    assert oracles.check_seifert(spec, corrupt(report, b1=report["b1"] + 1))


def test_seifert_oracle_random_genus3():
    spec = workloads.seifert_spec(np.random.default_rng(8), 3)
    assert oracles.check_seifert(spec, workloads.run_seifert(spec)) is None


def _cli(spec):
    return workloads.run_cli_in_process(spec)


def test_cli_oracles_accept_real_reports():
    rng = np.random.default_rng(2)
    specs = [workloads._index_request(rng), workloads._psc_request(rng),
             workloads._lens_request(rng),
             workloads._brieskorn_request(rng, "2,5,+1"),
             workloads._spinc_request("lens_5_2"),
             workloads._seifert_request([[-1, 1], [0, -1]], 1),
             workloads._morse_request(rng), workloads._flow_request(rng)]
    for spec in specs:
        assert oracles.check_cli(spec, _cli(spec)) is None, spec["args"]


def test_cli_oracle_rejects_corrupted_reports():
    spec = workloads._lens_request(np.random.default_rng(1))
    result = _cli(spec)
    report = json.loads(result["stdout"])
    report["count"] += 1
    assert oracles.check_cli(spec, dict(result, stdout=json.dumps(report)))
    assert oracles.check_cli(spec, dict(result, exit=1))
    assert oracles.check_cli(spec, {"timeout": True, "exit": None,
                                    "stdout": "", "stderr": ""})


def test_cli_malformed_needs_coded_error_with_exit_2():
    spec = workloads._malformed_request("empty_object", 0)
    coded = {"timeout": False, "exit": 2, "stderr": "",
             "stdout": '{"error":{"code":"bad_input","message":"points"}}'}
    assert oracles.check_cli(spec, coded) is None
    assert oracles.check_cli(spec, dict(coded, exit=1))
    assert oracles.check_cli(spec, dict(coded, stdout="{}"))
    result = _cli(spec)
    reason = oracles.check_cli(spec, result)
    assert reason == "traceback"
    assert oracles.failure_signature(result, reason) == "traceback:KeyError"
