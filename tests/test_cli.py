"""End-to-end tests of the command-line frontend."""

from __future__ import annotations

import copy
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from math import gcd, nan
from pathlib import Path

import pytest

from hmrkit import cli
from hmrkit.cw_fixtures import build_fixture, lens_space

from test_real_spinc import time_limit


def run_cli(capsys, *argv):
    """Exit code and stdout of one in-process run, which writes nothing to
    stderr, errors included."""
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_brieskorn_2_7_29(capsys):
    code, report = run_json(capsys, "brieskorn", "--family", "2,7,29")
    assert code == 0
    assert report["check"]["finite"] == [[0, 2], [2, 2], [4, 2],
                                         [5, 4], [6, 2]]
    assert report["check"]["towers"] == [{"type": "up", "anchor": 6}]
    assert report["check"]["undetermined"] is False
    assert report["divisor_pairs"] == 6


def test_brieskorn_window_flag(capsys):
    code, report = run_json(capsys, "brieskorn", "--family", "2,3,+1",
                            "--k", "4", "--window=-2:14")
    assert code == 0
    assert report["truncation"] == [-2, 14]
    assert report["hat"]["finite"] == [[0, 4]]
    assert report["hat"]["towers"] == [{"type": "down", "anchor": -1}]


def test_brieskorn_wide_window_answers_at_once(capsys):
    # the report once built the zero complex on the whole window: 5 s
    with time_limit(2.0):
        code, report = run_json(capsys, "brieskorn", "--family", "2,3,+1",
                                "--window=-5:1000000")
    assert code == 0
    assert report["truncation"] == [-5, 1000000]
    assert report["d_squared"] is True


def test_brieskorn_undetermined_flag(capsys):
    code, report = run_json(capsys, "brieskorn", "--family", "2,3,-1",
                            "--k", "2")
    assert code == 0
    assert report["hat"]["undetermined"] is True
    assert report["check"]["undetermined"] is False


def test_psc_single_towers(capsys):
    code, report = run_json(capsys, "psc", "--b1", "0", "--torsion")
    assert code == 0
    assert report["hat"]["towers"] == [{"type": "down", "anchor": 0}]
    assert report["check"]["towers"] == [{"type": "up", "anchor": -1}]
    assert report["bar"]["towers"] == [{"type": "full", "anchor": 0}]


def test_psc_nontorsion_zero(capsys):
    code, report = run_json(capsys, "psc", "--b1", "2", "--no-torsion")
    assert code == 0
    for flavor in ("hat", "check", "bar"):
        assert report[flavor] == {"finite": [], "towers": [],
                                  "undetermined": False}


def test_lens(capsys):
    code, report = run_json(capsys, "lens", "--p", "5", "--q", "2")
    assert code == 0
    assert report["count"] == 5
    assert report["summand"]["bar"]["towers"] == \
        [{"type": "full", "anchor": 0}]


def test_lens_large_p_answers_at_once(capsys):
    # the report once listed one triple per real spin-c structure, and
    # p = 1000003 gave no answer in 20 s
    with time_limit(2.0):
        code, report = run_json(capsys, "lens", "--p", "1000003",
                                "--q", "2")
    assert code == 0 and report["count"] == 1000003


def test_index(capsys):
    code, report = run_json(capsys, "index", "--c1sq", "8", "--sigma", "0",
                            "--b1", "1", "--bplus", "1", "--b0", "0")
    assert code == 0 and report == {"index": 1}


def test_seifert_matrix_stdin(capsys, monkeypatch, tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"data": [[-1, 1], [0, -1]]}))
    code, report = run_json(capsys, "seifert-matrix", "--input", str(path))
    assert code == 0
    assert report == {"h1_order": 3, "b1": 0}


def test_spinc_fixture(capsys):
    code, report = run_json(capsys, "spinc", "--fixture", "lens_3_1")
    assert code == 0
    assert report["census"]["size"] == 3
    assert report["theta_chain_map"] and report["naturality"]


def test_morse_report(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "points": [{"label": "q", "ind_q": 0,
                    "fiber": [[-1.0, 0.0], [0.0, 2.0]]}],
    }))
    code, report = run_json(capsys, "morse", "--input", str(path))
    assert code == 0
    assert report["d_squared"] and report["les_exact"]
    assert report["homology"]["bar"] == [[0, 1], [1, 1]]


def test_flow_report_and_csv(capsys, tmp_path):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"L": [[-1.0, 0.0], [0.0, 2.0]],
                                "t_max": 30, "step": 0.01, "s0": 0.25}))
    csv_path = tmp_path / "traj.csv"
    code, report = run_json(capsys, "flow", "--input", str(path),
                            "--csv", str(csv_path), "--seed", "3")
    assert code == 0
    assert report["converged"]
    assert report["predicted_eigenvalue"] == -1.0
    assert abs(report["terminal_lambda"] + 1.0) < 1e-6
    assert report["closed_form_deviation"] < 1e-6
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,phi0,phi1,s,lambda"


def test_fixtures_selftest(capsys):
    code, report = run_json(capsys, "fixtures-selftest")
    assert code == 0
    assert report["all_ok"] is True
    names = [c["name"] for c in report["checks"]]
    assert "s3_tower_ranks" in names and "brieskorn_2_7_29" in names


# ---------------------------------------------------------------------------
# determinism and output modes
# ---------------------------------------------------------------------------


def test_reports_byte_identical(capsys):
    _, first = run_cli(capsys, "brieskorn", "--family", "2,5,-1", "--k", "3")
    _, second = run_cli(capsys, "brieskorn", "--family", "2,5,-1",
                        "--k", "3")
    assert first == second


def test_flow_seeded_byte_identical(capsys, tmp_path):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"L": [[-2.0, 0.3], [0.3, 1.0]],
                                "t_max": 20, "step": 0.005}))
    _, first = run_cli(capsys, "flow", "--input", str(path), "--seed", "11")
    _, second = run_cli(capsys, "flow", "--input", str(path), "--seed", "11")
    assert first == second


def test_pretty_same_payload(capsys):
    _, compact = run_json(capsys, "psc", "--b1", "1", "--torsion")
    _, pretty_text = run_cli(capsys, "psc", "--b1", "1", "--torsion",
                             "--pretty")
    assert "\n  " in pretty_text
    assert json.loads(pretty_text) == compact


def test_output_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli(capsys, "index", "--c1sq", "0", "--sigma", "0",
                         "--b1", "0", "--bplus", "0", "--b0", "0",
                         "--output", str(out))
    assert code == 0 and text == ""
    assert json.loads(out.read_text()) == {"index": 0}


#: sha256 of the compact, key-sorted ``to_json()`` body of every fixture:
#: the constructor derives delta_Q, and these pin it with the rest
TO_JSON_FIXTURE_SHA256 = {
    "circle_antipodal":
        "bcb2722d3321ff6b39caea0cf0e1462a0fc023a9c14ae0508631e5b5ad830f1e",
    "circle_reflection":
        "52f7a952f90bcf9d331dba4d7b74bbf71b69c9c9fef160a30f7fc38be1923617",
    "lens_3_1":
        "0e95eeb69f82b9cdf47d9004f99be946c940f584305862d93f361793145cbeeb",
    "lens_5_1":
        "6700ce1958aeab92e39d28792cb7e373f6ba5bfc1656e5c081bbf2133a410dc0",
    "lens_5_2":
        "41e4beae41f8a8fc175b51ff3f3cec35d96be2d4b1a1378ebc215a57f3f2492f",
    "lens_7_1":
        "516efb859d8892cd0d56c57c4b1564780294e9ce33311b330f07d7e3dd2fb570",
    "lens_7_2":
        "c5d258e506cf755578c4ecad863a4c69187f1b5aed307c5e1daf6ba5eafacf50",
    "point_pair":
        "dd2785faeb310644cda7bfc6d65eea7226fa974621caa8ce9eb9a13390a40c17",
    "s1_x_s2_rotation":
        "015778d2c85f0f660a530b1d02cd4531ff8793e00f9efa537bae9527a933adf9",
    "s1_x_s2_unlink_cover":
        "8012228fd8eb657ecdd7b9a154e35645ae18e5962d45922caaa72b8955067bc1",
    "s3_conjugation":
        "66e9475237478276921403803266f7277a149076703fc4e9e0639516cd2ffc83",
    "torus_hyperelliptic":
        "3c66d9c153ce2fb716af75074c38b44c91ca99aeb049a824783aaa51be9abb3e",
    "torus_hyperelliptic_fine":
        "211b30c193dfe8dfdc0d592104d8aaa8d26ba8e3f8884f9e4e28ad9d2e0d0086",
}

#: the same for L(p, q), by p: the bodies for q = 0..p-1 coprime to p, one
#: line each
TO_JSON_LENS_SHA256 = {
    1: "94a73ec87dbb2099307cd6149fb50cac79a31e886a7c132f76f1c6fba71c8c1e",
    3: "6439ff94536c4279860fdf971e8a8a44cf42c24cb14793071d2de34c7ccc6a03",
    5: "33857cd672ab0efc9547be4e5bba759c118eb6ad66069a68aa09dcb96ace4857",
    7: "ce2b0f5bb003248304122379ff208c4c24815e6954d5b241157d0d781b1238ec",
    9: "6e7ba63dc350d65b60df2b2ca87bef0fcfa0ad0e5243e49de3f3dba3bc8dfbf1",
    11: "360e7c56ed4bfd1b1bdc755da7301d2fcf3ca47f92d01fc417300f85999b28a4",
    13: "8cb4e1253f915ebe60104ba8a234817d9910ebd84f54a30e41836bbf03de00b5",
    15: "d09ee2ce0fef74a811658ce23d8a45b29e381ca48601a6f452769bceca8aae5d",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compact_body(data) -> str:
    return json.dumps(data.to_json(), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(TO_JSON_FIXTURE_SHA256))
def test_fixture_body_pinned(name):
    body = compact_body(build_fixture(name))
    assert sha256(body) == TO_JSON_FIXTURE_SHA256[name]


@pytest.mark.parametrize("p", sorted(TO_JSON_LENS_SHA256))
def test_lens_body_pinned(p):
    bodies = "".join(compact_body(lens_space(p, q)) + "\n"
                     for q in range(p) if gcd(p, q) == 1)
    assert sha256(bodies) == TO_JSON_LENS_SHA256[p]


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run_json(capsys, "seifert-matrix", "--input", str(path))
    assert code == 2
    assert report["error"]["code"] == "malformed_json"


def test_missing_file_exits_2(capsys):
    code, report = run_json(capsys, "morse", "--input", "/nonexistent.json")
    assert code == 2
    assert report["error"]["code"] == "file_not_found"


def _write(content: bytes):
    def make(tmp_path):
        path = tmp_path / "body.json"
        path.write_bytes(content)
        return path
    return make


#: (id, how to make the --input path, error code, text of the message):
#: each once ended in a traceback
UNREADABLE_INPUTS = (
    ("huge_int", _write(b'{"data": [[1' + b"0" * 4400 + b']]}'),
     "malformed_json", "digits"),
    ("not_utf8", _write(b"\xff\xfe{"), "malformed_json", ""),
    ("directory", lambda tmp_path: tmp_path, "invalid_input", "--input"),
)


@pytest.mark.parametrize("make, code_name, named",
                         [t[1:] for t in UNREADABLE_INPUTS],
                         ids=[t[0] for t in UNREADABLE_INPUTS])
@pytest.mark.parametrize("command", ["seifert-matrix", "flow"])
def test_unreadable_input_exits_2(capsys, tmp_path, command, make,
                                  code_name, named):
    code, report = run_json(capsys, command, "--input", str(make(tmp_path)))
    assert code == 2
    assert report["error"]["code"] == code_name
    assert named in report["error"]["message"]


def _flow_body(tmp_path):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"L": [[-1.0, 0.0], [0.0, 2.0]],
                                "phi0": [0.6, 0.8], "t_max": 1.0,
                                "step": 0.01}))
    return str(path)


PSC_ARGV = ["psc", "--b1", "0", "--torsion"]
#: (id, argv for a tmp_path, error code, text of the message): each
#: directory case once ended in a traceback
UNWRITABLE_OUTPUTS = (
    ("output_directory", lambda tmp: [*PSC_ARGV, "--output", str(tmp)],
     "invalid_input", "--output"),
    ("csv_directory",
     lambda tmp: ["flow", "--input", _flow_body(tmp), "--csv", str(tmp)],
     "invalid_input", "--csv"),
    ("output_missing_parent",
     lambda tmp: [*PSC_ARGV, "--output", str(tmp / "no" / "report.json")],
     "file_not_found", "report.json"),
)


@pytest.mark.parametrize("argv, code_name, named",
                         [t[1:] for t in UNWRITABLE_OUTPUTS],
                         ids=[t[0] for t in UNWRITABLE_OUTPUTS])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, code_name,
                                   named):
    code, report = run_json(capsys, *argv(tmp_path))
    assert code == 2
    assert report["error"]["code"] == code_name
    assert named in report["error"]["message"]


@pytest.mark.parametrize("field, value", [
    ("step", 0), ("step", -0.01), ("step", float("nan")),
    ("t_max", 0), ("t_max", float("inf")), ("s0", -1),
])
def test_flow_bad_step_or_horizon_exits_2(capsys, tmp_path, field, value):
    payload = {"L": [[-1.0, 0.0], [0.0, 2.0]], "phi0": [0.6, 0.8],
               "t_max": 1.0, "step": 0.01}
    payload[field] = value
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "flow", "--input", str(path))
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    assert field in report["error"]["message"]


#: (command, field named by the error, non-numeric body); the same bodies
#: as the benchmark's malformed-input requests
MALFORMED_TARGETS = (
    ("morse", "points",
     {"points": [{"label": "q", "ind_q": 0, "fiber": [["x"]]}]}),
    ("flow", "L", {"L": [["a", "b"], ["b", "a"]], "t_max": 1, "step": 0.1}),
    ("seifert-matrix", "data", {"data": [["a", 1], [0, "b"]]}),
    ("spinc", "cells_M", {"cells_M": ["one"], "cells_Q": ["one"],
                          "delta_M": [], "delta_Q": [], "orbit": []}),
)


@pytest.mark.parametrize("kind", ["empty_object", "empty_list",
                                  "non_numeric"])
@pytest.mark.parametrize("command, field, non_numeric", MALFORMED_TARGETS,
                         ids=[t[0] for t in MALFORMED_TARGETS])
def test_malformed_body_exits_2(capsys, monkeypatch, command, field,
                                non_numeric, kind):
    body = {"empty_object": "{}", "empty_list": "[]",
            "non_numeric": json.dumps(non_numeric)}[kind]
    monkeypatch.setattr("sys.stdin", io.StringIO(body))
    code, report = run_json(capsys, command, "--input", "-")
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    expected = "JSON object" if kind == "empty_list" else repr(field)
    assert expected in report["error"]["message"]


MORSE_BODY = {"points": [{"label": "a", "ind_q": 0, "fiber": [[1.0]]},
                        {"label": "b", "ind_q": 1, "fiber": [[1.0]]}],
              "counts": {"rows": 2, "cols": 2, "ones": [[0, 1]]},
              "grading_shift": 0}

#: (id, command, field named by the error, valid body, path to one integer
#: or boolean entry, a value that is neither and was once truncated, or a
#: negative count or shape, a short row, or a declared shape past the data
#: grid, that once ended as shape_mismatch with no field named, or an empty
#: grid under a 2**62 x 2**62 shape, that once allocated the declared zeros
#: and ended in MemoryError, or an object or a string where an array is
#: expected, or an empty cell list, that were once read as empty arrays,
#: or a string where an object is expected, whose message once quoted
#: CPython's own words, which differ between Python versions)
NON_INTEGER_FIELDS = (
    ("seifert_float", "seifert-matrix", "data", {"data": [[1]]},
     ("data", 0, 0), 1.5),
    ("seifert_bool", "seifert-matrix", "data", {"data": [[1]]},
     ("data", 0, 0), True),
    ("morse_ind_q", "morse", "points", MORSE_BODY,
     ("points", 0, "ind_q"), 0.9),
    ("morse_shift", "morse", "grading_shift", MORSE_BODY,
     ("grading_shift",), 1.7),
    ("morse_counts", "morse", "counts", MORSE_BODY,
     ("counts", "ones", 0, 1), 1.9),
    ("spinc_sign", "spinc", "orbit", lens_space(3, 1).to_json(),
     ("orbit", 0, "sign"), 1.4),
    ("spinc_fixed", "spinc", "orbit", lens_space(3, 1).to_json(),
     ("orbit", 0, "fixed"), "no"),
    ("spinc_cells_M", "spinc", "cells_M", lens_space(3, 1).to_json(),
     ("cells_M", 1), -1),
    ("spinc_cells_Q", "spinc", "cells_Q", lens_space(3, 1).to_json(),
     ("cells_Q", 1), -1),
    ("spinc_delta_M_rows", "spinc", "delta_M", lens_space(3, 1).to_json(),
     ("delta_M", 0, "rows"), -1),
    ("spinc_delta_Q_cols", "spinc", "delta_Q", lens_space(3, 1).to_json(),
     ("delta_Q", 0, "cols"), -1),
    ("spinc_delta_M_ragged", "spinc", "delta_M", lens_space(3, 1).to_json(),
     ("delta_M", 0, "data", 1), [1]),
    ("spinc_delta_M_rows_over_grid", "spinc", "delta_M",
     lens_space(3, 1).to_json(), ("delta_M", 0, "rows"),
     lens_space(3, 1).cells_M[1] + 1),
    ("spinc_delta_Q_cols_over_grid", "spinc", "delta_Q",
     lens_space(3, 1).to_json(), ("delta_Q", 0, "cols"),
     lens_space(3, 1).cells_Q[0] + 1),
    ("seifert_ragged", "seifert-matrix", "data", {"data": [[1, 2], [3, 4]]},
     ("data", 1), [3]),
    ("spinc_delta_M_empty_grid", "spinc", "delta_M",
     lens_space(3, 1).to_json(), ("delta_M", 0),
     {"rows": 2 ** 62, "cols": 2 ** 62, "data": []}),
    ("seifert_data_object", "seifert-matrix", "data", {"data": [[1]]},
     ("data",), {}),
    ("seifert_data_string", "seifert-matrix", "data", {"data": [[1]]},
     ("data",), ""),
    ("seifert_row_object", "seifert-matrix", "data", {"data": [[1]]},
     ("data", 0), {}),
    ("morse_points_object", "morse", "points", MORSE_BODY, ("points",), {}),
    ("morse_points_string", "morse", "points", MORSE_BODY, ("points",), ""),
    *((f"spinc_{name}_object", "spinc", name, lens_space(3, 1).to_json(),
       (name,), {})
      for name in ("cells_M", "cells_Q", "delta_M", "delta_Q", "orbit")),
    ("spinc_cells_M_empty", "spinc", "cells_M", lens_space(3, 1).to_json(),
     ("cells_M",), []),
    ("spinc_cells_Q_empty", "spinc", "cells_Q", lens_space(3, 1).to_json(),
     ("cells_Q",), []),
    ("morse_counts_string", "morse", "counts", MORSE_BODY, ("counts",), "x"),
    ("morse_point_string", "morse", "points", MORSE_BODY, ("points", 0),
     "q"),
    ("spinc_delta_M_entry_string", "spinc", "delta_M",
     lens_space(3, 1).to_json(), ("delta_M", 0), "q"),
    ("spinc_orbit_entry_string", "spinc", "orbit", lens_space(3, 1).to_json(),
     ("orbit", 0), "q"),
)


def edited(body, path, value):
    """A copy of ``body`` with the entry at ``path`` set to ``value``."""
    body = copy.deepcopy(body)
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return body


def assert_edit_exits_2(capsys, monkeypatch, command, field, body, path,
                        value):
    """``body`` answers with exit 0; with the entry at ``path`` set to
    ``value`` it is invalid_input naming ``field``."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body)))
    assert run_json(capsys, command, "--input", "-")[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        edited(body, path, value))))
    code, report = run_json(capsys, command, "--input", "-")
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    assert repr(field) in report["error"]["message"]


@pytest.mark.parametrize("command, field, body, path, value",
                         [t[1:] for t in NON_INTEGER_FIELDS],
                         ids=[t[0] for t in NON_INTEGER_FIELDS])
def test_non_integer_field_exits_2(capsys, monkeypatch, command, field,
                                   body, path, value):
    assert_edit_exits_2(capsys, monkeypatch, command, field, body, path,
                        value)


def test_spinc_all_object_body_names_a_field(capsys, monkeypatch):
    # once read as a complex of dimension -1, and refused as shape_mismatch
    body = dict.fromkeys(("cells_M", "cells_Q", "delta_M", "delta_Q",
                          "orbit"), {})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body)))
    code, report = run_json(capsys, "spinc", "--input", "-")
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    assert "'cells_M'" in report["error"]["message"]


def morse_with_counts(capsys, monkeypatch, counts):
    """(exit code, report) of ``morse`` on MORSE_BODY with ``counts``."""
    body = dict(MORSE_BODY, counts=counts)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body)))
    return run_json(capsys, "morse", "--input", "-")


def test_morse_repeated_count_is_one_count(capsys, monkeypatch):
    def report(ones):
        return morse_with_counts(capsys, monkeypatch,
                                 {"rows": 2, "cols": 2, "ones": ones})

    once = report([[0, 1]])
    assert once[0] == 0 and once != report([])
    assert report([[0, 1], [0, 1]]) == once


#: a count outside the declared shape of MORSE_BODY
COUNT_OUTSIDE = {"rows": 2, "cols": 2, "ones": [[2, 0]]}


def test_morse_count_outside_its_shape(capsys, monkeypatch):
    code, report = morse_with_counts(capsys, monkeypatch, COUNT_OUTSIDE)
    assert code == 1
    assert report["error"] == {"code": "shape_mismatch",
                               "message": "entry (2,0) outside 2x2"}


#: (declared size, ones) of counts whose shape is not MORSE_BODY's
COUNTS_SHAPES = [(10 ** 12, []), (10 ** 12, [[0, 1]]), (-3, [])]


@pytest.mark.parametrize("size, ones", COUNTS_SHAPES)
def test_morse_counts_shape_checked_before_any_allocation(
        capsys, monkeypatch, size, ones):
    # a declared shape sizes nothing: it is checked against the point
    # count before any row of the matrix is built
    with time_limit(2.0):
        code, report = morse_with_counts(
            capsys, monkeypatch, {"rows": size, "cols": size, "ones": ones})
    assert code == 1
    assert report["error"] == {
        "code": "shape_mismatch",
        "message": "counts shape must match point count"}


FLOW_BODY = {"L": [[-1.0, 0.0], [0.0, 2.0]], "phi0": [0.6, 0.8],
             "s0": 0.25, "t_max": 1.0, "step": 0.01}

#: (id, command, field named by the error, valid body, path to one float)
FLOAT_FIELDS = (
    ("flow_L", "flow", "L", FLOW_BODY, ("L", 0, 0)),
    ("flow_phi0", "flow", "phi0", FLOW_BODY, ("phi0", 0)),
    ("flow_s0", "flow", "s0", FLOW_BODY, ("s0",)),
    ("morse_fiber", "morse", "points", MORSE_BODY,
     ("points", 0, "fiber", 0, 0)),
)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, field, body, path",
                         [t[1:] for t in FLOAT_FIELDS],
                         ids=[t[0] for t in FLOAT_FIELDS])
def test_non_finite_float_field_exits_2(capsys, monkeypatch, command, field,
                                        body, path, value):
    assert_edit_exits_2(capsys, monkeypatch, command, field, body, path,
                        value)


#: the float fields, and the two flow scalars whose range is checked later
NUMBER_FIELDS = FLOAT_FIELDS + (
    ("flow_t_max", "flow", "t_max", FLOW_BODY, ("t_max",)),
    ("flow_step", "flow", "step", FLOW_BODY, ("step",)),
)


NON_NUMBERS = ["1", True, 10 ** 400]


@pytest.mark.parametrize("value", NON_NUMBERS,
                         ids=["string", "bool", "huge_int"])
@pytest.mark.parametrize("command, field, body, path",
                         [t[1:] for t in NUMBER_FIELDS],
                         ids=[t[0] for t in NUMBER_FIELDS])
def test_non_number_float_field_exits_2(capsys, monkeypatch, command, field,
                                        body, path, value):
    # a string or a boolean was once converted, a huge integer overflowed
    assert_edit_exits_2(capsys, monkeypatch, command, field, body, path,
                        value)


LABELS = [[1, 2], 7]


@pytest.mark.parametrize("label", LABELS, ids=["list", "int"])
def test_morse_label_must_be_string(capsys, monkeypatch, label):
    assert_edit_exits_2(capsys, monkeypatch, "morse", "points", MORSE_BODY,
                        ("points", 0, "label"), label)


def test_closed_pipe_ends_quietly():
    # stdout is a pipe whose read end is closed before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hmrkit.cli", "spinc", "--fixture",
             "lens_3_1"], stdout=write_end, stderr=subprocess.PIPE,
            env=_child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def _child_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


#: (argv, stdin, exit code): an answer and a coded error of each
#: subcommand that needs no numpy
NUMPY_FREE_REQUESTS = [
    (["lens", "--p", "5", "--q", "2"], "", 0),
    (["lens", "--p", "4", "--q", "2"], "", 1),
    (["psc", "--b1", "2", "--torsion"], "", 0),
    (["psc", "--b1", "-1", "--torsion"], "", 2),
    (["index", "--c1sq", "8", "--sigma", "0", "--b1", "1", "--bplus", "1",
      "--b0", "0"], "", 0),
    (["index", "--c1sq", "1", "--sigma", "0", "--b1", "0", "--bplus", "0",
      "--b0", "0"], "", 1),
    (["brieskorn", "--family", "2,5,-1", "--k", "3"], "", 0),
    (["brieskorn", "--family", "3,4,5"], "", 1),
    (["spinc", "--fixture", "lens_5_2"], "", 0),
    (["spinc", "--fixture", "point_pair"], "", 1),
    (["spinc", "--fixture", "no_such_fixture"], "", 2),
    (["spinc", "--input", "-"], json.dumps(lens_space(7, 2).to_json()), 0),
    (["spinc", "--input", "-"], "{not json", 2),
    (["seifert-matrix", "--input", "-"], '{"data": [[-1, 1], [0, -1]]}', 0),
    (["seifert-matrix", "--input", "-"], "{}", 2),
]

_NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
requests = json.load(sys.stdin)
from hmrkit import cli
imported = sorted(m for m in sys.modules if m.startswith("hmrkit"))
codes, errors = [], []
for argv, body in requests:
    sys.stdin = io.StringIO(body)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(cli.run(argv))
    errors.append(json.loads(out.getvalue()).get("error", {}).get("code"))
print(json.dumps({"imported": imported, "codes": codes, "errors": errors,
                  "loaded": [m for m in ("numpy", "hmrkit.morse_blowup",
                                         "hmrkit.complexes")
                             if m in sys.modules]}))
"""


def run_fresh(requests) -> dict:
    """Run (argv, stdin, exit code) requests in a fresh interpreter; its
    hmrkit imports after loading the CLI, the exit codes, the error code of
    each report (None for an answer), and which of numpy, morse_blowup and
    complexes the answers loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_CHILD], env=_child_env(),
        input=json.dumps([[argv, body] for argv, body, _ in requests]),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for *_, code in requests]
    return result


def test_numpy_free_subcommands_load_no_numpy():
    # a fresh interpreter: importing the CLI loads only hmrkit.errors from
    # the package, only morse, flow and fixtures-selftest load numpy, and no
    # answer here (lens and psc included) loads hmrkit.complexes
    result = run_fresh(NUMPY_FREE_REQUESTS)
    assert result["imported"] == ["hmrkit", "hmrkit.cli", "hmrkit.errors"]
    assert result["loaded"] == []


#: bodies that morse and flow refuse while reading their fields, before
#: numpy: a missing field, a non-finite entry, malformed counts, a
#: non-integer grading shift, a ragged matrix, and a negative --seed for a
#: random phi0
NUMPY_BODY_ERRORS = [
    (["morse", "--input", "-"], "{}", 2),
    (["morse", "--input", "-"], json.dumps(
        {"points": [{"label": "q", "ind_q": 0, "fiber": [[nan]]}]}), 2),
    (["morse", "--input", "-"], json.dumps(
        edited(MORSE_BODY, ("counts",), "x")), 2),
    (["morse", "--input", "-"], json.dumps(
        edited(MORSE_BODY, ("grading_shift",), 1.7)), 2),
    (["flow", "--input", "-"], "{}", 2),
    (["flow", "--input", "-"], json.dumps(
        {"L": [[1.0], [0.0, 2.0]], "t_max": 1, "step": 0.1}), 2),
    (["flow", "--input", "-", "--seed", "-1"], json.dumps(
        {"L": [[1.0, 0.0], [0.0, 2.0]], "t_max": 1, "step": 0.1}), 2),
]


def test_malformed_morse_and_flow_bodies_load_no_numpy():
    result = run_fresh(NUMPY_BODY_ERRORS)
    assert result["errors"] == ["invalid_input"] * len(NUMPY_BODY_ERRORS)
    assert result["loaded"] == []


def test_lens_process_loads_no_census_or_numpy_modules():
    # a fresh python -m hmrkit.cli process, whose -X importtime log names
    # every module it loads
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hmrkit.cli", "lens",
         "--p", "5", "--q", "2"], env=_child_env(), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 5
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "hmrkit.seifert_hmr" in loaded
    assert not loaded & {"numpy", "hmrkit.f2lin", "hmrkit.real_spinc",
                         "hmrkit.cw_fixtures"}


def test_handlers_look_library_names_up_at_call_time(capsys, monkeypatch,
                                                     tmp_path):
    # a name rebound on its defining module (a tracer, a test double)
    # must reach the CLI's call
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("morse_blowup.integrate_blowup_flow",
                 "real_spinc.real_spinc_torsor", "seifert_hmr.psc_hmr"):
        module, attr = name.split(".")
        monkeypatch.setattr(f"hmrkit.{name}", counting(getattr(
            importlib.import_module(f"hmrkit.{module}"), attr)))
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"L": [[-1.0, 0.0], [0.0, 2.0]],
                                "phi0": [0.6, 0.8], "t_max": 1.0,
                                "step": 0.01}))
    assert run_cli(capsys, "flow", "--input", str(path))[0] == 0
    assert run_cli(capsys, "spinc", "--fixture", "lens_3_1")[0] == 0
    assert run_cli(capsys, "psc", "--b1", "1", "--torsion")[0] == 0
    assert calls == ["integrate_blowup_flow", "real_spinc_torsor", "psc_hmr"]


@pytest.mark.parametrize("fixture", ["point_pair", "circle_antipodal",
                                     "circle_reflection"])
def test_spinc_low_dimension_is_coded_error(capsys, fixture):
    code, report = run_json(capsys, "spinc", "--fixture", fixture)
    assert code == 1
    assert report["error"]["code"] == "shape_mismatch"
    assert "dimension" in report["error"]["message"]


def test_module_error_object(capsys):
    code, report = run_json(capsys, "lens", "--p", "4", "--q", "2")
    assert code == 1
    assert report["error"]["code"] == "not_coprime"


def test_memory_error_is_a_coded_error(capsys, monkeypatch):
    # psc --b1 24 under a memory limit once ended in a MemoryError
    # traceback; a handler that runs out of memory answers with one JSON
    # error object and exit 2, as for malformed input
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_psc", exhausted)
    code, out = run_cli(capsys, "psc", "--b1", "24", "--torsion")
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {
        "code": "out_of_memory", "message": "psc ran out of memory"}}


def test_index_error_code(capsys):
    code, report = run_json(capsys, "index", "--c1sq", "1", "--sigma", "0",
                            "--b1", "0", "--bplus", "0", "--b0", "0")
    assert code == 1
    assert report["error"]["code"] == "not_divisible_by_8"


def test_unknown_family_error(capsys):
    code, report = run_json(capsys, "brieskorn", "--family", "3,4,5")
    assert code == 1
    assert report["error"]["code"] == "unknown_family"


def test_brieskorn_divisor_pairs_calibrated(capsys):
    # a margin of 0 instead of the calibrated 1/4 would give 1 at k = 1
    for k, pairs in ((1, 0), (4, 2)):
        code, report = run_json(capsys, "brieskorn", "--family", "2,3,+1",
                                "--k", str(k))
        assert code == 0
        assert report["divisor_pairs"] == pairs


@pytest.mark.parametrize("stride", ["0", "-1"])
@pytest.mark.parametrize("output", ["--samples", "--csv"])
def test_flow_bad_stride_exits_2(capsys, tmp_path, stride, output):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"L": [[-1.0, 0.0], [0.0, 2.0]],
                                "phi0": [0.6, 0.8], "t_max": 1.0,
                                "step": 0.01}))
    csv_path = tmp_path / "trajectory.csv"
    extra = [output] + ([str(csv_path)] if output == "--csv" else [])
    code, report = run_json(capsys, "flow", "--input", str(path),
                            "--stride", stride, *extra)
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    assert "--stride" in report["error"]["message"]
    assert not csv_path.exists()


@pytest.mark.parametrize("phi0, code", [(None, 2), ([0.6, 0.8], 0)],
                         ids=["random_phi0", "given_phi0"])
def test_flow_negative_seed_exits_2_when_used(capsys, tmp_path, phi0, code):
    # --seed -1 once ended in a ValueError traceback from numpy; a body
    # with its own phi0 does not use the seed
    body = {"L": [[-1.0, 0.0], [0.0, 2.0]], "t_max": 1.0, "step": 0.01}
    if phi0 is not None:
        body["phi0"] = phi0
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    got, report = run_json(capsys, "flow", "--input", str(path),
                           "--seed", "-1")
    assert got == code
    if code:
        assert report["error"] == {
            "code": "invalid_input",
            "message": "--seed must be a non-negative integer, got -1"}


@pytest.mark.parametrize("window", ["abc", "1", ":"])
def test_brieskorn_bad_window_exits_2(capsys, window):
    code, report = run_json(capsys, "brieskorn", "--family", "2,3,+1",
                            f"--window={window}")
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    assert "--window" in report["error"]["message"]


def test_flow_csv_rows_are_the_json_samples(capsys, tmp_path):
    # t_max = 3 with step 0.01 is 300 steps; stride 7 misses the last one,
    # and both outputs must still end at the terminal sample
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"L": [[-1, 0], [0, 2]], "phi0": [0.6, 0.8],
                                "t_max": 3, "step": 0.01}))
    csv_path = tmp_path / "trajectory.csv"
    code, report = run_json(capsys, "flow", "--input", str(path),
                            "--samples", "--stride", "7",
                            "--csv", str(csv_path))
    assert code == 0
    json_times = [f"{s['t']:.6f}" for s in report["trajectory"]["samples"]]
    csv_times = [row.split(",")[0]
                 for row in csv_path.read_text().splitlines()[1:]]
    assert csv_times == json_times
    assert json_times[-1] == "3.000000"


@pytest.mark.parametrize("argv, flag", [
    (["psc", "--b1", "-1", "--torsion"], "b1"),
    (["brieskorn", "--family", "2,3,+1", "--k", "0"], "k"),
    (["brieskorn", "--family", "2,3,+1", "--window=5:1"], "window"),
    (["brieskorn", "--family", "2,3,+1", "--window=-3:-2"], "window"),
    (["index", "--c1sq", "0", "--sigma", "0", "--b1", "-5", "--bplus", "0",
      "--b0", "0"], "b1"),
    (["index", "--c1sq", "0", "--sigma", "0", "--b1", "0", "--bplus", "-2",
      "--b0", "0"], "bplus"),
    (["index", "--c1sq", "0", "--sigma", "0", "--b1", "0", "--bplus", "0",
      "--b0", "-1"], "b0"),
    (["spinc", "--fixture", "no_such_fixture"], "lens_3_1"),
    (["lens", "--p", "-3", "--q", "1"], "p must"),
    (["lens", "--p", "3", "--q", "5"], "q must"),
], ids=["psc_b1", "brieskorn_k", "brieskorn_window_reversed",
        "brieskorn_window_below", "index_b1", "index_bplus", "index_b0",
        "spinc_fixture", "lens_p", "lens_q"])
def test_out_of_domain_flag_exits_2(capsys, argv, flag):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["code"] == "invalid_input"
    assert flag in report["error"]["message"]


def _set(path, value):
    """An edit of a CW body that sets the entry at ``path`` to ``value``."""

    def edit(body):
        node = body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _add_at(name, degree):
    """An edit adding 1 to entry (0, 0) of coboundary ``name[degree]``."""

    def edit(body):
        body[name][degree]["data"][0][0] += 1
    return edit


def _drop_row(name, degree):
    def edit(body):
        m = body[name][degree]
        m["data"].pop()
        m["rows"] -= 1
    return edit


def _equivariance_broken(body):
    # rows (A, B) of the swapped 3-cells T_A, T_B become (2A, B - A):
    # d.d = 0 and Theta . delta = delta . Theta survive, iota* does not
    rows = body["delta_M"][2]["data"]
    a, b = rows[0], rows[1]
    rows[0], rows[1] = [2 * x for x in a], [y - x for x, y in zip(a, b)]


def _theta_broken(body):
    body["delta_Q"][1]["data"] = [[-x for x in row]
                                  for row in body["delta_Q"][1]["data"]]


def _free_cell(body):
    """Index in ``orbit`` of the first degree-0 cell that is not fixed."""
    return next(i for i, o in enumerate(body["orbit"])
                if o["cell"][0] == 0 and not o["fixed"])


def _unequal_signs(body):
    body["orbit"][_free_cell(body)]["sign"] = -1


def _inconsistent_fixed(body):
    body["orbit"][_free_cell(body)]["fixed"] = True


def _huge_cell_counts(body):
    # the rows of Theta, iota* and pi* are lists sized by the cell counts,
    # so they must wait for the orbit check: a list of 2**62 entries fails
    # at once with MemoryError, so building them first fails here without
    # allocating anything
    body.update(cells_M=[2 ** 62], cells_Q=[2 ** 62], delta_M=[],
                delta_Q=[], orbit=[])


def _huge_quotient_counts(body):
    # one fixed 0-cell over the first of 2**62 quotient cells: the rows of
    # Theta are sized by cells_Q, so they must wait for the check that
    # finds quotient cell 1 uncovered
    body.update(cells_M=[1, 0, 0], cells_Q=[2 ** 62, 0, 0],
                delta_M=[{"rows": 0, "cols": 1, "data": []},
                         {"rows": 0, "cols": 0, "data": []}],
                delta_Q=[{"rows": 0, "cols": 2 ** 62, "data": []},
                         {"rows": 0, "cols": 0, "data": []}],
                orbit=[{"cell": [0, 0], "image": 0, "fixed": True,
                        "sign": 1}])


#: (id, edit of the lens_space(3, 1) body, error code, text of the message
#: naming the degree, cell or dimension at fault)
CW_REJECTIONS = (
    ("dimensions_differ", lambda b: b["cells_Q"].pop(), "malformed_orbit_map",
     "M has dimension 3, Q 2"),
    ("coboundary_count", lambda b: b["delta_M"].pop(), "shape_mismatch",
     "dimension 3"),
    ("delta_M_shape", _drop_row("delta_M", 1), "shape_mismatch",
     "delta_M[1]"),
    ("delta_Q_shape", _drop_row("delta_Q", 2), "shape_mismatch",
     "delta_Q[2]"),
    ("dd_M", _add_at("delta_M", 1), "malformed_orbit_map",
     "delta_M fails d.d=0 at degree 0"),
    ("dd_Q", _add_at("delta_Q", 1), "not_chain_map", "degree 1"),
    ("bad_degree", _set(("orbit", 0, "cell", 0), 4), "malformed_orbit_map",
     "(4, 0): bad degree"),
    ("bad_index", _set(("orbit", 0, "cell", 1), 99), "malformed_orbit_map",
     "(0, 99): index"),
    ("bad_image", _set(("orbit", 0, "image"), 99), "malformed_orbit_map",
     "(0, 0): image"),
    ("sign_not_unit", _set(("orbit", 0, "sign"), 2), "malformed_orbit_map",
     "(0, 0): sign"),
    ("fixed_sign", _set(("orbit", 0, "sign"), -1), "malformed_orbit_map",
     "fixed cell (0, 0)"),
    ("listed_twice", lambda b: b["orbit"].append(dict(b["orbit"][0])),
     "malformed_orbit_map", "(0, 0) listed twice"),
    ("missing", lambda b: b["orbit"].pop(0), "malformed_orbit_map",
     "(0, 0) missing"),
    ("huge_cell_counts", _huge_cell_counts, "malformed_orbit_map",
     "(0, 0) missing"),
    ("huge_quotient_counts", _huge_quotient_counts, "malformed_orbit_map",
     "quotient cell (0,1) covered by 0 cells with inconsistent fixed flags"),
    ("unequal_signs", _unequal_signs, "malformed_orbit_map", "(0,2) has unequal signs"),
    ("inconsistent_fixed", _inconsistent_fixed, "malformed_orbit_map",
     "(0,2) covered by 2 cells"),
    ("iota_not_chain_map", _equivariance_broken, "malformed_orbit_map",
     "degree 2"),
    ("theta_not_chain_map", _theta_broken, "not_chain_map", "degree 1"),
)


@pytest.mark.parametrize("edit, code_name, named",
                         [c[1:] for c in CW_REJECTIONS],
                         ids=[c[0] for c in CW_REJECTIONS])
def test_spinc_input_rejected_before_census(capsys, monkeypatch, edit,
                                            code_name, named):
    body = lens_space(3, 1).to_json()
    edit(body)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body)))
    code, report = run_json(capsys, "spinc", "--input", "-")
    assert code == 1
    assert report["error"]["code"] == code_name
    assert named in report["error"]["message"]
