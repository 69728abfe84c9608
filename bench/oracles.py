"""Independent checks of every benchmark job's report.

Nothing here imports hmrkit.  Each check returns ``None`` when the report
is right and a short reason when it is not.  The oracles:

* flow: the closed form e^{-Lt} phi0 / |.|, evaluated from the eigendata the
  generator used to build L (no eigensolver involved);
* morse: rank identities of the base construction (bar = n h, check = n_+ h,
  hat = n_- h, h = number of free base points);
* brieskorn: the pinned acceptance values and the identity
  divisor pairs = half the spectrum total, from the tabulation formulas;
* census: |census| = p for L(p, q), pinned values for the named fixtures;
* seifert-matrix: |det(A + A^t)| and the nullity by exact Fraction
  elimination.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from workloads import DIM1_FIXTURES

FLOW_TOL = 1e-6

#: (census size, real-structure classes, dimension); size 0 means infinite
PINNED_CENSUS = {
    "torus_hyperelliptic": (1, [], 2),
    "torus_hyperelliptic_fine": (1, [], 2),
    "s3_conjugation": (1, [], 3),
    "s1_x_s2_rotation": (2, [2], 3),
    "s1_x_s2_unlink_cover": (0, [], 3),
}

#: acceptance criterion 8: the check flavor of Sigma(2,7,29)
PINNED_2_7_29 = [[0, 2], [2, 2], [4, 2], [5, 4], [6, 2]]

SELFTEST_CHECKS = (
    ["s3_tower_ranks", "psc_b1_zero", "index_example", "loop_shift",
     "rotation_census", "unknot_cover", "trefoil_cover",
     "figure_eight_cover", "split_unlink_cover", "brieskorn_2_3_13",
     "brieskorn_2_3_11_hat_open", "brieskorn_2_5_19", "brieskorn_2_7_29",
     "lens_answer_count"]
    + [f"rp_model_n{n}" for n in range(2, 9)]
    + ["census_lens_3_1", "census_lens_5_1", "census_lens_7_1"]
)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def flow_limit(oracle: dict, phi0) -> tuple[int, float, np.ndarray]:
    """(1-based index, eigenvalue, eigenvector) the flow from phi0 tends to."""
    vals = np.array(oracle["eigenvalues"])
    vecs = np.array(oracle["eigenvectors"])
    coeffs = vecs.T @ np.asarray(phi0, dtype=float)
    i = int(np.argmax(np.abs(coeffs) > 1e-12))
    return i + 1, float(vals[i]), vecs[:, i]


def flow_closed_form(oracle: dict, phi0, t: float) -> np.ndarray:
    vals = np.array(oracle["eigenvalues"])
    vecs = np.array(oracle["eigenvectors"])
    coeffs = vecs.T @ np.asarray(phi0, dtype=float)
    active = np.abs(coeffs) > 1e-14
    x = vecs @ (coeffs * np.exp(-(vals - vals[active].min()) * t))
    return x / np.linalg.norm(x)


def _sign_free_distance(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(min(np.max(np.abs(a - b)), np.max(np.abs(a + b))))


def check_flow(spec: dict, report: dict):
    exact = flow_closed_form(spec["oracle"], spec["phi0"], report["t_end"])
    index, lam, _ = flow_limit(spec["oracle"], spec["phi0"])
    if _sign_free_distance(exact, report["terminal_phi"]) >= FLOW_TOL:
        return "terminal phi is off the closed form"
    if abs(report["terminal_lambda"] - lam) >= FLOW_TOL:
        return "terminal Lambda is off the limiting eigenvalue"
    if report["predicted_eigen_index"] != index:
        return "wrong limiting eigen index"
    if abs(report["predicted_eigenvalue"] - lam) > 1e-9:
        return "wrong predicted eigenvalue"
    if _sign_free_distance(exact, report["closed_form_phi"]) > 1e-9:
        return "library closed form disagrees with the oracle"
    return None


# ---------------------------------------------------------------------------
# morse and brieskorn
# ---------------------------------------------------------------------------


def check_morse(spec: dict, report: dict):
    o = spec["oracle"]
    if report["gens"] != o["gens"]:
        return "wrong generator count"
    if report["d_squared"] is not True:
        return "d^2 != 0"
    if report["les_exact"] is not True:
        return "LES not exact"
    want = {"bar": o["n"] * o["h"], "check": o["n_pos"] * o["h"],
            "hat": o["n_neg"] * o["h"]}
    if report["homology"] != want:
        return f"homology totals {report['homology']} != {want}"
    return None


def brieskorn_total(family: str, k: int) -> int:
    """Total irreducible count from the tabulation formulas."""
    paired = 2 * (k // 2)
    if family.startswith("2,3"):
        return paired
    if family.startswith("2,5"):
        return 2 * k + paired
    return sum(c for _, c in PINNED_2_7_29)


def _finite_total(flavor: dict) -> int:
    return sum(m for _, m in flavor["finite"])


def check_brieskorn(spec: dict, report: dict):
    family, k = spec["family"], spec["k"]
    total = brieskorn_total(family, k)
    p, q, tail = family.split(",")
    r = int(tail) if tail not in ("+1", "-1") else 2 * int(q) * k + int(tail)
    if report["pqr"] != [int(p), int(q), r]:
        return "wrong (p, q, r)"
    if sum(c for _, c in report["spectrum"]) != total:
        return "spectrum total off the tabulation"
    if 2 * report["divisor_pairs"] != total:
        return "divisor pairs != half the spectrum total"
    if report["d_squared"] is not True:
        return "d^2 != 0"
    check, hat = report["check"], report["hat"]
    if _finite_total(check) != total or \
            [t["type"] for t in check["towers"]] != ["up"]:
        return "check flavor off the pinned answer"
    if family == "2,3,-1":
        if hat["undetermined"] is not True:
            return "2,3,-1 hat flavor must stay undetermined"
    elif _finite_total(hat) != total:
        return "hat finite part off the pinned answer"
    if family == "2,3,+1" and hat["towers"] != [{"type": "down",
                                                  "anchor": -1}]:
        return "2,3,+1 hat tower off the pinned answer"
    if family == "2,7,29" and check["finite"] != PINNED_2_7_29:
        return "2,7,29 check flavor off the pinned answer"
    return None


# ---------------------------------------------------------------------------
# census and seifert
# ---------------------------------------------------------------------------


def census_expectation(spec: dict):
    """(size, classes, dim) expected for a spinc job."""
    if "lens" in spec:
        return spec["lens"][0], [], 3
    name = spec["fixture"]
    if name.startswith("lens_"):
        return int(name.split("_")[1]), [], 3
    return PINNED_CENSUS[name]


def check_spinc(spec: dict, report: dict):
    size, classes, dim = census_expectation(spec)
    if report["dim"] != dim:
        return "wrong dimension"
    if not (report["theta_chain_map"] and report["naturality"]):
        return "Theta is not a natural chain map"
    if report["exists"] is not True:
        return "census says no real structure exists"
    if report["size"] != size:
        return f"census size {report['size']} != {size}"
    if report["real_structure_classes"] != classes:
        return "real-structure classes off the pinned value"
    return None


def symmetrized_invariants(rows) -> tuple[int, int]:
    """(|det(A + A^t)|, nullity of A + A^t) by exact Fraction elimination."""
    n = len(rows)
    m = [[Fraction(rows[i][j] + rows[j][i]) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        for i in range(rank + 1, n):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return abs(int(det)), n - rank


def check_seifert(spec: dict, report: dict):
    order, nullity = symmetrized_invariants(spec["data"]) if spec["data"] \
        else (1, 0)
    if report["h1_order"] != order:
        return f"|H_1| {report['h1_order']} != {order}"
    if report["b1"] != nullity:
        return f"b_1 {report['b1']} != {nullity}"
    return None


IN_PROCESS_CHECKS = {"flow": check_flow, "morse": check_morse,
                     "brieskorn": check_brieskorn, "spinc": check_spinc,
                     "seifert": check_seifert}


def check_job(spec: dict, report: dict):
    return IN_PROCESS_CHECKS[spec["kind"]](spec, report)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _tower_json(kind, anchors):
    return {"finite": [], "undetermined": False,
            "towers": sorted(({"type": kind, "anchor": a} for a in anchors),
                             key=lambda t: t["anchor"])}


def psc_expectation(b1: int, torsion: bool) -> dict:
    """H^*(T^b1) tensor the flavor's tower: binomial(b1, d) towers at d."""
    if not torsion:
        empty = {"finite": [], "towers": [], "undetermined": False}
        return {"hat": empty, "check": empty, "bar": empty}
    anchors = [d for d in range(b1 + 1) for _ in range(math.comb(b1, d))]
    return {"hat": _tower_json("down", anchors),
            "check": _tower_json("up", [a - 1 for a in anchors]),
            "bar": _tower_json("full", anchors)}


def _flag(args, name):
    return args[args.index(name) + 1]


def _check_cli_report(spec: dict, rep: dict):
    args = spec["args"]
    command = spec["command"]
    if command == "index":
        c1sq, sigma, b1, bplus, b0 = (int(_flag(args, f)) for f in
                                      ("--c1sq", "--sigma", "--b1",
                                       "--bplus", "--b0"))
        want = (c1sq - sigma) // 8 + b1 - bplus - b0
        return None if rep == {"index": want} else "wrong index"
    if command == "psc":
        b1 = int(_flag(args, "--b1"))
        torsion = "--torsion" in args
        want = {"b1": b1, "torsion": torsion, **psc_expectation(b1, torsion)}
        return None if rep == want else "wrong psc towers"
    if command == "lens":
        p, q = int(_flag(args, "--p")), int(_flag(args, "--q"))
        want = {"p": p, "q": q, "count": p,
                "summand": psc_expectation(0, True)}
        return None if rep == want else "wrong lens answer"
    if command == "brieskorn":
        job = {"family": _flag(args, "--family"), "k": int(_flag(args, "--k"))}
        return check_brieskorn(job, rep)
    if command == "spinc":
        name = _flag(args, "--fixture")
        report = {"dim": rep["dim"], "theta_chain_map": rep["theta_chain_map"],
                  "naturality": rep["naturality"],
                  "exists": rep["census"]["exists"],
                  "size": rep["census"]["size"],
                  "real_structure_classes": rep["real_structure_classes"]}
        if name in DIM1_FIXTURES:
            # no pinned census for dimension 1: a report must be a
            # consistent one, or the request a coded error
            ok = report["dim"] == 1 and report["theta_chain_map"] \
                and report["naturality"]
            return None if ok else "inconsistent dimension-1 census"
        return check_spinc({"fixture": name}, report)
    if command == "seifert-matrix":
        return check_seifert(json.loads(spec["stdin"]), rep)
    if command == "morse":
        report = {"gens": len(rep["generators"]),
                  "d_squared": rep["d_squared"], "les_exact": rep["les_exact"],
                  "homology": {f: sum(r for _, r in rep["homology"][f])
                               for f in ("check", "hat", "bar")}}
        return check_morse(spec, report)
    if command == "flow":
        index, lam, vec = flow_limit(spec["oracle"], spec["phi0"])
        if rep["converged"] is not True:
            return "flow did not converge by t_max"
        if _sign_free_distance(vec, rep["terminal_phi"]) >= FLOW_TOL:
            return "terminal phi is off the limiting eigenvector"
        if abs(rep["terminal_lambda"] - lam) >= FLOW_TOL:
            return "terminal Lambda is off the limiting eigenvalue"
        if rep["predicted_eigen_index"] != index or \
                abs(rep["predicted_eigenvalue"] - lam) > 1e-9:
            return "wrong predicted eigen index or value"
        if rep["closed_form_deviation"] >= FLOW_TOL:
            return "reported closed-form deviation too large"
        return None
    if command == "fixtures-selftest":
        names = [c["name"] for c in rep["checks"]]
        if names != SELFTEST_CHECKS:
            return "selftest ran a different check list"
        ok = rep["all_ok"] is True and all(c["ok"] for c in rep["checks"])
        return None if ok else "a selftest check failed"
    return f"no oracle for {command}"


def _coded_error(stdout: str):
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    err = obj.get("error") if isinstance(obj, dict) else None
    if isinstance(err, dict) and "code" in err and "message" in err:
        return err
    return None


def check_cli(spec: dict, result: dict):
    """None when the request ended as it must; else why it did not."""
    if result["timeout"]:
        return "missed the deadline"
    if "Traceback (most recent call last)" in result["stderr"]:
        return "traceback"
    if spec.get("malformed"):
        if result["exit"] == 2 and _coded_error(result["stdout"]):
            return None
        return f"malformed input gave exit {result['exit']} " \
               "without a coded error"
    if spec["command"] == "spinc" and \
            _flag(spec["args"], "--fixture") in DIM1_FIXTURES \
            and result["exit"] in (1, 2) and _coded_error(result["stdout"]):
        return None
    if result["exit"] != 0:
        return f"exit {result['exit']}"
    try:
        rep = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "report is not JSON"
    try:
        return _check_cli_report(spec, rep)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks a field: {exc!r}"


def failure_signature(result: dict, reason: str) -> str:
    """A short label of how a failed job failed, matched by the ledger."""
    if result.get("timeout"):
        return "timeout"
    stderr = result.get("stderr", "")
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        return "traceback:" + last.split(":")[0].strip()
    if result.get("exception"):
        return "exception:" + result["exception"]
    return "wrong:" + reason
