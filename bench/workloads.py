"""Seeded job mixes for the four benchmark workloads, and how to run them.

A workload is an endless sequence of *rounds*.  A round is a fixed list of
job kinds and sizes; the seed (with the round index) draws the parameters
inside each kind.  The benchmark runs whole rounds only, so every run of a
workload measures the same composition of jobs, which is what keeps its
percentiles and rates steady from seed to seed.  A job spec is plain JSON
(the input hash is taken over it); ``oracle`` entries in a spec are read
by the checks only and never passed to hmrkit.

Workloads:

* ``flow``: blow-up flow integration in the criterion-3 distribution
  (n = 2..6, t_max 40, step 2e-3), plus one n = 8..16 job per round.
  Bound by the Python RK4 step; no exact algebra.
* ``chain``: ``morse`` report jobs (20-200 generators) and ``brieskorn``
  report jobs over all five families (about 30 to 650 generators).  F2
  algebra in ``f2lin``, ``complexes`` and ``seifert_hmr``; no integers, no
  ODE.
* ``census``: real-structure censuses of lens spaces L(p, q), p = 3..21
  odd (p = 5 weighted), and of the built-in fixtures of dimension >= 2,
  plus ``seifert-matrix`` jobs of genus 1-3.  Integer algebra only.
* ``cli``: one fresh ``python -m hmrkit.cli`` process per request, all
  nine subcommands with small inputs plus a fixed share of malformed
  requests, each under a fixed deadline.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback

import numpy as np

WORKLOADS = ("flow", "chain", "census", "cli")

#: wall-clock limit of one job; a ``cli`` request is killed when it passes it,
#: an in-process job is interrupted by SIGALRM
DEADLINE_S = {"flow": 30.0, "chain": 30.0, "census": 30.0, "cli": 3.0}

#: fixed tail percentile per workload: the highest whole percentile that
#: leaves at least ten checked jobs beyond it when the parent commit runs
#: its usual number of rounds.  Fixed, so that a faster change that runs
#: more rounds is compared at the same percentile.
TAIL_PERCENTILE = {"flow": 64, "chain": 80, "census": 65, "cli": 60}

_WORKLOAD_ID = {name: i for i, name in enumerate(WORKLOADS)}


class JobDeadline(BaseException):
    """Raised by the SIGALRM handler when an in-process job passes its
    deadline.  A BaseException, so no ``except Exception`` swallows it."""


CENSUS_FIXTURES = (
    "torus_hyperelliptic", "torus_hyperelliptic_fine", "s3_conjugation",
    "s1_x_s2_rotation", "s1_x_s2_unlink_cover",
    "lens_3_1", "lens_5_1", "lens_5_2", "lens_7_1", "lens_7_2",
)
DIM1_FIXTURES = ("point_pair", "circle_antipodal", "circle_reflection")
FAMILIES = ("2,3,+1", "2,3,-1", "2,5,-1", "2,5,+1", "2,7,29")

#: genus-4 Seifert matrices for ``cli`` come from this fixed pool, one per
#: even round.  Whether the Smith form of a random genus-4 matrix blows up
#: is a coin flip, so a seeded draw would change the number of deadline
#: misses (and with it the run's rate) from seed to seed; the pool keeps
#: that number fixed per round while the blow-up stays in the mix.
GENUS4_POOL_SEED = 4
GENUS4_POOL_SIZE = 4


def round_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_ID[workload], index])


def make_round(workload: str, seed: int, index: int) -> list[dict]:
    """The job specs of round ``index`` of ``workload`` under ``seed``."""
    rng = round_rng(workload, seed, index)
    jobs = _ROUND_MAKERS[workload](rng, index)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _criterion3_spectrum(rng, n):
    """Eigenvalues as in acceptance criterion 3: spread over [-2, 2]."""
    spread = 2.0 * np.linspace(-1.0, 1.0, n) + rng.uniform(-0.1, 0.1, n)
    return np.sort(spread + np.sign(spread + 1e-9) * 0.3)


def _wide_spectrum(rng, n):
    """Eigenvalues with gaps of at least 0.5, so t_max 40 still converges."""
    half = 0.3 * (n - 1)
    spread = np.linspace(-half, half, n) + rng.uniform(-0.05, 0.05, n)
    return np.sort(spread + np.sign(spread + 1e-9) * 0.3)


def flow_spec(rng, n, t_max=40.0, step=2e-3) -> dict:
    """A flow job with known eigendata; the oracle keeps it, hmrkit sees L."""
    vals = _criterion3_spectrum(rng, n) if n <= 6 else _wide_spectrum(rng, n)
    vecs = _orthogonal(rng, n)
    L = vecs @ np.diag(vals) @ vecs.T
    L = (L + L.T) / 2.0
    phi0 = rng.standard_normal(n)
    phi0 /= np.linalg.norm(phi0)
    return {
        "kind": "flow", "n": n,
        "L": L.tolist(), "phi0": phi0.tolist(),
        "s0": float(rng.uniform(0.0, 1.0)), "t_max": t_max, "step": step,
        "oracle": {"eigenvalues": vals.tolist(),
                   "eigenvectors": vecs.tolist()},
    }


def _flow_round(rng, index):
    sizes = [2, 3, 4, 5, 6, 2, 3, 4, 5, 6, int(rng.integers(8, 17))]
    return [flow_spec(rng, n) for n in sizes]


def _fiber_matrix(rng, n, n_neg):
    neg = -np.sort(rng.uniform(0.3, 3.0, n_neg))[::-1]
    pos = np.sort(rng.uniform(0.3, 3.0, n - n_neg))
    vals = np.concatenate([neg, pos])
    vals += np.arange(n) * 1e-3  # keep the spectrum simple
    q = _orthogonal(rng, n)
    m = q @ np.diag(vals) @ q.T
    return ((m + m.T) / 2.0).tolist()


def morse_spec(rng, target_gens: int, n: int) -> dict:
    """A blow-up model over a base built from known pieces.

    The base complex is a disjoint union of cancelling index pairs
    (a -> b), diamonds (a -> b, c -> d) and free points.  Pairs and
    diamonds are acyclic over F2, so the base homology has total rank h =
    number of free points, and with one common fiber sign pattern the
    model homology totals are bar = n h, check = n_+ h, hat = n_- h.
    """
    n_points = max(3, round(target_gens / n))
    n_neg = int(rng.integers(0, n + 1))
    points: list[int] = []             # Morse index per base point
    edges: list[tuple[int, int]] = []  # (source, target) point numbers
    free = 0
    while len(points) < n_points:
        room = n_points - len(points)
        piece = rng.choice(["free", "pair", "diamond"], p=[0.3, 0.4, 0.3])
        if piece == "diamond" and room >= 4:
            i = int(rng.integers(0, 3))
            a, b, c, d = range(len(points), len(points) + 4)
            points += [i + 2, i + 1, i + 1, i]
            edges += [(a, b), (a, c), (b, d), (c, d)]
        elif piece == "pair" and room >= 2:
            i = int(rng.integers(0, 4))
            a, b = len(points), len(points) + 1
            points += [i + 1, i]
            edges.append((a, b))
        else:
            points.append(int(rng.integers(0, 4)))
            free += 1
    if free == 0:
        points.append(int(rng.integers(0, 4)))
        free = 1
    perm = rng.permutation(len(points))  # perm[old] = new position
    out_points = [None] * len(points)
    for old, new in enumerate(perm):
        out_points[int(new)] = {
            "label": f"q{int(new)}", "ind_q": points[old],
            "fiber": _fiber_matrix(rng, n, n_neg),
        }
    ones = sorted([int(perm[t]), int(perm[s])] for s, t in edges)
    return {
        "kind": "morse", "n_points": len(points), "n": n,
        "points": out_points,
        "counts": {"rows": len(points), "cols": len(points), "ones": ones},
        "oracle": {"h": free, "n": n, "n_pos": n - n_neg,
                   "n_neg": n_neg, "gens": n * len(points)},
    }


def brieskorn_spec(family: str, target_gens: int) -> dict:
    """A Brieskorn job whose truncated complex has about target_gens gens."""
    if family == "2,7,29":
        k = 1
    elif family.startswith("2,3"):
        k = max(1, target_gens - 15)
    else:
        k = max(1, (target_gens - 15) // 4)
    return {"kind": "brieskorn", "family": family, "k": k}


#: (family, total generators) of the Brieskorn jobs in a chain round; one
#: family per size, so every round has the same cost profile
CHAIN_BRIESKORN = (("2,7,29", 33), ("2,3,+1", 40), ("2,5,-1", 100),
                   ("2,3,-1", 200), ("2,5,+1", 350), ("2,3,+1", 500),
                   ("2,5,-1", 650))


#: (generators, fiber dimension) of the morse jobs in a chain round.  The
#: six 60-generator models are the class the median job falls in, with as
#: many cheaper jobs (the small models and 2,7,29) as dearer ones below it;
#: the three 200-generator models are the class the tail percentile hits.
CHAIN_MORSE = ((20, 2), (20, 3), (20, 4), (20, 5), (20, 6), (30, 2), (30, 5),
               (30, 6), (45, 2), (45, 4)) + ((60, 3),) * 6 \
    + ((90, 4), (140, 5)) + ((200, 6),) * 3


def _chain_round(rng, index):
    jobs = [morse_spec(rng, int(size * rng.uniform(0.95, 1.05)), n)
            for size, n in CHAIN_MORSE]
    jobs += [brieskorn_spec(family, int(size * rng.uniform(0.97, 1.03)))
             for family, size in CHAIN_BRIESKORN]
    return jobs


def seifert_spec(rng, genus: int) -> dict:
    rows = rng.integers(-3, 4, size=(2 * genus, 2 * genus)).tolist()
    return {"kind": "seifert", "genus": genus, "data": rows}


def _coprime_q(rng, p):
    while True:
        q = int(rng.integers(1, p))
        if math.gcd(p, q) == 1:
            return q


#: lens spaces per census round: one L(p, q) per odd p, with more of the
#: p = 5 censuses so that the median job sits inside one class of similar
#: jobs, not on the border between two classes of different cost
CENSUS_LENS_P = (3, 3) + (5,) * 14 + tuple(range(7, 22, 2))


def _census_round(rng, index):
    jobs = [{"kind": "spinc", "lens": [p, _coprime_q(rng, p)]}
            for p in CENSUS_LENS_P]
    jobs += [{"kind": "spinc", "fixture": name} for name in CENSUS_FIXTURES]
    jobs += [seifert_spec(rng, genus) for genus in (1, 2, 3)]
    return jobs


# ---------------------------------------------------------------------------
# cli requests
# ---------------------------------------------------------------------------


def _request(args, stdin=None, malformed=None, **extra) -> dict:
    spec = {"kind": "cli", "command": args[0], "args": list(args),
            "stdin": stdin}
    if malformed:
        spec["malformed"] = malformed
    spec.update(extra)
    return spec


def _genus4_pool():
    rng = np.random.default_rng(GENUS4_POOL_SEED)
    return [rng.integers(-3, 4, size=(8, 8)).tolist()
            for _ in range(GENUS4_POOL_SIZE)]


def _index_request(rng):
    sigma = int(rng.integers(-9, 10))
    c1sq = 8 * int(rng.integers(-5, 6)) + sigma
    b1, bplus, b0 = (int(x) for x in rng.integers(0, 5, 3))
    return _request(["index", "--c1sq", str(c1sq), "--sigma", str(sigma),
                     "--b1", str(b1), "--bplus", str(bplus),
                     "--b0", str(b0)])


def _psc_request(rng):
    b1 = int(rng.integers(0, 4))
    flag = "--torsion" if rng.uniform() < 0.7 else "--no-torsion"
    return _request(["psc", "--b1", str(b1), flag])


def _lens_request(rng):
    p = int(rng.integers(2, 31))
    return _request(["lens", "--p", str(p), "--q", str(_coprime_q(rng, p))])


def _brieskorn_request(rng, family):
    k = int(rng.integers(1, 31))
    return _request(["brieskorn", "--family", family, "--k", str(k)])


def _spinc_request(name):
    return _request(["spinc", "--fixture", name])


def _seifert_request(rows, genus):
    return _request(["seifert-matrix", "--input", "-"],
                    json.dumps({"data": rows}), genus=genus)


def _morse_request(rng):
    spec = morse_spec(rng, int(rng.integers(20, 41)), int(rng.integers(2, 4)))
    payload = {"points": spec["points"], "counts": spec["counts"]}
    return _request(["morse", "--input", "-"], json.dumps(payload),
                    oracle=spec["oracle"])


def _flow_request(rng):
    spec = flow_spec(rng, int(rng.integers(2, 4)), t_max=15.0, step=5e-3)
    payload = {"L": spec["L"], "phi0": spec["phi0"], "s0": spec["s0"],
               "t_max": spec["t_max"], "step": spec["step"]}
    return _request(["flow", "--input", "-"], json.dumps(payload),
                    oracle=spec["oracle"], phi0=spec["phi0"])


_MALFORMED_TARGETS = (["morse", "--input", "-"], ["flow", "--input", "-"],
                      ["seifert-matrix", "--input", "-"],
                      ["spinc", "--input", "-"])
_NON_NUMERIC = (
    {"points": [{"label": "q", "ind_q": 0, "fiber": [["x"]]}]},
    {"L": [["a", "b"], ["b", "a"]], "t_max": 1, "step": 0.1},
    {"data": [["a", 1], [0, "b"]]},
    {"cells_M": ["one"], "cells_Q": ["one"], "delta_M": [], "delta_Q": [],
     "orbit": []},
)


def _malformed_request(kind, index):
    target = index % len(_MALFORMED_TARGETS)
    args = _MALFORMED_TARGETS[target]
    if kind == "empty_object":
        body = "{}"
    elif kind == "empty_list":
        body = "[]"
    elif kind == "non_numeric":
        body = json.dumps(_NON_NUMERIC[target])
    else:  # zero step
        args = ["flow", "--input", "-"]
        body = json.dumps({"L": [[-1.0, 0.0], [0.0, 2.0]], "phi0": [0.6, 0.8],
                           "t_max": 1.0, "step": 0})
    return _request(args, body, malformed=kind)


def _cli_round(rng, index):
    """Two alternating round shapes of twelve requests each.

    Each shape carries exactly one request that can miss its deadline
    (a genus-4 or a genus-5 Seifert matrix), so every round costs about
    the same wall time.
    """
    k = index // 2
    fixtures = CENSUS_FIXTURES
    family = FAMILIES[(k + 2 * (index % 2)) % len(FAMILIES)]
    if index % 2 == 0:
        pool = _genus4_pool()
        return [
            _index_request(rng), _psc_request(rng), _lens_request(rng),
            _brieskorn_request(rng, family),
            _spinc_request(fixtures[(2 * k) % len(fixtures)]),
            _spinc_request(DIM1_FIXTURES[k % 3]),
            _seifert_request(seifert_spec(rng, 1)["data"], 1),
            _seifert_request(pool[k % GENUS4_POOL_SIZE], 4),
            _morse_request(rng), _flow_request(rng),
            _malformed_request("empty_object", k),
            _malformed_request("non_numeric", k),
        ]
    return [
        _index_request(rng), _lens_request(rng), _psc_request(rng),
        _brieskorn_request(rng, family),
        _spinc_request(fixtures[(2 * k + 1) % len(fixtures)]),
        _seifert_request(seifert_spec(rng, 2)["data"], 2),
        _seifert_request(seifert_spec(rng, 3)["data"], 3),
        _seifert_request(seifert_spec(rng, 5)["data"], 5),
        _request(["fixtures-selftest"]),
        _morse_request(rng),
        _malformed_request("empty_list", k),
        _malformed_request("zero_step", k),
    ]


_ROUND_MAKERS = {"flow": _flow_round, "chain": _chain_round,
                 "census": _census_round, "cli": _cli_round}


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------
# hmrkit names are imported inside each function: looked up at call time,
# they pick up the tracing shim's wrappers while it is installed.


def run_flow(spec):
    from hmrkit.morse_blowup import (LinearFlowModel, closed_form_phi,
                                     integrate_blowup_flow,
                                     limiting_eigen_index)
    model = LinearFlowModel(np.array(spec["L"], dtype=float))
    phi0 = np.array(spec["phi0"], dtype=float)
    traj = integrate_blowup_flow(model, phi0, spec["s0"], spec["t_max"],
                                 spec["step"])
    t_end = float(traj.times[-1])
    index = limiting_eigen_index(model, phi0)
    return {
        "converged": traj.converged,
        "t_end": t_end,
        "steps": len(traj.times) - 1,
        "terminal_phi": traj.terminal_phi.tolist(),
        "terminal_lambda": traj.terminal_lambda,
        "closed_form_phi": closed_form_phi(model, phi0, t_end).tolist(),
        "predicted_eigen_index": index,
        "predicted_eigenvalue": float(model.eigenvalues[index - 1]),
    }


def run_morse(spec):
    from hmrkit.complexes import (assemble, homology, les_maps,
                                  verify_d_squared, verify_les_exact)
    from hmrkit.f2lin import F2Matrix
    from hmrkit.morse_blowup import (BaseMorseData, BasePoint,
                                     LinearFlowModel, build_model_complexes)
    points = tuple(
        BasePoint(p["label"], p["ind_q"],
                  LinearFlowModel(np.array(p["fiber"], dtype=float)))
        for p in spec["points"])
    base = BaseMorseData(points, F2Matrix.from_json(spec["counts"]))
    blocks = build_model_complexes(base)
    cx = assemble(blocks)
    return {
        "gens": len(blocks.gens_o) + len(blocks.gens_s) + len(blocks.gens_u),
        "d_squared": verify_d_squared(cx),
        "homology": {f: sum(homology(cx, f).values())
                     for f in ("check", "hat", "bar")},
        "les_exact": verify_les_exact(cx, les_maps(blocks)),
    }


def run_brieskorn(spec):
    from hmrkit.complexes import verify_d_squared
    from hmrkit.seifert_hmr import (BrieskornInput, brieskorn_hmr,
                                    brieskorn_irreducibles, divisor_count)
    inp = BrieskornInput(spec["family"], spec["k"])
    spectrum = brieskorn_irreducibles(inp)
    res = brieskorn_hmr(inp)
    b = res.complexes.blocks
    return {
        "pqr": list(inp.pqr),
        "spectrum": [[g, c] for g, c in spectrum.counts],
        "divisor_pairs": divisor_count(*inp.pqr),
        "d_squared": verify_d_squared(res.complexes),
        "gens": len(b.gens_o) + len(b.gens_s) + len(b.gens_u),
        "hat": res.hat.to_json(),
        "check": res.check.to_json(),
        "bar": res.bar.to_json(),
    }


def run_spinc(spec):
    from hmrkit import cw_fixtures
    from hmrkit.real_spinc import (real_spinc_torsor, real_structure_classes,
                                   verify_naturality, verify_theta_chain_map)
    if "lens" in spec:
        data = cw_fixtures.lens_space(*spec["lens"])
    else:
        data = cw_fixtures.build_fixture(spec["fixture"])
    census = real_spinc_torsor(data)
    return {
        "dim": data.dim,
        "theta_chain_map": all(verify_theta_chain_map(data, d)
                               for d in range(data.dim + 1)),
        "naturality": all(verify_naturality(data, d)
                          for d in range(data.dim + 1)),
        "exists": census.exists,
        "size": census.size(),
        "real_structure_classes": real_structure_classes(data),
    }


def run_seifert(spec):
    from hmrkit.f2lin import IntMatrix
    from hmrkit.real_spinc import SeifertMatrix, branched_cover_invariants
    order, b1 = branched_cover_invariants(
        SeifertMatrix(IntMatrix.from_rows(spec["data"])))
    return {"h1_order": order, "b1": b1}


IN_PROCESS = {"flow": run_flow, "morse": run_morse,
              "brieskorn": run_brieskorn, "spinc": run_spinc,
              "seifert": run_seifert}


def run_cli_request(spec, root, deadline) -> dict:
    """One fresh ``python -m hmrkit.cli`` process; kills it at the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hmrkit.cli", *spec["args"]],
            input=spec["stdin"] or "", capture_output=True, text=True,
            cwd=root, env=env, timeout=deadline)
    except subprocess.TimeoutExpired:
        return {"timeout": True, "exit": None, "stdout": "", "stderr": "",
                "seconds": time.perf_counter() - started}
    return {"timeout": False, "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "seconds": time.perf_counter() - started}


def run_cli_in_process(spec) -> dict:
    """The same request through ``hmrkit.cli.run`` in this process."""
    from hmrkit import cli
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(spec["stdin"] or "")
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(spec["args"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                err.write(traceback.format_exc())
                code = 1
    finally:
        sys.stdin = saved_stdin
    return {"timeout": False, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}
