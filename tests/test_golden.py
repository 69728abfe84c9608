"""The golden corpus: CLI requests whose answers are pinned by digest.

``tests/golden/answers.json`` holds, per request, the argv (subcommand and
flags), the sha256 of the body sent on stdin (of "" when there is none),
the exit code and the sha256 of stdout.  One test runs ``cli.run``
in-process on every request and compares.  ``tests/golden/write.py``
rewrites the table from the current code; a change that alters a digest
names the request and the reason in CHANGES.md.

The ``morse`` and ``flow`` bodies come from a seeded generator below.  Its
matrices have dyadic entries and its unit vectors are normalized in
Python, so the bodies do not depend on the BLAS build.  The ``flow``
answers still do: the integrator and the closed form multiply floats, and
a BLAS may round or order those sums differently.  So a ``flow`` digest
hashes the report with every float rounded to 9 significant digits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
from math import gcd
from pathlib import Path

import numpy as np

from hmrkit import cli
from hmrkit.cw_fixtures import FIXTURE_BUILDERS, build_fixture, lens_space
from hmrkit.seifert_hmr import FAMILIES

from test_cli import (COUNT_OUTSIDE, COUNTS_SHAPES, CW_REJECTIONS,
                      FLOAT_FIELDS, LABELS, MORSE_BODY, NON_FINITE,
                      NON_INTEGER_FIELDS, NON_NUMBERS, NUMBER_FIELDS, edited)
from test_real_spinc import (CASES, DOUBLED_D1, flipped_orbit_body, relabel,
                             space_data)

GOLDEN = Path(__file__).resolve().parent / "golden" / "answers.json"

#: odd p of the ``spinc --input`` lens spaces L(p, q), every coprime q
LENS_P = range(1, 22, 2)
#: larger ``spinc --input`` lens spaces: one coprime q per odd p from 23 to
#: 41, and L(61, 7), where the cochain reduction eliminates the most cells
LARGE_LENS = ((23, 4), (25, 7), (27, 5), (29, 12), (31, 6), (33, 10),
              (35, 8), (37, 11), (39, 14), (41, 9), (61, 7))
#: (p, q) of the ``lens`` requests, errors included
LENS_TABLE = ((1, 0), (3, 1), (5, 2), (7, 3), (9, 2), (4, 2), (3, 5),
              (1000003, 2), (0, 0), (-3, 1))
#: (c1sq, sigma, b1, bplus, b0) of the ``index`` requests, errors included
INDEX_TABLE = ((8, 0, 1, 1, 0), (0, 0, 0, 0, 0), (16, 0, 2, 1, 0),
               (1, 0, 0, 0, 0), (0, 0, -5, 0, 0), (0, 0, 0, -2, 0))
#: generated ``morse`` and ``flow`` bodies
MORSE_BODIES = 48
FLOW_BODIES = 48
#: (generators, fiber dimension) of ``morse`` bodies of the sizes the
#: benchmark's chain mix runs, each with all-positive, mixed and
#: all-negative fibers
CHAIN_MORSE = ((60, 3), (140, 5), (200, 6))
#: (generators, fiber dimension) of ``morse`` bodies of the sizes the
#: benchmark's cli mix sends (20-40 generators asked, 20-45 made, n = 2 and
#: 3), each with every count of negative fiber eigenvalues
CLI_MORSE = ((20, 2), (40, 2), (21, 3), (39, 3))
#: a one-point ``morse`` example of gradings 0 and 1, whose report has all
#: three homology flavors and an exact LES
EXAMPLE_MORSE = {"points": [{"label": "q", "ind_q": 0,
                             "fiber": [[1.0, 0.5], [0.5, -2.0]]}]}
#: ``flow`` bodies at the edges of the integrator's blocks, answered with
#: every 1024th sample and the last, which pins the step count:
#: h max|lambda| = 1.20 (in (0.75, 1.5]) and 0.74 (just below 0.75), 12859
#: steps at h = 1e-3 that converge mid-block, and 2053 steps that never
#: converge, past both doublings of the sample buffer (1025 and 2050 rows)
EDGE_FLOWS = (
    {"L": [[1.0, 0.0625], [0.0625, 4.0]], "phi0": [0.6, -0.8], "s0": 0.5,
     "t_max": 60.0, "step": 0.3},
    {"L": [[1.0, 0.0625], [0.0625, 4.0]], "phi0": [0.6, -0.8], "s0": 0.5,
     "t_max": 60.0, "step": 0.185},
    {"L": [[-1.0, 0.0625], [0.0625, 0.5]], "phi0": [0.6, 0.8], "s0": 0.5,
     "t_max": 100.0, "step": 1e-3},
    {"L": [[-1.0, 0.0625, 0.0], [0.0625, 0.5, 0.0625], [0.0, 0.0625, 2.0]],
     "phi0": [0.6, 0.0, 0.8], "s0": 0.5, "t_max": 2.053, "step": 1e-3},
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _round9(value):
    """``value`` with every float rounded to 9 significant digits, and
    -0.0 read as 0.0."""
    if isinstance(value, float):
        return float(f"{value:.9g}") + 0.0
    if isinstance(value, list):
        return [_round9(v) for v in value]
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# the seeded generator of morse and flow bodies
# ---------------------------------------------------------------------------


def _fiber(rng, n: int, n_neg: int) -> list:
    """A symmetric n x n matrix, n <= 8, with n_neg negative eigenvalues:
    distinct integer diagonal entries at least 1 apart, off the diagonal
    multiples of 1/16 of size at most 1/16, so by Gershgorin each
    eigenvalue lies within (n - 1)/16 < 1/2 of a diagonal entry."""
    sizes = np.arange(1, max(6, n + 3))
    neg = sorted(rng.choice(sizes, n_neg, replace=False))
    pos = sorted(rng.choice(sizes, n - n_neg, replace=False))
    diag = [-float(x) for x in reversed(neg)] + [float(x) for x in pos]
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = diag[i]
        for j in range(i):
            m[i][j] = m[j][i] = int(rng.integers(-1, 2)) / 16
    return m


def _model_body(rng, n: int, n_neg: int, size: int,
                diamonds: float = 0.0) -> dict:
    """At least ``size`` base points with one fiber sign pattern, so that
    every base count joins equal patterns.  The base is made of diamonds
    a -> b, c -> d (a share ``diamonds`` of the draws), cancelling pairs
    and free points (half the rest each); pairs and diamonds are acyclic
    over F2."""
    inds, ones = [], []
    while len(inds) < size:
        i, k = int(rng.integers(0, 3)), len(inds)
        piece = rng.random()
        if piece < diamonds:
            ones += [[k + 1, k], [k + 2, k], [k + 3, k + 1], [k + 3, k + 2]]
            inds += [i + 2, i + 1, i + 1, i]
        elif piece < (1 + diamonds) / 2:
            ones.append([k + 1, k])
            inds += [i + 1, i]
        else:
            inds.append(i)
    points = [{"label": f"q{k}", "ind_q": ind, "fiber": _fiber(rng, n, n_neg)}
              for k, ind in enumerate(inds)]
    return {"points": points,
            "counts": {"rows": len(inds), "cols": len(inds), "ones": ones},
            "grading_shift": int(rng.integers(-2, 3))}


def _morse_body(rng) -> dict:
    n = int(rng.integers(1, 4))
    n_neg = int(rng.integers(0, n + 1))
    return _model_body(rng, n, n_neg, int(rng.integers(3, 9)))


def _tridiagonal(signs) -> list:
    """The n x n tridiagonal matrix with diagonal signs[i] * (i + 1) and
    1/16 beside it: eigenvalues within 1/8 of the diagonal, so distinct
    and of those signs."""
    n = len(signs)
    return [[signs[i] * (i + 1.0) if i == k else
             0.0625 if abs(i - k) == 1 else 0.0 for k in range(n)]
            for i in range(n)]


def _unit(rng, n: int) -> list:
    v = [float(x) for x in rng.integers(-4, 5, n)]
    if not any(v):
        v[0] = 1.0
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _flow_body(rng) -> dict:
    n = int(rng.integers(2, 4))
    return {"L": _fiber(rng, n, int(rng.integers(0, n + 1))),
            "phi0": _unit(rng, n), "s0": int(rng.integers(0, 5)) / 4,
            "t_max": 30.0, "step": 1e-2}


# ---------------------------------------------------------------------------
# the requests
# ---------------------------------------------------------------------------


def requests() -> list[tuple[list[str], str]]:
    """(argv, stdin body) of every request of the corpus, in table order."""
    out = [(["spinc", "--fixture", name], "")
           for name in [*sorted(FIXTURE_BUILDERS), "no_such_fixture"]]
    for p in LENS_P:
        out += [(["spinc", "--input", "-"],
                 json.dumps(lens_space(p, q).to_json()))
                for q in range(p) if gcd(p, q) == 1]
    out += [(["spinc", "--input", "-"],
             json.dumps(lens_space(p, q).to_json())) for p, q in LARGE_LENS]
    # a declared shape that disagrees with the data grid
    body = lens_space(3, 1).to_json()
    body["delta_M"][0]["rows"] += 1
    out.append((["spinc", "--input", "-"], json.dumps(body)))
    # an empty grid under a shape too large to allocate
    body = {"cells_M": [1, 1], "cells_Q": [1, 1], "delta_M": [
        {"rows": 2 ** 62, "cols": 2 ** 62, "data": []}], "delta_Q": [],
        "orbit": []}
    out.append((["spinc", "--input", "-"], json.dumps(body)))

    for family in FAMILIES:
        out += [(["brieskorn", "--family", family, "--k", str(k)], "")
                for k in (1, 2, 7)]
    out += [(["brieskorn", "--family", "2,3,+1", "--k", "4",
              "--window=-2:14"], ""),
            (["brieskorn", "--family", "2,3,+1", "--window=abc"], ""),
            (["brieskorn", "--family", "2,7,29", "--window=0:5"], "")]
    out += [(["psc", "--b1", str(b1), flag], "")
            for b1 in range(6) for flag in ("--torsion", "--no-torsion")]
    out += [(["lens", "--p", str(p), "--q", str(q)], "")
            for p, q in LENS_TABLE]
    out += [(["index", "--c1sq", str(c1sq), "--sigma", str(sigma),
              "--b1", str(b1), "--bplus", str(bplus), "--b0", str(b0)], "")
            for c1sq, sigma, b1, bplus, b0 in INDEX_TABLE]
    out += [(["seifert-matrix", "--input", "-"],
             json.dumps({"data": [list(r) for r in CASES[name][0].data]}))
            for name in sorted(CASES)]

    rng = np.random.default_rng(2026)
    out += [(["morse", "--input", "-"], json.dumps(_morse_body(rng)))
            for _ in range(MORSE_BODIES)]
    out += [(["flow", "--input", "-"], json.dumps(_flow_body(rng)))
            for _ in range(FLOW_BODIES)]
    no_phi0 = {"L": [[-1.0, 0.25], [0.25, 2.0]], "t_max": 20.0, "step": 1e-2}
    out += [(["flow", "--input", "-", "--seed", "3"], json.dumps(no_phi0)),
            (["flow", "--input", "-", "--samples", "--stride", "400"],
             json.dumps(_flow_body(rng))),
            (["flow", "--input", "-"], json.dumps(dict(no_phi0, step=1.0))),
            (["morse", "--input", "-"], "{}")]
    out.append((["fixtures-selftest"], ""))
    rng = np.random.default_rng(2027)
    out += [(["morse", "--input", "-"], json.dumps(_model_body(
                rng, n, n_neg, gens // n, diamonds=0.3)))
            for gens, n in CHAIN_MORSE for n_neg in (0, n // 2, n)]
    out += [(["flow", "--input", "-", "--samples", "--stride", "1024"],
             json.dumps(body)) for body in EDGE_FLOWS]
    rng = np.random.default_rng(2028)
    out += [(["morse", "--input", "-"], json.dumps(_model_body(
                rng, n, n_neg, gens // n, diamonds=0.3)))
            for gens, n in CLI_MORSE for n_neg in range(n + 1)]
    # models spanning one to four gradings, with the LES exact at the
    # extreme ones too
    out.append((["morse", "--input", "-"], json.dumps(EXAMPLE_MORSE)))
    out += [(["morse", "--input", "-"], json.dumps(
                {"points": [{"label": "q", "ind_q": 0,
                             "fiber": _tridiagonal(signs)}]}))
            for n in (1, 2, 3) for signs in itertools.product((1, -1),
                                                               repeat=n)]
    # iota* that does not commute with delta_M: one free degree-1 orbit
    # of L(3, 1) with both signs flipped
    out.append((["spinc", "--input", "-"], json.dumps(flipped_orbit_body())))
    # every rejection of an edited L(3, 1) body, one per check of the
    # constructor and of the body's delta_Q
    for _, edit, _, _ in CW_REJECTIONS:
        body = lens_space(3, 1).to_json()
        edit(body)
        out.append((["spinc", "--input", "-"], json.dumps(body)))
    # renumbered and reoriented copies of every fixture of dimension >= 2
    # (L(5, 2) among them) and of L(21, 8), so that the reduction meets
    # other pivot orders; and L(5, 2) with delta^1_M doubled, whose
    # reduction stops at cells (1, 25, 25, 1) and (1, 13, 13, 1)
    spaces = [build_fixture(name) for name in sorted(FIXTURE_BUILDERS)]
    out += [(["spinc", "--input", "-"],
             json.dumps(relabel(data, random.Random(0)).to_json()))
            for data in spaces + [lens_space(21, 8)] if data.dim >= 2]
    out.append((["spinc", "--input", "-"],
                json.dumps(space_data(DOUBLED_D1).to_json())))
    out += [(["morse", "--input", "-"], json.dumps(edited(MORSE_BODY, *edit)))
            for edit in _morse_rejections()]
    out += [([command, "--input", "-"], json.dumps(edited(*edit)))
            for command in ("spinc", "seifert-matrix", "flow")
            for edit in _field_rejections(command)]
    return out


def _field_rejections(command: str) -> list[tuple]:
    """(body, path, value) of every edit that NON_INTEGER_FIELDS,
    FLOAT_FIELDS or NUMBER_FIELDS of test_cli.py refuses for
    ``command``."""
    edits = [t[3:] for t in NON_INTEGER_FIELDS if t[1] == command]
    edits += [(*t[3:], v) for t in FLOAT_FIELDS if t[1] == command
              for v in NON_FINITE]
    return edits + [(*t[3:], v) for t in NUMBER_FIELDS if t[1] == command
                    for v in NON_NUMBERS]


def _morse_rejections() -> list[tuple]:
    """(path, value) of every edit of MORSE_BODY that a rejection table of
    test_cli.py refuses."""
    edits = [edit[1:] for edit in _field_rejections("morse")]
    edits += [(("points", 0, "label"), label) for label in LABELS]
    edits += [(("counts",), {"rows": size, "cols": size, "ones": ones})
              for size, ones in COUNTS_SHAPES]
    return edits + [(("counts",), COUNT_OUTSIDE)]


def run_request(argv: list[str], body: str) -> tuple[int, str]:
    """(exit code, stdout) of one request, run through ``cli.run``."""
    stdin, sys.stdin = sys.stdin, io.StringIO(body)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def answer(argv: list[str], body: str, code: int, text: str) -> dict:
    """The table entry of one request that exits ``code`` with stdout
    ``text``."""
    if argv[0] == "flow":
        text = json.dumps(_round9(json.loads(text)), sort_keys=True)
    return {"argv": argv, "body_sha256": _sha(body), "exit": code,
            "stdout_sha256": _sha(text)}


def test_golden_answers():
    want = json.loads(GOLDEN.read_text())
    runs = [(argv, body, *run_request(argv, body))
            for argv, body in requests()]
    # CPython words these errors differently from one version to the next
    assert not [argv for argv, _, _, text in runs
                if "indices must be integers" in text
                or "not subscriptable" in text]
    got = [answer(*run) for run in runs]
    assert [(w["argv"], w["body_sha256"]) for w in want] == \
        [(g["argv"], g["body_sha256"]) for g in got]
    changed = [(g["argv"], g["body_sha256"][:12])
               for g, w in zip(got, want) if g != w]
    assert not changed
