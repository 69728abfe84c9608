"""Acceptance suite: ten criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines; each
criterion is a single test so the pytest verdict doubles as the report.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from hmrkit import cli
from hmrkit.complexes import assemble, homology, les_maps, \
    verify_d_squared, verify_les_exact
from hmrkit.errors import NotDivisibleBy8, OddPairing
from hmrkit.f2lin import IntMatrix
from hmrkit.index_grading import TopologicalData4, closed4_index
from hmrkit.morse_blowup import (
    BaseMorseData,
    BasePoint,
    LinearFlowModel,
    build_model_complexes,
    closed_form_phi,
    integrate_blowup_flow,
    limiting_eigen_index,
)
from hmrkit.real_spinc import SeifertMatrix, branched_cover_invariants, \
    real_spinc_torsor, real_structure_classes
from hmrkit.cw_fixtures import build_fixture
from hmrkit.seifert_hmr import BrieskornInput, Tower, brieskorn_hmr, \
    psc_hmr

from test_real_spinc import oracle_alexander_at_minus_one


def verdict(number: int, label: str, ok: bool):
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def random_model(rng, n):
    """Symmetric fiber matrix with simple spectrum bounded away from 0."""
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    spread = 2.0 * np.linspace(-1.0, 1.0, n) + rng.uniform(-0.1, 0.1, n)
    spread = np.sort(spread + np.sign(spread + 1e-9) * 0.3)
    return LinearFlowModel(vecs @ np.diag(spread) @ vecs.T)


def all_brieskorn_inputs():
    out = [BrieskornInput("2,7,29")]
    for fam in ("2,3,+1", "2,3,-1", "2,5,-1", "2,5,+1"):
        out.extend(BrieskornInput(fam, k) for k in range(1, 7))
    return out


def test_criterion_1_d_squared_suite():
    started = time.monotonic()
    rng = np.random.default_rng(20260825)
    ok = True
    for trial in range(200):
        n = int(rng.integers(1, 11))
        base = BaseMorseData(
            (BasePoint("q", int(rng.integers(0, 4)), random_model(rng, n)),))
        cx = assemble(build_model_complexes(base))
        ok = ok and verify_d_squared(cx)
    for inp in all_brieskorn_inputs():
        ok = ok and verify_d_squared(brieskorn_hmr(inp).complexes)
    elapsed = time.monotonic() - started
    verdict(1, "d-squared suite", ok and elapsed < 10.0)


def test_criterion_2_rp_model_homology():
    rng = np.random.default_rng(7)
    ok = True
    for n, _, bar_total in cli.RP_MODELS:
        model = random_model(rng, n)
        base = BaseMorseData((BasePoint("q", 0, model),))
        blocks = build_model_complexes(base)
        cx = assemble(blocks)
        ok = ok and sum(homology(cx, "bar").values()) == bar_total
        ok = ok and sum(homology(cx, "check").values()) == \
            int(np.sum(model.eigenvalues > 0))
        ok = ok and sum(homology(cx, "hat").values()) == \
            int(np.sum(model.eigenvalues < 0))
        ok = ok and verify_les_exact(cx, les_maps(blocks))
    verdict(2, "projective model homology", ok)


def test_criterion_3_ode_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(451)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n)
        phi0 = rng.standard_normal(n)
        phi0 /= np.linalg.norm(phi0)
        traj = integrate_blowup_flow(model, phi0, float(rng.uniform(0, 1)),
                                     t_max=40.0, step=2e-3)
        exact = closed_form_phi(model, phi0, float(traj.times[-1]))
        dev = min(np.max(np.abs(exact - traj.terminal_phi)),
                  np.max(np.abs(exact + traj.terminal_phi)))
        lam = model.eigenvalues[limiting_eigen_index(model, phi0) - 1]
        ok = ok and dev < 1e-6 and abs(traj.terminal_lambda - lam) < 1e-6
    elapsed = time.monotonic() - started
    verdict(3, "ODE integrator vs closed form", ok and elapsed < 30.0)


def test_criterion_4_s3_tower():
    spectrum, shift, ranks = cli.S3_TOWER
    vals = np.diag(np.array(spectrum, dtype=float))
    base = BaseMorseData((BasePoint("q", 0, LinearFlowModel(vals)),))
    blocks = build_model_complexes(base, grading_shift=shift)
    cx = assemble(blocks)
    ok = (all(homology(cx, f) == r for f, r in ranks.items())
          and cx.flavor("check").d.is_zero()
          and cx.flavor("hat").d.is_zero()
          and cx.flavor("bar").d.is_zero())
    verdict(4, "three-sphere tower", ok)


def test_criterion_5_real_structure_census():
    ok = True
    for name, p in cli.LENS_CENSUS + (("lens_5_2", 5), ("lens_7_2", 7)):
        census = real_spinc_torsor(build_fixture(name))
        ok = ok and census.exists and census.size() == p
    rotation = build_fixture("s1_x_s2_rotation")
    ok = ok and (real_spinc_torsor(rotation).size(),
                 real_structure_classes(rotation)) == cli.ROTATION_CENSUS
    verdict(5, "real spin-c census", ok)


def test_criterion_6_branched_covers():
    ok = True
    for _, grid, order, b1 in cli.BRANCHED_COVERS:
        a = IntMatrix.from_rows(grid)
        ok = ok and branched_cover_invariants(SeifertMatrix(a)) == (order, b1)
        ok = ok and oracle_alexander_at_minus_one(a) == order
    verdict(6, "branched double covers", ok)


def test_criterion_7_index_formula():
    rng = np.random.default_rng(99)
    ok = True
    for trial in range(50):
        sa, sb = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
        da = TopologicalData4(8 * int(rng.integers(-5, 6)) + sa, sa,
                              int(rng.integers(0, 5)),
                              int(rng.integers(0, 5)),
                              int(rng.integers(0, 5)))
        db = TopologicalData4(8 * int(rng.integers(-5, 6)) + sb, sb,
                              int(rng.integers(0, 5)),
                              int(rng.integers(0, 5)),
                              int(rng.integers(0, 5)))
        dsum = TopologicalData4(da.c1_sq + db.c1_sq, da.sigma + db.sigma,
                                da.b1_inv + db.b1_inv,
                                da.bplus_inv + db.bplus_inv,
                                da.b0_inv + db.b0_inv)
        ok = ok and closed4_index(dsum) == \
            closed4_index(da) + closed4_index(db)
    with pytest.raises(NotDivisibleBy8):
        closed4_index(TopologicalData4(1, 0, 0, 0, 0))
    with pytest.raises(OddPairing):
        from hmrkit.index_grading import loop_grading_shift
        loop_grading_shift(3)
    verdict(7, "index formula", ok)


def test_criterion_8_brieskorn_answers():
    started = time.monotonic()
    ok = True
    for k in range(1, 7):
        paired = 2 * (k // 2)
        res = brieskorn_hmr(BrieskornInput("2,3,+1", k))
        ok = ok and sum(c for _, c in res.hat.finite) == paired
        ok = ok and res.hat.towers == (Tower("down", -1),)
        for fam in ("2,5,-1", "2,5,+1"):
            res = brieskorn_hmr(BrieskornInput(fam, k))
            ok = ok and sum(c for _, c in res.check.finite) == 2 * k + paired
            ok = ok and len(res.check.towers) == 1 \
                and res.check.towers[0].kind == "up"
        ok = ok and brieskorn_hmr(BrieskornInput("2,3,-1", k)) \
            .hat.undetermined
    for _, family, k, finite, undetermined in cli.BRIESKORN_ANSWERS:
        res = brieskorn_hmr(BrieskornInput(family, k))
        ok = ok and res.check.finite == finite
        ok = ok and res.hat.undetermined == undetermined
    elapsed = time.monotonic() - started
    verdict(8, "Brieskorn family answers", ok and elapsed < 5.0)


def test_criterion_9_psc_structure():
    ok = True
    for b1 in range(4):
        hat, check, bar = psc_hmr(b1, True)
        for g in range(-8, 9):
            down = sum(math.comb(b1, d) for d in range(b1 + 1) if g <= d)
            up = sum(math.comb(b1, d) for d in range(b1 + 1) if g >= d)
            ok = ok and hat.rank_at(g) == down
            ok = ok and check.rank_at(g) == up
            ok = ok and bar.rank_at(g) == 2 ** b1
        ok = ok and all(m.rank_at(0) == 0 and not m.towers
                        for m in psc_hmr(b1, False))
    verdict(9, "positive scalar curvature towers", ok)


def test_criterion_10_determinism(capsys, tmp_path):
    flow_input = tmp_path / "flow.json"
    flow_input.write_text(json.dumps({"L": [[-2.0, 0.4], [0.4, 1.5]],
                                      "t_max": 15, "step": 0.005}))
    runs = []
    for argv in (["brieskorn", "--family", "2,7,29"],
                 ["flow", "--input", str(flow_input), "--seed", "5"],
                 ["fixtures-selftest"]):
        pair = []
        for _ in range(2):
            code = cli.run(list(argv))
            pair.append((code, capsys.readouterr().out))
        runs.append(pair[0] == pair[1] and pair[0][1] != "")
    with capsys.disabled():
        verdict(10, "byte-identical reports", all(runs))
