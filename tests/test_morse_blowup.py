"""Tests for the linear blow-up flow model: spectra, gradings, integration."""

from __future__ import annotations

import copy
import cProfile
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmrkit.complexes import assemble, homology, les_maps, verify_d_squared, verify_les_exact
from hmrkit.errors import (DegenerateSpectrum, InvalidInput, ShapeMismatch,
                           StepTooLarge)
from hmrkit.f2lin import F2Matrix
from hmrkit.morse_blowup import (
    _INITIAL_ROWS,
    BLOCK_STEPS,
    CONVERGENCE_SPEED,
    CONVERGENCE_STEPS,
    MAX_STEP_SPECTRAL,
    SPECTRAL_TOLERANCE,
    BaseMorseData,
    BasePoint,
    FlowTrajectory,
    LinearFlowModel,
    blowup_critical_points,
    build_model_complexes,
    closed_form_phi,
    integrate_blowup_flow,
    limiting_eigen_index,
)


def random_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


def test_eigendata_random_oracle():
    rng = np.random.default_rng(11)
    a = random_symmetric(5, rng)
    m = LinearFlowModel(a)
    # eigen index i is Morse index i - 1 only if eigenvalues ascend
    assert np.all(np.diff(m.eigenvalues) > 0)
    # eigenvector oracle: columns orthonormal and satisfy A w = lambda w
    w = m.eigenvectors
    assert np.allclose(w.T @ w, np.eye(5), atol=1e-10)
    for k in range(5):
        assert np.allclose(a @ w[:, k], m.eigenvalues[k] * w[:, k],
                           atol=1e-9)


def test_degenerate_spectrum_rejected():
    with pytest.raises(DegenerateSpectrum):
        LinearFlowModel(np.diag([1.0, 1.0]))
    with pytest.raises(DegenerateSpectrum):
        LinearFlowModel(np.diag([0.0, 1.0]))


# -- reference: the checks of a fiber model, written with numpy ---------------


def oracle_fiber_model(L) -> np.ndarray:
    """The eigenvalues of L if LinearFlowModel's checks accept it, by the
    same checks written with numpy arrays: np.allclose for symmetry, and
    np.isfinite, np.abs and np.diff for the spectrum.  Raises what they
    raise."""
    a = np.asarray(L, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("L must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ShapeMismatch("L must be symmetric")
    vals = np.linalg.eigh(a)[0]
    if not np.all(np.isfinite(vals)):
        raise DegenerateSpectrum("spectrum is not finite")
    scale = max(1.0, float(np.max(np.abs(vals))))
    gap_tol = 10.0 * SPECTRAL_TOLERANCE * scale
    if np.any(np.abs(vals) <= gap_tol):
        raise DegenerateSpectrum("spectrum contains (near-)zero")
    if vals.size > 1 and np.min(np.diff(vals)) <= gap_tol:
        raise DegenerateSpectrum("spectrum is not simple")
    return vals


def outcome(build, L):
    """The eigenvalues ``build(L)`` accepts L with, or the class of what it
    raises."""
    try:
        return build(L)
    except Exception as exc:
        return type(exc)


def assert_same_outcome(L):
    """LinearFlowModel and the oracle accept or reject L alike, with the
    same eigenvalues or the same exception class; returns that outcome."""
    got = outcome(lambda m: LinearFlowModel(m).eigenvalues, L)
    want = outcome(oracle_fiber_model, L)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)
    return want


def _tolerance(scale: float) -> float:
    return 10.0 * SPECTRAL_TOLERANCE * scale


_SYMMETRIC = random_symmetric(4, np.random.default_rng(5))
_NEAR_SYMMETRIC = _SYMMETRIC.copy()
_NEAR_SYMMETRIC[0, 2] += 1e-13
_FAR_SYMMETRIC = _SYMMETRIC.copy()
_FAR_SYMMETRIC[0, 2] += 1e-3
INF, NAN = math.inf, math.nan

#: (id, L, accepted): every check of the fiber model, on each side
FIBER_CHECK_CASES = (
    ("symmetric", _SYMMETRIC, True),
    ("symmetric_2x2", [[2.0, 0.25], [0.25, -1.0]], True),
    ("symmetric_within_allclose", _NEAR_SYMMETRIC, True),
    ("asymmetric_past_allclose", _FAR_SYMMETRIC, False),
    ("asymmetric", [[1.0, 2.0], [0.0, 3.0]], False),
    ("not_square", [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], False),
    ("nan_diagonal", [[NAN, 0.0], [0.0, 1.0]], False),
    ("nan_off_diagonal", [[1.0, NAN], [NAN, 2.0]], False),
    ("nan_one_side", [[1.0, NAN], [0.0, 2.0]], False),
    ("inf_diagonal", [[INF, 0.0], [0.0, 1.0]], False),
    ("minus_inf_diagonal", [[1.0, 0.0], [0.0, -INF]], False),
    ("inf_off_diagonal", [[1.0, INF], [INF, 2.0]], False),
    ("minus_inf_off_diagonal", [[1.0, -INF], [-INF, 2.0]], False),
    ("inf_one_side", [[1.0, INF], [0.0, 2.0]], False),
    ("inf_against_minus_inf", [[1.0, INF], [-INF, 2.0]], False),
    ("repeated_eigenvalue", np.diag([1.0, 1.0]), False),
    ("zero_eigenvalue", np.diag([0.0, 1.0]), False),
    # a spectrum inside [-1, 1] keeps the tolerance of scale 1
    ("small_spectrum", np.diag([7e-10, 0.5]), False),
    # the zero tolerance at scale 1 and 4, one ulp either side
    *((f"zero_tol_{sign}{scale:g}_{side}", np.diag([sign * v, scale]),
       side == "above")
      for scale in (1.0, 4.0) for sign in (1.0, -1.0)
      for side, v in (("below", np.nextafter(_tolerance(scale), 0.0)),
                      ("at", _tolerance(scale)),
                      ("above", np.nextafter(_tolerance(scale), 1.0)))),
)


@pytest.mark.parametrize("L, accepted", [t[1:] for t in FIBER_CHECK_CASES],
                         ids=[t[0] for t in FIBER_CHECK_CASES])
def test_fiber_checks_match_numpy_oracle(L, accepted):
    assert isinstance(assert_same_outcome(L), type) is not accepted


def test_fiber_checks_gap_tolerance_one_ulp_either_side():
    # with the largest eigenvalue 3, the tolerance is a gap two floats just
    # above it can have exactly; moving the upper one by one ulp moves the
    # gap to the nearest gaps either side
    tol = _tolerance(3.0)
    low = 2.0 ** -28
    assert low > tol and (low + tol) - low == tol
    outcomes = {}
    for side, high in (("below", np.nextafter(low + tol, 0.0)),
                       ("at", low + tol),
                       ("above", np.nextafter(low + tol, 1.0))):
        for sign in (1.0, -1.0):
            spectrum = sorted([sign * low, sign * high, 3.0])
            assert np.linalg.eigvalsh(np.diag(spectrum)).tolist() == spectrum
            outcomes[side, sign] = assert_same_outcome(np.diag(spectrum))
    rejected = {key for key, got in outcomes.items() if isinstance(got, type)}
    assert rejected == {("below", 1.0), ("below", -1.0), ("at", 1.0),
                        ("at", -1.0)}


def test_blowup_gradings_mixed_signature():
    base = BaseMorseData([BasePoint("q", 0,
                                    LinearFlowModel(np.diag([-2.0, 1.0])))])
    gens = blowup_critical_points(base)
    assert {(g.kind, g.gr) for g in gens} == {("u", 1), ("s", 1)}


def test_blowup_gradings_all_positive():
    base = BaseMorseData([BasePoint("q", 0,
                                    LinearFlowModel(np.diag([1.0, 2.0, 3.0])))])
    gens = blowup_critical_points(base)
    assert [(g.kind, g.gr) for g in gens] == [("s", 0), ("s", 1), ("s", 2)]


def test_blowup_gradings_two_base_points():
    fib = LinearFlowModel(np.diag([-1.0, 1.0]))
    base = BaseMorseData([BasePoint("q0", 0, fib), BasePoint("q1", 1, fib)])
    gens = blowup_critical_points(base)
    assert sorted((g.kind, g.gr) for g in gens) == [
        ("s", 1), ("s", 2), ("u", 1), ("u", 2)]


def test_single_point_model_ranks():
    # p positive, m negative eigenvalues: bar rank p+m, check p, hat m
    fib = LinearFlowModel(np.diag([-3.0, -1.0, 2.0, 4.0, 5.0]))
    base = BaseMorseData([BasePoint("q", 0, fib)])
    blocks = build_model_complexes(base)
    c = assemble(blocks)
    assert verify_d_squared(c)
    assert sum(homology(c, "bar").values()) == 5
    assert sum(homology(c, "check").values()) == 3
    assert sum(homology(c, "hat").values()) == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_rp_model_homology_and_les(n):
    rng = np.random.default_rng(100 + n)
    vals = np.sort(rng.uniform(0.5, 5.0, size=n))
    vals[: n // 2] *= -1
    vals = np.sort(vals)
    fib = LinearFlowModel(np.diag(vals))
    base = BaseMorseData([BasePoint("q", 0, fib)])
    blocks = build_model_complexes(base)
    c = assemble(blocks)
    assert verify_d_squared(c)
    bar = homology(c, "bar")
    # one class in each bar grading attained: the projective space answer
    assert sum(bar.values()) == n
    assert all(v == 1 for v in bar.values())
    assert sum(homology(c, "check").values()) == \
        np.sum(fib.eigenvalues > 0)
    assert sum(homology(c, "hat").values()) == np.sum(fib.eigenvalues < 0)
    assert verify_les_exact(c, les_maps(blocks))


def test_floer_anchor_tower():
    # 10 negative + 10 positive eigenvalues, anchored so that the stable
    # chain starts in grading 0
    vals = np.concatenate([np.arange(-10.0, 0.0), np.arange(1.0, 11.0)])
    fib = LinearFlowModel(np.diag(vals))
    base = BaseMorseData([BasePoint("q", 0, fib)])
    blocks = build_model_complexes(
        base, grading_shift=-int(np.sum(fib.eigenvalues < 0)))
    c = assemble(blocks)
    assert homology(c, "check") == {j: 1 for j in range(0, 10)}
    assert homology(c, "hat") == {j: 1 for j in range(-9, 1)}
    assert homology(c, "bar") == {j: 1 for j in range(-10, 10)}


def test_two_point_base_doubled_tower():
    # base circle with two critical points and zero base differential:
    # the towers simply double
    fib = LinearFlowModel(np.diag([-1.0, -0.5, 1.0, 2.0]))
    base = BaseMorseData(
        [BasePoint("q0", 0, fib), BasePoint("q1", 1, fib)],
        counts=F2Matrix.zero(2, 2),
    )
    blocks = build_model_complexes(base)
    c = assemble(blocks)
    assert sum(homology(c, "bar").values()) == 8


# -- integration ------------------------------------------------------------


def test_integrate_stationary_at_eigenvector():
    m = LinearFlowModel(np.diag([-1.0, 2.0, 3.0]))
    w3 = m.eigenvectors[:, 2]
    traj = integrate_blowup_flow(m, w3, 0.5, t_max=2.0, step=1e-3)
    assert np.allclose(traj.terminal_phi, w3, atol=1e-8)


def test_integrate_generic_converges_to_lowest():
    m = LinearFlowModel(np.diag([-1.0, 2.0]))
    phi0 = np.array([0.6, 0.8])
    traj = integrate_blowup_flow(m, phi0, 1.0, t_max=20.0, step=1e-3)
    assert abs(traj.terminal_lambda - (-1.0)) < 1e-6
    w1 = m.eigenvectors[:, 0]
    err = min(np.linalg.norm(traj.terminal_phi - w1),
              np.linalg.norm(traj.terminal_phi + w1))
    assert err < 1e-6
    # s grows like e^{t} since Lambda -> -1
    t_end = traj.times[-1]
    assert traj.ss[-1] > 1.0


def test_integrate_matches_closed_form():
    rng = np.random.default_rng(3)
    m = LinearFlowModel(random_symmetric(4, rng))
    phi0 = rng.normal(size=4)
    phi0 /= np.linalg.norm(phi0)
    traj = integrate_blowup_flow(m, phi0, 1.0, t_max=5.0, step=1e-3)
    sup = 0.0
    for t, phi in zip(traj.times[:: 200], traj.phis[:: 200]):
        exact = closed_form_phi(m, phi0, t)
        err = min(np.linalg.norm(phi - exact), np.linalg.norm(phi + exact))
        sup = max(sup, err)
    assert sup < 1e-6


def test_integrate_under_a_profiler_and_a_locals_tracer():
    # the sample buffer grows past its first rows while a profiler, or a
    # tracer that reads the frame's locals, holds references to it; the
    # trajectory is the unprofiled one bit for bit
    m = LinearFlowModel(np.diag([-1.0, 2.0]))
    args = (m, np.array([0.6, 0.8]), 1.0, 20.0, 1e-3)
    plain = integrate_blowup_flow(*args)
    assert len(plain.times) > _INITIAL_ROWS + 1

    def read_locals(frame, event, arg):
        frame.f_locals
        return read_locals

    def hook(frame, event, arg):
        if frame.f_code is integrate_blowup_flow.__code__:
            return read_locals
        return None

    profiled = cProfile.Profile().runcall(integrate_blowup_flow, *args)
    old = sys.gettrace()
    sys.settrace(hook)
    try:
        traced = integrate_blowup_flow(*args)
    finally:
        sys.settrace(old)
    for got in (profiled, traced):
        assert got.converged == plain.converged
        for name in ("times", "phis", "ss", "lambdas"):
            assert np.array_equal(getattr(got, name), getattr(plain, name))


def test_boundary_invariance():
    m = LinearFlowModel(np.diag([-1.0, 2.0]))
    traj = integrate_blowup_flow(m, np.array([0.6, 0.8]), 0.0,
                                 t_max=1.0, step=1e-3)
    assert np.all(traj.ss == 0.0)


def test_norm_preserved_after_renormalization():
    m = LinearFlowModel(np.diag([-1.0, 1.0, 4.0]))
    phi0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    traj = integrate_blowup_flow(m, phi0, 1.0, t_max=3.0, step=1e-3)
    norms = np.linalg.norm(traj.phis, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_step_bound_sides():
    # eigenvalues 4% apart: at h lambda_max = 0.99 * 1.5 the RK4 factors
    # still favor lambda = 1; at 0.99 * 1.7 they would favor 1.04 instead
    m = LinearFlowModel(np.diag([1.0, 1.04]))
    phi0 = np.array([0.6, 0.8])
    below = integrate_blowup_flow(m, phi0, 1.0, t_max=3000.0,
                                  step=0.99 * MAX_STEP_SPECTRAL / 1.04)
    assert below.converged
    assert abs(below.terminal_lambda - 1.0) < 1e-6
    with pytest.raises(StepTooLarge):
        integrate_blowup_flow(m, phi0, 1.0, t_max=3000.0,
                              step=1.01 * MAX_STEP_SPECTRAL / 1.04)


def test_long_horizon_memory_follows_steps_taken():
    # t_max / step is 1e9 steps; buffers sized from it would need ~15 GiB
    m = LinearFlowModel(np.diag([-1.0, 2.0]))
    started = time.monotonic()
    traj = integrate_blowup_flow(m, np.array([0.6, 0.8]), 1.0,
                                 t_max=1e6, step=1e-3)
    assert time.monotonic() - started < 2.0
    assert traj.converged
    assert len(traj.times) == 6703


def test_step_too_large():
    m = LinearFlowModel(np.diag([-40.0, 90.0]))
    with pytest.raises(StepTooLarge):
        integrate_blowup_flow(m, np.array([0.6, 0.8]), 1.0,
                              t_max=10.0, step=0.45)


def test_limiting_eigen_index():
    m = LinearFlowModel(np.diag([-1.0, 2.0, 3.0]))
    assert limiting_eigen_index(m, m.eigenvectors[:, 1]) == 2
    assert limiting_eigen_index(m, np.array([0.1, 0.2, 0.9])) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.floats(0.0, 20.0))
def test_eigenvector_signs_are_not_read(n, seed, t):
    # eigh fixes each eigenvector only up to sign, so no answer may depend
    # on the signs it returns
    rng = np.random.default_rng(seed)
    try:
        m = LinearFlowModel(random_symmetric(n, rng))
    except DegenerateSpectrum:
        return
    phi0 = rng.normal(size=n)
    phi0 /= np.linalg.norm(phi0)
    flipped = copy.copy(m)
    object.__setattr__(flipped, "eigenvectors",
                       m.eigenvectors * rng.choice([-1.0, 1.0], n))
    assert np.array_equal(closed_form_phi(flipped, phi0, t),
                          closed_form_phi(m, phi0, t))
    assert limiting_eigen_index(flipped, phi0) == limiting_eigen_index(m, phi0)


def test_bad_inputs_rejected():
    m = LinearFlowModel(np.diag([-1.0, 2.0]))
    with pytest.raises(ShapeMismatch):
        integrate_blowup_flow(m, np.array([1.0, 1.0]), 1.0, 1.0, 1e-3)
    with pytest.raises(InvalidInput, match="s0"):
        integrate_blowup_flow(m, np.array([1.0, 0.0]), -1.0, 1.0, 1e-3)
    for t_max, step in ((1.0, 0.0), (1.0, -1e-3), (1.0, float("nan")),
                        (1.0, float("inf")), (0.0, 1e-3), (-1.0, 1e-3),
                        (float("inf"), 1e-3), (1e300, 1e-300)):
        with pytest.raises(InvalidInput):
            integrate_blowup_flow(m, np.array([1.0, 0.0]), 1.0, t_max, step)


# -- reference: the nonlinear RK4 on the sphere ------------------------------


def reference_integrate(model, phi0, s0, t_max, step):
    """RK4 on phi' = -L phi + Lambda phi, s' = -Lambda s, one step at a time.

    Returns (times, phis, ss, lambdas, converged), renormalizing phi after
    every step and stopping by the same convergence rule.
    """
    L = model.L

    def field(p, sv):
        lam = float(p @ L @ p)
        return -L @ p + lam * p, -lam * sv

    phi = np.asarray(phi0, dtype=float)
    s = float(s0)
    h = step
    times, phis, ss = [0.0], [phi.copy()], [s]
    lambdas = [float(phi @ L @ phi)]
    quiet = 0
    converged = False
    for k in range(1, int(round(t_max / step)) + 1):
        k1p, k1s = field(phi, s)
        k2p, k2s = field(phi + 0.5 * h * k1p, s + 0.5 * h * k1s)
        k3p, k3s = field(phi + 0.5 * h * k2p, s + 0.5 * h * k2s)
        k4p, k4s = field(phi + h * k3p, s + h * k3s)
        phi = phi + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        s = s + (h / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
        phi = phi / np.linalg.norm(phi)
        s = max(s, 0.0)
        times.append(k * h)
        phis.append(phi.copy())
        ss.append(s)
        lambdas.append(float(phi @ L @ phi))
        speed = np.linalg.norm(field(phi, s)[0])
        quiet = quiet + 1 if speed < CONVERGENCE_SPEED else 0
        if quiet >= CONVERGENCE_STEPS:
            converged = True
            break
    return (np.array(times), np.array(phis), np.array(ss),
            np.array(lambdas), converged)


def criterion3_model(rng, n):
    """Acceptance criterion 3 spectrum: spread over [-2, 2], 0.3 off zero."""
    vecs, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spread = 2.0 * np.linspace(-1.0, 1.0, n) + rng.uniform(-0.1, 0.1, n)
    vals = np.sort(spread + np.sign(spread + 1e-9) * 0.3)
    return LinearFlowModel(vecs @ np.diag(vals) @ vecs.T)


def wide_model(rng, n):
    """Eigenvalues 0.6 apart (up to 0.1), 0.3 off zero: a wide spectrum."""
    vecs, _ = np.linalg.qr(rng.standard_normal((n, n)))
    half = 0.3 * (n - 1)
    spread = np.linspace(-half, half, n) + rng.uniform(-0.05, 0.05, n)
    vals = np.sort(spread + np.sign(spread + 1e-9) * 0.3)
    return LinearFlowModel(vecs @ np.diag(vals) @ vecs.T)


def assert_matches_reference(model, phi0, s0, t_max, step):
    times, phis, ss, lambdas, converged = reference_integrate(
        model, phi0, s0, t_max, step)
    traj = integrate_blowup_flow(model, phi0, s0, t_max, step)
    assert converged and traj.converged
    assert len(traj.times) == len(times)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.phis - phis)) <= 1e-8
    assert np.max(np.abs(traj.lambdas - lambdas)) <= 1e-8
    assert np.max(np.abs(traj.ss - ss) / ss) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
def test_linear_lift_matches_nonlinear_reference(n):
    rng = np.random.default_rng(700 + n)
    model = criterion3_model(rng, n) if n <= 6 else wide_model(rng, n)
    phi0 = rng.standard_normal(n)
    phi0 /= np.linalg.norm(phi0)
    assert_matches_reference(model, phi0, float(rng.uniform(0.0, 1.0)),
                             t_max=40.0, step=2e-3)


def test_linear_lift_matches_reference_leaving_a_saddle():
    # phi0 is 3e-9 off the eigenvector of 2: the speed stays under the
    # threshold for about 50 steps, then grows, so the quiet count must
    # restart before the flow settles on the eigenvector of -1
    eps = 3e-9
    assert_matches_reference(LinearFlowModel(np.diag([-1.0, 2.0])),
                             np.array([eps, np.sqrt(1.0 - eps * eps)]),
                             0.5, t_max=20.0, step=1e-3)


# -- oracle: the integrator one RK4 step per iteration -----------------------
# integrate_blowup_flow as it stood before block stepping, kept verbatim
# apart from its name.  Block stepping forms P^j phi in one product instead
# of j renormalized steps, so samples may differ in the last digits but
# step counts and convergence must not.


def oracle_integrate_stepwise(model: LinearFlowModel, phi0, s0: float,
                              t_max: float, step: float) -> FlowTrajectory:
    """Integrate the blown-up flow by classical RK4 on its linear lift.

    The lift psi' = -L psi projects to the flow of phi = psi / |psi|, and
    d/dt log|psi| = -Lambda(phi), so s(t) = s0 |psi(t)| / |psi(0)| needs no
    ODE of its own.  One RK4 step of the lift is the fixed matrix
    P(h) = sum_{k<=4} (-hL)^k / k!, built once from L alone.  Each step
    maps phi to P phi, renormalizes it to the unit sphere and multiplies s
    by the norm it removed.  Integration stops early once
    ||phi'|| = ||L phi - Lambda(phi) phi|| stays below the convergence
    threshold for 100 consecutive steps.

    ``s0`` must be nonnegative, and ``t_max`` and ``step`` finite and
    positive (InvalidInput).
    ``step`` times the largest |eigenvalue| must not exceed
    MAX_STEP_SPECTRAL (StepTooLarge).  Sample storage grows with the steps
    actually taken, not with t_max / step.
    """
    phi = np.asarray(phi0, dtype=float)
    if phi.shape != (model.n,):
        raise ShapeMismatch("phi0 has wrong dimension")
    if abs(np.linalg.norm(phi) - 1.0) > 1e-9:
        raise ShapeMismatch("phi0 must be a unit vector")
    if s0 < 0:
        raise InvalidInput(f"s0 must be nonnegative, got {s0!r}")
    for name, value in (("t_max", t_max), ("step", step)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidInput(f"{name} must be finite and positive, "
                               f"got {value!r}")
    if not math.isfinite(t_max / step):
        raise InvalidInput("t_max / step overflows")
    spectral = step * float(np.max(np.abs(model.eigenvalues)))
    if spectral > MAX_STEP_SPECTRAL:
        raise StepTooLarge(
            f"step * max|eigenvalue| = {spectral:.4g} exceeds "
            f"{MAX_STEP_SPECTRAL}; reduce the step size"
        )
    L = model.L
    n = model.n
    nsteps = int(round(t_max / step))
    eye = np.eye(n)
    a = -step * L
    prop = eye + a / 4.0
    for j in (3.0, 2.0, 1.0):  # Horner form of the degree-4 Taylor sum
        prop = eye + (a / j) @ prop
    # one row per sample: phi, then s, then Lambda(phi)
    rows = min(nsteps, _INITIAL_ROWS) + 1
    samples = np.empty((rows, n + 2))
    s = float(s0)
    samples[0, :n] = phi
    samples[0, n] = s
    samples[0, n + 1] = phi @ L @ phi
    quiet = 0
    converged = False
    k = 0
    for k in range(1, nsteps + 1):
        psi = prop @ phi
        norm = math.sqrt(psi @ psi)
        phi = psi / norm
        s *= norm
        lphi = L @ phi
        lam = phi @ lphi
        if k == rows:
            rows = min(2 * rows, nsteps + 1)
            grown = np.empty((rows, n + 2))
            grown[:k] = samples
            samples = grown
        samples[k, :n] = phi
        samples[k, n] = s
        samples[k, n + 1] = lam
        residual = lphi - lam * phi
        if math.sqrt(residual @ residual) < CONVERGENCE_SPEED:
            quiet += 1
            if quiet >= CONVERGENCE_STEPS:
                converged = True
                break
        else:
            quiet = 0
    samples = samples[:k + 1]
    return FlowTrajectory(np.arange(k + 1) * step, samples[:, :n],
                          samples[:, n], samples[:, n + 1], converged)


def assert_matches_stepwise(model, phi0, s0, t_max, step, tol=1e-12):
    want = oracle_integrate_stepwise(model, phi0, s0, t_max, step)
    got = integrate_blowup_flow(model, phi0, s0, t_max, step)
    assert len(got.times) == len(want.times)
    assert got.converged == want.converged
    assert np.array_equal(got.times, want.times)
    assert np.max(np.abs(got.phis - want.phis)) <= tol
    assert np.max(np.abs(got.lambdas - want.lambdas)) <= tol
    scale = np.where(want.ss > 0, want.ss, 1.0)
    assert np.max(np.abs(got.ss - want.ss) / scale) <= tol
    return got


@pytest.mark.parametrize("seed", [1, 7, 20261017])
def test_block_stepping_matches_stepwise_oracle(seed):
    # the bench flow distribution: criterion-3 spectra for n = 2..6 and a
    # wide spectrum for n = 8..16, t_max 40 at step 2e-3
    rng = np.random.default_rng(seed)
    sizes = [2, 3, 4, 5, 6] + [int(rng.integers(8, 17)) for _ in range(2)]
    for n in sizes:
        model = criterion3_model(rng, n) if n <= 6 else wide_model(rng, n)
        phi0 = rng.standard_normal(n)
        phi0 /= np.linalg.norm(phi0)
        traj = assert_matches_stepwise(model, phi0,
                                       float(rng.uniform(0.0, 1.0)),
                                       t_max=40.0, step=2e-3)
        assert traj.converged


#: (step * max|eigenvalue|, block length) one step on each side of
#: MAX_STEP_SPECTRAL / 2, where the block is halved
BLOCK_SIDES = [(0.99 * MAX_STEP_SPECTRAL / 2, BLOCK_STEPS),
               (1.01 * MAX_STEP_SPECTRAL / 2, BLOCK_STEPS // 2)]


@pytest.mark.parametrize("nsteps", [0, 3, 8, 16, 17, 1025, 1029, 2053])
def test_block_boundaries_match_stepwise_oracle(nsteps):
    # no step, fewer steps than one block, exact blocks of either length,
    # one step past a long block, and step counts that are not multiples
    # of the block and reach past the buffer's 1025 rows (one step past,
    # exactly) and its 2050 rows (a block spans the doubling).  The two
    # lowest eigenvalues are 1e-3 apart, so none of them converges and
    # every step is taken
    m = LinearFlowModel(np.diag([-0.3, -0.299, 2.0]))
    phi0 = np.array([0.6, 0.48, 0.64])
    for spectral, _ in BLOCK_SIDES:
        step = spectral / 2.0
        traj = assert_matches_stepwise(m, phi0, 0.5,
                                       t_max=(nsteps + 0.1) * step,
                                       step=step)
        assert not traj.converged
        assert len(traj.times) == nsteps + 1


def test_convergence_mid_block_ends_at_the_quiet_step():
    # at an eigenvector every step is quiet, so the rule fires at step 100,
    # in the middle of a block of either length.  On the eigenvector of 2,
    # P^16 shrinks phi to 3.7e-4 of itself, so each 16-step block rounds s
    # by up to eps / 3.7e-4: the tolerance is that of the step limit
    m = LinearFlowModel(np.diag([-1.0, 2.0, 3.0]))
    w2 = m.eigenvectors[:, 1]
    for spectral, block in BLOCK_SIDES:
        assert CONVERGENCE_STEPS % block
        step = spectral / 3.0
        traj = assert_matches_stepwise(m, w2, 0.5, t_max=100.0, step=step,
                                       tol=1e-11)
        assert traj.converged
        assert len(traj.times) == CONVERGENCE_STEPS + 1
        # a generic start: the quiet run begins mid-flow and ends mid-block
        traj = assert_matches_stepwise(m, np.array([0.6, 0.0, 0.8]), 1.0,
                                       t_max=100.0, step=step, tol=1e-11)
        assert traj.converged
        assert (len(traj.times) - 1) % block


@pytest.mark.parametrize("spectral", [1.49, 0.74])
def test_blocks_keep_stepwise_accuracy_at_the_step_limit(spectral):
    # eigenvalues 4% apart settle slowly, so a block's rounding has long
    # to add up: 8-step blocks at the step limit and 16-step blocks just
    # below half of it stay within 1e-11 of stepping one step at a time,
    # where 16-step blocks at 1.49 drift by about 6.5e-8
    m = LinearFlowModel(np.diag([1.0, 1.04]))
    phi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    step = spectral / 1.04
    want = oracle_integrate_stepwise(m, phi0, 1.0, 3000.0, step)
    got = integrate_blowup_flow(m, phi0, 1.0, 3000.0, step)
    assert got.converged and want.converged
    assert len(got.times) == len(want.times)
    assert np.max(np.abs(got.phis - want.phis)) <= 1e-11


def test_sample_buffer_grows_in_place():
    # the n = 16 body of test_linear_lift_matches_nonlinear_reference keeps
    # 15518 samples, past four doublings of the buffer and filling 15518
    # of the 16400 rows of the last, so the buffer itself is under 1.06 x
    # the samples kept.  Growing it by a copy would hold the old and the
    # new buffer at once, a peak of about 1.6 x
    rng = np.random.default_rng(716)
    model = wide_model(rng, 16)
    phi0 = rng.standard_normal(16)
    phi0 /= np.linalg.norm(phi0)
    s0 = float(rng.uniform(0.0, 1.0))
    tracemalloc.start()
    try:
        traj = integrate_blowup_flow(model, phi0, s0, t_max=40.0, step=2e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = len(traj.times) * (16 + 2) * 8
    assert peak <= 1.35 * kept
    # the trajectory views a buffer cut to the steps taken
    assert traj.phis.base.nbytes == kept


@pytest.mark.parametrize("stride", [1, 7, 10, 100, 1000])
def test_to_json_stride_ends_on_last_sample(stride):
    m = LinearFlowModel(np.diag([-1.0, 2.0, 3.0]))
    traj = integrate_blowup_flow(m, m.eigenvectors[:, 1], 0.5,
                                 t_max=2.0, step=1e-3)
    samples = traj.to_json(stride)["samples"]
    assert samples[-1]["t"] == float(traj.times[-1])
    assert samples[-1]["phi"] == traj.terminal_phi.tolist()
    assert samples[-1]["lambda"] == traj.terminal_lambda
    assert [x["t"] for x in samples[:-1]] == \
        traj.times[::stride][:len(samples) - 1].tolist()
