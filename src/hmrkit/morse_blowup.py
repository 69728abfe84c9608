"""Finite-dimensional blow-up model of a linear gradient flow.

A symmetric matrix L with simple, zero-free spectrum generates the flow

    phi' = -L phi + Lambda(phi) phi,      s' = -Lambda(phi) s,

on the unit sphere of spinors times [0, infinity), where
Lambda(phi) = <phi, L phi>.  Its critical points on the sphere are the unit
eigenvectors; descending to projective space they form a perfect Morse
function with the eigenvector of the i-th smallest eigenvalue in index
i - 1.  Over a base Morse flow with trivialized normal bundle, each base
critical point q contributes one blow-up generator per eigenvalue: a
boundary-stable one of grading ind(q) + i - 1 when the eigenvalue is
positive, a boundary-unstable one of grading ind(q) + i when it is
negative.  Fiberwise trajectory counts between adjacent eigenvectors always
cancel mod 2 (the two half-circles of the connecting great circle), so the
single-fiber model has vanishing differentials; cross-base terms come from
the supplied base trajectory counts.

:func:`closed_form_phi` uses the eigendata and serves as the independent
oracle for :func:`integrate_blowup_flow`, which builds its RK4 step from L
alone.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import BlockDifferentials, Generator
from .errors import (DegenerateSpectrum, GradingViolation, ShapeMismatch,
                     StepTooLarge, check_flow_scalars)
from .f2lin import COUNTS_SHAPE, F2Matrix

#: convergence is declared when ||phi'|| stays below this for 100 steps
CONVERGENCE_SPEED = 1e-8
CONVERGENCE_STEPS = 100
#: largest accepted step * max|eigenvalue|.  The RK4 factor
#: p(x) = sum_{k<=4} x^k / k! of one eigenmode, x = -h lambda, decreases in
#: h lambda only up to 1.596; past that the modes can swap order, and with
#: them the limit of the flow.
MAX_STEP_SPECTRAL = 1.5
#: eigenvalues within 10 * SPECTRAL_TOLERANCE * max(1, max|eigenvalue|)
#: of zero or of each other make the spectrum degenerate
SPECTRAL_TOLERANCE = 1e-10
#: steps advanced by one product with the stacked powers of the RK4 step;
#: half as many when step * max|eigenvalue| > MAX_STEP_SPECTRAL / 2
BLOCK_STEPS = 16
#: sample rows allocated up front; the buffer doubles as steps are taken
_INITIAL_ROWS = 1024


class LinearFlowModel:
    """Symmetric matrix with simple nonzero spectrum, plus its eigendata as
    ``np.linalg.eigh`` returns it.  The closed form and the limiting eigen
    index read an eigenvector only through V (V^T phi0) and |V^T phi0|, so
    no answer depends on a column's sign.  :meth:`__post_init__` checks
    and decomposes L, under a name ``bench/tracing.py`` wraps."""

    __slots__ = ("L", "eigenvalues", "eigenvectors")

    def __init__(self, L):
        self.L = L
        self.__post_init__()

    def __post_init__(self):
        a = np.asarray(self.L, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatch("L must be square")
        # an exactly symmetric L, the common case, skips np.allclose
        if not ((a == a.T).all() or np.allclose(a, a.T, atol=1e-12)):
            raise ShapeMismatch("L must be symmetric")
        self.L = a
        vals, vecs = np.linalg.eigh(a)
        # n is small: plain floats check the spectrum faster than numpy
        spectrum = vals.tolist()
        # eigh turns an infinite entry into NaN eigenvalues
        if not all(map(math.isfinite, spectrum)):
            raise DegenerateSpectrum("spectrum is not finite")
        gap_tol = 10.0 * SPECTRAL_TOLERANCE * max(1.0, max(map(abs, spectrum)))
        if any(abs(v) <= gap_tol for v in spectrum):
            raise DegenerateSpectrum("spectrum contains (near-)zero")
        if any(hi - lo <= gap_tol for lo, hi in zip(spectrum, spectrum[1:])):
            raise DegenerateSpectrum("spectrum is not simple")
        self.eigenvalues, self.eigenvectors = vals, vecs

    @property
    def n(self) -> int:
        return self.L.shape[0]


class BasePoint:
    """A base Morse critical point with its normal fiber matrix."""

    __slots__ = ("label", "ind_q", "fiber")

    def __init__(self, label: str, ind_q: int, fiber: LinearFlowModel):
        self.label, self.ind_q, self.fiber = label, ind_q, fiber


class BaseMorseData:
    """Base critical points plus optional mod-2 base trajectory counts.

    ``counts`` is indexed rows-by-target, columns-by-source over the
    ``points`` list; nonzero entries must drop the base index by one.
    """

    __slots__ = ("points", "counts")

    def __init__(self, points, counts: F2Matrix | None = None):
        self.points, self.counts = tuple(points), counts
        if counts is not None:
            npts = len(self.points)
            if (counts.rows, counts.cols) != (npts, npts):
                raise ShapeMismatch(COUNTS_SHAPE)
            for (r, c) in counts.ones:
                if self.points[c].ind_q - self.points[r].ind_q != 1:
                    raise GradingViolation(
                        "base count entry does not drop the index by 1"
                    )


def blowup_critical_points(base: BaseMorseData,
                           grading_shift: int = 0) -> list[Generator]:
    """All blow-up generators of the model, one per (base point, eigenvalue).

    Eigenvalue lambda_i(q) > 0 yields a boundary-stable generator of
    grading ind(q) + i - 1; lambda_i(q) < 0 a boundary-unstable one of
    grading ind(q) + i.  ``grading_shift`` translates every grading (used
    to re-anchor the Morse gradings to a Floer-style convention).
    """
    out = []
    for q in base.points:
        for i, lam in enumerate(q.fiber.eigenvalues.tolist(), start=1):
            if lam > 0:
                out.append(Generator(f"{q.label}:w{i}", "s",
                                     q.ind_q + i - 1 + grading_shift))
            else:
                out.append(Generator(f"{q.label}:w{i}", "u",
                                     q.ind_q + i + grading_shift))
    return out


def build_model_complexes(base: BaseMorseData,
                          grading_shift: int = 0) -> BlockDifferentials:
    """Block differentials of the blow-up model over a trivialized bundle.

    The model has no interior generators.  Fiberwise counts vanish mod 2,
    so the only differentials are the base counts tensored with the
    identity on the eigen index, which land in the same-kind bar blocks.
    Cross-kind terms would require a nontrivial normal-bundle connection,
    which this model does not carry.
    """
    if len({p.fiber.n for p in base.points}) > 1 and base.counts is not None \
            and not base.counts.is_zero():
        raise ShapeMismatch(
            "base counts require a common fiber dimension across points"
        )
    gens = blowup_critical_points(base, grading_shift)
    keys = [(pi, i) for pi, q in enumerate(base.points)
            for i in range(1, q.fiber.n + 1)]
    by_kind = {"s": [], "u": []}
    pos = {}  # (point index, eigen index) -> (kind, position in kind)
    for key, g in zip(keys, gens):
        pos[key] = (g.kind, len(by_kind[g.kind]))
        by_kind[g.kind].append(g)

    bar = {"s": [], "u": []}
    if base.counts is not None:
        for (tr, sc) in base.counts.ones:  # base trajectory q_sc -> q_tr
            for i in range(1, base.points[sc].fiber.n + 1):
                (kind, src), (tgt_kind, tgt) = pos[(sc, i)], pos[(tr, i)]
                if kind != tgt_kind:
                    raise GradingViolation(
                        "eigenvalue sign pattern differs across a base "
                        "trajectory; trivialized-bundle model cannot "
                        "couple stable to unstable"
                    )
                bar[kind].append((tgt, src))
    ns, nu = len(by_kind["s"]), len(by_kind["u"])
    z = F2Matrix.zero
    return BlockDifferentials(
        gens_o=(), gens_s=tuple(by_kind["s"]), gens_u=tuple(by_kind["u"]),
        d_oo=z(0, 0), d_os=z(ns, 0), d_uo=z(0, nu), d_us=z(ns, nu),
        bar_ss=F2Matrix.from_entries(ns, ns, bar["s"]),
        bar_us=z(ns, nu),
        bar_su=z(nu, ns),
        bar_uu=F2Matrix.from_entries(nu, nu, bar["u"]),
    )


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------


class FlowTrajectory:
    """A sampled trajectory of the blown-up flow: N sample times, the unit
    vectors phi (N x n), the nonnegative s and Lambda(phi) at each, and
    whether the convergence rule fired."""

    __slots__ = ("times", "phis", "ss", "lambdas", "converged")

    def __init__(self, times: np.ndarray, phis: np.ndarray, ss: np.ndarray,
                 lambdas: np.ndarray, converged: bool):
        self.times, self.phis, self.ss = times, phis, ss
        self.lambdas, self.converged = lambdas, converged

    @property
    def terminal_phi(self) -> np.ndarray:
        return self.phis[-1]

    @property
    def terminal_lambda(self) -> float:
        return float(self.lambdas[-1])

    def to_json(self, stride: int = 1) -> dict:
        idx = list(range(0, len(self.times), stride))
        if idx[-1] != len(self.times) - 1:
            idx.append(len(self.times) - 1)
        return {
            "converged": self.converged,
            "samples": [
                {
                    "t": float(self.times[i]),
                    "phi": [float(x) for x in self.phis[i]],
                    "s": float(self.ss[i]),
                    "lambda": float(self.lambdas[i]),
                }
                for i in idx
            ],
        }


def integrate_blowup_flow(model: LinearFlowModel, phi0, s0: float,
                          t_max: float, step: float) -> FlowTrajectory:
    """Integrate the blown-up flow by classical RK4 on its linear lift.

    The lift psi' = -L psi projects to the flow of phi = psi / |psi|, and
    d/dt log|psi| = -Lambda(phi), so s(t) = s0 |psi(t)| / |psi(0)| needs no
    ODE of its own.  One RK4 step of the lift is the fixed matrix
    P(h) = sum_{k<=4} (-hL)^k / k!, built once from L alone together with
    its stacked powers [P - I; P^2 - I; ...; P^B - I].  A block of up to
    B steps is one product with that stack: step j of the block is
    phi_j = P^j phi / |P^j phi| and s_j = s |P^j phi|, with phi the unit
    vector the block starts from.  B is BLOCK_STEPS, or half of it when
    step * max|eigenvalue| > MAX_STEP_SPECTRAL / 2: the rounding of
    phi + (P^j - I) phi grows like eps / p(-h lambda)^B, with p the RK4
    factor of one eigenmode, and halving B at half the step limit keeps it
    within what 8 steps reach at the limit.  Integration stops early once
    ||phi'|| = ||L phi - Lambda(phi) phi|| stays below the convergence
    threshold for 100 consecutive steps; every step of a block is checked,
    and the trajectory ends at the step where the rule fires, not at the
    end of its block.

    ``s0`` must be nonnegative, and ``t_max`` and ``step`` finite and
    positive (InvalidInput, from :func:`hmrkit.errors.check_flow_scalars`).
    ``step`` times the largest |eigenvalue| must not exceed
    MAX_STEP_SPECTRAL (StepTooLarge).  Sample storage grows with the steps
    actually taken, not with t_max / step: one buffer doubles in place and
    is cut to the steps taken at the end, so an old and a new copy are
    never both alive.
    """
    phi = np.asarray(phi0, dtype=float)
    if phi.shape != (model.n,):
        raise ShapeMismatch("phi0 has wrong dimension")
    if abs(np.linalg.norm(phi) - 1.0) > 1e-9:
        raise ShapeMismatch("phi0 must be a unit vector")
    check_flow_scalars(s0, t_max, step)
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
    # [P - I; P^2 - I; ...; P^B - I], (B n) x n.  The offsets round
    # relative to their own small size, not to I: stacked P^j drifted up
    # to 1e-11 from stepping by P on flows that settle slowly.
    offset = prop - eye
    powers = [offset]
    block_steps = BLOCK_STEPS if spectral <= MAX_STEP_SPECTRAL / 2 \
        else BLOCK_STEPS // 2
    for _ in range(block_steps - 1):
        powers.append(offset + powers[-1] + offset @ powers[-1])
    stacked = np.concatenate(powers)
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
    while k < nsteps and not converged:
        b = min(block_steps, nsteps - k)
        if k + b >= rows:
            # in place, with no view of the buffer alive here or at the
            # final cut; refcheck=False, since a profiler or a tracer that
            # reads the frame's locals holds plain references to it
            rows = min(2 * rows, nsteps + 1)
            samples.resize((rows, n + 2), refcheck=False)
        # phi is a unit vector, so |P^j phi| is the whole growth of |psi|
        # over the first j steps of the block
        psi = (stacked[:b * n] @ phi).reshape(b, n)
        psi += phi  # P^j phi = phi + (P^j - I) phi
        norms = np.sqrt(np.einsum("ij,ij->i", psi, psi))
        phis = psi / norms[:, None]
        lphis = phis @ L.T  # row j is L phi_j
        lams = np.einsum("ij,ij->i", phis, lphis)
        residual = lphis - lams[:, None] * phis
        quiet_flags = np.einsum("ij,ij->i", residual, residual) \
            < CONVERGENCE_SPEED ** 2
        block = slice(k + 1, k + b + 1)  # an index, not a view
        samples[block, :n] = phis
        samples[block, n] = s * norms
        samples[block, n + 1] = lams
        for j, flag in enumerate(quiet_flags.tolist(), start=1):
            quiet = quiet + 1 if flag else 0
            if quiet >= CONVERGENCE_STEPS:
                converged = True
                b = j
                break
        k += b
        phi = phis[b - 1]
        s = float(samples[k, n])
    samples.resize((k + 1, n + 2), refcheck=False)
    return FlowTrajectory(np.arange(k + 1) * step, samples[:, :n],
                          samples[:, n], samples[:, n + 1], converged)


def closed_form_phi(model: LinearFlowModel, phi0, t: float) -> np.ndarray:
    """The exact solution: e^{-Lt} phi0 renormalized to the unit sphere."""
    phi0 = np.asarray(phi0, dtype=float)
    coeffs = model.eigenvectors.T @ phi0
    # subtract the dominant (smallest-eigenvalue-with-weight) exponent to
    # avoid overflow; normalization cancels the common factor
    active = np.abs(coeffs) > 1e-14
    lam = model.eigenvalues
    lam0 = np.min(lam[active])
    scaled = coeffs * np.exp(-(lam - lam0) * t)
    x = model.eigenvectors @ scaled
    return x / np.linalg.norm(x)


def limiting_eigen_index(model: LinearFlowModel, phi0) -> int:
    """1-based index of the eigenvalue the flow from phi0 converges to.

    The limit is the eigenvector of the smallest eigenvalue with nonzero
    weight in phi0.
    """
    coeffs = model.eigenvectors.T @ np.asarray(phi0, dtype=float)
    for i, c in enumerate(coeffs):
        if abs(c) > 1e-12:
            return i + 1
    raise ShapeMismatch("phi0 is numerically zero")
