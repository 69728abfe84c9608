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

The flow is integrated on its linear lift psi' = -L psi: phi = psi / |psi|,
and s = s0 |psi(t)| / |psi(0)| because d/dt log|psi| = -Lambda(phi).  One
classical RK4 step of the lift is the fixed matrix P(h) = sum_{k<=4}
(-hL)^k / k!, so a step is one matrix-vector product and a
renormalization.  The step h must satisfy h max|lambda| <= 1.5, inside the
range h lambda < 1.596 where P keeps the eigenmodes in order.
``closed_form_phi`` uses the eigendata and serves as the independent
oracle; the integrator builds P from L alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .complexes import BlockDifferentials, Generator
from .errors import (DegenerateSpectrum, GradingViolation, InvalidInput,
                     ShapeMismatch, StepTooLarge)
from .f2lin import F2Matrix, json_entries

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
#: sample rows allocated up front; the buffer doubles as steps are taken
_INITIAL_ROWS = 1024


@dataclass(frozen=True)
class LinearFlowModel:
    """Symmetric matrix with simple nonzero spectrum, plus its eigendata."""

    L: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)  # columns

    def __post_init__(self):
        a = np.asarray(self.L, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeMismatch("L must be square")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ShapeMismatch("L must be symmetric")
        object.__setattr__(self, "L", a)
        vals, vecs = np.linalg.eigh(a)
        # re-orthogonalize defensively; eigh is already orthogonal but the
        # index classification must not depend on solver internals
        vecs, _ = np.linalg.qr(vecs)
        scale = max(1.0, float(np.max(np.abs(vals))))
        gap_tol = 10.0 * SPECTRAL_TOLERANCE * scale
        if np.any(np.abs(vals) <= gap_tol):
            raise DegenerateSpectrum("spectrum contains (near-)zero")
        if vals.size > 1 and np.min(np.diff(vals)) <= gap_tol:
            raise DegenerateSpectrum("spectrum is not simple")
        # deterministic sign: first coordinate of significant size positive
        for k in range(vecs.shape[1]):
            col = vecs[:, k]
            lead = col[np.argmax(np.abs(col) > 1e-8)]
            if lead < 0:
                vecs[:, k] = -col
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.L.shape[0]


@dataclass(frozen=True)
class BasePoint:
    """A base Morse critical point with its normal fiber matrix."""

    label: str
    ind_q: int
    fiber: LinearFlowModel


_COUNTS_SHAPE = "counts shape must match point count"


@dataclass(frozen=True)
class BaseMorseData:
    """Base critical points plus optional mod-2 base trajectory counts.

    ``counts`` is indexed rows-by-target, columns-by-source over the
    ``points`` list; nonzero entries must drop the base index by one.
    """

    points: tuple
    counts: Optional[F2Matrix] = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.counts is not None:
            npts = len(self.points)
            if (self.counts.rows, self.counts.cols) != (npts, npts):
                raise ShapeMismatch(_COUNTS_SHAPE)
            for (r, c) in self.counts.ones:
                if self.points[c].ind_q - self.points[r].ind_q != 1:
                    raise GradingViolation(
                        "base count entry does not drop the index by 1"
                    )


def read_counts(obj: dict, points: int) -> F2Matrix:
    """Base counts for ``points`` base points, read from JSON.  The
    positions are checked against the declared shape, and that shape
    against the point count, before any row is built: no allocation is
    sized by an outside shape."""
    rows, cols, ones = json_entries(obj)
    if (rows, cols) != (points, points):
        raise ShapeMismatch(_COUNTS_SHAPE)
    return F2Matrix.from_entries(rows, cols, ones)


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
        for i, lam in enumerate(q.fiber.eigenvalues, start=1):
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


@dataclass(frozen=True)
class FlowTrajectory:
    """A sampled trajectory of the blown-up flow."""

    times: np.ndarray
    phis: np.ndarray      # shape (N, n), unit vectors
    ss: np.ndarray        # shape (N,), nonnegative
    lambdas: np.ndarray   # Lambda(phi(t)) samples
    converged: bool

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
    P(h) = sum_{k<=4} (-hL)^k / k!, built once from L alone.  Each step
    maps phi to P phi, renormalizes it to the unit sphere and multiplies s
    by the norm it removed.  Integration stops early once
    ||phi'|| = ||L phi - Lambda(phi) phi|| stays below the convergence
    threshold for 100 consecutive steps.

    ``t_max`` and ``step`` must be finite and positive (InvalidInput).
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
        raise ShapeMismatch("s0 must be nonnegative")
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
