"""Divergences between Gaussian beliefs and their incremental algebra.

The workhorse is the square-root symmetrized KL divergence

    d(P, Q) = sqrt( (KL(P||Q) + KL(Q||P)) / 2 )

which for Gaussians has the closed form

    d(P, Q) = 0.5 * sqrt( dmu^T (Sp^-1 + Sq^-1) dmu
                          + tr(Sq^-1 Sp) + tr(Sp^-1 Sq) - d_p - d_q ).

Beliefs over different variable sets are first aligned on the intersection of
their variable ids (exact Gaussian marginals); heading differences are
wrapped.  A cheap structural alternative orders candidates by how much their
data associations differ, without ever producing a thresholdable scalar.

The incremental block implements the update algebra: how the squared distance
of a belief pair changes when both sides absorb a measurement update, the
distribution of the resulting mean increment, and first/second moments of the
quadratic form that ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussian import as_spd, spd_inverse, spd_logdet, spd_solve
from .beliefs import (
    GaussianState,
    MeasurementSet,
    StepRecord,
    canonical_order,
    da_diff,
    wrapped_diff,
)
from .errors import IncompatibleStates, InvalidInput

__all__ = [
    "align",
    "kl_gaussian",
    "d_sqrt_j",
    "d_da",
    "incremental_delta",
    "delta_quadratic",
    "zeta_distribution",
    "gaussian_quadratic_moments",
    "check_chi_squared_conditions",
    "ZetaDistribution",
    "ChiSquaredCheck",
]


def align(a: GaussianState, b: GaussianState) -> tuple[GaussianState, GaussianState]:
    """Marginalize both states onto their common variables (canonical order)."""
    common = [v for v in a.index.vars if v in b.index]
    if not common:
        raise IncompatibleStates("states share no variables")
    ordered = canonical_order(common)
    return a.marginal(ordered), b.marginal(ordered)


def kl_gaussian_moments(diff: np.ndarray, cov_p: np.ndarray,
                        cov_q: np.ndarray) -> float:
    """KL(P || Q) from the mean difference and the two covariances.

    0.5 * [ log det(Sq)/det(Sp) - d + tr(Sq^-1 Sp) + dmu^T Sq^-1 dmu ]
    """
    diff = np.atleast_1d(np.asarray(diff, dtype=float))
    cov_p = np.atleast_2d(np.asarray(cov_p, dtype=float))
    cov_q = np.atleast_2d(np.asarray(cov_q, dtype=float))
    d = diff.size
    sq_inv = spd_inverse(cov_q)
    val = 0.5 * (
        spd_logdet(cov_q) - spd_logdet(cov_p) - d
        + float(np.trace(sq_inv @ cov_p))
        + float(diff @ sq_inv @ diff)
    )
    return max(val, 0.0)


def sqrt_j_moments(diff: np.ndarray, cov_p: np.ndarray,
                   cov_q: np.ndarray) -> float:
    """Square-root symmetrized KL from moments; the kernel behind d_sqrt_j.

    Satisfies sqrt_j_moments(...)^2 == 0.5*KL(P||Q) + 0.5*KL(Q||P).
    """
    diff = np.atleast_1d(np.asarray(diff, dtype=float))
    cov_p = np.atleast_2d(np.asarray(cov_p, dtype=float))
    cov_q = np.atleast_2d(np.asarray(cov_q, dtype=float))
    d = diff.size
    sp_inv = spd_inverse(cov_p)
    sq_inv = spd_inverse(cov_q)
    inner = (
        float(diff @ (sp_inv + sq_inv) @ diff)
        + float(np.trace(sq_inv @ cov_p))
        + float(np.trace(sp_inv @ cov_q))
        - 2.0 * d
    )
    return 0.5 * float(np.sqrt(max(inner, 0.0)))


def kl_gaussian(p: GaussianState, q: GaussianState) -> float:
    """KL(P || Q) for Gaussians, aligned on common variables first."""
    pa, qa = align(p, q)
    diff = wrapped_diff(pa.index, pa.mean, qa.mean)
    return kl_gaussian_moments(diff, pa.cov, qa.cov)


def d_sqrt_j(p: GaussianState, q: GaussianState) -> float:
    """Square-root symmetrized KL distance, closed Gaussian form.

    Identical inputs give exactly 0.  Satisfies
    d(P,Q)^2 == 0.5*KL(P||Q) + 0.5*KL(Q||P).
    """
    pa, qa = align(p, q)
    if pa.index.vars != qa.index.vars:
        raise IncompatibleStates("aligned indices disagree")
    if np.array_equal(pa.mean, qa.mean) and np.array_equal(pa.cov, qa.cov):
        return 0.0
    diff = wrapped_diff(pa.index, pa.mean, qa.mean)
    return sqrt_j_moments(diff, pa.cov, qa.cov)


def _span_measurements(history: tuple[StepRecord, ...], t_lo: int, t_hi: int) -> MeasurementSet:
    merged = MeasurementSet()
    for rec in history:
        if t_lo <= rec.time <= t_hi:
            merged = merged.merged(rec.measurements)
    return merged


def d_da(
    ref_history: tuple[StepRecord, ...],
    cand_history: tuple[StepRecord, ...],
) -> tuple[int, float]:
    """Data-association divergence key over the overlapping time span.

    Lexicographic: (#added + #removed associations, L2 gap over kept values).
    Orders candidates only; it is never compared against scalar thresholds.
    """
    if not ref_history or not cand_history:
        raise IncompatibleStates("histories must both be non-empty")
    t_lo = max(ref_history[0].time, cand_history[0].time)
    t_hi = min(ref_history[-1].time, cand_history[-1].time)
    if t_lo > t_hi:
        raise IncompatibleStates("histories do not overlap in time")
    ref = _span_measurements(ref_history, t_lo, t_hi)
    cand = _span_measurements(cand_history, t_lo, t_hi)
    diff = da_diff(cand, ref)
    return diff.key()


# ---------------------------------------------------------------------------
# incremental distance algebra


def incremental_delta(
    mu1: np.ndarray, cov1: np.ndarray, zeta1: np.ndarray, a1: np.ndarray,
    mu2: np.ndarray, cov2: np.ndarray, zeta2: np.ndarray, a2: np.ndarray,
    d_pre: int | None = None,
) -> float:
    """Exact change of the squared sqrt-J distance under a measurement update.

    Belief i goes from (mu_i, cov_i) to
    (mu_i + zeta_i, (cov_i^-1 + a_i^T a_i)^-1) where a_i is the whitened
    measurement Jacobian.  Returns Delta with
    d^2(post pair) = d^2(pre pair) + Delta.
    ``d_pre`` compensates a dimension difference when the pre-pair distance
    was taken over fewer coordinates (augmented-state bookkeeping).
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    zeta1 = np.atleast_1d(np.asarray(zeta1, dtype=float))
    zeta2 = np.atleast_1d(np.asarray(zeta2, dtype=float))
    cov1 = as_spd(np.atleast_2d(cov1))
    cov2 = as_spd(np.atleast_2d(cov2))
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    a2 = np.atleast_2d(np.asarray(a2, dtype=float))
    d = mu1.size
    if mu2.size != d or cov1.shape != (d, d) or cov2.shape != (d, d):
        raise InvalidInput("belief pair dimensions disagree")
    if a1.shape[1] != d or a2.shape[1] != d:
        raise InvalidInput("update jacobians must have state columns")

    t1 = a1.T @ a1
    t2 = a2.T @ a2
    prec1p = spd_inverse(cov1) + t1
    prec2p = spd_inverse(cov2) + t2
    cov1p = spd_inverse(prec1p)
    cov2p = spd_inverse(prec2p)

    dmu = mu2 - mu1
    dzeta = zeta2 - zeta1
    prec_sum = prec1p + prec2p

    # trace terms via Woodbury: cov_ip - cov_i = -cov_i a_i^T (I + a_i cov_i a_i^T)^-1 a_i cov_i
    def _shrink(cov: np.ndarray, a: np.ndarray) -> np.ndarray:
        inner = np.eye(a.shape[0]) + a @ cov @ a.T
        return cov @ a.T @ spd_solve(inner, a @ cov)

    term_mu = 0.25 * float(dmu @ (t1 + t2) @ dmu)
    term_cross = 0.5 * float(dmu @ prec_sum @ dzeta)
    term_zeta = 0.25 * float(dzeta @ prec_sum @ dzeta)
    term_tr1 = 0.25 * (float(np.trace(t2 @ cov1p))
                       - float(np.trace(spd_inverse(cov2) @ _shrink(cov1, a1))))
    term_tr2 = 0.25 * (float(np.trace(t1 @ cov2p))
                       - float(np.trace(spd_inverse(cov1) @ _shrink(cov2, a2))))
    dim_term = 0.0 if d_pre is None else -0.5 * (d - d_pre)
    return term_mu + term_cross + term_zeta + term_tr1 + term_tr2 + dim_term


@dataclass(frozen=True, slots=True)
class DeltaQuadratic:
    """Delta expressed as a quadratic form S^T C S + c^T S + y in S = zeta2 - zeta1."""

    c_mat: np.ndarray
    c_vec: np.ndarray
    y: float


def delta_quadratic(
    mu1: np.ndarray, cov1: np.ndarray, a1: np.ndarray,
    mu2: np.ndarray, cov2: np.ndarray, a2: np.ndarray,
    d_pre: int | None = None,
) -> DeltaQuadratic:
    """Coefficients of Delta as a quadratic in the increment difference S.

    C = 1/4 (S1p^-1 + S2p^-1), c = 1/2 (S1p^-1 + S2p^-1)(mu2 - mu1), and y
    collects the increment-independent terms of ``incremental_delta``.
    """
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    d = mu1.size
    zeros = np.zeros(d)
    y = incremental_delta(mu1, cov1, zeros, a1, mu2, cov2, zeros, a2, d_pre=d_pre)
    t1 = np.atleast_2d(a1).T @ np.atleast_2d(a1)
    t2 = np.atleast_2d(a2).T @ np.atleast_2d(a2)
    prec_sum = (spd_inverse(as_spd(np.atleast_2d(cov1))) + t1
                + spd_inverse(as_spd(np.atleast_2d(cov2))) + t2)
    c_mat = 0.25 * prec_sum
    c_vec = 0.5 * prec_sum @ (mu2 - mu1)
    return DeltaQuadratic(c_mat=c_mat, c_vec=c_vec, y=float(y))


@dataclass(frozen=True, slots=True)
class ZetaDistribution:
    """Gaussian law of the one-step estimation increment zeta = mu_post - mu_0.

    Carries the linear map zeta(z) so coupled-session covariances can be
    derived exactly: zeta(z) = gain @ z + offset.
    """

    mean: np.ndarray
    cov: np.ndarray
    gain: np.ndarray
    offset: np.ndarray
    z_mean: np.ndarray
    z_cov: np.ndarray

    def zeta_of(self, z: np.ndarray) -> np.ndarray:
        return self.gain @ np.asarray(z, dtype=float) + self.offset


def zeta_distribution(
    f_mat: np.ndarray,
    j_mat: np.ndarray,
    h_mat: np.ndarray,
    noise_w: np.ndarray,
    noise_v: np.ndarray,
    mu0: np.ndarray,
    cov0: np.ndarray,
    u: np.ndarray,
) -> ZetaDistribution:
    """Distribution of the posterior-mean increment for one linear step.

    Model: x1 = F x0 + J u + w, z = H x1 + v.  The posterior mean of x1 given
    z solves the two-block normal equations; subtracting mu0 yields zeta,
    which is affine in z and hence Gaussian with

      mean  = E[zeta] = F mu0 + J u - mu0
      cov   = s22 H^T Sv^-1 Cov(z) Sv^-1 H s22,
      Cov(z) = H F S0 F^T H^T + H Sw H^T + Sv.
    """
    f_mat = np.atleast_2d(np.asarray(f_mat, dtype=float))
    j_mat = np.atleast_2d(np.asarray(j_mat, dtype=float))
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    noise_w = as_spd(np.atleast_2d(noise_w), "motion noise")
    noise_v = as_spd(np.atleast_2d(noise_v), "measurement noise")
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    cov0 = as_spd(np.atleast_2d(cov0), "prior covariance")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = mu0.size

    w_inv = spd_inverse(noise_w)
    v_inv = spd_inverse(noise_v)
    prec0 = spd_inverse(cov0)

    blocks = np.block([
        [prec0 + f_mat.T @ w_inv @ f_mat, -f_mat.T @ w_inv],
        [-w_inv @ f_mat, w_inv + h_mat.T @ v_inv @ h_mat],
    ])
    sigma = spd_inverse(blocks)
    s21 = sigma[d:, :d]
    s22 = sigma[d:, d:]

    rhs0 = prec0 @ mu0 - f_mat.T @ w_inv @ (j_mat @ u)
    gain = s22 @ h_mat.T @ v_inv
    offset = s21 @ rhs0 + s22 @ (w_inv @ (j_mat @ u)) - mu0

    z_mean = h_mat @ (f_mat @ mu0 + j_mat @ u)
    z_cov = (h_mat @ f_mat @ cov0 @ f_mat.T @ h_mat.T
             + h_mat @ noise_w @ h_mat.T + noise_v)

    mean = gain @ z_mean + offset
    cov = gain @ z_cov @ gain.T
    return ZetaDistribution(mean=mean, cov=0.5 * (cov + cov.T), gain=gain,
                            offset=offset, z_mean=z_mean,
                            z_cov=0.5 * (z_cov + z_cov.T))


def gaussian_quadratic_moments(
    c_mat: np.ndarray,
    c_vec: np.ndarray,
    y: float,
    mu_s: np.ndarray,
    cov_s: np.ndarray,
) -> tuple[float, float]:
    """Mean and variance of Q(S) = S^T C S + c^T S + y for S ~ N(mu_s, cov_s).

      E[Q]   = tr(C Sigma) + mu^T C mu + c^T mu + y
      Var[Q] = 2 tr(C Sigma C Sigma) + (c + 2 C mu)^T Sigma (c + 2 C mu)

    ``cov_s`` may be singular (even zero: a deterministic increment).
    """
    c_mat = np.atleast_2d(np.asarray(c_mat, dtype=float))
    c_vec = np.atleast_1d(np.asarray(c_vec, dtype=float))
    mu_s = np.atleast_1d(np.asarray(mu_s, dtype=float))
    cov_s = np.atleast_2d(np.asarray(cov_s, dtype=float))
    if not np.allclose(cov_s, cov_s.T, atol=1e-9 * (1.0 + np.abs(cov_s).max())):
        raise InvalidInput("cov_s must be symmetric")
    cs = c_mat @ cov_s
    mean = float(np.trace(cs)) + float(mu_s @ c_mat @ mu_s) + float(c_vec @ mu_s) + y
    lin = c_vec + 2.0 * c_mat @ mu_s
    var = 2.0 * float(np.trace(cs @ cs)) + float(lin @ cov_s @ lin)
    return mean, max(var, 0.0)


@dataclass(frozen=True, slots=True)
class ChiSquaredCheck:
    """Outcome of the noncentral-chi-squared structure test for Q(S)."""

    is_chi_squared: bool
    dof: float
    noncentrality: float


def check_chi_squared_conditions(
    c_mat: np.ndarray,
    c_vec: np.ndarray,
    y: float,
    mu_s: np.ndarray,
    cov_s: np.ndarray,
    tol: float = 1e-8,
) -> ChiSquaredCheck:
    """Test whether Q(S) is distributed as a noncentral chi squared.

    Conditions (within ``tol``): C Sigma C == C, c == C Sigma c and
    y == c^T Sigma c / 4.  When they hold, dof = tr(C Sigma) and
    noncentrality = mu^T C mu + mu^T c + y.
    """
    c_mat = np.atleast_2d(np.asarray(c_mat, dtype=float))
    c_vec = np.atleast_1d(np.asarray(c_vec, dtype=float))
    mu_s = np.atleast_1d(np.asarray(mu_s, dtype=float))
    cov_s = np.atleast_2d(np.asarray(cov_s, dtype=float))
    csc = c_mat @ cov_s @ c_mat
    ok = (
        bool(np.allclose(csc, c_mat, atol=tol))
        and bool(np.allclose(c_mat @ cov_s @ c_vec, c_vec, atol=tol))
        and abs(float(c_vec @ cov_s @ c_vec) / 4.0 - y) <= tol
    )
    dof = float(np.trace(c_mat @ cov_s))
    noncent = float(mu_s @ c_mat @ mu_s) + float(mu_s @ c_vec) + y
    return ChiSquaredCheck(is_chi_squared=ok, dof=dof, noncentrality=noncent)
