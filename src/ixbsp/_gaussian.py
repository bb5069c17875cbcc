"""Dense Gaussian linear-algebra helpers.

Thin wrappers around Cholesky factorizations so every module spells SPD
solves, log-determinants and density evaluations the same way.  All inputs
are plain ``numpy`` arrays; covariance arguments must be finite and
symmetric (else ``InvalidInput``) and positive definite (else
``NumericalError``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import InvalidInput, NumericalError

_LOG_2PI = float(np.log(2.0 * np.pi))


def _factor(mat: np.ndarray, name: str, factorize):
    """Validate an SPD candidate; return its symmetrized copy and factor.

    The single SPD check: shape, a non-finite entry and asymmetry beyond
    ``1e-9 * (1 + max|A|)`` raise ``InvalidInput``, and a failed
    factorization (not positive definite) raises ``NumericalError``.
    """
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    scale = np.abs(arr).max()  # NaN or inf when any entry is
    if not np.isfinite(scale):
        raise InvalidInput(f"{name} must be finite")
    if np.abs(arr - arr.T).max() > 1e-9 * (1.0 + scale):
        raise InvalidInput(f"{name} must be symmetric")
    sym = np.ascontiguousarray(0.5 * (arr + arr.T))
    try:
        return sym, factorize(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name} is not positive definite") from exc


def as_spd(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Validate an SPD candidate and return a symmetrized C-contiguous copy."""
    return _factor(mat, name, np.linalg.cholesky)[0]


def chol_lower(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Lower Cholesky factor of a validated SPD matrix."""
    return _factor(mat, name, np.linalg.cholesky)[1]


def spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs for SPD mat."""
    _, factor = _factor(mat, "matrix", cho_factor)
    return cho_solve(factor, np.asarray(rhs, dtype=float))


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Explicit SPD inverse, symmetrized."""
    inv = spd_solve(mat, np.eye(mat.shape[0]))
    return 0.5 * (inv + inv.T)


def spd_logdet(mat: np.ndarray) -> float:
    """log det of an SPD matrix via its Cholesky factor."""
    low = chol_lower(mat)
    return 2.0 * float(np.sum(np.log(np.diag(low))))


def whitener(cov: np.ndarray) -> np.ndarray:
    """Matrix W with W @ W.T = cov^-1 (W = L^-T for cov = L L^T).

    Whitened residuals W.T @ r have identity covariance; stacking them turns a
    weighted least-squares problem into an ordinary one.
    """
    low = chol_lower(cov)
    return solve_triangular(low, np.eye(low.shape[0]), lower=True).T


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Log density of N(mean, cov) at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if x.shape != mean.shape:
        raise InvalidInput(f"point/mean shape mismatch: {x.shape} vs {mean.shape}")
    low = chol_lower(cov)
    diff = x - mean
    if not np.isfinite(diff).all():  # NaN or inf when either input is
        raise InvalidInput("point and mean must be finite")
    diff = solve_triangular(low, diff, lower=True, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    return -0.5 * (diff @ diff + logdet + x.size * _LOG_2PI)
