"""Dense Gaussian linear-algebra helpers.

Thin wrappers around Cholesky factorizations so every module spells SPD
solves, log-determinants and whiteners the same way.  All inputs are plain
``numpy`` arrays; covariance arguments must be finite and symmetric (else
``InvalidInput``) and positive definite (else ``NumericalError``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import InvalidInput, NumericalError


def _factor(mat: np.ndarray, name: str, factorize):
    """Validate an SPD candidate; return its symmetrized copy and factor.

    The single SPD check: shape, a non-finite entry and asymmetry beyond
    ``1e-9 * (1 + max|A|)`` raise ``InvalidInput``, and a failed
    factorization (not positive definite) raises ``NumericalError``.
    ``mat`` may be a stack of square matrices (``(..., n, n)``) when
    ``factorize`` takes one; each matrix is checked on its own scale.
    Input equal to its transpose (the inverses and information matrices
    the program builds) skips only the asymmetry measurement; it is still
    copied through the symmetrization, so a ``-0.0`` facing a ``0.0``
    becomes ``0.0`` on both sides as before.
    """
    arr = np.asarray(mat, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    trans = arr.swapaxes(-2, -1)
    scale = np.abs(arr).max(axis=(-2, -1))  # NaN or inf when any entry is
    if not np.isfinite(scale).all():
        raise InvalidInput(f"{name} must be finite")
    if not (arr == trans).all() and (
            np.abs(arr - trans).max(axis=(-2, -1)) > 1e-9 * (1.0 + scale)).any():
        raise InvalidInput(f"{name} must be symmetric")
    sym = np.ascontiguousarray(0.5 * (arr + trans))
    try:
        return sym, factorize(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name} is not positive definite") from exc


def as_spd(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Validate an SPD candidate and return a symmetrized C-contiguous copy."""
    return _factor(mat, name, np.linalg.cholesky)[0]


def spd_and_chol(mat: np.ndarray,
                 name: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """``as_spd`` and the lower Cholesky factor its check computed.

    The factor is ``chol_lower`` of the returned copy, bit for bit: the
    copy is exactly symmetric, so symmetrizing it again changes nothing.
    """
    return _factor(mat, name, np.linalg.cholesky)


def chol_lower(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Lower Cholesky factor of a validated SPD matrix, or of each matrix of
    a stack."""
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
    return chol_whitener(chol_lower(cov))


def chol_whitener(low: np.ndarray) -> np.ndarray:
    """``whitener`` of the covariance whose lower Cholesky factor is ``low``,
    for a caller that already holds the factor."""
    return solve_triangular(low, np.eye(low.shape[0]), lower=True).T
