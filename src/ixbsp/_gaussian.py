"""Dense Gaussian linear-algebra helpers.

Thin wrappers around Cholesky factorizations so every module spells SPD
solves, log-determinants and whiteners the same way.  All inputs are plain
``numpy`` arrays; covariance arguments must be finite and symmetric (else
``InvalidInput``) and positive definite (else ``NumericalError``).

Every helper works on the lower Cholesky factor through LAPACK, called
directly (``scipy.linalg.lapack``'s routines): ``potrf`` factors one matrix
(``as_spd``, ``spd_and_chol``, ``chol_lower``; a stack goes to
``np.linalg.cholesky``, whose LAPACK build may round a matrix larger than
2x2 differently in the last bit), ``trtrs`` solves with the factor or its transpose
(``lower_solve``, ``chol_whitener``), ``potrs`` solves with the whole
matrix (``spd_solve``) and ``potri`` inverts it from its factor
(``chol_inverse``, which ``spd_inverse`` calls on the factor it checks).  A
single matrix's factor is Fortran-ordered, as LAPACK returns it.  No LAPACK
status escapes: a failed factorization, inversion or solve raises
``NumericalError``, and an illegal argument raises ``ValueError``.

The routines come from ``scipy.linalg._flapack``, the private compiled
module behind the public ``scipy.linalg.lapack``, so they are the same
objects and every result is the same bit for bit.  ``_load_flapack`` loads
that one extension module by its import spec without running the
``scipy.linalg`` package, which is most of the program's cold start: on a
2-core x86-64 host (Python 3.11, scipy 1.17), ``python -X importtime -c
"import ixbsp.simulation"`` put ``scipy.linalg`` at 246-267 ms cumulative
of the package's 400-424 ms, because it imports
``scipy._lib.array_api_compat.numpy``, which clones ``numpy`` with
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and more.  ``_flapack``
itself takes about 1.4 ms.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from types import ModuleType

import numpy as np

from .errors import InvalidInput, NumericalError


def _load_flapack() -> ModuleType:
    """``scipy.linalg._flapack``, loaded without importing ``scipy.linalg``.

    Finding ``scipy.linalg``'s spec imports only the top-level ``scipy``.
    The module is registered under its own full name, so a later ``import
    scipy.linalg`` reuses this module object, and one loaded before is
    reused here.  That later package import does not bind it as the
    attribute ``scipy.linalg._flapack``; ``from scipy.linalg import
    _flapack``, the form ``scipy.linalg.lapack`` uses, finds it in
    ``sys.modules``.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        path = importlib.util.find_spec("scipy.linalg").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


def _check(info: int, routine: str, failure: str) -> None:
    """Raise for a nonzero LAPACK status: ``failure`` (a ``NumericalError``)
    when the routine failed on its data, ``ValueError`` on an illegal
    argument."""
    if info > 0:
        raise NumericalError(failure)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _factor(mat: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate an SPD candidate; return its symmetrized copy and lower factor.

    The single SPD check: shape, a non-finite entry and asymmetry beyond
    ``1e-9 * (1 + max|A|)`` raise ``InvalidInput``, and a failed
    factorization (not positive definite) raises ``NumericalError``.
    ``mat`` may be a stack of square matrices (``(..., n, n)``), factored by
    ``np.linalg.cholesky``; each matrix is checked on its own scale.  A
    single matrix is factored by ``dpotrf``.  The two are separate LAPACK
    builds: a stacked factor equals the matrix's own bit for bit at the 2x2
    size the program stacks (predictive measurement covariances), but may
    differ in the last bit for larger matrices.  Input equal to its transpose
    (the inverses and information matrices the program builds) skips only
    the asymmetry measurement; it is still copied through the
    symmetrization, so a ``-0.0`` facing a ``0.0`` becomes ``0.0`` on both
    sides.
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
    failure = f"{name} is not positive definite"
    if sym.ndim > 2:
        try:
            return sym, np.linalg.cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(failure) from exc
    low, info = lapack.dpotrf(sym, lower=1, clean=1)
    _check(info, "dpotrf", failure)
    return sym, low


def as_spd(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Validate an SPD candidate and return a symmetrized C-contiguous copy."""
    return _factor(mat, name)[0]


def spd_and_chol(mat: np.ndarray,
                 name: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """``as_spd`` and the lower Cholesky factor its check computed.

    The factor is ``chol_lower`` of the returned copy, bit for bit: the
    copy is exactly symmetric, so symmetrizing it again changes nothing.
    """
    return _factor(mat, name)


def chol_lower(mat: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Lower Cholesky factor of a validated SPD matrix, or of each matrix of
    a stack (``_factor`` says when the two agree bit for bit)."""
    return _factor(mat, name)[1]


def lower_solve(low: np.ndarray, rhs: np.ndarray, *,
                trans: bool = False) -> np.ndarray:
    """Solve ``low @ x = rhs`` (or ``low.T @ x = rhs`` with ``trans``) for a
    lower-triangular factor, by ``dtrtrs``; a zero on the diagonal raises
    ``NumericalError``."""
    x, info = lapack.dtrtrs(low, rhs, lower=1, trans=int(trans))
    _check(info, "dtrtrs", "triangular factor is singular")
    return x


def spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs for SPD mat, by ``dpotrs`` on its factor.
    ``rhs`` is a vector or a matrix of right-hand sides."""
    _, low = _factor(mat, "matrix")
    x, info = lapack.dpotrs(low, np.asarray(rhs, dtype=float), lower=1)
    _check(info, "dpotrs", "matrix is singular")
    return x


def chol_inverse(low: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``low @ low.T`` by ``dpotri``, for a caller that
    already holds the lower Cholesky factor of one matrix (``chol_lower``).

    ``dpotri`` fills the lower triangle and leaves the upper one as the
    factor's, which is zero.  Adding the transposed strict lower triangle
    mirrors each entry and adds ``+0.0`` to each lower one, so a ``-0.0``
    (``dpotri`` makes one from an off-diagonal zero) is ``+0.0`` on both
    sides: the result equals its transpose byte for byte.
    """
    inv, info = lapack.dpotri(low, lower=1)
    _check(info, "dpotri", "matrix is singular")
    return inv + np.tril(inv, -1).T


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Explicit SPD inverse: ``chol_inverse`` of the validated factor."""
    return chol_inverse(_factor(mat, "matrix")[1])


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
    return lower_solve(low, np.eye(low.shape[0])).T
