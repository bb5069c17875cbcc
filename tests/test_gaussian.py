"""Dense Gaussian linear-algebra helpers."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from _util import random_spd, run_python
from ixbsp import _gaussian
from ixbsp._gaussian import (
    _check,
    as_spd,
    chol_lower,
    lower_solve,
    spd_inverse,
    spd_logdet,
    spd_solve,
    whitener,
)
from ixbsp.beliefs import GaussianState, VariableIndex
from ixbsp.errors import InvalidBelief, InvalidInput, NumericalError
from ixbsp.models import landmark_var


class TestSpdKernels:
    def test_chol_reconstructs(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 9):
            cov = random_spd(rng, n)
            low = chol_lower(cov)
            assert np.allclose(low @ low.T, cov)
            assert np.allclose(np.triu(low, 1), 0.0)

    def test_solve_and_inverse_match_numpy(self):
        rng = np.random.default_rng(1)
        cov = random_spd(rng, 6)
        rhs = rng.standard_normal((6, 3))
        assert np.allclose(spd_solve(cov, rhs), np.linalg.solve(cov, rhs))
        assert np.allclose(spd_inverse(cov), np.linalg.inv(cov))

    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(2)
        for n in (1, 4, 12):
            cov = random_spd(rng, n)
            sign, logdet = np.linalg.slogdet(cov)
            assert sign > 0
            assert spd_logdet(cov) == pytest.approx(logdet, abs=1e-10)

    def test_whitener_whitens(self):
        rng = np.random.default_rng(3)
        cov = random_spd(rng, 4)
        w = whitener(cov)
        assert np.allclose(w @ w.T, np.linalg.inv(cov))

    def test_as_spd_symmetrizes_and_rejects(self):
        rng = np.random.default_rng(4)
        cov = random_spd(rng, 3)
        bumped = cov + 1e-12 * rng.standard_normal((3, 3))
        out = as_spd(bumped)
        assert np.allclose(out, out.T)
        with pytest.raises((InvalidInput, NumericalError)):
            as_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        # equal to its transpose, yet -0.0 faces 0.0: still symmetrized
        zeros = np.array([[1.0, -0.0], [0.0, 1.0]])
        for mat in (zeros, np.stack((zeros, zeros))):
            out = as_spd(mat)
            assert out is not mat and not np.signbit(out).any()

    def test_stack_factors_each_matrix_as_alone(self):
        """At the 2x2 size the program stacks, a stack's factors equal each
        matrix's own bit for bit (a stack and a single matrix go to
        different LAPACK builds, which may differ in the last bit on larger
        matrices)."""
        rng = np.random.default_rng(6)
        covs = np.stack([random_spd(rng, 2, 10.0 ** rng.uniform(-6.0, 6.0))
                         for _ in range(500)])
        low = chol_lower(covs)
        for cov, block in zip(covs, low):
            assert block.tobytes() == chol_lower(cov).tobytes()
        with pytest.raises(NumericalError):
            chol_lower(np.stack((covs[0], np.array([[1.0, 2.0], [2.0, 1.0]]))))

    def test_stack_checks_symmetry_on_each_matrix_scale(self):
        # a 1e3-scale matrix does not widen the tolerance of a unit one
        small = np.eye(2)
        small[0, 1] = 1e-8
        big = 1e3 * np.eye(2)
        big[0, 1] = 1e-8
        assert chol_lower(big).shape == (2, 2)
        with pytest.raises(InvalidInput, match="symmetric"):
            chol_lower(np.stack((big, small)))

    def test_non_spd_raises(self):
        with pytest.raises((InvalidInput, NumericalError)):
            chol_lower(np.array([[0.0]]))


@st.composite
def _scaled_spd(draw):
    """A well-conditioned SPD matrix of size 1-25 at a scale of 1e-6 to 1e6."""
    n = draw(st.integers(1, 25))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scale * random_spd(rng, n), rng


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@st.composite
def _block_diagonal_spd(draw):
    """``_scaled_spd`` with its off-diagonal entries zeroed outside random
    diagonal blocks (blocks of size 1 make it diagonal), its rows and
    columns permuted: off-diagonal zeros from which ``dpotri`` makes
    ``-0.0``."""
    mat, rng = draw(_scaled_spd())
    n = mat.shape[0]
    cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(0, n), replace=False))
    labels = np.searchsorted(cuts, np.arange(n), side="right")
    mat = np.where(labels[:, None] == labels[None, :], mat, 0.0)
    perm = rng.permutation(n)
    return mat[np.ix_(perm, perm)], rng


ROUTINES = ("dpotrf", "dtrtrs", "dpotrs", "dpotri")


class TestLapackRoutines:
    """``_gaussian`` calls the very routines of ``scipy.linalg.lapack``,
    whichever of the two is imported first."""

    def test_same_routines_as_scipy_linalg_lapack(self):
        import scipy.linalg.lapack

        for routine in ROUTINES:
            assert (getattr(_gaussian.lapack, routine)
                    is getattr(scipy.linalg.lapack, routine))

    @pytest.mark.parametrize("first, second", [
        ("import scipy.linalg", "from ixbsp import _gaussian"),
        ("from ixbsp import _gaussian", "import scipy.linalg")],
        ids=["scipy_linalg_first", "ixbsp_first"])
    def test_one_module_in_either_import_order(self, first, second):
        out = run_python(
            f"import gc, sys, types\n{first}\n{second}\n"
            "from scipy.linalg import _flapack\n"
            "print(all(getattr(_gaussian.lapack, r) is getattr(scipy.linalg.lapack, r)\n"
            f"          for r in {ROUTINES!r}))\n"
            "print(_gaussian.lapack is _flapack is sys.modules[_flapack.__name__])\n"
            "print(sum(isinstance(m, types.ModuleType) and m.__name__ == _flapack.__name__\n"
            "          for m in gc.get_objects()))\n")
        assert out.split() == ["True", "True", "1"]


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(_scaled_spd(), _block_diagonal_spd()))
    @example(case=(np.diag([4.0, 9.0]), None))
    @example(case=(np.kron(np.eye(3), [[2.0, 1.0], [1.0, 2.0]]), None))
    def test_inverse_is_exactly_symmetric(self, case):
        """Byte for byte, with every zero ``+0.0``."""
        mat, _ = case
        inv = spd_inverse(mat)
        assert inv.tobytes() == inv.T.tobytes()
        assert not np.signbit(inv[inv == 0.0]).any()
        assert _rel_err(inv, np.linalg.inv(mat)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(case=_scaled_spd(), n_rhs=st.sampled_from([None, 1, 3]))
    def test_solve_matches_numpy(self, case, n_rhs):
        mat, rng = case
        shape = (mat.shape[0],) if n_rhs is None else (mat.shape[0], n_rhs)
        rhs = rng.standard_normal(shape)
        got = spd_solve(mat, rhs)
        assert got.shape == shape
        assert _rel_err(got, np.linalg.solve(mat, rhs)) < 1e-9


def _bad_matrices():
    """Kind -> (matrix, error, message).  Every matrix but the asymmetric
    one equals its transpose exactly (NaN compares unequal, so "nan" does
    not), which is the input whose asymmetry check is skipped."""
    base = np.array([[2.0, 0.3], [0.3, 1.0]])
    nan = base.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    inf = base.copy()
    inf[1, 1] = np.inf
    neg_inf = base.copy()
    neg_inf[0, 0] = -np.inf
    inf_pair = base.copy()
    inf_pair[0, 1] = inf_pair[1, 0] = np.inf
    asym = base.copy()
    asym[0, 1] += 1e-3
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    finite = (InvalidInput, "finite")
    return {"nan": (nan, *finite), "inf": (inf, *finite),
            "-inf": (neg_inf, *finite), "inf-pair": (inf_pair, *finite),
            "asymmetric": (asym, InvalidInput, "symmetric"),
            "indefinite": (indefinite, NumericalError, "positive definite")}


BAD = _bad_matrices()


class TestRejectsBadInput:
    """Non-finite, asymmetric or indefinite input raises a typed error and
    warns nothing, alone and in a stack."""

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("kernel", [
        as_spd, chol_lower, lambda m: spd_solve(m, np.ones(2)), spd_inverse,
        lambda m: chol_lower(np.stack((np.eye(2), m)))],
        ids=["as_spd", "chol_lower", "spd_solve", "spd_inverse", "chol_lower_stack"])
    def test_kernels(self, kernel, kind):
        mat, error, message = BAD[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                kernel(mat)

    def test_lapack_status_never_leaks(self):
        """A failure on the data raises ``NumericalError`` and an illegal
        argument ``ValueError``; neither returns a status."""
        with pytest.raises(NumericalError, match="^triangular factor is singular$"):
            lower_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))
        with pytest.raises(ValueError, match="argument 3 of dpotrf"):
            _check(-3, "dpotrf", "unused")
        assert _check(0, "dpotrf", "unused") is None

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_gaussian_state(self, kind):
        index = VariableIndex((landmark_var(0),))
        mat, _, message = BAD[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBelief, match=message):
                GaussianState(index, np.zeros(2), mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_state_mean(self, bad):
        index = VariableIndex((landmark_var(0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBelief, match="^mean must be finite$"):
                GaussianState(index, np.array([bad, 0.0]), np.eye(2))

    def test_gaussian_state_keeps_its_messages(self):
        index = VariableIndex((landmark_var(0),))
        with pytest.raises(InvalidBelief, match="^covariance must be symmetric$"):
            GaussianState(index, np.zeros(2), BAD["asymmetric"][0])
        with pytest.raises(InvalidBelief, match="^covariance must be positive definite$"):
            GaussianState(index, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_symmetry_tolerance_is_absolute_in_the_scale(self):
        # asymmetry up to 1e-9 * (1 + max|A|) passes and is symmetrized away
        cov = np.array([[1.0e3, 0.0], [0.0, 1.0]])
        tol = 1e-9 * (1.0 + 1.0e3)
        ok = cov.copy()
        ok[0, 1] = 0.9 * tol
        out = as_spd(ok)
        assert np.array_equal(out, out.T)
        bad = cov.copy()
        bad[0, 1] = 1.1 * tol
        with pytest.raises(InvalidInput, match="symmetric"):
            as_spd(bad)


class TestLogpdf:
    def test_matches_scipy(self):
        # the Gaussian log density as the kernels spell it: a (stacked)
        # Cholesky factor for the Mahalanobis term and the log-determinant
        rng = np.random.default_rng(5)
        for n in (1, 2, 7):
            covs = np.stack([random_spd(rng, n) for _ in range(3)])
            means = rng.standard_normal((3, n))
            xs = rng.standard_normal((3, n))
            low = chol_lower(covs)
            for cov, block, mean, x in zip(covs, low, means, xs):
                expected = multivariate_normal(mean=mean, cov=cov).logpdf(x)
                y = solve_triangular(block, x - mean, lower=True)
                logdet = 2.0 * float(np.sum(np.log(np.diag(block))))
                got = -0.5 * (y @ y + logdet + n * np.log(2.0 * np.pi))
                assert got == pytest.approx(expected, abs=1e-10)
                y = whitener(cov).T @ (x - mean)
                got = -0.5 * (y @ y + spd_logdet(cov) + n * np.log(2.0 * np.pi))
                assert got == pytest.approx(expected, abs=1e-10)
