"""Dense Gaussian linear-algebra helpers."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from _util import random_spd
from ixbsp._gaussian import (
    as_spd,
    chol_lower,
    gaussian_logpdf,
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

    def test_non_spd_raises(self):
        with pytest.raises((InvalidInput, NumericalError)):
            chol_lower(np.array([[0.0]]))


def _bad_matrices():
    base = np.array([[2.0, 0.3], [0.3, 1.0]])
    nan = base.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    inf = base.copy()
    inf[1, 1] = np.inf
    neg_inf = base.copy()
    neg_inf[0, 0] = -np.inf
    asym = base.copy()
    asym[0, 1] += 1e-3
    return {"nan": nan, "inf": inf, "-inf": neg_inf, "asymmetric": asym}


BAD = _bad_matrices()


class TestRejectsBadInput:
    """Non-finite or asymmetric input raises a typed error and warns nothing."""

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("kernel", [
        as_spd, chol_lower, lambda m: spd_solve(m, np.ones(2))],
        ids=["as_spd", "chol_lower", "spd_solve"])
    def test_kernels(self, kernel, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match="symmetric" if kind == "asymmetric" else "finite"):
                kernel(BAD[kind])

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_gaussian_state(self, kind):
        index = VariableIndex((landmark_var(0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBelief,
                               match="symmetric" if kind == "asymmetric" else "finite"):
                GaussianState(index, np.zeros(2), BAD[kind])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_state_mean(self, bad):
        index = VariableIndex((landmark_var(0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBelief, match="^mean must be finite$"):
                GaussianState(index, np.array([bad, 0.0]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["point", "mean"])
    def test_logpdf_point_and_mean(self, where, bad):
        vec = np.array([bad, 0.0])
        args = (vec, np.zeros(2)) if where == "point" else (np.zeros(2), vec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="finite"):
                gaussian_logpdf(*args, np.eye(2))

    def test_gaussian_state_keeps_its_messages(self):
        index = VariableIndex((landmark_var(0),))
        with pytest.raises(InvalidBelief, match="^covariance must be symmetric$"):
            GaussianState(index, np.zeros(2), BAD["asymmetric"])
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
        rng = np.random.default_rng(5)
        for n in (1, 2, 7):
            cov = random_spd(rng, n)
            mean = rng.standard_normal(n)
            x = rng.standard_normal(n)
            expected = multivariate_normal(mean=mean, cov=cov).logpdf(x)
            assert gaussian_logpdf(x, mean, cov) == pytest.approx(expected,
                                                                  abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            gaussian_logpdf(np.zeros(2), np.zeros(3), np.eye(3))
