"""Dense Gaussian linear-algebra helpers."""

from __future__ import annotations

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
from ixbsp.errors import InvalidInput, NumericalError


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
