"""Gaussian divergences and the incremental update algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ixbsp.beliefs import GaussianState, VariableIndex
from ixbsp.distances import (
    check_chi_squared_conditions,
    d_sqrt_j,
    delta_quadratic,
    gaussian_quadratic_moments,
    incremental_delta,
    kl_gaussian,
    kl_gaussian_moments,
    sqrt_j_moments,
    zeta_distribution,
)
from ixbsp.errors import IncompatibleStates, InvalidInput
from ixbsp.models import landmark_var, pose_var

from _util import landmark_state, pose_landmark_state, random_spd

# independently derived scalar anchors
KL_VAR2_VS_VAR1 = 0.15342640972002733        # 0.5 * (1 - ln 2)
SQRT_J_UNIT_SHIFT = 0.5 * math.sqrt(2.0)     # unit-variance pair, means 1 apart


def _kl_numeric_1d(mu_p, var_p, mu_q, var_q):
    p = stats.norm(mu_p, math.sqrt(var_p))
    q = stats.norm(mu_q, math.sqrt(var_q))

    def integrand(x):
        return p.pdf(x) * (p.logpdf(x) - q.logpdf(x))

    val, _err = integrate.quad(integrand, -np.inf, np.inf, limit=200)
    return val


class TestKlGaussian:
    def test_frozen_scalar_value(self):
        got = kl_gaussian_moments(np.array([0.0]), np.array([[2.0]]),
                                  np.array([[1.0]]))
        assert got == pytest.approx(KL_VAR2_VS_VAR1, abs=1e-14)

    def test_matches_numeric_integration_1d(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu_p, mu_q = rng.normal(size=2)
            var_p, var_q = rng.uniform(0.2, 4.0, size=2)
            closed = kl_gaussian_moments(np.array([mu_p - mu_q]),
                                         np.array([[var_p]]),
                                         np.array([[var_q]]))
            assert closed == pytest.approx(
                _kl_numeric_1d(mu_p, var_p, mu_q, var_q), abs=1e-6)

    def test_zero_iff_identical_and_asymmetric(self):
        rng = np.random.default_rng(1)
        p = landmark_state(rng, 2)
        assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)
        q = landmark_state(rng, 2)
        assert kl_gaussian(p, q) != pytest.approx(kl_gaussian(q, p))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        diff = rng.normal(size=d)
        assert kl_gaussian_moments(diff, random_spd(rng, d), random_spd(rng, d)) >= 0.0


class TestSqrtJ:
    def test_frozen_unit_shift_value(self):
        got = sqrt_j_moments(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        assert got == pytest.approx(SQRT_J_UNIT_SHIFT, abs=1e-14)

    def test_square_is_mean_of_both_kls(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3, 5, 8, 13, 20):
            diff = rng.normal(size=d)
            cov_p = random_spd(rng, d)
            cov_q = random_spd(rng, d)
            d2 = sqrt_j_moments(diff, cov_p, cov_q) ** 2
            mean_kl = 0.5 * (kl_gaussian_moments(diff, cov_p, cov_q)
                             + kl_gaussian_moments(-diff, cov_q, cov_p))
            assert abs(d2 - mean_kl) < 1e-10

    def test_state_distance_symmetric_and_identical_zero(self):
        rng = np.random.default_rng(3)
        p = pose_landmark_state(rng, 0, 2)
        q = pose_landmark_state(rng, 0, 2)
        assert d_sqrt_j(p, q) == pytest.approx(d_sqrt_j(q, p), abs=1e-12)
        assert d_sqrt_j(p, p) == 0.0  # exact, bit-identical early exit

    def test_alignment_marginalizes_to_shared_variables(self):
        rng = np.random.default_rng(4)
        big = pose_landmark_state(rng, 1, 3)
        small_vars = [pose_var(1), landmark_var(0)]
        small = big.marginal(small_vars)
        # big vs its own marginal: zero over the shared subset
        assert d_sqrt_j(big, small) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_states_rejected(self):
        rng = np.random.default_rng(5)
        a = landmark_state(rng, 2)
        b = GaussianState(index=VariableIndex.of([pose_var(7)]),
                          mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(IncompatibleStates):
            d_sqrt_j(a, b)

    def test_heading_difference_wraps(self):
        idx = VariableIndex.of([pose_var(0)])
        cov = np.eye(3)
        a = GaussianState(index=idx, mean=np.array([0.0, 0.0, math.pi - 0.05]),
                          cov=cov)
        b = GaussianState(index=idx, mean=np.array([0.0, 0.0, -math.pi + 0.05]),
                          cov=cov)
        # headings are 0.1 rad apart around the circle, not ~2*pi
        expect = sqrt_j_moments(np.array([0.0, 0.0, 0.1]), cov, cov)
        assert d_sqrt_j(a, b) == pytest.approx(expect, abs=1e-12)


def _posterior(mu, cov, zeta, a):
    """Information-form measurement update used as the independent oracle."""
    prec = np.linalg.inv(cov) + a.T @ a
    return mu + zeta, np.linalg.inv(prec)


class TestIncrementalDelta:
    def test_matches_direct_distance_difference(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            d = int(rng.integers(1, 7))
            k1 = int(rng.integers(1, 4))
            k2 = int(rng.integers(1, 4))
            mu1, mu2 = rng.normal(size=(2, d))
            cov1 = random_spd(rng, d)
            cov2 = random_spd(rng, d)
            a1 = rng.normal(size=(k1, d))
            a2 = rng.normal(size=(k2, d))
            zeta1, zeta2 = 0.3 * rng.normal(size=(2, d))

            pre = sqrt_j_moments(mu2 - mu1, cov1, cov2) ** 2
            m1p, c1p = _posterior(mu1, cov1, zeta1, a1)
            m2p, c2p = _posterior(mu2, cov2, zeta2, a2)
            post = sqrt_j_moments(m2p - m1p, c1p, c2p) ** 2

            delta = incremental_delta(mu1, cov1, zeta1, a1,
                                      mu2, cov2, zeta2, a2)
            assert abs((pre + delta) - post) < 1e-9

    def test_dimension_compensation_term(self):
        rng = np.random.default_rng(7)
        d = 5
        mu1, mu2 = rng.normal(size=(2, d))
        cov1, cov2 = random_spd(rng, d), random_spd(rng, d)
        a1 = rng.normal(size=(2, d))
        a2 = rng.normal(size=(1, d))
        z = np.zeros(d)
        base = incremental_delta(mu1, cov1, z, a1, mu2, cov2, z, a2)
        comp = incremental_delta(mu1, cov1, z, a1, mu2, cov2, z, a2, d_pre=3)
        assert comp - base == pytest.approx(-0.5 * (d - 3), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            incremental_delta(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2),
                              np.zeros(3), np.eye(3), np.zeros(3), np.eye(3))


class TestDeltaQuadratic:
    def test_quadratic_reproduces_delta_in_increment_difference(self):
        rng = np.random.default_rng(8)
        d = 4
        mu1, mu2 = rng.normal(size=(2, d))
        cov1, cov2 = random_spd(rng, d), random_spd(rng, d)
        a1 = rng.normal(size=(2, d))
        a2 = rng.normal(size=(3, d))
        quad = delta_quadratic(mu1, cov1, a1, mu2, cov2, a2)
        for _ in range(10):
            zeta1 = rng.normal(size=d)
            s = rng.normal(size=d)
            direct = incremental_delta(mu1, cov1, zeta1, a1,
                                       mu2, cov2, zeta1 + s, a2)
            via_quad = float(s @ quad.c_mat @ s + quad.c_vec @ s + quad.y)
            assert direct == pytest.approx(via_quad, abs=1e-9)

    def test_coefficients_match_posterior_precisions(self):
        rng = np.random.default_rng(9)
        d = 3
        mu1, mu2 = rng.normal(size=(2, d))
        cov1, cov2 = random_spd(rng, d), random_spd(rng, d)
        a1 = rng.normal(size=(1, d))
        a2 = rng.normal(size=(2, d))
        quad = delta_quadratic(mu1, cov1, a1, mu2, cov2, a2)
        prec_sum = (np.linalg.inv(cov1) + a1.T @ a1
                    + np.linalg.inv(cov2) + a2.T @ a2)
        assert np.allclose(quad.c_mat, 0.25 * prec_sum, atol=1e-10)
        assert np.allclose(quad.c_vec, 0.5 * prec_sum @ (mu2 - mu1), atol=1e-10)


class TestZetaDistribution:
    def _scenario(self, rng, d, m):
        f_mat = np.eye(d) + 0.1 * rng.normal(size=(d, d))
        j_mat = rng.normal(size=(d, 1))
        h_mat = rng.normal(size=(m, d))
        noise_w = random_spd(rng, d, 0.2)
        noise_v = random_spd(rng, m, 0.2)
        mu0 = rng.normal(size=d)
        cov0 = random_spd(rng, d, 0.5)
        u = rng.normal(size=1)
        return f_mat, j_mat, h_mat, noise_w, noise_v, mu0, cov0, u

    def test_affine_map_matches_kalman_update(self):
        rng = np.random.default_rng(10)
        for d, m in ((1, 1), (2, 1), (3, 2)):
            f, j, h, w, v, mu0, cov0, u = self._scenario(rng, d, m)
            dist = zeta_distribution(f, j, h, w, v, mu0, cov0, u)
            mu_pred = f @ mu0 + j @ u
            p_pred = f @ cov0 @ f.T + w
            s = h @ p_pred @ h.T + v
            gain = p_pred @ h.T @ np.linalg.inv(s)
            for _ in range(5):
                z = rng.normal(size=m)
                expect = mu_pred + gain @ (z - h @ mu_pred) - mu0
                assert np.allclose(dist.zeta_of(z), expect, atol=1e-9)
            assert np.allclose(dist.z_mean, h @ mu_pred, atol=1e-12)
            assert np.allclose(dist.z_cov, s, atol=1e-9)

    def test_moments_match_monte_carlo(self):
        rng = np.random.default_rng(11)
        f, j, h, w, v, mu0, cov0, u = self._scenario(rng, 2, 1)
        dist = zeta_distribution(f, j, h, w, v, mu0, cov0, u)
        n = 200_000
        x0 = rng.multivariate_normal(mu0, cov0, size=n)
        x1 = x0 @ f.T + (j @ u)[None, :] + rng.multivariate_normal(
            np.zeros(2), w, size=n)
        z = x1 @ h.T + rng.multivariate_normal(np.zeros(1), v, size=n)
        zetas = z @ dist.gain.T + dist.offset[None, :]
        se = np.sqrt(np.diag(dist.cov) / n)
        assert np.all(np.abs(zetas.mean(axis=0) - dist.mean) <= 4 * se)
        assert np.allclose(np.cov(zetas.T), dist.cov, rtol=0.03, atol=1e-4)


class TestGaussianQuadraticMoments:
    def test_exact_chi_squared_case(self):
        d = 4
        mean, var = gaussian_quadratic_moments(
            0.5 * np.eye(d), np.zeros(d), 0.0, np.zeros(d), np.eye(d))
        assert mean == pytest.approx(0.5 * d, abs=1e-12)
        assert var == pytest.approx(0.5 * d, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        d = 3
        c_mat = random_spd(rng, d, 0.3)
        c_vec = rng.normal(size=d)
        y = float(rng.normal())
        mu_s = rng.normal(size=d)
        cov_s = random_spd(rng, d, 0.4)
        mean, var = gaussian_quadratic_moments(c_mat, c_vec, y, mu_s, cov_s)
        n = 400_000
        s = rng.multivariate_normal(mu_s, cov_s, size=n)
        q = np.einsum("ni,ij,nj->n", s, c_mat, s) + s @ c_vec + y
        assert q.mean() == pytest.approx(mean, abs=4 * math.sqrt(var / n))
        assert q.var() == pytest.approx(var, rel=0.03)

    def test_deterministic_increment(self):
        d = 2
        c_mat = np.array([[1.0, 0.2], [0.2, 2.0]])
        c_vec = np.array([0.5, -1.0])
        mu_s = np.array([0.3, 0.7])
        mean, var = gaussian_quadratic_moments(c_mat, c_vec, 1.5, mu_s,
                                               np.zeros((d, d)))
        assert mean == pytest.approx(
            float(mu_s @ c_mat @ mu_s + c_vec @ mu_s + 1.5), abs=1e-12)
        assert var == 0.0

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InvalidInput):
            gaussian_quadratic_moments(np.eye(2), np.zeros(2), 0.0, np.zeros(2),
                                       np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestChiSquaredCheck:
    def test_canonical_mahalanobis_form_accepted(self):
        rng = np.random.default_rng(13)
        d = 3
        cov_s = random_spd(rng, d)
        mu_s = rng.normal(size=d)
        c_mat = np.linalg.inv(cov_s)
        check = check_chi_squared_conditions(c_mat, np.zeros(d), 0.0, mu_s, cov_s)
        assert check.is_chi_squared
        assert check.dof == pytest.approx(d, abs=1e-8)
        assert check.noncentrality == pytest.approx(
            float(mu_s @ c_mat @ mu_s), abs=1e-8)

    def test_shifted_square_accepted(self):
        rng = np.random.default_rng(14)
        d = 2
        cov_s = random_spd(rng, d)
        b = rng.normal(size=d)
        prec = np.linalg.inv(cov_s)
        check = check_chi_squared_conditions(
            prec, 2.0 * prec @ b, float(b @ prec @ b), np.zeros(d), cov_s)
        assert check.is_chi_squared

    def test_scaled_quadratic_rejected(self):
        rng = np.random.default_rng(15)
        d = 2
        cov_s = random_spd(rng, d)
        check = check_chi_squared_conditions(
            2.0 * np.linalg.inv(cov_s), np.zeros(d), 0.0, np.zeros(d), cov_s)
        assert not check.is_chi_squared

    def test_empirical_law_matches_noncentral_chi2(self):
        rng = np.random.default_rng(16)
        d = 3
        cov_s = random_spd(rng, d)
        mu_s = rng.normal(size=d)
        c_mat = np.linalg.inv(cov_s)
        check = check_chi_squared_conditions(c_mat, np.zeros(d), 0.0, mu_s, cov_s)
        n = 50_000
        s = rng.multivariate_normal(mu_s, cov_s, size=n)
        q = np.einsum("ni,ij,nj->n", s, c_mat, s)
        ks = stats.kstest(q, stats.ncx2(check.dof, check.noncentrality).cdf)
        assert ks.pvalue > 0.01
