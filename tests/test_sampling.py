"""Future-measurement generation: determinism, gating, predictive densities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular

from _util import random_spd, range_bearing_jacobians
from ixbsp._gaussian import as_spd
from ixbsp.beliefs import (
    MeasurementEntry,
    MeasurementSet,
    PropagatedBelief,
    VariableIndex,
    make_prior_belief,
    propagate,
)
from ixbsp.errors import InvalidInput, UnknownLandmark
from ixbsp.models import ActionId, MeasModel, MotionModel, landmark_var, pose_var, wrap_angle
from ixbsp.sampling import (
    measurement_likelihood_density,
    most_likely_measurement,
    node_rng,
    predicted_da,
    sample_future_measurements,
    sample_state_futures,
)


def _prop(fov=2 * math.pi, min_range=0.0, landmarks=None, pos_std=0.5):
    if landmarks is None:
        landmarks = {0: (np.array([4.0, 0.0]), np.eye(2) * 0.5),
                     1: (np.array([0.0, 30.0]), np.eye(2) * 0.5)}
    b = make_prior_belief(np.zeros(3), np.diag([pos_std**2, pos_std**2, 0.01]),
                          landmarks=landmarks)
    motion = MotionModel()
    return propagate(b, ActionId(0), motion), MeasModel(fov=fov, min_range=min_range,
                                                        max_range=20.0)


def _log_density(entry, prop, model):
    z_set = MeasurementSet((entry,))
    return measurement_likelihood_density(z_set, prop, model)[entry.lm]


class TestNodeRng:
    def test_same_path_same_stream(self):
        a = node_rng(42, (1, 2, 0)).standard_normal(5)
        b = node_rng(42, (1, 2, 0)).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = node_rng(42, (1, 2, 0)).standard_normal(5)
        b = node_rng(42, (1, 2, 1)).standard_normal(5)
        c = node_rng(43, (1, 2, 0)).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prefix_paths_are_independent_streams(self):
        a = node_rng(7, (0,)).standard_normal(3)
        b = node_rng(7, (0, 0)).standard_normal(3)
        assert not np.array_equal(a, b)


class TestPredictedDa:
    def test_gates_by_range_and_fov(self):
        prop, model = _prop()
        da = predicted_da(prop, model, prop.mean)
        # lm 1 sits 30m away, beyond max_range=20
        assert da == (0,)

    def test_gating_at_realization_not_mean(self):
        prop, model = _prop(fov=math.pi / 2)
        x = prop.mean.copy()
        # turn the new pose to face lm 1 (due +y from origin-ish pose)
        x[prop.index.slice_of(pose_var(1))] = np.array([0.0, 10.0, math.pi / 2])
        da = predicted_da(prop, model, x)
        assert da == (1,)

    def test_dimension_mismatch_rejected(self):
        prop, model = _prop()
        with pytest.raises(InvalidInput):
            predicted_da(prop, model, np.zeros(3))


class TestSampling:
    def test_sample_counts_and_state_major_order(self):
        prop, model = _prop()
        samples = sample_future_measurements(prop, model, n_x=3, n_z=2,
                                             rng=node_rng(0, (0,)))
        assert len(samples) == 6
        for j in range(3):
            a, b = samples[2 * j], samples[2 * j + 1]
            assert np.array_equal(a.chi, b.chi)
            assert a.z_set.keys() == b.z_set.keys()
        assert not np.array_equal(samples[0].chi, samples[2].chi)

    def test_invalid_counts_rejected(self):
        prop, model = _prop()
        with pytest.raises(InvalidInput):
            sample_future_measurements(prop, model, n_x=0, n_z=1, rng=node_rng(0, ()))

    def test_state_futures_share_one_drawn_realization(self):
        prop, model = _prop()
        samples = sample_state_futures(prop, model, 4, node_rng(1, (0,)))
        chi = samples[0].chi
        assert not np.array_equal(chi, prop.mean)  # drawn, not the mean
        assert all(np.array_equal(s.chi, chi) for s in samples)
        values = {tuple(s.z_set.entries[0].value) for s in samples}
        assert len(values) == 4  # noise draws differ

    def test_most_likely_is_deterministic_model_mean(self):
        prop, model = _prop()
        ml1 = most_likely_measurement(prop, model)
        ml2 = most_likely_measurement(prop, model)
        assert np.array_equal(ml1.chi, prop.mean)
        assert ml1.z_set.keys() == ml2.z_set.keys()
        entry = ml1.z_set.entries[0]
        pose = prop.mean[prop.index.slice_of(pose_var(1))]
        lm = prop.mean[prop.index.slice_of(landmark_var(0))]
        assert np.array_equal(entry.value, model.predict(pose, lm))
        assert np.array_equal(ml1.z_set.entries[0].value,
                              ml2.z_set.entries[0].value)

    def test_sample_density_bookkeeping_consistent(self):
        prop, model = _prop()
        samples = sample_future_measurements(prop, model, 2, 2, node_rng(5, (1,)))
        samples.append(most_likely_measurement(prop, model))
        for s in samples:
            assert list(s.entry_log_densities) == list(s.z_set.keys())
            assert s.entry_log_densities == measurement_likelihood_density(
                s.z_set, prop, model)
            for e in s.z_set:
                assert s.entry_log_densities[e.lm] == _log_density(e, prop, model)


def _predictive(prop, model, lm):
    """Linearized predictive Gaussian (mean, cov) of one entry, computed on
    the (landmark, new pose) marginal of ``prop``."""
    marg = prop.marginal([prop.new_pose(), landmark_var(lm)])
    assert marg.index.vars == (landmark_var(lm), prop.new_pose())
    lpos, pose = marg.mean[:2], marg.mean[2:]
    h_pose, h_lm = range_bearing_jacobians(pose, lpos)
    jac = np.hstack((h_lm, h_pose))
    return model.predict(pose, lpos), model.noise_cov + jac @ marg.cov @ jac.T


def _reference_density(z_set, prop, model):
    """The entry-by-entry evaluation the stacked density must equal bit for
    bit: one predictive Gaussian, Cholesky factor and triangular solve per
    entry."""
    out = {}
    for entry in z_set:
        mean, cov = _predictive(prop, model, entry.lm)
        diff = entry.value - mean
        diff = np.array([diff[0], wrap_angle(diff[1])])
        low = np.linalg.cholesky(as_spd(cov))
        y = solve_triangular(low, diff, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
        out[entry.lm] = -0.5 * (y @ y + logdet + 2 * math.log(2.0 * math.pi))
    return out


def _random_prop(seed, n_landmarks, heading):
    """A propagated belief over landmarks 0..n-1 around a pose at the
    origin; landmarks lie in every direction, so bearings reach +-pi."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, n_landmarks)
    radii = rng.uniform(1.0, 20.0, n_landmarks)
    vars_ = [landmark_var(j) for j in range(n_landmarks)] + [pose_var(1)]
    index = VariableIndex.of(vars_)
    mean = np.concatenate(
        [np.ravel(np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))),
         [0.0, 0.0, heading]])
    cov = random_spd(rng, index.dim, scale=rng.uniform(1e-4, 1.0))
    return PropagatedBelief(index=index, mean=mean, cov=cov, time=1)


class TestPredictiveDensity:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_landmarks=st.integers(1, 5),
           heading=st.floats(-math.pi, math.pi),
           data=st.data())
    def test_stacked_density_equals_entry_by_entry(self, seed, n_landmarks,
                                                    heading, data):
        prop = _random_prop(seed, n_landmarks, heading)
        model = MeasModel()
        lms = data.draw(st.sets(st.integers(0, n_landmarks - 1)))
        bearing = st.one_of(
            st.floats(-math.pi, math.pi),
            st.sampled_from([math.pi, -math.pi, math.nextafter(-math.pi, 0.0),
                             math.nextafter(math.pi, 0.0)]))
        z_set = MeasurementSet(tuple(
            MeasurementEntry(lm, np.array([data.draw(st.floats(0.0, 30.0)),
                                           data.draw(bearing)]))
            for lm in lms))
        got = measurement_likelihood_density(z_set, prop, model)
        want = _reference_density(z_set, prop, model)
        assert list(got) == list(want) == list(z_set.keys())
        for lm in want:
            assert got[lm].tobytes() == want[lm].tobytes(), lm

    def test_range_bearing_predictive_matches_hand_formula(self):
        """Every density of a realistic set equals, bit for bit, the one
        computed entry by entry on the (landmark, pose) marginals."""
        prop, model = _prop(landmarks={
            j: (np.array([4.0 * math.cos(j), 4.0 * math.sin(j)]), np.eye(2) * 0.5)
            for j in range(5)})
        for sample in sample_future_measurements(prop, model, 3, 2,
                                                 node_rng(2, (0,))):
            want = _reference_density(sample.z_set, prop, model)
            assert len(want) == 5
            assert sample.entry_log_densities == want

    def test_entry_log_density_matches_scipy(self):
        prop, model = _prop()
        entry = MeasurementEntry(0, np.array([3.2, 0.05]))
        mean, cov = _predictive(prop, model, lm=0)
        expect = stats.multivariate_normal(mean, cov).logpdf(entry.value)
        assert _log_density(entry, prop, model) == pytest.approx(expect, abs=1e-10)
        # random beliefs, values near the predicted mean
        rng = np.random.default_rng(5)
        for seed in range(20):
            prop = _random_prop(seed, 3, rng.uniform(-1.0, 1.0))
            for lm in range(3):
                mean, cov = _predictive(prop, model, lm)
                value = mean + 0.5 * rng.standard_normal(2)
                expect = stats.multivariate_normal(mean, cov).logpdf(value)
                got = _log_density(MeasurementEntry(lm, value), prop, model)
                assert got == pytest.approx(expect, abs=1e-10)

    def test_range_bearing_predictive_covers_monte_carlo(self):
        # first-order predictive moments track simulation up to second-order
        # bias, which scales with state variance over range; keep both small
        b = make_prior_belief(
            np.zeros(3), np.diag([0.1**2, 0.1**2, 0.01**2]),
            landmarks={0: (np.array([5.0, 0.0]), np.eye(2) * 0.01)},
        )
        motion = MotionModel(
            noise_cov=np.diag([0.05**2, 0.05**2, math.radians(0.5) ** 2]))
        prop = propagate(b, ActionId(0), motion)
        model = MeasModel(fov=2 * math.pi, min_range=0.0, max_range=20.0)
        mean, cov = _predictive(prop, model, lm=0)
        rng = np.random.default_rng(8)
        n = 100_000
        xs = rng.multivariate_normal(prop.mean, prop.cov, size=n)
        sl_p = prop.index.slice_of(pose_var(1))
        sl_l = prop.index.slice_of(landmark_var(0))
        zs = np.empty((n, 2))
        for i in range(n):
            zs[i] = model.predict(xs[i, sl_p], xs[i, sl_l])
        zs += rng.multivariate_normal(np.zeros(2), model.noise_cov, size=n)
        assert np.all(np.abs(zs.mean(axis=0) - mean) <= 0.005)
        assert np.allclose(np.cov(zs.T), cov, rtol=0.05, atol=1e-4)
        # the density is that Gaussian's
        value = np.array([5.1, 0.01])
        assert _log_density(MeasurementEntry(0, value), prop, model) == \
            pytest.approx(stats.multivariate_normal(mean, cov).logpdf(value),
                          abs=1e-10)

    def test_unknown_landmark_rejected(self):
        prop, model = _prop()
        z_set = MeasurementSet((MeasurementEntry(0, np.array([4.0, 0.0])),
                                MeasurementEntry(77, np.array([4.0, 0.0]))))
        with pytest.raises(UnknownLandmark, match="landmark 77"):
            measurement_likelihood_density(z_set, prop, model)

    def test_landmark_on_the_pose_rejected(self):
        prop = _random_prop(3, 2, 0.0)
        mean = prop.mean.copy()
        mean[prop.index.slice_of(landmark_var(1))] = 0.0  # the pose's position
        prop = PropagatedBelief(index=prop.index, mean=mean, cov=prop.cov, time=1)
        z_set = MeasurementSet((MeasurementEntry(0, np.array([4.0, 0.0])),
                                MeasurementEntry(1, np.array([4.0, 0.0]))))
        with pytest.raises(InvalidInput, match="coincides with pose"):
            measurement_likelihood_density(z_set, prop, MeasModel())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["range", "bearing"])
    def test_non_finite_value_rejected(self, where, bad):
        prop, model = _prop()
        value = np.array([4.0, 0.1])
        value[0 if where == "range" else 1] = bad
        z_set = MeasurementSet((MeasurementEntry(0, value),))
        with pytest.raises(InvalidInput, match="finite"):
            measurement_likelihood_density(z_set, prop, model)

    def test_empty_set_has_unit_density(self):
        prop, model = _prop()
        assert measurement_likelihood_density(MeasurementSet(), prop, model) == {}
        assert _reference_density(MeasurementSet(), prop, model) == {}

    def test_bearing_residual_wraps(self):
        prop, model = _prop()
        mean, _ = _predictive(prop, model, lm=0)
        near = MeasurementEntry(0, np.array([mean[0], wrap_angle_near(mean[1])]))
        far = MeasurementEntry(0, np.array([mean[0], mean[1] + 0.5]))
        assert _log_density(near, prop, model) > _log_density(far, prop, model)


def wrap_angle_near(theta: float) -> float:
    """theta shifted by a full turn; density must treat it as identical."""
    return theta + 2 * math.pi
