"""State ids, motion and measurement models, angle handling."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import range_bearing_jacobians
from ixbsp._gaussian import chol_lower
from ixbsp.errors import InvalidInput
from ixbsp.models import (
    ActionId,
    MeasModel,
    MotionModel,
    Primitive,
    VariableId,
    landmark_var,
    pose_var,
    wrap_angle,
    wrap_angle_array,
)


class TestWrapAngle:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi + 1e-12
        # same direction on the unit circle
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-6)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-6)

    def test_interior_values_fixed(self):
        assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    def test_array_variant_matches_scalar(self):
        vals = np.linspace(-10.0, 10.0, 41)
        wrapped = wrap_angle_array(vals)
        assert np.allclose(wrapped, [wrap_angle(v) for v in vals])

    @staticmethod
    def _edge_angles() -> np.ndarray:
        """Zero, the subnormals and 200 floats each side of every k*pi, |k| <= 6."""
        out = [0.0, -0.0, 5e-324, -5e-324]
        for k in range(-6, 7):
            up = down = k * np.pi
            for _ in range(200):
                out += [up, down]
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        return np.array(out)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=20))
    def test_array_variant_returns_its_outputs_unchanged(self, thetas):
        # solve_factors relies on this: a zero step leaves a wrapped state as it is
        wrapped = wrap_angle_array(np.concatenate([thetas, self._edge_angles()]))
        assert wrap_angle_array(wrapped).tobytes() == wrapped.tobytes()


class TestVariableIds:
    def test_kinds_and_dims(self):
        assert pose_var(3) == VariableId("pose", 3)
        assert landmark_var(7) == VariableId("landmark", 7)
        assert pose_var(0).dim == 3
        assert landmark_var(0).dim == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            VariableId("waypoint", 0)


class TestUnicycleMotion:
    def test_step_geometry(self):
        model = MotionModel(primitives=(Primitive("fwd", 2.0, 0.0),
                                        Primitive("left", 1.0, math.pi / 2)))
        x = np.array([1.0, 2.0, 0.0])
        fwd = model.step_mean(x, ActionId(0))
        assert np.allclose(fwd, [3.0, 2.0, 0.0])
        left = model.step_mean(x, ActionId(1))
        assert np.allclose(left, [1.0, 3.0, math.pi / 2])

    def test_jacobian_matches_finite_difference(self):
        model = MotionModel()
        x = np.array([0.5, -1.0, 0.7])
        act = ActionId(1)
        jac = model.step_jacobian(x, act)
        eps = 1e-6
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = eps
            num = (model.step_mean(x + dx, act) - model.step_mean(x - dx, act)) / (2 * eps)
            assert np.allclose(jac[:, i], num, atol=1e-5)


class TestRangeBearing:
    def test_predict_and_invert_roundtrip(self):
        model = MeasModel(fov=2 * math.pi, min_range=0.0)
        pose = np.array([1.0, 1.0, 0.5])
        lm = np.array([4.0, 5.0])
        z = model.predict(pose, lm)
        assert z[0] == pytest.approx(5.0)
        assert np.allclose(model.invert(pose, z), lm, atol=1e-12)

    def test_jacobians_match_finite_difference(self):
        """The scalar reference and ``linearize``'s stacked Jacobian both
        match central differences of ``predict``."""
        model = MeasModel()
        pose = np.array([0.0, 0.0, 0.3])
        lm = np.array([3.0, 4.0])
        h_pose, h_lm = range_bearing_jacobians(pose, lm)
        _, jac = model.linearize(pose, lm[None, :])
        eps = 1e-6
        for i in range(3):
            d = np.zeros(3)
            d[i] = eps
            num = (model.predict(pose + d, lm) - model.predict(pose - d, lm)) / (2 * eps)
            assert np.allclose(h_pose[:, i], num, atol=1e-5)
            assert np.allclose(jac[0, :, 2 + i], num, atol=1e-5)
        for i in range(2):
            d = np.zeros(2)
            d[i] = eps
            num = (model.predict(pose, lm + d) - model.predict(pose, lm - d)) / (2 * eps)
            assert np.allclose(h_lm[:, i], num, atol=1e-5)
            assert np.allclose(jac[0, :, i], num, atol=1e-5)

    def test_visibility_gates(self):
        model = MeasModel(fov=math.pi / 2, min_range=2.0, max_range=10.0)
        pose = np.array([0.0, 0.0, 0.0])
        assert model.visible(pose, np.array([5.0, 0.0]))
        assert not model.visible(pose, np.array([1.0, 0.0]))     # too close
        assert not model.visible(pose, np.array([20.0, 0.0]))    # too far
        assert not model.visible(pose, np.array([0.0, 5.0]))     # outside fov

    def test_coincident_landmark_rejected(self):
        model = MeasModel()
        with pytest.raises(InvalidInput, match="coincides with pose"):
            model.linearize(np.array([1.0, 1.0, 0.0]),
                            np.array([[4.0, 1.0], [1.0, 1.0]]))

    @settings(max_examples=200, deadline=None)
    @given(pose=st.tuples(*[st.floats(-50.0, 50.0)] * 2,
                          st.floats(-math.pi, math.pi)),
           landmarks=st.lists(st.tuples(st.floats(-50.0, 50.0),
                                        st.floats(-50.0, 50.0)),
                              min_size=1, max_size=6))
    def test_linearize_stacks_the_scalar_pair_bit_for_bit(self, pose, landmarks):
        model = MeasModel()
        pose = np.array(pose)
        lms = np.array(landmarks)
        if any(math.hypot(*(lm - pose[:2])) < 1e-6 for lm in lms):
            return
        z, jac = model.linearize(pose, lms)
        assert z.shape == (len(lms), 2) and jac.shape == (len(lms), 2, 5)
        for i, lm in enumerate(lms):
            h_pose, h_lm = range_bearing_jacobians(pose, lm)
            assert z[i].tobytes() == model.predict(pose, lm).tobytes()
            assert jac[i].tobytes() == np.hstack((h_lm, h_pose)).tobytes()


class TestNoiseFactors:
    @pytest.mark.parametrize("model", [MotionModel(), MeasModel()],
                             ids=["motion", "meas"])
    def test_cached_read_only_and_left_out_of_pickles(self, model):
        low = model.noise_chol
        assert low is model.noise_chol
        assert np.array_equal(low, chol_lower(model.noise_cov))
        assert not low.flags.writeable
        assert model.noise_wt is not None  # fill the whitener's cache too
        back = pickle.loads(pickle.dumps(model))
        assert "noise_chol" not in back.__dict__
        assert "noise_wt" not in back.__dict__
        assert np.array_equal(back.noise_chol, low)
        assert not back.noise_chol.flags.writeable
