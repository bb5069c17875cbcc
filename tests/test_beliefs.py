"""Joint Gaussian beliefs: layout, propagation, conditioning, planning roots."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import random_spd
from ixbsp import beliefs
from ixbsp._gaussian import chol_lower, spd_inverse
from ixbsp.beliefs import (
    LANDMARK_INIT_VAR,
    DaDiff,
    DensePriorFactor,
    GaussianBelief,
    MeasurementEntry,
    MeasurementFactor,
    MeasurementSet,
    MotionFactor,
    StepRecord,
    VariableIndex,
    canonical_order,
    da_diff,
    factor_layout,
    make_prior_belief,
    planning_root,
    propagate,
    solve_factors,
    update_with_measurements,
    wrap_state,
    wrapped_diff,
)
from ixbsp.serialize import belief_from_json_dict, belief_to_json_dict
from ixbsp.errors import DaMismatch, InvalidBelief, UnknownLandmark, UnknownVariable
from ixbsp.models import ActionId, MeasModel, MotionModel, landmark_var, pose_var


def _entry(t, lm, value):
    return MeasurementEntry(t, lm, np.asarray(value, dtype=float))


class TestVariableIndex:
    def test_canonical_order_landmarks_then_poses(self):
        got = canonical_order([pose_var(2), landmark_var(5), pose_var(0), landmark_var(1)])
        assert got == (landmark_var(1), landmark_var(5), pose_var(0), pose_var(2))

    def test_offsets_and_slices(self):
        idx = VariableIndex.of([pose_var(0), landmark_var(0), pose_var(1)])
        # layout: lm0 (2), pose0 (3), pose1 (3)
        assert idx.dim == 8
        assert idx.slice_of(landmark_var(0)) == slice(0, 2)
        assert idx.slice_of(pose_var(0)) == slice(2, 5)
        assert idx.slice_of(pose_var(1)) == slice(5, 8)
        assert idx.newest_pose() == pose_var(1)
        assert idx.landmarks() == (landmark_var(0),)
        with pytest.raises(UnknownVariable):
            idx.offset(landmark_var(9))

    def test_duplicate_variable_rejected(self):
        with pytest.raises(InvalidBelief):
            VariableIndex((pose_var(0), pose_var(0)))

    def test_theta_mask_marks_heading_slots(self):
        idx = VariableIndex.of([landmark_var(0), pose_var(0), pose_var(1)])
        mask = idx.theta_mask()
        assert mask.tolist() == [False, False, False, False, True, False, False, True]

    def test_theta_mask_is_read_only(self):
        idx = VariableIndex.of([pose_var(0), landmark_var(1)])
        mask = idx.theta_mask()
        with pytest.raises(ValueError):
            mask[0] = True
        assert idx.theta_mask() is mask

    def test_cached_offsets_agree_with_a_recomputation(self):
        vars_ = canonical_order([pose_var(3), landmark_var(7), pose_var(1),
                                 landmark_var(2), pose_var(2)])
        idx = VariableIndex(vars_)
        off = 0
        for v in vars_:
            assert v in idx
            assert idx.offset(v) == off
            assert idx.slice_of(v) == slice(off, off + v.dim)
            assert idx.theta_mask()[off:off + v.dim].tolist() == (
                [False, False, True] if v.kind == "pose" else [False, False])
            off += v.dim
        assert idx.dim == off
        assert pose_var(9) not in idx and landmark_var(1) not in idx

    def test_equal_vars_give_equal_hashable_indexes(self):
        vars_ = (landmark_var(0), pose_var(1), pose_var(2))
        a, b = VariableIndex(vars_), VariableIndex(tuple(vars_))
        assert a == b and hash(a) == hash(b)
        assert a != VariableIndex(vars_[:2])
        assert len({a, b}) == 1
        assert "_offset_map" not in repr(a) and "_theta" not in repr(a)

    def test_pickle_and_serialize_round_trips_keep_offsets(self):
        idx = VariableIndex.of([pose_var(0), landmark_var(4), pose_var(1)])
        payload = pickle.dumps(idx)
        assert b"_offset_map" not in payload and b"_theta" not in payload
        back = pickle.loads(payload)
        assert back == idx and back.offsets == idx.offsets
        assert all(back.offset(v) == idx.offset(v) for v in idx.vars)
        assert np.array_equal(back.theta_mask(), idx.theta_mask())
        assert not back.theta_mask().flags.writeable

        belief = make_prior_belief(np.zeros(3), np.eye(3),
                                   landmarks={4: (np.ones(2), np.eye(2))})
        again = belief_from_json_dict(belief_to_json_dict(belief))
        assert again.index == belief.index
        assert all(again.index.offset(v) == belief.index.offset(v)
                   for v in belief.index.vars)

    def test_wrapped_diff_wraps_heading_only(self):
        idx = VariableIndex.of([pose_var(0)])
        a = np.array([1.0, 2.0, math.pi - 0.1])
        b = np.array([0.0, 0.0, -math.pi + 0.1])
        d = wrapped_diff(idx, a, b)
        assert np.allclose(d[:2], [1.0, 2.0])
        assert d[2] == pytest.approx(-0.2)


class TestMeasurementSets:
    def test_sorted_and_keyed(self):
        s = MeasurementSet((_entry(2, 1, [1.0, 0.1]), _entry(1, 3, [2.0, 0.2])))
        assert s.keys() == ((1, 3), (2, 1))
        assert s.get((2, 1)).value[0] == 1.0
        assert s.get((9, 9)) is None

    def test_duplicate_key_rejected(self):
        with pytest.raises(DaMismatch):
            MeasurementSet((_entry(1, 1, [1.0]), _entry(1, 1, [2.0])))

    def test_da_diff_partitions_keys(self):
        a = MeasurementSet((_entry(1, 0, [1.0, 0.0]), _entry(1, 1, [2.0, 0.0])))
        b = MeasurementSet((_entry(1, 1, [2.5, 0.1]), _entry(1, 2, [3.0, 0.0])))
        d = da_diff(a, b)
        assert d.removed == ((1, 0),)
        assert d.added == ((1, 2),)
        assert [k for k, _, _ in d.kept] == [(1, 1)]
        assert d.n_changed == 2
        assert d.value_gap() == pytest.approx(math.hypot(0.5, 0.1))

    def test_da_diff_key_orders_structure_before_values(self):
        a = MeasurementSet((_entry(1, 0, [1.0, 0.0]),))
        same_da_far = da_diff(a, MeasurementSet((_entry(1, 0, [9.0, 1.0]),)))
        new_da_close = da_diff(a, MeasurementSet((_entry(1, 1, [1.0, 0.0]),)))
        assert same_da_far.key() < new_da_close.key()

    def test_value_gap_wraps_bearing(self):
        a = MeasurementSet((_entry(1, 0, [1.0, math.pi - 0.05]),))
        b = MeasurementSet((_entry(1, 0, [1.0, -math.pi + 0.05]),))
        assert da_diff(a, b).value_gap() == pytest.approx(0.1, abs=1e-12)


class TestPriorAndPropagate:
    def test_make_prior_belief_blocks(self):
        pose_cov = np.diag([4.0, 4.0, 0.01])
        b = make_prior_belief(
            np.array([1.0, 2.0, 0.3]), pose_cov,
            landmarks={5: (np.array([7.0, 8.0]), np.eye(2) * 9.0)},
        )
        assert b.index.vars == (landmark_var(5), pose_var(0))
        assert np.allclose(b.mean, [7.0, 8.0, 1.0, 2.0, 0.3])
        assert np.allclose(b.cov[0:2, 0:2], np.eye(2) * 9.0)
        assert np.allclose(b.cov[2:5, 2:5], pose_cov)
        assert np.allclose(b.cov[0:2, 2:5], 0.0)
        assert len(b.factors) == 1 and isinstance(b.factors[0], DensePriorFactor)

    def test_linear_propagate_matches_hand_formula(self):
        rng = np.random.default_rng(3)
        f_mat = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        j_mat = rng.normal(size=(3, 2))
        w = np.diag([0.2, 0.3, 0.05])
        model = MotionModel(kind="linear", f_mat=f_mat, j_mat=j_mat,
                            controls=np.array([[1.0, 0.5], [0.0, 1.0]]),
                            noise_cov=w)
        cov0 = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 0.4]])
        mu0 = np.array([1.0, -2.0, 0.5])
        b = make_prior_belief(mu0, cov0)
        prop = propagate(b, ActionId(0), model)

        u = np.array([1.0, 0.5])
        assert np.allclose(prop.mean[:3], mu0)
        assert np.allclose(prop.mean[3:], f_mat @ mu0 + j_mat @ u)
        assert np.allclose(prop.cov[:3, :3], cov0)
        assert np.allclose(prop.cov[:3, 3:], cov0 @ f_mat.T)
        assert np.allclose(prop.cov[3:, 3:], f_mat @ cov0 @ f_mat.T + w)
        assert prop.time == 1
        assert prop.new_pose() == pose_var(1)

    def test_linear_propagate_matches_monte_carlo(self):
        f_mat = np.array([[1.0, 0.0, 0.2], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
        j_mat = np.eye(3)[:, :1]
        w = np.diag([0.09, 0.04, 0.01])
        model = MotionModel(kind="linear", f_mat=f_mat, j_mat=j_mat,
                            controls=np.array([[2.0]]), noise_cov=w)
        mu0 = np.array([0.5, -0.5, 0.2])
        cov0 = np.diag([1.0, 0.5, 0.2])
        prop = propagate(make_prior_belief(mu0, cov0), ActionId(0), model)

        rng = np.random.default_rng(11)
        n = 200_000
        xs = rng.multivariate_normal(mu0, cov0, size=n)
        nxt = xs @ f_mat.T + (j_mat @ np.array([2.0]))[None, :]
        nxt += rng.multivariate_normal(np.zeros(3), w, size=n)
        mc_mean = nxt.mean(axis=0)
        mc_cov = np.cov(nxt.T)
        se = np.sqrt(np.diag(prop.cov[3:, 3:]) / n)
        assert np.all(np.abs(prop.mean[3:] - mc_mean) <= 3 * se)
        assert np.allclose(prop.cov[3:, 3:], mc_cov, atol=0.02)


class TestConditioning:
    def test_scalar_bayes_product_on_measured_coordinate(self):
        # z observes the new pose x-coordinate; z is independent of the rest
        # given that coordinate, so its posterior marginal follows the scalar
        # precision-weighted product.
        f_mat = np.eye(3)
        model = MotionModel(kind="linear", f_mat=f_mat, j_mat=np.zeros((3, 1)),
                            controls=np.array([[0.0]]),
                            noise_cov=np.diag([1.0, 1.0, 1.0]) * 0.5)
        prior_var = 2.0
        b = make_prior_belief(np.zeros(3), np.eye(3) * prior_var)
        prop = propagate(b, ActionId(0), model)
        p = prior_var + 0.5    # propagated variance of the measured coordinate
        r = 1.3
        z = 2.0
        meas = MeasModel(kind="linear", h_mat=np.array([[1.0, 0.0, 0.0]]),
                         noise_cov=np.array([[r]]))
        post = update_with_measurements(
            prop, MeasurementSet((_entry(1, 0, [z]),)), meas)

        sl = post.index.slice_of(pose_var(1))
        var_expect = 1.0 / (1.0 / p + 1.0 / r)
        mean_expect = var_expect * (0.0 / p + z / r)
        assert post.mean[sl][0] == pytest.approx(mean_expect, abs=1e-9)
        assert post.cov[sl, sl][0, 0] == pytest.approx(var_expect, abs=1e-9)

    def test_empty_measurement_set_keeps_moments(self):
        cfgm = MotionModel()
        b = make_prior_belief(np.zeros(3), np.eye(3))
        prop = propagate(b, ActionId(0), cfgm)
        post = update_with_measurements(prop, MeasurementSet(), MeasModel())
        assert np.array_equal(post.mean, prop.mean)
        assert np.array_equal(post.cov, prop.cov)
        assert len(post.history) == 1 and len(post.history[0].measurements) == 0

    def test_unknown_landmark_raises_without_init_flag(self):
        b = make_prior_belief(np.zeros(3), np.eye(3) * 0.1)
        prop = propagate(b, ActionId(0), MotionModel())
        meas = MeasModel(fov=2 * math.pi, min_range=0.0)
        z = MeasurementSet((_entry(1, 4, [3.0, 0.1]),))
        with pytest.raises(UnknownLandmark):
            update_with_measurements(prop, z, meas)
        post = update_with_measurements(prop, z, meas, init_new_landmarks=True)
        assert landmark_var(4) in post.index
        # initialized near the inverse-projected point from the pose mean
        lm = post.mean[post.index.slice_of(landmark_var(4))]
        guess = meas.invert(prop.mean[prop.index.slice_of(pose_var(1))],
                            np.array([3.0, 0.1]))
        assert np.allclose(lm, guess, atol=0.5)

    def test_measurement_tightens_covariance(self):
        b = make_prior_belief(
            np.zeros(3), np.eye(3) * 2.0,
            landmarks={0: (np.array([4.0, 0.0]), np.eye(2) * 4.0)},
        )
        prop = propagate(b, ActionId(0), MotionModel())
        meas = MeasModel(fov=2 * math.pi, min_range=0.0)
        truth = meas.predict(prop.mean[prop.index.slice_of(pose_var(1))],
                             np.array([4.0, 0.0]))
        post = update_with_measurements(
            prop, MeasurementSet((_entry(1, 0, truth),)), meas)
        before = np.trace(prop.cov)
        after = np.trace(post.cov)
        assert after < before


def _chain(root, steps, motion, meas):
    b = root
    for rec in steps:
        prop = propagate(b, rec.action, motion)
        b = update_with_measurements(prop, rec.measurements, meas)
    return b


def _two_landmark_setup():
    motion = MotionModel()
    meas = MeasModel(fov=2 * math.pi, min_range=0.0,
                     noise_cov=np.diag([0.3**2, math.radians(2.0) ** 2]))
    root = make_prior_belief(
        np.array([0.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.05]),
        landmarks={0: (np.array([3.0, 1.0]), np.eye(2) * 2.0),
                   1: (np.array([5.0, -2.0]), np.eye(2) * 2.0)},
    )
    steps = (
        StepRecord(1, ActionId(0), MeasurementSet((_entry(1, 0, [2.2, 0.5]),))),
        StepRecord(2, ActionId(1), MeasurementSet((_entry(2, 0, [1.9, -0.8]),
                                                   _entry(2, 1, [3.6, -1.1])))),
    )
    return motion, meas, root, steps


class TestPlanningRoot:
    def test_marginal_moments_and_reanchored_factor(self):
        motion, meas, root, steps = _two_landmark_setup()
        b = _chain(root, steps, motion, meas)
        pr = planning_root(b)
        keep = canonical_order(list(b.index.landmarks()) + [b.index.newest_pose()])
        assert pr.index.vars == keep
        ref = b.marginal(keep)
        assert np.allclose(pr.mean, ref.mean)
        assert np.allclose(pr.cov, ref.cov)
        assert len(pr.factors) == 1 and isinstance(pr.factors[0], DensePriorFactor)
        assert pr.time == b.time and pr.root_time == b.time
        assert pr.history == ()

    def test_future_planning_matches_full_joint_linear(self):
        # for linear models, conditioning on a future measurement gives the
        # same newest-pose marginal whether the past is kept or marginalized
        # out first; nonlinear chains match only to first order
        rng = np.random.default_rng(7)
        f_mat = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        motion = MotionModel(kind="linear", f_mat=f_mat,
                             j_mat=rng.normal(size=(3, 1)),
                             controls=np.array([[1.0], [0.5]]),
                             noise_cov=np.diag([0.2, 0.2, 0.1]))
        meas = MeasModel(kind="linear", h_mat=np.array([[1.0, 0.3, 0.0]]),
                         noise_cov=np.array([[0.4]]))
        root = make_prior_belief(np.array([0.5, -0.5, 0.1]),
                                 np.diag([2.0, 1.0, 0.3]))
        b = root
        for t, act in ((1, 0), (2, 1)):
            prop = propagate(b, ActionId(act), motion)
            b = update_with_measurements(
                prop, MeasurementSet((_entry(t, 0, [0.8 * t]),)), meas)
        pr = planning_root(b)

        z = MeasurementSet((_entry(3, 0, [2.5]),))
        full = update_with_measurements(propagate(b, ActionId(0), motion), z, meas)
        marg = update_with_measurements(propagate(pr, ActionId(0), motion), z, meas)
        fm = full.marginal([pose_var(3)])
        mm = marg.marginal([pose_var(3)])
        assert np.allclose(fm.mean, mm.mean, atol=1e-9)
        assert np.allclose(fm.cov, mm.cov, atol=1e-9)


class TestFactorWhiteners:
    def test_factors_of_one_model_share_one_whitener(self):
        motion = MotionModel(noise_cov=np.array([[0.3, 0.1, 0.0],
                                                 [0.1, 0.2, 0.0],
                                                 [0.0, 0.0, 0.01]]))
        meas = MeasModel()
        m1 = MotionFactor(0, 1, ActionId(0), motion)
        m2 = MotionFactor(1, 2, ActionId(2), motion)
        z1 = MeasurementFactor(1, 0, np.array([3.0, 0.1]), meas)
        z2 = MeasurementFactor(2, 1, np.array([4.0, -0.2]), meas)
        assert m1._wt is m2._wt is motion.noise_wt
        assert z1._wt is z2._wt is meas.noise_wt
        for model in (motion, meas):
            w = model.noise_wt.T
            assert np.allclose(w @ w.T, np.linalg.inv(model.noise_cov))
            assert not model.noise_wt.flags.writeable
            back = pickle.loads(pickle.dumps(model))  # sent without its cache
            assert "noise_wt" not in back.__dict__
            assert np.array_equal(back.noise_wt, model.noise_wt)
            assert not back.noise_wt.flags.writeable


# ---------------------------------------------------------------------------
# solve_factors against the loop it replaced


def _reference_solve(factors, index, init, max_iter):
    """Gauss-Newton with every layout and ``np.ix_`` block rebuilt per iteration."""
    x = wrap_state(index, np.asarray(init, dtype=float))
    d = index.dim
    iters = 0
    for _ in range(max_iter):
        lam = np.zeros((d, d))
        rhs = np.zeros(d)
        for f in factors:
            ew, a, idx = f.whitened(x, factor_layout(f, index))
            lam[np.ix_(idx, idx)] += a.T @ a
            rhs[idx] -= a.T @ ew
        low = chol_lower(lam, "information matrix")
        delta = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
        x = wrap_state(index, x + delta)
        iters += 1
        if float(np.max(np.abs(delta))) < beliefs._GN_TOL:
            break
    lam = np.zeros((d, d))
    for f in factors:
        _, a, idx = f.whitened(x, factor_layout(f, index))
        lam[np.ix_(idx, idx)] += a.T @ a
    return x, spd_inverse(lam), iters


def _range_bearing_problem(rng, n_lm, n_steps, new_lm):
    """Dense prior over landmarks and pose 0, a motion chain, range-bearing
    measurements of every landmark, and optionally one landmark first seen
    at the last step (weak ``DensePriorFactor`` plus its measurement)."""
    motion = MotionModel()
    meas = MeasModel(fov=2 * math.pi, min_range=0.0)
    lms = {j: rng.uniform(-8.0, 8.0, 2) + np.array([0.0, 12.0]) for j in range(n_lm)}
    prior_vars = canonical_order([landmark_var(j) for j in lms] + [pose_var(0)])
    prior_index = VariableIndex(prior_vars)
    truth = {pose_var(0): np.array([0.0, 0.0, rng.uniform(-math.pi, math.pi)])}
    truth.update({landmark_var(j): p for j, p in lms.items()})
    prior_mean = np.concatenate([truth[v] for v in prior_vars])
    prior_mean = prior_mean + 0.1 * rng.standard_normal(prior_index.dim)
    factors = [DensePriorFactor(prior_vars, prior_mean,
                                random_spd(rng, prior_index.dim, 0.05), step_time=0)]
    for t in range(1, n_steps + 1):
        act = ActionId(int(rng.integers(0, 3)))
        truth[pose_var(t)] = motion.step_mean(truth[pose_var(t - 1)], act)
        factors.append(MotionFactor(t - 1, t, act, motion))
        for j in lms:
            z = meas.predict(truth[pose_var(t)], lms[j]) + 0.02 * rng.standard_normal(2)
            factors.append(MeasurementFactor(t, j, z, meas))
    if new_lm:
        j = n_lm
        pos = truth[pose_var(n_steps)][:2] + np.array([3.0, 4.0])
        truth[landmark_var(j)] = pos
        z = meas.predict(truth[pose_var(n_steps)], pos)
        factors.append(DensePriorFactor((landmark_var(j),), meas.invert(
            truth[pose_var(n_steps)], z), LANDMARK_INIT_VAR * np.eye(2),
            step_time=n_steps))
        factors.append(MeasurementFactor(n_steps, j, z, meas))
    index = VariableIndex.of(truth)
    init = np.concatenate([truth[v] for v in index.vars])
    return factors, index, init + 0.2 * rng.standard_normal(index.dim)


def _linear_problem(rng, n_steps):
    f_mat = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    motion = MotionModel(kind="linear", f_mat=f_mat, j_mat=rng.standard_normal((3, 1)),
                         controls=np.array([[1.0], [-0.5]]),
                         noise_cov=random_spd(rng, 3, 0.1))
    meas = MeasModel(kind="linear", h_mat=rng.standard_normal((2, 3)),
                     noise_cov=random_spd(rng, 2, 0.1))
    factors = [DensePriorFactor((pose_var(0),), rng.standard_normal(3),
                                random_spd(rng, 3), step_time=0)]
    for t in range(1, n_steps + 1):
        factors.append(MotionFactor(t - 1, t, ActionId(int(rng.integers(0, 2))), motion))
        factors.append(MeasurementFactor(t, None, rng.standard_normal(2), meas))
    index = VariableIndex.of(pose_var(t) for t in range(n_steps + 1))
    return factors, index, rng.standard_normal(index.dim)


class TestSolveFactorsBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_lm=st.integers(1, 3),
           n_steps=st.integers(1, 3), new_lm=st.booleans(),
           linear=st.booleans(), max_iter=st.sampled_from([1, 2, 5, 60]))
    def test_equals_per_iteration_reference(self, seed, n_lm, n_steps, new_lm,
                                            linear, max_iter):
        rng = np.random.default_rng(seed)
        if linear:
            factors, index, init = _linear_problem(rng, n_steps)
        else:
            factors, index, init = _range_bearing_problem(rng, n_lm, n_steps, new_lm)
        mean, cov, iters = solve_factors(factors, index, init, max_iter=max_iter)
        ref_mean, ref_cov, ref_iters = _reference_solve(factors, index, init, max_iter)
        assert iters == ref_iters
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(cov, ref_cov)
