"""Objective-error bounds for verbatim belief re-use."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ixbsp.beliefs import GaussianState, VariableIndex, make_prior_belief, planning_root
from ixbsp.bounds import (
    BoundReport,
    HolderSpec,
    LinearGaussianScenario,
    bound_sweep,
    empirical_bound_check,
    fit_lambda,
    objective_bound_analytic,
    objective_bound_sampled,
    reward_bound,
    run_bound_trials,
    verify_lambda,
)
from ixbsp.distances import sqrt_j_moments
from ixbsp.errors import IncompatibleTrees, InvalidInput, UnsupportedModel
from ixbsp.models import landmark_var
from ixbsp.planner import build_tree, objective

from _util import tiny_cfg

# alpha=1, lam=1 reward-gap ceiling at distance 0.5: sqrt(4 ln 2) * 0.5
GAP_CEILING_AT_HALF = 0.8325546111576977


def _iso_pair(shift, var=1.0):
    idx = VariableIndex.of([landmark_var(0)])
    a = GaussianState(index=idx, mean=np.zeros(2), cov=np.eye(2) * var)
    b = GaussianState(index=idx, mean=np.asarray(shift, dtype=float),
                      cov=np.eye(2) * var)
    return a, b


class TestHolderSpec:
    def test_frozen_gap_ceiling_at_distance_half(self):
        spec = HolderSpec(lam_alpha=1.0, alpha=1.0)
        # equal unit covariances: d^2 = |shift|^2 / 2, so |shift| = sqrt(2)/2
        a, b = _iso_pair([math.sqrt(2.0) / 2.0, 0.0])
        assert reward_bound(a, b, spec) == pytest.approx(GAP_CEILING_AT_HALF,
                                                         abs=1e-12)

    def test_scale_formula(self):
        spec = HolderSpec(lam_alpha=2.0, alpha=0.5)
        assert spec.scale == pytest.approx(2.0 * (4 * math.log(2.0)) ** 0.25)

    def test_invalid_constants_rejected(self):
        with pytest.raises(InvalidInput):
            HolderSpec(lam_alpha=1.0, alpha=0.0)
        with pytest.raises(InvalidInput):
            HolderSpec(lam_alpha=1.0, alpha=1.5)
        with pytest.raises(InvalidInput):
            HolderSpec(lam_alpha=0.0)


class TestFitVerifyLambda:
    def test_fit_covers_generator_with_margin(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.1, 3.0, size=40)
        scale = math.sqrt(4 * math.log(2.0))
        gaps = 2.0 * scale * d * rng.uniform(0.2, 1.0, size=40)
        gaps[7] = 2.0 * scale * d[7]  # one pair exactly at the envelope
        spec = fit_lambda(d, gaps, alpha=1.0, margin=1.25)
        assert spec.lam_alpha == pytest.approx(2.5, rel=1e-9)
        assert verify_lambda(d, gaps, spec)
        assert not verify_lambda(d, gaps, HolderSpec(lam_alpha=1.0))

    def test_zero_distance_positive_gap_rejected(self):
        with pytest.raises(InvalidInput):
            fit_lambda(np.array([0.0, 1.0]), np.array([0.5, 1.0]))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InvalidInput):
            fit_lambda(np.array([]), np.array([]))
        with pytest.raises(InvalidInput):
            fit_lambda(np.array([0.0]), np.array([0.0]))
        with pytest.raises(InvalidInput):
            fit_lambda(np.array([-1.0]), np.array([0.1]))


class TestSampledBound:
    def _tree(self, seed, cfg=None):
        cfg = cfg or tiny_cfg(n_x=2)
        lms = {0: (np.array([3.0, 1.5]), np.eye(2)),
               1: (np.array([1.0, -2.5]), np.eye(2))}
        prior = make_prior_belief(np.zeros(3), cfg.prior_cov(), landmarks=lms)
        root = planning_root(prior)
        return build_tree(root, cfg, cfg.motion_model(), cfg.meas_model(),
                          np.array([5.0, 0.0]), seed, most_likely=False)

    def test_identical_trees_give_exact_zero_interval(self):
        tree = self._tree(3)
        spec = HolderSpec(lam_alpha=5.0)
        report = objective_bound_sampled(tree, tree, (0, 0), spec)
        assert report.phi == 0.0
        assert report.psi == 0.0
        assert report.lower == 0.0 and report.upper == 0.0
        assert report.contains(0.0)
        assert report.method == "sampled"

    def test_containment_with_fitted_constant(self):
        t_now = self._tree(3)
        t_prev = self._tree(4)
        seq = (1, 0)
        from ixbsp.distances import d_sqrt_j

        dists, gaps = [], []
        for depth in (1, 2):
            for a, b in zip(t_now.paths_for_seq(seq, depth),
                            t_prev.paths_for_seq(seq, depth)):
                dists.append(d_sqrt_j(a.belief, b.belief))
                gaps.append(a.reward - b.reward)
        spec = fit_lambda(np.array(dists), np.array(gaps))
        report = objective_bound_sampled(t_now, t_prev, seq, spec)
        diff = objective(t_now, seq) - objective(t_prev, seq)
        assert report.contains(diff)
        assert report.psi > 0.0
        assert len(report.per_step_e_delta) == 2

    def test_custom_weights_validated(self):
        t_now = self._tree(3)
        t_prev = self._tree(4)
        spec = HolderSpec(lam_alpha=1.0)
        with pytest.raises(InvalidInput):
            objective_bound_sampled(t_now, t_prev, (0, 0), spec,
                                    weights={1: np.array([0.5, 0.4])})
        with pytest.raises(InvalidInput):
            objective_bound_sampled(t_now, t_prev, (0, 0), spec,
                                    weights={1: np.array([1.5, -0.5])})
        ok = objective_bound_sampled(t_now, t_prev, (0, 0), spec,
                                     weights={1: np.array([0.25, 0.75])})
        assert ok.lower <= ok.upper

    def test_horizon_mismatch_rejected(self):
        t2 = self._tree(3)
        t3 = self._tree(3, cfg=tiny_cfg(n_x=2, horizon=3))
        with pytest.raises(IncompatibleTrees):
            objective_bound_sampled(t2, t3, (0, 0), HolderSpec(lam_alpha=1.0))


class TestScenarioStructure:
    def test_variance_schedule_contracts(self):
        scn = LinearGaussianScenario()
        props, posts = scn.variance_schedule(scn.prior_std**2)
        assert len(props) == len(posts) == scn.n_steps
        prev = scn.prior_std**2
        for vp, vq in zip(props, posts):
            assert vp == pytest.approx(scn.f_scale**2 * prev + scn.noise_w**2)
            assert vq < vp
            prev = vq

    def test_information_increments_reconstruct_precisions(self):
        scn = LinearGaussianScenario()
        incs = scn.information_increments(scn.prior_std**2)
        _, posts = scn.variance_schedule(scn.prior_std**2)
        prec = 1.0 / scn.prior_std**2
        for a, var in zip(incs, posts):
            prec = prec + a * a
            assert prec == pytest.approx(1.0 / var, rel=1e-12)

    def test_precision_loss_rejected(self):
        scn = LinearGaussianScenario(noise_w=5.0, noise_v=100.0)
        with pytest.raises(InvalidInput):
            scn.information_increments(scn.prior_std**2)

    def test_gap_shift_hits_exact_distance(self):
        scn = LinearGaussianScenario(prior_std=1.7)
        for eps in (0.5, 2.0, 10.0):
            shift = scn.gap_shift(eps)
            var = scn.prior_std**2
            d = sqrt_j_moments(shift, np.eye(scn.dim) * var,
                               np.eye(scn.dim) * var)
            assert d == pytest.approx(eps, rel=1e-12)

    def test_reward_saturates_at_cap(self):
        scn = LinearGaussianScenario(reward_cap=100.0)
        near = scn.reward(np.asarray(scn.goal), 1.0)
        far = scn.reward(np.asarray(scn.goal) + 1e6, 1.0)
        assert near == 0.0
        assert far == -50.0

    def test_holder_spec_covers_equal_covariance_pairs(self):
        scn = LinearGaussianScenario()
        spec = scn.holder_spec()
        assert spec.lam_alpha == pytest.approx(
            math.sqrt(scn.reward_cap / (2.0 * math.log(2.0))))
        rng = np.random.default_rng(1)
        _, posts = scn.variance_schedule(scn.prior_std**2)
        dists, gaps = [], []
        for _ in range(300):
            var = float(rng.choice([scn.prior_std**2, *posts]))
            mu1 = np.asarray(scn.goal) + rng.standard_normal(scn.dim) * 3.0
            mu2 = mu1 + rng.standard_normal(scn.dim) * rng.uniform(0.0, 4.0)
            iso = np.eye(scn.dim) * var
            dists.append(sqrt_j_moments(mu2 - mu1, iso, iso))
            gaps.append(scn.reward(mu1, var) - scn.reward(mu2, var))
        assert verify_lambda(np.array(dists), np.array(gaps), spec)

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(InvalidInput):
            LinearGaussianScenario(dim=0)
        with pytest.raises(InvalidInput):
            LinearGaussianScenario(goal=(1.0,))
        with pytest.raises(InvalidInput):
            LinearGaussianScenario(noise_v=0.0)
        with pytest.raises(InvalidInput):
            LinearGaussianScenario(reward_cap=-1.0)


class TestAnalyticBound:
    def test_zero_gap_collapses_to_exact_zero(self):
        scn = LinearGaussianScenario()
        spec = scn.holder_spec()
        report = objective_bound_analytic(scn, spec, 0.0, n_mc=256, seed=0)
        assert report.phi == 0.0
        assert report.psi == 0.0
        assert report.lower == 0.0 and report.upper == 0.0
        assert report.method == "analytic"
        assert not report.advisory
        assert empirical_bound_check(scn, spec, 0.0, trials=5, n_mc=256) == 1.0

    def test_containment_at_positive_gaps(self):
        scn = LinearGaussianScenario()
        spec = scn.holder_spec()
        for eps in (0.5, 2.0):
            frac = empirical_bound_check(scn, spec, eps, trials=15, n_mc=512,
                                         seed=3)
            assert frac == 1.0

    def test_trials_expose_their_reports(self):
        scn = LinearGaussianScenario()
        spec = scn.holder_spec()
        outcomes = run_bound_trials(scn, spec, 1.0, trials=4, n_mc=512, seed=1)
        assert len(outcomes) == 4
        for o in outcomes:
            assert o.report.psi >= 0.0
            assert o.report.lower <= o.report.upper
            assert o.contained
            assert len(o.report.per_step_e_delta) == scn.n_steps

    def test_undersized_constant_flags_advisory(self):
        scn = LinearGaussianScenario()
        weak = HolderSpec(lam_alpha=1e-6)
        report = objective_bound_analytic(scn, weak, 1.0, n_mc=256, seed=0)
        assert report.advisory

    def test_invalid_inputs_rejected(self):
        scn = LinearGaussianScenario()
        spec = scn.holder_spec()
        with pytest.raises(InvalidInput):
            objective_bound_analytic(scn, spec, -1.0)
        with pytest.raises(UnsupportedModel):
            objective_bound_analytic(object(), spec, 1.0)
        with pytest.raises(InvalidInput):
            run_bound_trials(scn, spec, 1.0, trials=0)


class TestSweep:
    def test_points_per_threshold_with_variance_monotone(self):
        scn = LinearGaussianScenario()
        spec = scn.holder_spec()
        eps_values = (0.0, 1.0, 5.0)
        points = bound_sweep(scn, spec, eps_values, trials=10, n_mc=512, seed=2)
        assert [p.eps_wf for p in points] == list(eps_values)
        for p in points:
            assert p.fraction == 1.0
            assert len(p.diffs) == 10
            keys = set(p.to_json_dict())
            assert keys == {"eps_wf", "fraction", "diff_variance",
                            "mean_phi", "mean_psi"}
        variances = [p.diff_variance for p in points]
        assert variances == sorted(variances)


class TestBoundReport:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            BoundReport(lower=0.0, upper=1.0, phi=0.5, psi=0.5,
                        per_step_e_delta=(), method="guessed")
        with pytest.raises(InvalidInput):
            BoundReport(lower=0.0, upper=1.0, phi=0.5, psi=-0.1,
                        per_step_e_delta=(), method="sampled")
        with pytest.raises(InvalidInput):
            BoundReport(lower=1.0, upper=0.0, phi=0.5, psi=0.5,
                        per_step_e_delta=(), method="sampled")

    def test_contains_is_inclusive(self):
        r = BoundReport(lower=-1.0, upper=2.0, phi=0.5, psi=1.5,
                        per_step_e_delta=(0.1,), method="analytic")
        assert r.contains(-1.0) and r.contains(2.0) and r.contains(0.0)
        assert not r.contains(2.0000001)
