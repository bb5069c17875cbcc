"""Lookahead tree construction, objectives, and action selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ixbsp import beliefs, sampling
from ixbsp.beliefs import DensePriorFactor, make_prior_belief, propagate, update_with_measurements
from ixbsp._gaussian import spd_logdet
from ixbsp.config import RewardConfig
from ixbsp.errors import NumericalError, UnknownSequence
from ixbsp.models import ActionId, pose_var
from ixbsp.planner import (
    TAG_NOMINAL,
    TAG_REUSED,
    TAG_WILDFIRE,
    best_action,
    build_tree,
    distance_to_goal,
    objective,
    plan_mlbsp,
    plan_xbsp,
    reward_info_distance,
)
from ixbsp.beliefs import GaussianState, VariableIndex

from _util import bench_cfg, cap_solves_at, tiny_cfg

# alpha=1, identity pose covariance, zero progress:
# r = 0.5 * 3 * ln(2*pi*e) = 1.5 * (ln(2*pi) + 1)
INFO_REWARD_IDENTITY_POSE = 4.256815599614018


def _pose_state(mean, cov):
    return GaussianState(index=VariableIndex.of([pose_var(0)]),
                         mean=np.asarray(mean, dtype=float),
                         cov=np.asarray(cov, dtype=float))


def _setup(cfg):
    world_lms = {0: (np.array([3.0, 1.5]), np.eye(2) * 1.0),
                 1: (np.array([1.0, -2.5]), np.eye(2) * 1.0)}
    root = make_prior_belief(np.zeros(3), cfg.prior_cov(), landmarks=world_lms)
    return root, cfg.motion_model(), cfg.meas_model(), np.array([5.0, 0.0])


class TestReward:
    def test_frozen_identity_pose_info(self):
        spec = RewardConfig(kind="info_and_distance", alpha=1.0)
        b = _pose_state([0.0, 0.0, 0.0], np.eye(3))
        got = reward_info_distance(b, b, spec, np.array([4.0, 0.0]))
        assert got == pytest.approx(INFO_REWARD_IDENTITY_POSE, abs=1e-12)

    def test_info_reads_the_newest_pose_block_of_a_joint(self):
        """On a joint belief the reward equals, bit for bit, the formula on
        the newest pose's marginal."""
        root, motion, _, goal = _setup(tiny_cfg())
        b = propagate(root, ActionId(1), motion)
        cov = b.marginal([b.index.newest_pose()]).cov
        info = 0.5 * (3 * float(np.log(2.0 * np.pi) + 1.0) - spd_logdet(cov))
        progress = distance_to_goal(root, goal) - distance_to_goal(b, goal)
        spec = RewardConfig(kind="info_and_distance", alpha=0.5)
        assert reward_info_distance(b, root, spec, goal) == 0.5 * info + 0.5 * progress

    def test_pure_progress_when_alpha_zero(self):
        spec = RewardConfig(kind="info_and_distance", alpha=0.0)
        prev = _pose_state([0.0, 0.0, 0.0], np.eye(3))
        cur = _pose_state([3.0, 0.0, 0.0], np.eye(3))
        got = reward_info_distance(cur, prev, spec, np.array([10.0, 0.0]))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_cov_penalty_gate(self):
        spec = RewardConfig(kind="distance_with_cov_penalty",
                            cov_threshold=1.0, penalty=10.0)
        prev = _pose_state([0.0, 0.0, 0.0], np.eye(3) * 0.1)
        tight = _pose_state([2.0, 0.0, 0.0], np.eye(3) * 0.1)
        loose = _pose_state([2.0, 0.0, 0.0], np.eye(3) * 2.0)
        goal = np.array([10.0, 0.0])
        assert reward_info_distance(tight, prev, spec, goal) == pytest.approx(2.0)
        assert reward_info_distance(loose, prev, spec, goal) == pytest.approx(-8.0)

    def test_distance_to_goal(self):
        b = _pose_state([1.0, 2.0, 0.7], np.eye(3))
        assert distance_to_goal(b, np.array([4.0, 6.0])) == pytest.approx(5.0)


class TestTreeShape:
    def test_expectation_tree_node_counts(self):
        cfg = tiny_cfg(n_u=3, n_x=3, n_z=1, horizon=3)
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=0, most_likely=False)
        per_depth = [len(tree.nodes_at_depth(d)) for d in range(4)]
        assert per_depth == [1, 9, 81, 729]
        assert len(tree.nodes) == 1 + 9 + 81 + 729

    def test_most_likely_tree_node_counts(self):
        cfg = tiny_cfg(n_u=3, horizon=3)
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=0, most_likely=True)
        assert [len(tree.nodes_at_depth(d)) for d in range(4)] == [1, 3, 9, 27]

    def test_two_step_tree_with_four_actions(self):
        prim = (("forward", 1.0, 0.0), ("left", 1.0, 90.0),
                ("right", 1.0, -90.0), ("back", 1.0, 180.0))
        cfg = tiny_cfg(n_u=4, n_x=1, n_z=1, horizon=2, primitives=prim)
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=1, most_likely=False)
        assert len(tree.nodes) == 1 + 4 + 16

    def test_paths_and_depths(self):
        cfg = tiny_cfg(n_u=2, n_x=2, n_z=1, horizon=2,
                       primitives=(("forward", 1.0, 0.0), ("left", 1.0, 90.0)))
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=2, most_likely=False)
        assert len(tree.candidate_sequences()) == 4
        for seq in tree.candidate_sequences():
            assert len(tree.paths_for_seq(seq, 1)) == 2
            assert len(tree.paths_for_seq(seq, 2)) == 4
        node = tree.paths_for_seq((1, 0), 2)[0]
        assert node.depth == 2
        assert node.path[0] == 1 and node.path[2] == 0
        parent = tree.node(node.parent)
        assert node.path == parent.path + node.path[-2:]

    def test_unknown_sequence_rejected(self):
        cfg = tiny_cfg(n_u=2, n_x=1, n_z=1, horizon=2,
                       primitives=(("forward", 1.0, 0.0), ("left", 1.0, 90.0)))
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=3, most_likely=False)
        with pytest.raises(UnknownSequence):
            objective(tree, (5, 0))
        with pytest.raises(UnknownSequence):
            objective(tree, (0,))


class TestObjective:
    def test_matches_manual_average_over_paths(self):
        cfg = tiny_cfg(n_u=2, n_x=2, n_z=2, horizon=2,
                       primitives=(("forward", 1.0, 0.0), ("left", 1.0, 90.0)))
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=4, most_likely=False)
        seq = (1, 0)
        d1 = [tree.node(c) for c in tree.root.children[1]]
        d2 = [tree.node(c) for n in d1 for c in n.children[0]]
        manual = (sum(n.reward for n in d1) / len(d1)
                  + sum(n.reward for n in d2) / len(d2))
        assert objective(tree, seq) == pytest.approx(manual, abs=1e-12)

    def test_best_action_is_argmax(self):
        cfg = tiny_cfg(n_x=2)
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=5, most_likely=False)
        act, seq, val, values = best_action(tree)
        assert val == max(values.values())
        assert values[seq] == val
        assert act == ActionId(seq[0])

    def test_ties_resolve_to_lowest_sequence(self):
        cfg = tiny_cfg(n_x=1)
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=6, most_likely=False)
        for node in tree.nodes[1:]:
            node.reward = 3.625
        act, seq, val, values = best_action(tree)
        assert set(values.values()) == {3.625 * cfg.horizon}
        assert seq == tuple([0] * cfg.horizon)
        assert act == ActionId(0)
        assert val == 3.625 * cfg.horizon

    def test_nan_rewards_never_win_and_all_nan_raises(self):
        cfg = tiny_cfg(n_x=1)
        root, motion, meas, goal = _setup(cfg)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=6, most_likely=False)
        for node in tree.nodes[1:]:
            if node.path[0] != 1:
                node.reward = math.nan
        act, seq, val, _ = best_action(tree)
        assert act == ActionId(1) and math.isfinite(val)
        for node in tree.nodes[1:]:
            node.reward = math.nan
        with pytest.raises(NumericalError, match="NaN"):
            best_action(tree)


class TestDeterminism:
    def test_same_seed_identical_tree(self):
        cfg = tiny_cfg(n_x=2)
        root, motion, meas, goal = _setup(cfg)
        t1 = build_tree(root, cfg, motion, meas, goal, base_seed=9, most_likely=False)
        t2 = build_tree(root, cfg, motion, meas, goal, base_seed=9, most_likely=False)
        assert len(t1.nodes) == len(t2.nodes)
        for a, b in zip(t1.nodes, t2.nodes):
            if a.depth == 0:
                continue
            assert np.array_equal(a.sample.chi, b.sample.chi)
            assert a.reward == b.reward
            assert np.array_equal(a.belief.mean, b.belief.mean)

    def test_different_seed_differs(self):
        cfg = tiny_cfg(n_x=2)
        root, motion, meas, goal = _setup(cfg)
        t1 = build_tree(root, cfg, motion, meas, goal, base_seed=9, most_likely=False)
        t2 = build_tree(root, cfg, motion, meas, goal, base_seed=10, most_likely=False)
        chis1 = [n.sample.chi for n in t1.nodes if n.depth > 0]
        chis2 = [n.sample.chi for n in t2.nodes if n.depth > 0]
        assert any(not np.array_equal(a, b) for a, b in zip(chis1, chis2))

    def test_most_likely_tree_ignores_seed(self):
        cfg = tiny_cfg()
        root, motion, meas, goal = _setup(cfg)
        t1 = build_tree(root, cfg, motion, meas, goal, base_seed=0, most_likely=True)
        t2 = build_tree(root, cfg, motion, meas, goal, base_seed=999, most_likely=True)
        for a, b in zip(t1.nodes, t2.nodes):
            assert np.array_equal(a.belief.mean, b.belief.mean)
            assert a.reward == b.reward


class TestPlanSessions:
    def _posterior_with_history(self, cfg):
        root, motion, meas, goal = _setup(cfg)
        b = root
        for t in (1, 2):
            prop = propagate(b, ActionId(0), motion)
            pose = prop.mean[prop.index.slice_of(pose_var(t))]
            entries = []
            for lm in prop.index.landmarks():
                lpos = prop.mean[prop.index.slice_of(lm)]
                if meas.visible(pose, lpos):
                    from ixbsp.beliefs import MeasurementEntry, MeasurementSet
                    entries.append(MeasurementEntry(lm.index,
                                                    meas.predict(pose, lpos)))
            from ixbsp.beliefs import MeasurementSet
            b = update_with_measurements(prop, MeasurementSet(tuple(entries)), meas)
        return b, motion, meas, goal

    def test_plan_marginalizes_history_before_building(self):
        cfg = tiny_cfg()
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        assert len([v for v in posterior.index.vars if v.kind == "pose"]) == 3
        res = plan_xbsp(posterior, cfg, motion, meas, goal, base_seed=0)
        root_node = res.tree.root
        poses = [v for v in root_node.belief.index.vars if v.kind == "pose"]
        assert poses == [posterior.index.newest_pose()]
        assert len(root_node.belief.factors) == 1
        assert isinstance(root_node.belief.factors[0], DensePriorFactor)

    def test_result_coherence_and_counts(self):
        cfg = tiny_cfg(n_x=2)
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        res = plan_xbsp(posterior, cfg, motion, meas, goal, base_seed=1)
        assert res.objective == res.objectives[res.best_seq]
        assert res.objective == max(res.objectives.values())
        n_children = len(res.tree.nodes) - 1
        assert res.counts == {TAG_NOMINAL: n_children, TAG_REUSED: 0,
                              TAG_WILDFIRE: 0, "gn_cap_hits": 0}
        assert 0.0 <= res.overlap_s <= sum(res.tree.depth_times)

    def test_counts_capped_solves_of_the_session(self, monkeypatch):
        cfg = tiny_cfg(n_x=2)
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        assert plan_xbsp(posterior, cfg, motion, meas, goal,
                         base_seed=1).counts["gn_cap_hits"] == 0
        cap_solves_at(monkeypatch, 2)
        res = plan_xbsp(posterior, cfg, motion, meas, goal, base_seed=1)
        capped = [n for n in res.tree.nodes[1:] if n.belief.gn_iters == 2]
        assert res.counts["gn_cap_hits"] == len(capped) > 0
        assert all(n.belief.gn_capped for n in capped)

    def test_ml_planning_solves_take_one_iteration(self):
        cfg = tiny_cfg()
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        res = plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed=1)
        assert {n.belief.gn_iters for n in res.tree.nodes[1:]} == {1}
        assert res.counts["gn_cap_hits"] == 0

    def test_sampled_session_factors_each_propagated_covariance_once(
            self, monkeypatch):
        """A propagated covariance is factored once, when its belief
        validates it: drawing a state and whitening the planning prior read
        that factor, so neither ``chol_lower`` in ``sampling`` nor
        ``whitener`` in ``beliefs`` is handed a propagated covariance."""
        cfg = bench_cfg(horizon=2)
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        seen = []
        for module, name in ((sampling, "chol_lower"), (beliefs, "whitener")):
            def spy(mat, *args, _fn=getattr(module, name), **kwargs):
                seen.append(np.asarray(mat))
                return _fn(mat, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        res = plan_xbsp(posterior, cfg, motion, meas, goal, base_seed=0)
        covs = [node.prop.cov for node in res.tree.nodes[1:]]
        assert len(covs) == 3 + 9 and seen
        for mat in seen:
            assert not any(mat.shape == cov.shape and np.array_equal(mat, cov)
                           for cov in covs)

    def test_ml_session_factors_once_per_solve_and_shares_one_index_per_level(
            self, monkeypatch):
        """Every most-likely solve starts at its optimum, so each planning
        solve factors its information matrix once, for its covariance.  The
        nodes of one level share one index, the extension of the level
        above's, and each factor's layout is cached on it read-only."""
        cfg = bench_cfg()
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        names = []
        chol = beliefs.chol_lower

        def spy(mat, name="covariance"):
            names.append(name)
            return chol(mat, name)

        monkeypatch.setattr(beliefs, "chol_lower", spy)
        res = plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed=0)
        assert names.count("information matrix") == len(res.tree.nodes) - 1
        above = res.tree.root.belief.index
        for depth in range(1, cfg.horizon + 1):
            level = res.tree.nodes_at_depth(depth)
            index = level[0].belief.index
            assert index is above.extended(pose_var(res.tree.planning_time + depth))
            for node in level:
                assert node.belief.index is index and node.prop.index is index
                assert node.belief.gn_iters == 1
                for f in node.belief.factors:
                    layout, block = index.layout(f.involved())
                    assert index.layout(f.involved())[1] is block
                    assert not layout[1].flags.writeable
                    assert not block.flags.writeable
            above = index

    @pytest.mark.parametrize("plan", [plan_xbsp, plan_mlbsp])
    def test_each_node_solves_only_its_own_step(self, plan):
        """A node's factor list is a prior on its parent's propagated
        Gaussian plus its own measurement factors, and nothing else."""
        cfg = tiny_cfg(n_x=2)
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        res = plan(posterior, cfg, motion, meas, goal, base_seed=1)
        measured = 0
        for node in res.tree.nodes[1:]:
            parent = res.tree.node(node.parent)
            prop = propagate(parent.belief, ActionId(node.path[-2]), motion)
            assert np.array_equal(node.prop.mean, prop.mean)
            assert np.array_equal(node.prop.cov, prop.cov)
            z_set = node.sample.z_set
            if not len(z_set):
                assert node.belief.factors == node.prop.factors
                continue
            measured += 1
            prior, *rest = node.belief.factors
            assert isinstance(prior, DensePriorFactor)
            assert prior.vars_ == prop.index.vars
            assert np.array_equal(prior.mean, prop.mean)
            assert np.array_equal(prior.cov, prop.cov)
            assert [(f.t, f.lm, f.z.tolist()) for f in rest] == [
                (prop.time, e.lm, e.value.tolist()) for e in z_set]
        assert measured > 0

    def test_ml_plan_deterministic_across_calls(self):
        cfg = tiny_cfg()
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        r1 = plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed=0)
        r2 = plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed=42)
        assert r1.best_seq == r2.best_seq
        assert r1.objective == r2.objective
        assert len(r1.tree.nodes) == 1 + 3 + 9  # horizon 2, n_u 3
