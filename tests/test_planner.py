"""Lookahead tree construction, objectives, and action selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ixbsp.beliefs import DensePriorFactor, make_prior_belief, propagate, update_with_measurements
from ixbsp.config import RewardConfig
from ixbsp.errors import UnknownSequence
from ixbsp.models import ActionId, MeasModel, MotionModel, landmark_var, pose_var
from ixbsp.planner import (
    TAG_NOMINAL,
    TAG_REUSED,
    TAG_WILDFIRE,
    BeliefTree,
    best_action,
    build_tree,
    distance_to_goal,
    make_reward_fn,
    objective,
    plan_mlbsp,
    plan_xbsp,
    reward_info_distance,
)
from ixbsp.beliefs import GaussianState, VariableIndex

from _util import tiny_cfg

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
        spec = RewardConfig(kind="info_and_distance", alpha=1.0, focus="pose")
        b = _pose_state([0.0, 0.0, 0.0], np.eye(3))
        got = reward_info_distance(b, b, spec, np.array([4.0, 0.0]))
        assert got == pytest.approx(INFO_REWARD_IDENTITY_POSE, abs=1e-12)

    def test_pure_progress_when_alpha_zero(self):
        spec = RewardConfig(kind="info_and_distance", alpha=0.0)
        prev = _pose_state([0.0, 0.0, 0.0], np.eye(3))
        cur = _pose_state([3.0, 0.0, 0.0], np.eye(3))
        got = reward_info_distance(cur, prev, spec, np.array([10.0, 0.0]))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_position_focus_uses_2d_block(self):
        spec = RewardConfig(kind="info_and_distance", alpha=1.0, focus="position")
        b = _pose_state([0.0, 0.0, 0.0], np.eye(3))
        got = reward_info_distance(b, b, spec, np.array([4.0, 0.0]))
        assert got == pytest.approx(math.log(2 * math.pi) + 1.0, abs=1e-12)

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
        act, seq, val, _ = best_action(tree, objective_fn=lambda t, s: 7.25)
        assert seq == tuple([0] * cfg.horizon)
        assert act == ActionId(0)
        assert val == 7.25


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
                    entries.append(MeasurementEntry(t, lm.index,
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
        assert res.method == "xbsp"
        assert res.objective == res.objectives[res.best_seq]
        assert res.objective == max(res.objectives.values())
        n_children = len(res.tree.nodes) - 1
        assert res.counts == {TAG_NOMINAL: n_children, TAG_REUSED: 0,
                              TAG_WILDFIRE: 0}
        t = res.timing
        assert t["total_s"] == pytest.approx(t["overlap_s"] + t["extension_s"])
        assert all(v >= 0.0 for v in t.values())

    def test_ml_plan_deterministic_across_calls(self):
        cfg = tiny_cfg()
        posterior, motion, meas, goal = self._posterior_with_history(cfg)
        r1 = plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed=0)
        r2 = plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed=42)
        assert r1.best_seq == r2.best_seq
        assert r1.objective == r2.objective
        assert r1.method == "mlbsp"
        assert len(r1.tree.nodes) == 1 + 3 + 9  # horizon 2, n_u 3
