"""Incremental planning: reweighting, branch selection, reuse zones."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixbsp.beliefs import (
    MeasurementEntry,
    MeasurementSet,
    VariableIndex,
    make_prior_belief,
    planning_root,
    propagate,
    update_with_measurements,
)
from ixbsp.errors import (
    EmptyCandidates,
    IncompatibleHorizon,
    IncompatibleTrees,
    IncompleteRecord,
    InvalidInput,
)
from ixbsp.incremental import (
    PlanningArchive,
    _CandidateScan,
    balance_weight,
    closest_belief,
    is_rep_sample,
    mis_objective,
    plan_iml,
    plan_ixbsp,
    select_closest_branch,
)
from ixbsp.models import ActionId, landmark_var, pose_var
from ixbsp.planner import (
    TAG_NOMINAL,
    TAG_REUSED,
    TAG_WILDFIRE,
    BeliefTree,
    build_tree,
    objective,
    plan_mlbsp,
    plan_xbsp,
)

from _util import tiny_cfg


def _setup(cfg):
    world_lms = {0: (np.array([3.0, 1.5]), np.eye(2) * 1.0),
                 1: (np.array([1.0, -2.5]), np.eye(2) * 1.0)}
    prior = make_prior_belief(np.zeros(3), cfg.prior_cov(), landmarks=world_lms)
    return prior, cfg.motion_model(), cfg.meas_model(), np.array([5.0, 0.0])


def _execute(prior, action, motion, meas, jitter=0.0):
    """Posterior after executing one action and observing visible landmarks."""
    prop = propagate(prior, ActionId(action), motion)
    pose = prop.mean[prop.index.slice_of(prop.new_pose())]
    entries = []
    for lm in prop.index.landmarks():
        lpos = prop.mean[prop.index.slice_of(lm)]
        if meas.visible(pose, lpos):
            z = meas.predict(pose, lpos) + jitter
            entries.append(MeasurementEntry(prop.time, lm.index, z))
    return update_with_measurements(prop, MeasurementSet(tuple(entries)), meas)


class TestBalanceWeight:
    def test_no_reused_paths_is_exactly_one(self):
        assert balance_weight(-3.7, -9.1, 0, 4) == 1.0

    def test_equal_densities_is_exactly_one(self):
        assert balance_weight(-2.5, -2.5, 3, 1) == 1.0

    def test_all_reused_is_exact_ratio(self):
        lp, lq = -1.2, -2.0
        assert balance_weight(lp, lq, 5, 0) == float(np.exp(lp - lq))

    def test_mixed_matches_hand_formula(self):
        lp, lq, n_r, n_n = -1.0, -1.8, 2, 3
        n = n_r + n_n
        expect = math.exp(lp) / (n_r / n * math.exp(lq) + n_n / n * math.exp(lp))
        assert balance_weight(lp, lq, n_r, n_n) == pytest.approx(expect, rel=1e-12)

    def test_invalid_counts_rejected(self):
        with pytest.raises(InvalidInput):
            balance_weight(0.0, 0.0, 0, 0)
        with pytest.raises(InvalidInput):
            balance_weight(0.0, 0.0, -1, 2)


class TestMisObjective:
    def test_reduces_to_unweighted_on_fresh_tree(self):
        cfg = tiny_cfg(n_x=2)
        prior, motion, meas, goal = _setup(cfg)
        root = planning_root(prior)
        tree = build_tree(root, cfg, motion, meas, goal, base_seed=3, most_likely=False)
        for seq in tree.candidate_sequences():
            assert mis_objective(tree, seq) == objective(tree, seq)

    @staticmethod
    def _hand_tree(horizon, steps):
        """Single-action tree whose nodes carry the given (reward, log p,
        log q, tag) tuples; each level hangs under the first node above."""
        prior, _, _, _ = _setup(tiny_cfg())
        tree = BeliefTree(planning_time=0, horizon=horizon, n_u=1,
                          n_x=1, n_z=1, base_seed=0)
        parent = tree.add_root(prior)
        for level in steps:
            children = [
                tree.add_child(parent, 0, s, action=ActionId(0), sample=None,
                               belief=prior, prop=None, reward=r,
                               log_p_step=lp, log_q_step=lq, tag=tag)
                for s, (r, lp, lq, tag) in enumerate(level)
            ]
            parent = children[0]
        return tree

    def test_step_weights_follow_tag_counts(self):
        tree = self._hand_tree(1, [[(1.0, -1.0, -1.4, TAG_REUSED),
                                    (2.0, -1.5, -1.5, TAG_NOMINAL),
                                    (4.0, -2.0, -2.6, TAG_REUSED)]])
        w0 = balance_weight(-1.0, -1.4, 2, 1)
        w2 = balance_weight(-2.0, -2.6, 2, 1)
        assert w0 != 1.0 and w2 != 1.0
        acc = 0.0  # the middle path's densities agree, so its weight is 1.0
        for w, r in ((w0, 1.0), (1.0, 2.0), (w2, 4.0)):
            acc += w * r
        assert mis_objective(tree, (0,)) == 0.0 + acc / 3

    def test_malformed_step_rejected(self):
        level = [(1.0, 0.0, 0.0, TAG_NOMINAL)]
        tree = self._hand_tree(2, [level, level])
        assert mis_objective(tree, (0, 0)) == 2.0
        tree.node(1).children[0] = []  # empty slot at depth 2
        with pytest.raises(IncompleteRecord):
            mis_objective(tree, (0, 0))
        tree.root.children[0] = []  # empty slot at depth 1
        with pytest.raises(IncompleteRecord):
            mis_objective(tree, (0, 0))


def _record_objective(tree, seq):
    """Record-based MIS objective: every step's path record is collected
    first, then each step's weights, then the weighted sum in path order."""
    record = []
    for depth in range(1, tree.horizon + 1):
        nodes = tree.paths_for_seq(seq, depth)
        record.append((tuple(n.reward for n in nodes),
                       tuple(n.cum_log_p for n in nodes),
                       tuple(n.cum_log_q for n in nodes),
                       tuple(n.tag for n in nodes)))
    total = 0.0
    for rewards, cum_log_p, cum_log_q, tags in record:
        n_reused = sum(1 for t in tags if t == TAG_REUSED)
        n_nominal = len(tags) - n_reused
        weights = [balance_weight(lp, lq, n_reused, n_nominal)
                   for lp, lq in zip(cum_log_p, cum_log_q)]
        acc = 0.0
        for w, r in zip(weights, rewards):
            acc += w * r
        total += acc / len(rewards)
    return total


_REUSE_CFGS = {
    "update": dict(n_x=2, use_wildfire=False),
    "adopt": dict(n_x=2, epsilon_c=1e9, epsilon_wf=1e9),
}


class TestMisObjectiveMatchesRecord:
    """The one-pass objective equals the record-based computation bit for
    bit on re-used trees, in both sampled and ML mode."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), ml=st.booleans(),
           mode=st.sampled_from(sorted(_REUSE_CFGS)),
           jitter=st.sampled_from([0.0, 0.005, 0.01]))
    def test_every_sequence(self, seed, ml, mode, jitter):
        cfg = tiny_cfg(**_REUSE_CFGS[mode])
        prior, motion, meas, goal = _setup(cfg)
        fresh, inc = _PLANNER_PAIRS[ml]
        res0 = fresh(prior, cfg, motion, meas, goal, 0)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=jitter)
        res = inc(posterior, archive, cfg, motion, meas, goal, seed)
        assert res.reuse_info["mode"] == mode
        tags = {n.tag for n in res.tree.nodes[1:]}
        assert (TAG_REUSED if mode == "update" else TAG_WILDFIRE) in tags
        for seq in res.tree.candidate_sequences():
            assert repr(mis_objective(res.tree, seq)) == repr(
                _record_objective(res.tree, seq))


class TestArchiveValidation:
    def test_executed_prefix_required(self):
        cfg = tiny_cfg()
        prior, motion, meas, goal = _setup(cfg)
        res = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=0)
        with pytest.raises(InvalidInput):
            PlanningArchive(res.tree, ())
        with pytest.raises(IncompatibleHorizon):
            PlanningArchive(res.tree, (0, 1))  # consumes the whole horizon

    def test_mismatched_archive_rejected(self):
        cfg = tiny_cfg()
        prior, motion, meas, goal = _setup(cfg)
        res = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=0)
        archive = PlanningArchive(res.tree, (res.best_action.index,))
        posterior = _execute(prior, res.best_action.index, motion, meas)

        other = tiny_cfg(horizon=3)
        with pytest.raises(IncompatibleTrees):
            plan_ixbsp(posterior, archive, other, motion, meas, goal, 1)

        stale = _execute(posterior, 0, motion, meas)  # time 2, archive expects 1
        with pytest.raises(IncompatibleHorizon):
            plan_ixbsp(stale, archive, cfg, motion, meas, goal, 1)


class TestSelectClosestBranch:
    def test_winner_matches_brute_force(self):
        cfg = tiny_cfg(n_x=3)
        prior, motion, meas, goal = _setup(cfg)
        res = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=5)
        act = res.best_action.index
        archive = PlanningArchive(res.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=0.02)
        root = planning_root(posterior)

        dist, branch_id = select_closest_branch(posterior, root, archive, cfg)
        cands = [n for n in res.tree.nodes_at_depth(1) if n.path[0] == act]
        from ixbsp.distances import d_sqrt_j

        brute = min(cands, key=lambda n: d_sqrt_j(root, n.belief))
        assert branch_id == brute.node_id
        assert dist == pytest.approx(d_sqrt_j(root, brute.belief), abs=1e-12)

    def test_no_matching_prefix_raises(self):
        cfg = tiny_cfg()
        prior, motion, meas, goal = _setup(cfg)
        res = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=5)
        bad = PlanningArchive.__new__(PlanningArchive)
        object.__setattr__(bad, "tree", res.tree)
        object.__setattr__(bad, "executed_actions", (9,))
        posterior = _execute(prior, 0, motion, meas)
        with pytest.raises(EmptyCandidates):
            select_closest_branch(posterior, planning_root(posterior), bad, cfg)

    def test_da_key_mode_returns_sqrt_j_of_winner(self):
        cfg = tiny_cfg(distance="da_key", n_x=2)
        prior, motion, meas, goal = _setup(cfg)
        res = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=6)
        act = res.best_action.index
        archive = PlanningArchive(res.tree, (act,))
        posterior = _execute(prior, act, motion, meas)
        root = planning_root(posterior)
        dist, branch_id = select_closest_branch(posterior, root, archive, cfg)
        from ixbsp.distances import d_sqrt_j

        assert dist == pytest.approx(
            d_sqrt_j(root, res.tree.node(branch_id).belief), abs=1e-12)


class TestCandidateScan:
    def _candidates(self, cfg, seed):
        prior, motion, meas, goal = _setup(cfg)
        tree = build_tree(planning_root(prior), cfg, motion, meas, goal, seed,
                          most_likely=False)
        cands = []
        for n in tree.nodes_at_depth(1):
            for a in range(tree.n_u):
                if n.children[a]:
                    cands.append(((n.node_id, a), tree.node(n.children[a][0]).prop))
        return cands, tree, motion

    def test_matches_reference_scan(self):
        cfg = tiny_cfg(n_x=2)
        cands, tree, motion = self._candidates(cfg, seed=7)
        # targets from an independent tree so no candidate is bit-identical
        other_cands, _, _ = self._candidates(cfg, seed=19)
        targets = [prop for _, prop in other_cands[:6]]
        scan = _CandidateScan(cands)
        for target in targets:
            d_ref, k_ref = closest_belief(target, cands)
            d_new, k_new = scan.closest(target)
            assert d_new == pytest.approx(d_ref, abs=1e-9)
            assert k_new == k_ref

    def test_identical_target_collapses_to_zero(self):
        # comparing an archived prop against itself: the reference scan
        # short-circuits to exact zero, the batched form to sqrt(rounding)
        cfg = tiny_cfg(n_x=2)
        cands, tree, _ = self._candidates(cfg, seed=7)
        target = cands[3][1]
        d_ref, k_ref = closest_belief(target, cands)
        d_new, k_new = _CandidateScan(cands).closest(target)
        assert d_ref == 0.0
        assert d_new <= 1e-6
        assert k_new == k_ref

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidates):
            _CandidateScan([])
        cfg = tiny_cfg()
        cands, tree, _ = self._candidates(cfg, seed=8)
        with pytest.raises(EmptyCandidates):
            closest_belief(tree.nodes_at_depth(1)[0].prop, [])


class TestIsRepSample:
    def _props(self):
        cfg = tiny_cfg()
        prior, motion, meas, goal = _setup(cfg)
        prop = propagate(planning_root(prior), ActionId(0), motion)
        return prop

    def test_infinite_band_accepts_everything(self):
        prop = self._props()
        chi = prop.mean + 1e6
        assert is_rep_sample(chi, prop.index, prop, math.inf, "per_coordinate")

    def test_per_coordinate_band(self):
        prop = self._props()
        sigma = np.sqrt(np.diag(prop.cov))
        at_band = prop.mean + 1.5 * sigma
        assert is_rep_sample(at_band, prop.index, prop, 1.5, "per_coordinate")
        outside = prop.mean.copy()
        outside[0] += 1.6 * sigma[0]
        assert not is_rep_sample(outside, prop.index, prop, 1.5, "per_coordinate")

    def test_mahalanobis_band(self):
        prop = self._props()
        assert is_rep_sample(prop.mean, prop.index, prop, 1.0, "mahalanobis")
        far = prop.mean + 50.0 * np.sqrt(np.diag(prop.cov))
        assert not is_rep_sample(far, prop.index, prop, 1.0, "mahalanobis")

    def test_disjoint_variables_rejected(self):
        prop = self._props()
        other = VariableIndex.of([landmark_var(99)])
        assert not is_rep_sample(np.zeros(2), other, prop, 1.5, "per_coordinate")


class TestIncrementalPlanners:
    def test_iml_without_archive_is_exactly_ml(self):
        cfg = tiny_cfg()
        prior, motion, meas, goal = _setup(cfg)
        a = plan_mlbsp(prior, cfg, motion, meas, goal, base_seed=0)
        b = plan_iml(prior, None, cfg, motion, meas, goal, base_seed=0)
        assert a.best_seq == b.best_seq
        assert a.objective == b.objective
        assert len(a.tree.nodes) == len(b.tree.nodes)
        for na, nb in zip(a.tree.nodes, b.tree.nodes):
            assert np.array_equal(na.belief.mean, nb.belief.mean)
            assert na.reward == nb.reward

    def test_ix_without_archive_is_exactly_x(self):
        cfg = tiny_cfg(n_x=2)
        prior, motion, meas, goal = _setup(cfg)
        a = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=4)
        b = plan_ixbsp(prior, None, cfg, motion, meas, goal, base_seed=4)
        assert a.best_seq == b.best_seq
        assert a.objective == b.objective
        for na, nb in zip(a.tree.nodes, b.tree.nodes):
            if na.depth > 0:
                assert np.array_equal(na.sample.chi, nb.sample.chi)

    def _session_pair(self, cfg, seed=0):
        prior, motion, meas, goal = _setup(cfg)
        res0 = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=seed)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=0.01)
        return posterior, archive, motion, meas, goal

    def test_update_mode_mixes_reused_and_nominal(self):
        cfg = tiny_cfg(n_x=2, use_wildfire=False)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == "update"
        # same shape as a fresh tree: 6 children at depth 1, 36 at depth 2
        assert [len(res.tree.nodes_at_depth(d)) for d in (1, 2)] == [6, 36]
        counts = res.counts
        assert counts[TAG_WILDFIRE] == 0
        assert counts[TAG_REUSED] + counts[TAG_NOMINAL] == 42
        assert counts[TAG_REUSED] > 0
        assert res.objective == res.objectives[res.best_seq]

    def test_wildfire_mode_adopts_branch_verbatim(self):
        cfg = tiny_cfg(n_x=2, epsilon_c=1e9, epsilon_wf=1e9)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == "adopt"
        assert res.counts == {TAG_NOMINAL: 36, TAG_REUSED: 0, TAG_WILDFIRE: 6}
        # adopted level nodes are the archived objects, untouched
        branch = archive.tree.node(res.reuse_info["branch_id"])
        arch_children = [archive.tree.node(c) for ids in branch.children for c in ids]
        new_level = res.tree.nodes_at_depth(1)
        for node, arch in zip(new_level, arch_children):
            assert node.belief is arch.belief
            assert node.origin == arch.node_id

    def test_wildfire_adoption_spans_every_overlap_level(self):
        cfg = tiny_cfg(n_u=2, n_x=2, horizon=3, epsilon_c=1e9, epsilon_wf=1e9)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == "adopt"
        branch = archive.tree.node(res.reuse_info["branch_id"])
        for depth in (1, 2):
            level = res.tree.nodes_at_depth(depth)
            assert len(level) == 4 ** depth
            for node in level:
                arch = archive.tree.node(node.origin)
                assert node.tag == TAG_WILDFIRE
                assert node.belief is arch.belief
                assert arch.path == branch.path + node.path
        assert {n.tag for n in res.tree.nodes_at_depth(3)} == {TAG_NOMINAL}
        assert res.counts == {TAG_NOMINAL: 64, TAG_REUSED: 0, TAG_WILDFIRE: 20}

    def test_distance_gate_forces_fresh_build(self):
        cfg = tiny_cfg(n_x=2, epsilon_c=0.0, epsilon_wf=0.0, use_wildfire=False)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == "fresh"
        assert res.counts[TAG_REUSED] == 0 and res.counts[TAG_WILDFIRE] == 0

    def test_wildfire_requires_variable_coverage(self):
        # archived branch lacks a landmark the new session has mapped, so
        # verbatim adoption is unsound and must fall back to update mode
        cfg = tiny_cfg(n_x=2, epsilon_c=1e9, epsilon_wf=1e9)
        prior, motion, meas, goal = _setup(cfg)
        res0 = plan_xbsp(prior, cfg, motion, meas, goal, base_seed=0)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas)
        prop = propagate(posterior, ActionId(0), motion)
        pose = prop.mean[prop.index.slice_of(prop.new_pose())]
        z = meas.predict(pose, np.array([2.0, 2.0]))
        novel = update_with_measurements(
            prop, MeasurementSet((MeasurementEntry(prop.time, 7, z),)),
            meas, init_new_landmarks=True)
        # rebuild archive at the right time for the two-step posterior
        res1 = plan_xbsp(posterior, cfg, motion, meas, goal, base_seed=1)
        archive1 = PlanningArchive(res1.tree, (0,))
        res = plan_ixbsp(novel, archive1, cfg, motion, meas, goal, base_seed=2)
        assert res.reuse_info["mode"] == "update"

    def test_iml_reuses_under_archive(self):
        cfg = tiny_cfg(use_wildfire=False)
        prior, motion, meas, goal = _setup(cfg)
        res0 = plan_iml(prior, None, cfg, motion, meas, goal, base_seed=0)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=0.005)
        res = plan_iml(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.method == "imlbsp"
        assert res.reuse_info["mode"] == "update"
        assert res.counts[TAG_REUSED] > 0
        assert [len(res.tree.nodes_at_depth(d)) for d in (1, 2)] == [3, 9]


def _assert_same_plan(fresh, inc):
    """Bit-for-bit equal trees and objectives."""
    assert inc.objectives == fresh.objectives
    assert (inc.best_seq, inc.objective) == (fresh.best_seq, fresh.objective)
    assert len(inc.tree.nodes) == len(fresh.tree.nodes)
    for a, b in zip(fresh.tree.nodes[1:], inc.tree.nodes[1:]):
        assert (b.path, b.tag, b.reward) == (a.path, a.tag, a.reward)
        assert np.array_equal(b.belief.mean, a.belief.mean)
        assert np.array_equal(b.belief.cov, a.belief.cov)
        assert np.array_equal(b.sample.chi, a.sample.chi)


_PLANNER_PAIRS = {False: (plan_xbsp, plan_ixbsp), True: (plan_mlbsp, plan_iml)}


class TestNothingReusedEqualsFresh:
    """With nothing to re-use, an incremental planner is its fresh twin."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), horizon=st.integers(1, 3),
           ml=st.booleans())
    def test_without_archive(self, seed, horizon, ml):
        cfg = tiny_cfg(horizon=horizon, n_x=2 if horizon < 3 else 1)
        prior, motion, meas, goal = _setup(cfg)
        fresh, inc = _PLANNER_PAIRS[ml]
        _assert_same_plan(fresh(prior, cfg, motion, meas, goal, seed),
                          inc(prior, None, cfg, motion, meas, goal, seed))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), ml=st.booleans())
    def test_fresh_mode_under_archive(self, seed, ml):
        cfg = tiny_cfg(n_x=2, epsilon_c=0.0, epsilon_wf=0.0, use_wildfire=False)
        prior, motion, meas, goal = _setup(cfg)
        fresh, inc = _PLANNER_PAIRS[ml]
        res0 = fresh(prior, cfg, motion, meas, goal, 0)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=0.01)
        res = inc(posterior, archive, cfg, motion, meas, goal, seed)
        assert res.reuse_info["mode"] == "fresh"
        _assert_same_plan(fresh(posterior, cfg, motion, meas, goal, seed), res)
