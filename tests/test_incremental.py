"""Incremental planning: reweighting, branch selection, reuse zones."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixbsp.beliefs import (
    GaussianState,
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
    IncompatibleStates,
    IncompatibleTrees,
    InvalidInput,
    NumericalError,
    UnknownSequence,
)
from ixbsp.incremental import (
    PlanningArchive,
    _CandidateScan,
    closest_belief,
    is_rep_sample,
    plan_iml,
    plan_ixbsp,
    select_closest_branch,
)
from ixbsp.models import ActionId, landmark_var
from ixbsp.planner import (
    TAG_NOMINAL,
    TAG_REUSED,
    TAG_WILDFIRE,
    BeliefTree,
    add_nominal_children,
    balance_weight,
    build_tree,
    make_reward_fn,
    objective,
    plan_mlbsp,
    plan_xbsp,
)
from ixbsp.sampling import MeasurementSample, measurement_likelihood_density

from _util import NO_SHRINK, cap_solves_at, tiny_cfg


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
            entries.append(MeasurementEntry(lm.index, z))
    return update_with_measurements(prop, MeasurementSet(tuple(entries)), meas)


class TestBalanceWeight:
    def test_no_reused_paths_is_exactly_one(self):
        assert balance_weight(5.4, 0, 4) == 1.0

    def test_equal_densities_is_exactly_one(self):
        assert balance_weight(0.0, 3, 1) == 1.0

    def test_all_reused_is_exact_ratio(self):
        log_ratio = -1.2 - -2.0
        assert balance_weight(log_ratio, 5, 0) == float(np.exp(log_ratio))

    def test_mixed_matches_hand_formula(self):
        lp, lq, n_r, n_n = -1.0, -1.8, 2, 3
        n = n_r + n_n
        expect = math.exp(lp) / (n_r / n * math.exp(lq) + n_n / n * math.exp(lp))
        assert balance_weight(lp - lq, n_r, n_n) == pytest.approx(expect, rel=1e-12)
        # a huge ratio saturates at n / n_nominal instead of overflowing
        assert balance_weight(1e6, n_r, n_n) == pytest.approx(n / n_n, rel=1e-12)

    def test_overflowing_ratio_raises_naming_the_log_ratio(self):
        with pytest.raises(NumericalError, match="1000.0"):
            balance_weight(1000.0, 1, 0)
        for log_ratio in (math.inf, math.nan):
            with pytest.raises(NumericalError):
                balance_weight(log_ratio, 2, 0)
        # the largest finite ratio is still returned
        top = math.log(sys.float_info.max)
        assert balance_weight(top, 1, 0) == float(np.exp(top))

    def test_invalid_counts_rejected(self):
        with pytest.raises(InvalidInput):
            balance_weight(0.0, 0, 0)
        with pytest.raises(InvalidInput):
            balance_weight(0.0, -1, 2)


def _plain_mean(tree, seq):
    """Reference objective with no weights: each step's rewards summed in
    path order, over the step's path count."""
    total = 0.0
    for depth in range(1, tree.horizon + 1):
        nodes = tree.paths_for_seq(seq, depth)
        acc = 0.0
        for n in nodes:
            acc += n.reward
        total += acc / len(nodes)
    return total


class TestMisObjective:
    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**63 - 1), ml=st.booleans())
    def test_reduces_to_unweighted_on_fresh_tree(self, seed, ml):
        cfg = tiny_cfg(n_x=2)
        prior, motion, meas, goal = _setup(cfg)
        tree = build_tree(planning_root(prior), cfg, motion, meas, goal,
                          base_seed=seed, most_likely=ml)
        for seq in tree.candidate_sequences():
            assert repr(objective(tree, seq)) == repr(_plain_mean(tree, seq))

    @staticmethod
    def _hand_tree(horizon, steps):
        """Single-action tree whose nodes carry the given (reward, step log
        ratio, tag) tuples; each level hangs under the first node above."""
        prior, _, _, _ = _setup(tiny_cfg())
        tree = BeliefTree(planning_time=0, horizon=horizon, n_u=1,
                          n_x=1, n_z=1, base_seed=0)
        parent = tree.add_root(prior)
        for level in steps:
            children = [
                tree.add_child(parent, 0, s, step,
                               sample=MeasurementSample(np.zeros(0),
                                                        MeasurementSet(), {}),
                               belief=prior, prop=None, reward=r, tag=tag)
                for s, (r, step, tag) in enumerate(level)
            ]
            parent = children[0]
        return tree

    def test_step_weights_follow_tag_counts(self):
        tree = self._hand_tree(2, [[(1.0, 0.4, TAG_REUSED),
                                    (2.0, 0.0, TAG_NOMINAL),
                                    (4.0, 0.6, TAG_REUSED)],
                                   [(8.0, 0.0, TAG_NOMINAL),
                                    (16.0, 0.5, TAG_REUSED)]])
        w0 = balance_weight(0.4, 2, 1)
        w2 = balance_weight(0.6, 2, 1)
        assert w0 != 1.0 and w2 != 1.0
        acc = 0.0  # the middle path's densities agree, so its weight is 1.0
        for w, r in ((w0, 1.0), (1.0, 2.0), (w2, 4.0)):
            acc += w * r
        # depth 2 hangs under the first path: its log ratios add to 0.4
        assert [n.log_ratio for n in tree.nodes_at_depth(2)] == [0.4, 0.4 + 0.5]
        acc2 = 0.0
        for w, r in ((balance_weight(0.4, 1, 1), 8.0),
                     (balance_weight(0.4 + 0.5, 1, 1), 16.0)):
            acc2 += w * r
        assert objective(tree, (0, 0)) == 0.0 + acc / 3 + acc2 / 2

    def test_steps_without_reused_paths_have_unit_weights(self):
        """Nominal and wildfire steps weigh every path one, even when the
        paths carry log ratios from re-used steps above them."""
        tree = self._hand_tree(3, [[(1.5, 0.7, TAG_WILDFIRE),
                                    (2.25, -1.3, TAG_NOMINAL)],
                                   [(0.3, 0.0, TAG_NOMINAL),
                                    (4.0, 2.5, TAG_WILDFIRE),
                                    (8.5, -0.2, TAG_NOMINAL)],
                                   [(0.1, 0.0, TAG_WILDFIRE),
                                    (6.0, 0.0, TAG_NOMINAL)]])
        assert all(n.log_ratio != 0.0 for n in tree.nodes[1:])
        assert repr(objective(tree, (0, 0, 0))) == repr(
            _plain_mean(tree, (0, 0, 0)))

    def test_malformed_step_rejected(self):
        level = [(1.0, 0.0, TAG_NOMINAL)]
        tree = self._hand_tree(2, [level, level])
        assert objective(tree, (0, 0)) == 2.0
        tree.node(1).children[0] = []  # empty slot at depth 2
        with pytest.raises(UnknownSequence):
            objective(tree, (0, 0))
        tree.root.children[0] = []  # empty slot at depth 1
        with pytest.raises(UnknownSequence):
            objective(tree, (0, 0))


def _record_objective(tree, seq):
    """Record-based MIS objective: every step's path record is collected
    first, then each step's weights, then the weighted sum in path order."""
    record = []
    for depth in range(1, tree.horizon + 1):
        nodes = tree.paths_for_seq(seq, depth)
        record.append((tuple(n.reward for n in nodes),
                       tuple(n.log_ratio for n in nodes),
                       tuple(n.tag for n in nodes)))
    total = 0.0
    for rewards, log_ratios, tags in record:
        n_reused = sum(1 for t in tags if t == TAG_REUSED)
        n_nominal = len(tags) - n_reused
        weights = [balance_weight(lr, n_reused, n_nominal) for lr in log_ratios]
        acc = 0.0
        for w, r in zip(weights, rewards):
            acc += w * r
        total += acc / len(rewards)
    return total


_REUSE_CFGS = {
    "update": dict(n_x=2, use_wildfire=False),
    "adopt": dict(n_x=2, epsilon_c=1e9, epsilon_wf=1e9),
}
# (most likely, mode): an ML session adopts or plans fresh, never updates
_REUSE_CASES = [(False, "adopt"), (False, "update"), (True, "adopt")]


class TestMisObjectiveMatchesRecord:
    """The one-pass objective equals the record-based computation bit for
    bit on re-used trees: sampled ones in both modes, adopted ML ones."""

    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**63 - 1), case=st.sampled_from(_REUSE_CASES),
           jitter=st.sampled_from([0.0, 0.005, 0.01]))
    def test_every_sequence(self, seed, case, jitter):
        ml, mode = case
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
        _assert_level_times(res, cfg)
        for seq in res.tree.candidate_sequences():
            assert repr(objective(res.tree, seq)) == repr(
                _record_objective(res.tree, seq))


class TestLogRatio:
    """Each node's log ratio is its parent's plus its step's: 0.0 for a
    nominal or wildfire step, and for a re-used step the sum over its kept
    entries of their log densities under the node's propagated belief minus
    those under the origin node's, recomputed here, bit for bit."""

    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**63 - 1), case=st.sampled_from(_REUSE_CASES),
           jitter=st.sampled_from([0.0, 0.005, 0.01]))
    def test_parent_plus_step(self, seed, case, jitter):
        ml, mode = case
        # horizon 3 re-uses two levels, so re-used steps also stack
        cfg = tiny_cfg(horizon=3, **_REUSE_CFGS[mode])
        prior, motion, meas, goal = _setup(cfg)
        fresh, inc = _PLANNER_PAIRS[ml]
        res0 = fresh(prior, cfg, motion, meas, goal, 0)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=jitter)
        res = inc(posterior, archive, cfg, motion, meas, goal, seed)
        assert res.reuse_info["mode"] == mode
        tree = res.tree
        steps = []
        for node in tree.nodes[1:]:
            step = 0.0
            if node.tag == TAG_REUSED:
                origin = archive.tree.node(node.origin)
                kept = MeasurementSet(tuple(
                    e for e in node.sample.z_set
                    if origin.sample.z_set.get(e.lm) is not None))
                log_p = measurement_likelihood_density(kept, node.prop, meas)
                log_q = measurement_likelihood_density(kept, origin.prop, meas)
                for lm in kept.keys():
                    step += log_p[lm] - log_q[lm]
                steps.append(step)
            parent = tree.node(node.parent)
            assert repr(node.log_ratio) == repr(parent.log_ratio + step)
        assert (mode == "update") == bool(steps)


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

        dist, branch_id = select_closest_branch(root, archive)
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
            select_closest_branch(planning_root(posterior), bad)


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

    def test_level_with_mixed_layouts_rejected(self):
        # depth-2 propagated beliefs carry one more pose than depth-1 ones
        cfg = tiny_cfg(n_x=2)
        cands, tree, _ = self._candidates(cfg, seed=7)
        shallow = tree.nodes_at_depth(1)[0]
        with pytest.raises(IncompatibleTrees):
            _CandidateScan(cands + [((0, 0), shallow.prop)])

    def test_target_sharing_no_variable_rejected(self):
        cfg = tiny_cfg(n_x=2)
        cands, _, _ = self._candidates(cfg, seed=7)
        target = GaussianState(VariableIndex.of([landmark_var(99)]),
                               np.zeros(2), np.eye(2))
        with pytest.raises(IncompatibleStates):
            _CandidateScan(cands).closest(target)

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
        assert is_rep_sample(chi, prop.index, prop, math.inf)

    def test_per_coordinate_band(self):
        prop = self._props()
        sigma = np.sqrt(np.diag(prop.cov))
        at_band = prop.mean + 1.5 * sigma
        assert is_rep_sample(at_band, prop.index, prop, 1.5)
        outside = prop.mean.copy()
        outside[0] += 1.6 * sigma[0]
        assert not is_rep_sample(outside, prop.index, prop, 1.5)

    def test_disjoint_variables_rejected(self):
        prop = self._props()
        other = VariableIndex.of([landmark_var(99)])
        assert not is_rep_sample(np.zeros(2), other, prop, 1.5)


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

    def test_update_mode_keeps_or_refreshes_each_state_group_whole(self):
        # the n_z futures of one generating state are accepted or refreshed
        # together, so every action slot is a sequence of same-state runs;
        # seed 7 gives a re-used level with both kept and refreshed states
        cfg = tiny_cfg(n_x=2, n_z=2, use_wildfire=False)
        posterior, archive, motion, meas, goal = self._session_pair(cfg, seed=7)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == "update"
        tree = res.tree
        run_tags = []
        for parent in tree.nodes:
            if parent.depth == tree.horizon:
                continue
            for ids in parent.children:
                kids = [tree.node(c) for c in ids]
                assert [k.path[-1] for k in kids] == list(range(4))
                for run in (kids[:2], kids[2:]):
                    assert np.array_equal(run[0].sample.chi, run[1].sample.chi)
                    assert run[0].tag == run[1].tag
                    run_tags.append(run[0].tag)
        assert TAG_REUSED in run_tags and TAG_NOMINAL in run_tags

    def test_reused_node_gets_the_fresh_update(self):
        """A re-used node's belief and reward are those a fresh node gets
        from the same propagated belief and measurement set, bit for bit."""
        cfg = tiny_cfg(n_x=2, use_wildfire=False)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        reused = [n for n in res.tree.nodes if n.tag == TAG_REUSED]
        assert reused
        reward_fn = make_reward_fn(cfg.reward, goal)
        for node in reused:
            parent = res.tree.node(node.parent)
            scratch = BeliefTree(planning_time=parent.belief.time, horizon=1,
                                 n_u=cfg.n_u, n_x=1, n_z=1, base_seed=0)
            [twin] = add_nominal_children(
                scratch, scratch.add_root(parent.belief), node.path[-2],
                node.prop, [node.sample], meas, reward_fn)
            assert twin.tag == TAG_NOMINAL
            assert np.array_equal(node.belief.mean, twin.belief.mean)
            assert np.array_equal(node.belief.cov, twin.belief.cov)
            assert node.belief.gn_iters == twin.belief.gn_iters
            assert node.reward == twin.reward
            prior, twin_prior = node.belief.factors[0], twin.belief.factors[0]
            assert np.array_equal(prior.mean, twin_prior.mean)
            assert np.array_equal(prior.cov, twin_prior.cov)
            assert [(f.t, f.lm, f.z.tolist()) for f in node.belief.factors[1:]] == [
                (f.t, f.lm, f.z.tolist()) for f in twin.belief.factors[1:]]

    @pytest.mark.parametrize("mode, overrides", [
        ("update", dict(use_wildfire=False)),
        ("adopt", dict(epsilon_c=1e9, epsilon_wf=1e9)),
    ])
    def test_cap_hits_count_the_nodes_this_session_solved(self, monkeypatch,
                                                          mode, overrides):
        cap_solves_at(monkeypatch, 2)
        cfg = tiny_cfg(n_x=2, **overrides)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == mode
        nodes = res.tree.nodes[1:]
        solved = [n for n in nodes if n.tag != TAG_WILDFIRE]
        assert res.counts["gn_cap_hits"] == sum(
            n.belief.gn_capped for n in solved) > 0
        # re-used nodes are solved here and count; adopted ones were solved
        # by the archived session and do not
        kept = TAG_REUSED if mode == "update" else TAG_WILDFIRE
        assert any(n.tag == kept and n.belief.gn_capped for n in nodes)

    def test_wildfire_mode_adopts_branch_verbatim(self):
        cfg = tiny_cfg(n_x=2, epsilon_c=1e9, epsilon_wf=1e9)
        posterior, archive, motion, meas, goal = self._session_pair(cfg)
        res = plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed=1)
        assert res.reuse_info["mode"] == "adopt"
        assert res.counts == {TAG_NOMINAL: 36, TAG_REUSED: 0, TAG_WILDFIRE: 6,
                              "gn_cap_hits": 0}
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
        assert res.counts == {TAG_NOMINAL: 64, TAG_REUSED: 0, TAG_WILDFIRE: 20,
                              "gn_cap_hits": 0}

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
            prop, MeasurementSet((MeasurementEntry(7, z),)),
            meas, inference=True)
        # rebuild archive at the right time for the two-step posterior
        res1 = plan_xbsp(posterior, cfg, motion, meas, goal, base_seed=1)
        archive1 = PlanningArchive(res1.tree, (0,))
        res = plan_ixbsp(novel, archive1, cfg, motion, meas, goal, base_seed=2)
        assert res.reuse_info["mode"] == "update"


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


def _assert_level_times(res, cfg):
    """One timing per level, whoever filled it; the overlap time is that of
    the levels the archived tree also spans (one executed action)."""
    assert len(res.tree.depth_times) == cfg.horizon
    assert res.overlap_s == sum(res.tree.depth_times[:cfg.horizon - 1])


class TestNothingReusedEqualsFresh:
    """With nothing to re-use, an incremental planner is its fresh twin."""

    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**63 - 1), horizon=st.integers(1, 3),
           ml=st.booleans())
    def test_without_archive(self, seed, horizon, ml):
        cfg = tiny_cfg(horizon=horizon, n_x=2 if horizon < 3 else 1)
        prior, motion, meas, goal = _setup(cfg)
        fresh, inc = _PLANNER_PAIRS[ml]
        res = inc(prior, None, cfg, motion, meas, goal, seed)
        _assert_same_plan(fresh(prior, cfg, motion, meas, goal, seed), res)
        _assert_level_times(res, cfg)

    @settings(max_examples=6, deadline=None, phases=NO_SHRINK)
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
        _assert_level_times(res, cfg)


class TestIncrementalMLAdoptsOrPlansFresh:
    """An iML-BSP session adopts its archived branch verbatim or is the
    fresh ML planner's session bit for bit; it never re-uses a future."""

    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**63 - 1), horizon=st.integers(2, 3),
           jitter=st.sampled_from([0.0, 0.01, 0.1, 0.2]))
    def test_mlbsp_unless_adopted(self, seed, horizon, jitter):
        # tiny_cfg's eps_wf 2.0 adopts up to jitter 0.05; larger ones do not
        cfg = tiny_cfg(horizon=horizon)
        prior, motion, meas, goal = _setup(cfg)
        res0 = plan_mlbsp(prior, cfg, motion, meas, goal, 0)
        act = res0.best_action.index
        archive = PlanningArchive(res0.tree, (act,))
        posterior = _execute(prior, act, motion, meas, jitter=jitter)
        res = plan_iml(posterior, archive, cfg, motion, meas, goal, seed)
        assert all(n.tag != TAG_REUSED for n in res.tree.nodes)
        if res.reuse_info["mode"] == "adopt":
            for node in res.tree.nodes[1:]:
                assert (node.tag == TAG_WILDFIRE) == (node.depth < horizon)
        else:
            assert res.reuse_info["mode"] == "fresh"
            _assert_same_plan(
                plan_mlbsp(posterior, cfg, motion, meas, goal, seed), res)
        _assert_level_times(res, cfg)
