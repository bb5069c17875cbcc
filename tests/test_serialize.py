"""JSON snapshot round trips for beliefs and lookahead trees."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixbsp.beliefs import (
    GaussianBelief,
    PropagatedBelief,
    make_prior_belief,
    planning_root,
    propagate,
    update_with_measurements,
)
from ixbsp.errors import InvalidInput
from ixbsp.incremental import PlanningArchive, plan_iml, plan_ixbsp
from ixbsp.planner import (
    TAG_REUSED,
    TAG_WILDFIRE,
    build_tree,
    objective,
    plan_mlbsp,
    plan_xbsp,
)
from ixbsp.sampling import most_likely_measurement
from ixbsp.serialize import (
    TREE_FORMAT,
    belief_from_json_dict,
    belief_to_json_dict,
    pack_sym,
    tree_from_json_dict,
    tree_to_json_dict,
    unpack_sym,
)

from _util import NO_SHRINK, random_spd, tiny_cfg


class TestPackedSymmetric:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 7):
            mat = random_spd(rng, n)
            packed = pack_sym(mat)
            assert len(packed) == n * (n + 1) // 2
            assert np.array_equal(unpack_sym(packed, n), mat)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInput):
            unpack_sym([1.0, 2.0], 3)


def _prior(cfg):
    lms = {0: (np.array([3.0, 1.5]), np.eye(2)),
           1: (np.array([1.0, -2.5]), np.eye(2))}
    return make_prior_belief(np.zeros(3), cfg.prior_cov(), landmarks=lms)


def _tree(seed=3, cfg=None):
    cfg = cfg or tiny_cfg(n_x=2)
    root = planning_root(_prior(cfg))
    return build_tree(root, cfg, cfg.motion_model(), cfg.meas_model(),
                      np.array([5.0, 0.0]), seed, most_likely=False), cfg


class TestBeliefRoundTrip:
    def test_moments_index_and_times_survive(self):
        tree, _ = _tree()
        for node in tree.nodes:
            b = node.belief
            b2 = belief_from_json_dict(
                json.loads(json.dumps(belief_to_json_dict(b))))
            assert b2.index == b.index
            assert np.array_equal(b2.mean, b.mean)
            assert np.array_equal(b2.cov, b.cov)
            assert b2.time == b.time

    def test_loaded_beliefs_are_analysis_grade(self):
        prior = make_prior_belief(np.zeros(3), np.eye(3),
                                  landmarks={0: (np.ones(2), np.eye(2))})
        b2 = belief_from_json_dict(belief_to_json_dict(prior))
        assert b2.factors == ()


# the update config keeps every archived state, so iX-BSP re-uses futures
_REUSE_CFGS = {
    "update": dict(n_x=2, use_wildfire=False, beta_sigma=math.inf),
    "adopt": dict(n_x=2, epsilon_c=1e9, epsilon_wf=1e9),
}


def _planner_trees(seed):
    """(label, tree) for all four planners; each incremental planner plans
    once without an archive, and once from its previous session's tree in
    each re-use config.  An ML session plans fresh where iX-BSP updates."""
    out = []
    for fresh, inc in ((plan_xbsp, plan_ixbsp), (plan_mlbsp, plan_iml)):
        for config, overrides in _REUSE_CFGS.items():
            cfg = tiny_cfg(**overrides)
            prior = _prior(cfg)
            motion, meas = cfg.motion_model(), cfg.meas_model()
            goal = np.array([5.0, 0.0])
            res0 = inc(prior, None, cfg, motion, meas, goal, seed)
            act = res0.best_action
            prop = propagate(prior, act, motion)
            posterior = update_with_measurements(
                prop, most_likely_measurement(prop, meas).z_set, meas)
            archive = PlanningArchive(res0.tree, (act.index,))
            res1 = inc(posterior, archive, cfg, motion, meas, goal, seed + 1)
            mode = "fresh" if (inc, config) == (plan_iml, "update") else config
            assert res1.reuse_info["mode"] == mode
            if mode == "update":
                assert any(n.tag == TAG_REUSED for n in res1.tree.nodes)
            out.append((f"{inc.__name__}-{config}", res1.tree))
            if config == "update":
                out.append((inc.__name__, res0.tree))
                out.append((fresh.__name__,
                            fresh(prior, cfg, motion, meas, goal, seed).tree))
    return out


def _assert_same_belief(a, b):
    assert type(a) is type(b)
    assert a.index == b.index and a.time == b.time
    if isinstance(a, GaussianBelief):
        assert a.gn_iters == b.gn_iters
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


class TestTreeRoundTrip:
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2**63 - 2))
    def test_structure_scores_and_tags_survive(self, seed):
        """Every kept tree, node, sample and belief field survives bit for
        bit, for trees of all four planners, with and without an archive."""
        tags = set()
        for label, tree in _planner_trees(seed):
            raw = json.loads(json.dumps(tree_to_json_dict(tree)))
            assert raw["format"] == TREE_FORMAT
            tree2 = tree_from_json_dict(raw)
            for name in ("planning_time", "horizon", "n_u", "n_x", "n_z",
                         "base_seed"):
                assert getattr(tree2, name) == getattr(tree, name), (label, name)
            assert len(tree2.nodes) == len(tree.nodes)
            for a, b in zip(tree.nodes, tree2.nodes):
                tags.add(a.tag)
                assert (a.node_id, a.parent, a.depth, a.path, a.tag, a.origin,
                        a.children) == (b.node_id, b.parent, b.depth, b.path,
                                        b.tag, b.origin, b.children), label
                # float ``==``: equal values, whatever the float type
                assert (a.reward, a.log_ratio) == (b.reward, b.log_ratio)
                _assert_same_belief(a.belief, b.belief)
                assert (a.prop is None) == (b.prop is None) == (a.depth == 0)
                assert (a.sample is None) == (b.sample is None) == (a.depth == 0)
                if a.depth == 0:
                    continue
                assert isinstance(b.prop, PropagatedBelief)
                _assert_same_belief(a.prop, b.prop)
                assert np.array_equal(a.sample.chi, b.sample.chi)
                assert a.sample.entry_log_densities == b.sample.entry_log_densities
                assert a.sample.z_set.keys() == b.sample.z_set.keys()
                for ea, eb in zip(a.sample.z_set, b.sample.z_set):
                    assert np.array_equal(ea.value, eb.value)
        assert {TAG_REUSED, TAG_WILDFIRE} <= tags

    def test_objectives_rescore_identically(self):
        tree, cfg = _tree()
        tree2 = tree_from_json_dict(tree_to_json_dict(tree))
        for a0 in range(cfg.n_u):
            for a1 in range(cfg.n_u):
                seq = (a0, a1)
                assert repr(objective(tree2, seq)) == repr(objective(tree, seq))

    def test_unknown_format_rejected(self):
        tree, _ = _tree()
        raw = tree_to_json_dict(tree)
        for fmt in ("ixbsp-tree-v999", "ixbsp-tree-v1", "ixbsp-tree-v2",
                    "ixbsp-tree-v3", "ixbsp-tree-v4"):
            raw["format"] = fmt
            with pytest.raises(InvalidInput):
                tree_from_json_dict(raw)
        with pytest.raises(InvalidInput):
            tree_from_json_dict({"nodes": []})

    def test_nodes_write_one_record_per_fact(self):
        """A child writes its parent, its action and its payload; the root
        writes only its belief.  Ids, depths, paths and children are not
        written, and a measurement entry carries no time."""
        tree, _ = _tree()
        raw = tree_to_json_dict(tree)
        assert set(raw) == {"format", "planning_time", "horizon", "n_u", "n_x",
                            "n_z", "base_seed", "nodes"}
        assert set(raw["nodes"][0]) == {"belief"}
        for data, node in zip(raw["nodes"][1:], tree.nodes[1:]):
            assert set(data) == {"parent", "action", "sample", "belief", "prop",
                                 "reward", "log_ratio", "tag", "origin"}
            assert (data["parent"], data["action"]) == (node.parent, node.path[-2])
            assert data["sample"]["z"] == [
                [e.lm, e.value.tolist()] for e in node.sample.z_set]
            assert data["sample"]["entry_log_densities"] == [
                [lm, node.sample.entry_log_densities[lm]]
                for lm in node.sample.z_set.keys()]

    def test_child_without_sample_rejected(self):
        tree, _ = _tree()
        raw = tree_to_json_dict(tree)
        raw["nodes"][1]["sample"] = None
        with pytest.raises(InvalidInput):
            tree_from_json_dict(raw)

    def test_missing_tree_key_is_named(self):
        with pytest.raises(InvalidInput, match="'planning_time'"):
            tree_from_json_dict({"format": TREE_FORMAT})

    def test_missing_node_key_is_named(self):
        tree, _ = _tree()
        raw = tree_to_json_dict(tree)
        del raw["nodes"][1]["sample"]
        with pytest.raises(InvalidInput, match="'sample'"):
            tree_from_json_dict(raw)


def _set(node, key, value):
    node[key] = value


# Each corrupts the snapshot of ``_tree()``: node 0 is the root, nodes 1-6
# its children (actions 0, 0, 1, 1, 2, 2), node 7 the first child of node 1,
# and node 1 observes two landmarks.
_MALFORMED = {
    "parent_out_of_range": lambda raw: _set(raw["nodes"][7], "parent", 10**6),
    "parent_minus_one": lambda raw: _set(raw["nodes"][7], "parent", -1),
    "parent_not_earlier": lambda raw: _set(raw["nodes"][1], "parent", 7),
    "parent_not_int": lambda raw: _set(raw["nodes"][7], "parent", 0.5),
    "parent_bool": lambda raw: _set(raw["nodes"][7], "parent", True),
    "action_out_of_range": lambda raw: _set(raw["nodes"][7], "action", 3),
    "action_not_int": lambda raw: _set(raw["nodes"][7], "action", 1.0),
    "origin_not_int": lambda raw: _set(raw["nodes"][1], "origin", "x"),
    "tag_unknown": lambda raw: _set(raw["nodes"][1], "tag", "bogus"),
    "child_without_prop": lambda raw: _set(raw["nodes"][1], "prop", None),
    "value_one_number": lambda raw: _set(raw["nodes"][1]["sample"]["z"][0], 1,
                                         [1.0]),
    "value_not_numbers": lambda raw: _set(raw["nodes"][1]["sample"]["z"][0], 1,
                                          ["1", "2"]),
    "chi_not_prop_layout": lambda raw: _set(raw["nodes"][1]["sample"], "chi",
                                            [1.0]),
    "density_of_unobserved_landmark": lambda raw: raw["nodes"][1]["sample"][
        "entry_log_densities"].append([99, 0.0]),
    "mean_strings": lambda raw: _set(raw["nodes"][1]["belief"], "mean", [
        str(v) for v in raw["nodes"][1]["belief"]["mean"]]),
    "cov_packed_strings": lambda raw: _set(raw["nodes"][1]["prop"], "cov_packed", [
        str(v) for v in raw["nodes"][1]["prop"]["cov_packed"]]),
    "chi_strings": lambda raw: _set(raw["nodes"][1]["sample"], "chi", [
        str(v) for v in raw["nodes"][1]["sample"]["chi"]]),
    "reward_string": lambda raw: _set(raw["nodes"][1], "reward", "1.5"),
    "reward_nan": lambda raw: _set(raw["nodes"][1], "reward", float("nan")),
    "reward_inf": lambda raw: _set(raw["nodes"][1], "reward", float("inf")),
    "log_ratio_string": lambda raw: _set(raw["nodes"][1], "log_ratio", "0"),
    "value_nan": lambda raw: _set(raw["nodes"][1]["sample"]["z"][0], 1,
                                  [float("nan"), 0.0]),
    "density_bool": lambda raw: _set(raw["nodes"][1]["sample"][
        "entry_log_densities"][0], 1, True),
    "horizon_zero": lambda raw: _set(raw, "horizon", 0),
    "horizon_below_depth": lambda raw: _set(raw, "horizon", 1),
    "root_time_not_planning_time": lambda raw: _set(raw, "planning_time", 5),
    "belief_time_not_parent_plus_one": lambda raw: _set(
        raw["nodes"][1]["belief"], "time", 99),
    "prop_time_not_parent_plus_one": lambda raw: _set(
        raw["nodes"][7]["prop"], "time", 1),
    "nodes_not_a_list": lambda raw: _set(raw, "nodes", "abc"),
    "nodes_empty": lambda raw: _set(raw, "nodes", []),
    "node_not_a_dict": lambda raw: raw["nodes"].append([1, 2]),
}


class TestMalformedStructure:
    """A snapshot whose nodes do not form a planner's tree, or whose fields
    have the wrong type or shape, is rejected with ``InvalidInput``."""

    def test_well_formed_snapshot_loads(self):
        tree, _ = _tree()
        assert tree.horizon == max(n.depth for n in tree.nodes) == 2
        assert [n.parent for n in tree.nodes[:8]] == [None] + [0] * 6 + [1]
        assert [n.belief.time for n in tree.nodes[:8]] == [0] + [1] * 6 + [2]
        assert len(tree.nodes[1].sample.z_set) == 2
        tree_from_json_dict(json.loads(json.dumps(tree_to_json_dict(tree))))

    @pytest.mark.parametrize("corrupt", sorted(_MALFORMED))
    def test_rejected(self, corrupt):
        tree, _ = _tree()
        raw = json.loads(json.dumps(tree_to_json_dict(tree)))
        _MALFORMED[corrupt](raw)
        with pytest.raises(InvalidInput):
            tree_from_json_dict(raw)
