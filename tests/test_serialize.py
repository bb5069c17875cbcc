"""JSON snapshot round trips for beliefs and lookahead trees."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ixbsp.beliefs import make_prior_belief, planning_root
from ixbsp.errors import InvalidInput
from ixbsp.incremental import mis_objective
from ixbsp.planner import build_tree, objective
from ixbsp.serialize import (
    TREE_FORMAT,
    belief_from_json_dict,
    belief_to_json_dict,
    pack_sym,
    tree_from_json_dict,
    tree_to_json_dict,
    unpack_sym,
)

from _util import random_spd, tiny_cfg


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


def _tree(seed=3, cfg=None):
    cfg = cfg or tiny_cfg(n_x=2)
    lms = {0: (np.array([3.0, 1.5]), np.eye(2)),
           1: (np.array([1.0, -2.5]), np.eye(2))}
    prior = make_prior_belief(np.zeros(3), cfg.prior_cov(), landmarks=lms)
    root = planning_root(prior)
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
            assert (b2.root_time, b2.time) == (b.root_time, b.time)

    def test_loaded_beliefs_are_analysis_grade(self):
        prior = make_prior_belief(np.zeros(3), np.eye(3),
                                  landmarks={0: (np.ones(2), np.eye(2))})
        b2 = belief_from_json_dict(belief_to_json_dict(prior))
        assert b2.factors == ()
        assert b2.history == ()


class TestTreeRoundTrip:
    def test_structure_scores_and_tags_survive(self):
        tree, cfg = _tree()
        raw = json.loads(json.dumps(tree_to_json_dict(tree)))
        assert raw["format"] == TREE_FORMAT
        tree2 = tree_from_json_dict(raw)
        assert (tree2.horizon, tree2.n_u, tree2.n_x, tree2.n_z) == \
               (tree.horizon, tree.n_u, tree.n_x, tree.n_z)
        assert tree2.base_seed == tree.base_seed
        assert tree2.planning_time == tree.planning_time
        assert len(tree2.nodes) == len(tree.nodes)
        for a, b in zip(tree.nodes, tree2.nodes):
            assert (a.node_id, a.parent, a.depth, a.path, a.tag, a.origin) == \
                   (b.node_id, b.parent, b.depth, b.path, b.tag, b.origin)
            assert a.reward == b.reward
            assert a.children == b.children
            if a.sample is not None:
                assert np.array_equal(a.sample.chi, b.sample.chi)
                assert a.sample.da == b.sample.da
                assert a.sample.log_density == b.sample.log_density
                assert a.sample.entry_log_densities == \
                       b.sample.entry_log_densities
                assert a.sample.z_set.keys() == b.sample.z_set.keys()
            if a.prop is not None:
                assert a.prop.action == b.prop.action
                assert np.array_equal(a.prop.mean, b.prop.mean)

    def test_cumulative_densities_rebuilt_from_parent_chain(self):
        tree, _ = _tree()
        tree2 = tree_from_json_dict(tree_to_json_dict(tree))
        for a, b in zip(tree.nodes, tree2.nodes):
            assert b.cum_log_p == pytest.approx(a.cum_log_p, abs=1e-12)
            assert b.cum_log_q == pytest.approx(a.cum_log_q, abs=1e-12)

    def test_objectives_rescore_identically(self):
        tree, cfg = _tree()
        tree2 = tree_from_json_dict(tree_to_json_dict(tree))
        for a0 in range(cfg.n_u):
            for a1 in range(cfg.n_u):
                seq = (a0, a1)
                assert objective(tree2, seq) == pytest.approx(
                    objective(tree, seq), abs=1e-12)
                assert mis_objective(tree2, seq) == pytest.approx(
                    mis_objective(tree, seq), abs=1e-12)

    def test_unknown_format_rejected(self):
        tree, _ = _tree()
        raw = tree_to_json_dict(tree)
        raw["format"] = "ixbsp-tree-v999"
        with pytest.raises(InvalidInput):
            tree_from_json_dict(raw)
        with pytest.raises(InvalidInput):
            tree_from_json_dict({"nodes": []})
