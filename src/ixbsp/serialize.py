"""Versioned JSON snapshots of lookahead trees.

A snapshot captures everything needed to analyse or re-score a planning
session offline: tree structure, per-node posterior and propagated moments,
sampled measurements and their per-entry log densities, each path's
``log_ratio``, tags and rewards.  Loaded beliefs carry solved moments but
empty factor lists, so they support distances, objectives and action
selection; they are not meant to seed further factor-graph solves.

Nothing that another stored field determines is written: a node's action is
``path[-2]``, a sample's data association is its measurement keys, and a
measurement set's log density is the sum of its entries'.  Posterior and
propagated beliefs share one codec; a posterior also carries the
Gauss-Newton iteration count of its solve (``gn_iters``).

This is format ``ixbsp-tree-v4``.  A document of another format, including
``ixbsp-tree-v1`` to ``-v3``, one that lacks a key, or one whose nodes do not
form a planner's tree is rejected with ``InvalidInput``.

Covariances are stored packed (lower triangle, row major) to halve snapshot
size; all arrays round-trip bit exactly through Python floats.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .beliefs import (
    GaussianBelief,
    MeasurementEntry,
    MeasurementSet,
    PropagatedBelief,
    VariableIndex,
)
from .errors import InvalidInput
from .models import VariableId
from .planner import BeliefTree, BeliefTreeNode
from .sampling import MeasurementSample

TREE_FORMAT = "ixbsp-tree-v4"


def pack_sym(mat: np.ndarray) -> list[float]:
    """Lower triangle of a symmetric matrix, row major."""
    mat = np.asarray(mat, dtype=float)
    idx = np.tril_indices(mat.shape[0])
    return [float(v) for v in mat[idx]]


def unpack_sym(values: list[float], n: int) -> np.ndarray:
    """Inverse of pack_sym."""
    if len(values) != n * (n + 1) // 2:
        raise InvalidInput(
            f"packed length {len(values)} does not match dimension {n}")
    out = np.zeros((n, n))
    out[np.tril_indices(n)] = values
    return out + np.tril(out, -1).T


def _index_to_list(index: VariableIndex) -> list[list[Any]]:
    return [[v.kind, v.index] for v in index.vars]


def _index_from_list(data: list[list[Any]]) -> VariableIndex:
    return VariableIndex(tuple(VariableId(kind, int(i)) for kind, i in data))


def _zset_to_list(z_set: MeasurementSet) -> list[list[Any]]:
    return [[e.t, e.lm, [float(v) for v in e.value]] for e in z_set.entries]


def _zset_from_list(data: list[list[Any]]) -> MeasurementSet:
    return MeasurementSet(tuple(
        MeasurementEntry(int(t), int(lm), np.asarray(vals, dtype=float))
        for t, lm, vals in data))


def belief_to_json_dict(belief: GaussianBelief | PropagatedBelief) -> dict[str, Any]:
    """Moments, layout and time of a posterior or propagated belief, and a
    posterior's ``gn_iters``."""
    data = {
        "vars": _index_to_list(belief.index),
        "mean": [float(v) for v in belief.mean],
        "cov_packed": pack_sym(belief.cov),
        "time": belief.time,
    }
    if isinstance(belief, GaussianBelief):
        data["gn_iters"] = belief.gn_iters
    return data


def belief_from_json_dict(data: dict[str, Any], cls=GaussianBelief):
    """Inverse of ``belief_to_json_dict``; ``cls`` is ``GaussianBelief`` or
    ``PropagatedBelief``."""
    index = _index_from_list(data["vars"])
    extra = {"gn_iters": int(data["gn_iters"])} if cls is GaussianBelief else {}
    return cls(
        index=index,
        mean=np.asarray(data["mean"], dtype=float),
        cov=unpack_sym(data["cov_packed"], index.dim),
        time=int(data["time"]),
        **extra,
    )


def _sample_to_json_dict(sample: MeasurementSample) -> dict[str, Any]:
    return {
        "chi": [float(v) for v in sample.chi],
        "z": _zset_to_list(sample.z_set),
        "entry_log_densities": [
            [t, lm, lp] for (t, lm), lp in sorted(sample.entry_log_densities.items())
        ],
    }


def _sample_from_json_dict(data: dict[str, Any]) -> MeasurementSample:
    return MeasurementSample(
        chi=np.asarray(data["chi"], dtype=float),
        z_set=_zset_from_list(data["z"]),
        entry_log_densities={
            (int(t), int(lm)): float(lp)
            for t, lm, lp in data["entry_log_densities"]
        },
    )


def _node_to_json_dict(node: BeliefTreeNode) -> dict[str, Any]:
    return {
        "node_id": node.node_id,
        "parent": node.parent,
        "depth": node.depth,
        "path": list(node.path),
        "sample": None if node.sample is None else _sample_to_json_dict(node.sample),
        "belief": belief_to_json_dict(node.belief),
        "prop": None if node.prop is None else belief_to_json_dict(node.prop),
        "reward": node.reward,
        "log_ratio": node.log_ratio,
        "tag": node.tag,
        "origin": node.origin,
        "children": [list(group) for group in node.children],
    }


def _node_from_json_dict(data: dict[str, Any]) -> BeliefTreeNode:
    sample = data["sample"]
    prop = data["prop"]
    return BeliefTreeNode(
        node_id=int(data["node_id"]),
        parent=None if data["parent"] is None else int(data["parent"]),
        depth=int(data["depth"]),
        path=tuple(int(a) for a in data["path"]),
        sample=None if sample is None else _sample_from_json_dict(sample),
        belief=belief_from_json_dict(data["belief"]),
        prop=None if prop is None else belief_from_json_dict(prop, PropagatedBelief),
        reward=float(data["reward"]),
        log_ratio=float(data["log_ratio"]),
        tag=str(data["tag"]),
        origin=None if data["origin"] is None else int(data["origin"]),
        children=[[int(i) for i in group] for group in data["children"]],
    )


def tree_to_json_dict(tree: BeliefTree) -> dict[str, Any]:
    return {
        "format": TREE_FORMAT,
        "planning_time": tree.planning_time,
        "horizon": tree.horizon,
        "n_u": tree.n_u,
        "n_x": tree.n_x,
        "n_z": tree.n_z,
        "base_seed": tree.base_seed,
        "root_id": tree.root_id,
        "nodes": [_node_to_json_dict(n) for n in tree.nodes],
    }


def tree_from_json_dict(data: dict[str, Any]) -> BeliefTree:
    if data.get("format") != TREE_FORMAT:
        raise InvalidInput(f"unknown snapshot format {data.get('format')!r}")
    try:
        return _tree_from_json_dict(data)
    except KeyError as exc:
        raise InvalidInput(f"snapshot lacks key {exc.args[0]!r}") from None


def _tree_from_json_dict(data: dict[str, Any]) -> BeliefTree:
    tree = BeliefTree(
        planning_time=int(data["planning_time"]),
        horizon=int(data["horizon"]),
        n_u=int(data["n_u"]),
        n_x=int(data["n_x"]),
        n_z=int(data["n_z"]),
        base_seed=int(data["base_seed"]),
        root_id=int(data["root_id"]),
    )
    tree.nodes = [_node_from_json_dict(n) for n in data["nodes"]]
    _check_structure(tree)
    return tree


def _check_structure(tree: BeliefTree) -> None:
    """Raise ``InvalidInput`` unless the nodes form the tree a build makes.

    Node 0 is the root and each node id is its position.  Every other node
    has a sample, an earlier parent, one more depth than that parent and a
    path that extends the parent's by one action and one slot.  Each node
    lists exactly its children: n_u lists, by action, in id order.
    """
    nodes = tree.nodes
    if not nodes or tree.root_id != 0:
        raise InvalidInput("snapshot tree needs its root at node 0")
    children: list[list[list[int]]] = [[[] for _ in range(tree.n_u)] for _ in nodes]
    for pos, node in enumerate(nodes):
        if pos == 0:
            ok = (node.node_id, node.parent, node.depth, node.path) == (0, None, 0, ())
        else:
            parent = nodes[node.parent] if node.parent in range(pos) else None
            ok = (node.node_id == pos and parent is not None
                  and node.sample is not None
                  and node.depth == parent.depth + 1
                  and node.path[:-2] == parent.path
                  and len(node.path) == len(parent.path) + 2
                  and node.path[-2] in range(tree.n_u))
            if ok:
                children[node.parent][node.path[-2]].append(pos)
        if not ok:
            raise InvalidInput(
                f"snapshot node {pos} (id {node.node_id}, parent {node.parent!r}, "
                f"path {node.path}) is neither the root nor one step below an "
                "earlier node")
    for node, expect in zip(nodes, children):
        if node.children != expect:
            raise InvalidInput(f"snapshot node {node.node_id} lists children "
                               f"{node.children}, not {expect}")
