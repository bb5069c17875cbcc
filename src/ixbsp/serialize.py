"""Versioned JSON snapshots of lookahead trees.

A snapshot captures everything needed to analyse or re-score a planning
session offline: per-node posterior and propagated moments, sampled
measurements and their per-entry log densities, each path's ``log_ratio``,
tags and rewards.  Loaded beliefs carry solved moments but empty factor
lists, so they support distances, objectives and action selection; they are
not meant to seed further factor-graph solves.

Each fact is written once.  A non-root node writes its ``parent``, its
``action`` and its payload (``sample``, ``belief``, ``prop``, ``reward``,
``log_ratio``, ``tag``, ``origin``); the root writes only its ``belief``.
The loader rebuilds the tree with ``BeliefTree.add_root`` and ``add_child``
in node order, each child taking the next sample slot under its action, so
node ids, depths, paths and children lists are a build's by construction.
A measurement entry is ``[lm, [range, bearing]]``: its time is that of the
belief it conditions, and a sample's data association is its entries'
landmarks.  A per-entry log density is ``[lm, log_density]``.  Posterior
and propagated beliefs share one codec; a posterior also carries the
Gauss-Newton iteration count of its solve (``gn_iters``).

This is format ``ixbsp-tree-v5``.  ``InvalidInput`` rejects a document of
another format (``ixbsp-tree-v1`` to ``-v4`` included) and one that lacks a
key or holds a value of the wrong type or shape.  It also rejects a horizon
below 1, a root belief whose time is not the planning time, a node whose
parent is not an earlier node, whose action is not in ``range(n_u)`` or
that lies deeper than the horizon, a child whose belief or ``prop`` time is
not its parent's plus one, a child without a sample or a ``prop``, a sample
whose state is not laid out as its ``prop`` or whose densities are not one
per entry, a tag that is not one of the three, and a float field (a moment,
a state, a measurement value, a density, a reward or a log ratio) holding
anything but finite ints and floats.

Covariances are stored packed (lower triangle, row major) to halve snapshot
size; all arrays round-trip bit exactly through Python floats.
"""

from __future__ import annotations

import sys
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
from .planner import TAG_NOMINAL, TAG_REUSED, TAG_WILDFIRE, BeliefTree, BeliefTreeNode
from .sampling import MeasurementSample

TREE_FORMAT = "ixbsp-tree-v5"

_TAGS = (TAG_NOMINAL, TAG_REUSED, TAG_WILDFIRE)


def _int(value: Any, name: str) -> int:
    """``value`` when it is an int; a float or a bool is malformed."""
    if type(value) is not int:
        raise InvalidInput(f"snapshot {name} must be an integer, got {value!r}")
    return value


def _float(value: Any, name: str) -> float:
    """``value`` when it is a finite int or float; a bool, a string, NaN or
    an infinity is malformed."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise InvalidInput(f"snapshot {name} must be a finite number, got {value!r}")
    return float(value)


def _floats(values: Any, name: str) -> np.ndarray:
    """``values`` as a float array when it is a list of finite ints and
    floats."""
    if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
        raise InvalidInput(f"snapshot {name} must be a list of numbers")
    try:
        out = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        out = None
    if out is None or not np.isfinite(out).all():
        raise InvalidInput(f"snapshot {name} holds a number that is not finite")
    return out


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
    return VariableIndex(tuple(
        VariableId(kind, _int(i, "variable index")) for kind, i in data))


def _zset_to_list(z_set: MeasurementSet) -> list[list[Any]]:
    return [[e.lm, [float(v) for v in e.value]] for e in z_set.entries]


def _zset_from_list(data: list[list[Any]]) -> MeasurementSet:
    entries = []
    for lm, value in data:
        z = _floats(value, "measurement value")
        if z.shape != (2,):
            raise InvalidInput(
                f"snapshot measurement value {value!r} is not two numbers")
        entries.append(MeasurementEntry(_int(lm, "landmark"), z))
    return MeasurementSet(tuple(entries))


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
    extra = ({"gn_iters": _int(data["gn_iters"], "gn_iters")}
             if cls is GaussianBelief else {})
    return cls(
        index=index,
        mean=_floats(data["mean"], "mean"),
        cov=unpack_sym(_floats(data["cov_packed"], "cov_packed"), index.dim),
        time=_int(data["time"], "time"),
        **extra,
    )


def _sample_to_json_dict(sample: MeasurementSample) -> dict[str, Any]:
    return {
        "chi": [float(v) for v in sample.chi],
        "z": _zset_to_list(sample.z_set),
        "entry_log_densities": [
            [lm, lp] for lm, lp in sorted(sample.entry_log_densities.items())
        ],
    }


def _sample_from_json_dict(data: dict[str, Any]) -> MeasurementSample:
    return MeasurementSample(
        chi=_floats(data["chi"], "chi"),
        z_set=_zset_from_list(data["z"]),
        entry_log_densities={
            _int(lm, "landmark"): _float(lp, "log density")
            for lm, lp in data["entry_log_densities"]
        },
    )


def _node_to_json_dict(node: BeliefTreeNode) -> dict[str, Any]:
    if node.parent is None:
        return {"belief": belief_to_json_dict(node.belief)}
    return {
        "parent": node.parent,
        "action": node.path[-2],
        "sample": _sample_to_json_dict(node.sample),
        "belief": belief_to_json_dict(node.belief),
        "prop": belief_to_json_dict(node.prop),
        "reward": node.reward,
        "log_ratio": node.log_ratio,
        "tag": node.tag,
        "origin": node.origin,
    }


def _add_node(tree: BeliefTree, pos: int, data: dict[str, Any]) -> None:
    """Append snapshot node ``pos`` as the next child of its parent."""
    parent = _int(data["parent"], "parent")
    action = _int(data["action"], "action")
    if parent not in range(pos) or action not in range(tree.n_u):
        raise InvalidInput(
            f"snapshot node {pos} names parent {parent} and action {action}; "
            f"a parent is an earlier node and an action is in range({tree.n_u})")
    if data["sample"] is None or data["prop"] is None:
        raise InvalidInput(f"snapshot node {pos} lacks a sample or a prop")
    if data["tag"] not in _TAGS:
        raise InvalidInput(f"snapshot node {pos} has unknown tag {data['tag']!r}")
    parent_node = tree.nodes[parent]
    if parent_node.depth == tree.horizon:
        raise InvalidInput(
            f"snapshot node {pos} lies deeper than the horizon {tree.horizon}")
    sample = _sample_from_json_dict(data["sample"])
    prop = belief_from_json_dict(data["prop"], PropagatedBelief)
    belief = belief_from_json_dict(data["belief"])
    if not prop.time == belief.time == parent_node.belief.time + 1:
        raise InvalidInput(
            f"snapshot node {pos} has prop time {prop.time} and belief time "
            f"{belief.time}; both must be its parent's time plus one")
    if (sample.chi.shape != (prop.dim,)
            or set(sample.entry_log_densities) != set(sample.z_set.keys())):
        raise InvalidInput(f"snapshot node {pos} has a sample whose state is "
                           "not laid out as its prop or whose densities are "
                           "not one per entry")
    origin = data["origin"]
    node = tree.add_child(
        parent_node, action, len(parent_node.children[action]),
        sample=sample, belief=belief, prop=prop,
        reward=_float(data["reward"], "reward"),
        tag=data["tag"],
        origin=None if origin is None else _int(origin, "origin"),
    )
    node.log_ratio = _float(data["log_ratio"], "log_ratio")


def tree_to_json_dict(tree: BeliefTree) -> dict[str, Any]:
    return {
        "format": TREE_FORMAT,
        "planning_time": tree.planning_time,
        "horizon": tree.horizon,
        "n_u": tree.n_u,
        "n_x": tree.n_x,
        "n_z": tree.n_z,
        "base_seed": tree.base_seed,
        "nodes": [_node_to_json_dict(n) for n in tree.nodes],
    }


def tree_from_json_dict(data: dict[str, Any]) -> BeliefTree:
    format_ = data.get("format") if isinstance(data, dict) else None
    if format_ != TREE_FORMAT:
        raise InvalidInput(f"unknown snapshot format {format_!r}")
    try:
        return _tree_from_json_dict(data)
    except KeyError as exc:
        raise InvalidInput(f"snapshot lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed snapshot: {exc}") from None


def _tree_from_json_dict(data: dict[str, Any]) -> BeliefTree:
    tree = BeliefTree(
        planning_time=_int(data["planning_time"], "planning_time"),
        horizon=_int(data["horizon"], "horizon"),
        n_u=_int(data["n_u"], "n_u"),
        n_x=_int(data["n_x"], "n_x"),
        n_z=_int(data["n_z"], "n_z"),
        base_seed=_int(data["base_seed"], "base_seed"),
    )
    if tree.horizon < 1:
        raise InvalidInput(f"snapshot horizon must be >= 1, got {tree.horizon}")
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise InvalidInput("snapshot nodes must be a non-empty list")
    root = belief_from_json_dict(nodes[0]["belief"])
    if root.time != tree.planning_time:
        raise InvalidInput(f"snapshot root belief time {root.time} is not the "
                           f"planning time {tree.planning_time}")
    tree.add_root(root)
    for pos in range(1, len(nodes)):
        _add_node(tree, pos, nodes[pos])
    return tree
