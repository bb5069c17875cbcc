"""Lookahead belief trees and the sampling-based planners.

A planning session expands a tree rooted at the current posterior: each level
picks every candidate action, propagates, generates measurement futures
(state-major: n_x state realizations times n_z value draws each, or the
single most-likely future), and conditions.  The objective of a candidate
action sequence averages immediate rewards over that sequence's sample paths
level by level:

    J(u_seq) = sum_i (1/n_i) sum_{paths at step i} w * r_i,

with unit weights for freshly sampled trees.  The argmax over sequences (ties
to the lowest enumeration index) gives the action to execute.

All four planners share one expansion path.  ``build_tree`` makes every
session's tree: an incremental planner first fills the overlap levels from
its archive (``incremental.inc_update_belief_tree``), then one timed level
loop expands fresh levels down to the horizon.  Wherever a fresh future
becomes a node, in a fresh level or in a re-used action slot, it goes
through ``add_nominal_children``.  ``planning_result`` scores the tree and
splits its depth timings.

Per-node random streams are keyed by the node's path from the root, so a tree
build is deterministic under any traversal or parallel order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._gaussian import spd_logdet
from .beliefs import (
    GaussianBelief,
    GaussianState,
    PropagatedBelief,
    planning_root,
    propagate,
    update_with_measurements,
)
from .config import RewardConfig, ScenarioConfig
from .errors import InvalidInput, UnknownSequence
from .models import ActionId, MeasModel, MotionModel
from .sampling import (
    MeasurementSample,
    most_likely_measurement,
    node_rng,
    sample_future_measurements,
)

TAG_NOMINAL = "nominal"
TAG_REUSED = "reused"
TAG_WILDFIRE = "wildfire"

_LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)


def distance_to_goal(belief: GaussianState, goal: np.ndarray) -> float:
    """Euclidean distance from the newest pose's position mean to the goal."""
    sl = belief.index.slice_of(belief.index.newest_pose())
    pos = belief.mean[sl][:2]
    return float(np.hypot(pos[0] - goal[0], pos[1] - goal[1]))


def reward_info_distance(
    belief: GaussianState,
    prev_belief: GaussianState,
    spec: RewardConfig,
    goal: np.ndarray,
) -> float:
    """Immediate reward of reaching ``belief`` from ``prev_belief``.

    info_and_distance blends the information of the focused marginal with the
    step's progress toward the goal; distance_with_cov_penalty trades progress
    against a hard uncertainty gate.
    """
    d2g_prev = distance_to_goal(prev_belief, goal)
    d2g = distance_to_goal(belief, goal)
    progress = d2g_prev - d2g
    pose_marg = belief.marginal([belief.index.newest_pose()])
    cov = pose_marg.cov if spec.focus == "pose" else pose_marg.cov[:2, :2]
    if spec.kind == "info_and_distance":
        n = cov.shape[0]
        info = 0.5 * (n * _LOG_2PI_E - spd_logdet(cov))
        return spec.alpha * info + (1.0 - spec.alpha) * progress
    # distance_with_cov_penalty
    spread = math.sqrt(float(np.trace(cov)))
    penalty = spec.penalty if spread > spec.cov_threshold else 0.0
    return progress - penalty


@dataclass(slots=True)
class BeliefTreeNode:
    """One posterior node of the lookahead tree.  Mutated only during build."""

    node_id: int
    parent: int | None
    depth: int
    path: tuple[int, ...]
    action: ActionId | None
    sample: MeasurementSample | None
    belief: GaussianBelief
    prop: PropagatedBelief | None
    reward: float = 0.0
    log_p_step: float = 0.0
    log_q_step: float = 0.0
    cum_log_p: float = 0.0
    cum_log_q: float = 0.0
    tag: str = TAG_NOMINAL
    origin: int | None = None
    children: list[list[int]] = field(default_factory=list)


@dataclass
class BeliefTree:
    """Arena-allocated lookahead tree for one planning session."""

    planning_time: int
    horizon: int
    n_u: int
    n_x: int
    n_z: int
    base_seed: int
    nodes: list[BeliefTreeNode] = field(default_factory=list)
    depth_times: list[float] = field(default_factory=list)
    root_id: int = 0

    def node(self, node_id: int) -> BeliefTreeNode:
        return self.nodes[node_id]

    @property
    def root(self) -> BeliefTreeNode:
        return self.nodes[self.root_id]

    def add_root(self, belief: GaussianBelief) -> BeliefTreeNode:
        if self.nodes:
            raise InvalidInput("tree already has a root")
        node = BeliefTreeNode(
            node_id=0, parent=None, depth=0, path=(), action=None,
            sample=None, belief=belief, prop=None,
            children=[[] for _ in range(self.n_u)],
        )
        self.nodes.append(node)
        return node

    def add_child(
        self,
        parent: BeliefTreeNode,
        action_index: int,
        sample_index: int,
        **kwargs,
    ) -> BeliefTreeNode:
        node = BeliefTreeNode(
            node_id=len(self.nodes),
            parent=parent.node_id,
            depth=parent.depth + 1,
            path=parent.path + (action_index, sample_index),
            children=[[] for _ in range(self.n_u)],
            **kwargs,
        )
        node.cum_log_p = parent.cum_log_p + node.log_p_step
        node.cum_log_q = parent.cum_log_q + node.log_q_step
        self.nodes.append(node)
        parent.children[action_index].append(node.node_id)
        return node

    def nodes_at_depth(self, depth: int) -> list[BeliefTreeNode]:
        return [n for n in self.nodes if n.depth == depth]

    def candidate_sequences(self) -> list[tuple[int, ...]]:
        return [tuple(s) for s in itertools.product(range(self.n_u), repeat=self.horizon)]

    def paths_for_seq(self, seq: tuple[int, ...], depth: int) -> list[BeliefTreeNode]:
        """All step-``depth`` nodes consistent with the sequence prefix."""
        if depth < 1 or depth > self.horizon:
            raise InvalidInput(f"depth {depth} outside horizon")
        if len(seq) < depth:
            raise UnknownSequence(f"sequence {seq} shorter than depth {depth}")
        if any(a < 0 or a >= self.n_u for a in seq):
            raise UnknownSequence(f"sequence {seq} references unknown actions")
        frontier = [self.root]
        for d in range(depth):
            nxt: list[BeliefTreeNode] = []
            for node in frontier:
                nxt.extend(self.nodes[cid] for cid in node.children[seq[d]])
            frontier = nxt
        return frontier

    def tag_counts(self) -> dict[str, int]:
        counts = {TAG_NOMINAL: 0, TAG_REUSED: 0, TAG_WILDFIRE: 0}
        for n in self.nodes:
            if n.depth > 0:
                counts[n.tag] += 1
        return counts


@dataclass(frozen=True)
class PlanningResult:
    """Outcome of one planning session."""

    tree: BeliefTree
    method: str
    objectives: dict[tuple[int, ...], float]
    best_seq: tuple[int, ...]
    best_action: ActionId
    objective: float
    counts: dict[str, int]
    timing: dict[str, float]
    reuse_info: dict[str, float | int | str | None] = field(default_factory=dict)


def add_nominal_children(
    tree: BeliefTree,
    parent: BeliefTreeNode,
    action_index: int,
    prop: PropagatedBelief,
    samples: list[MeasurementSample],
    meas: MeasModel,
    reward_fn,
    first_slot: int = 0,
) -> list[BeliefTreeNode]:
    """Turn fresh measurement futures into nominal children of ``parent``.

    The one place a drawn future becomes a node: condition ``prop`` on the
    sample, score the step, append.  Slots count up from ``first_slot``, so a
    partly re-used action slot can continue its own numbering.
    """
    created: list[BeliefTreeNode] = []
    for s_idx, sample in enumerate(samples, first_slot):
        belief = update_with_measurements(prop, sample.z_set, meas)
        created.append(tree.add_child(
            parent, action_index, s_idx,
            action=ActionId(action_index), sample=sample, belief=belief, prop=prop,
            reward=reward_fn(belief, parent.belief),
            log_p_step=sample.log_density,
            log_q_step=sample.log_density,
            tag=TAG_NOMINAL, origin=None,
        ))
    return created


def make_reward_fn(spec: RewardConfig, goal: np.ndarray):
    def fn(belief: GaussianState, prev_belief: GaussianState) -> float:
        return reward_info_distance(belief, prev_belief, spec, goal)
    return fn


def build_tree(
    root_belief: GaussianBelief,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
    *,
    most_likely: bool,
    reuse_levels=None,
) -> BeliefTree:
    """Lookahead tree of one session, for every planner.

    ``most_likely`` selects one model-mean future per action instead of
    n_x * n_z sampled ones.  ``reuse_levels(tree, reward_fn)``, when given,
    first builds the overlap levels from an archived tree (appending one
    depth timing per level).  Fresh levels fill the rest down to the
    horizon: every candidate action under every deepest node, each level
    timed the same way.
    """
    tree = BeliefTree(
        planning_time=root_belief.time, horizon=cfg.horizon,
        n_u=cfg.n_u, n_x=1 if most_likely else cfg.n_x,
        n_z=1 if most_likely else cfg.n_z, base_seed=base_seed,
    )
    tree.add_root(root_belief)
    reward_fn = make_reward_fn(cfg.reward, goal)
    if reuse_levels is not None:
        reuse_levels(tree, reward_fn)
    built = tree.nodes[-1].depth
    frontier = tree.nodes_at_depth(built)
    for _ in range(built, cfg.horizon):
        t0 = time.perf_counter()
        parents, frontier = frontier, []
        for parent in parents:
            for a in range(tree.n_u):
                prop = propagate(parent.belief, ActionId(a), motion)
                if most_likely:
                    samples = [most_likely_measurement(prop, meas)]
                else:
                    rng = node_rng(tree.base_seed, parent.path + (a,))
                    samples = sample_future_measurements(
                        prop, meas, tree.n_x, tree.n_z, rng)
                frontier += add_nominal_children(tree, parent, a, prop, samples,
                                                 meas, reward_fn)
        tree.depth_times.append(time.perf_counter() - t0)
    return tree


def objective(tree: BeliefTree, seq: tuple[int, ...]) -> float:
    """Unweighted sampled objective of one candidate sequence (fresh trees)."""
    total = 0.0
    for depth in range(1, tree.horizon + 1):
        nodes = tree.paths_for_seq(seq, depth)
        if not nodes:
            raise UnknownSequence(f"sequence {seq} has no paths at depth {depth}")
        acc = 0.0
        for n in nodes:
            acc += 1.0 * n.reward
        total += acc / len(nodes)
    return total


def best_action(
    tree: BeliefTree,
    objective_fn=None,
) -> tuple[ActionId, tuple[int, ...], float, dict[tuple[int, ...], float]]:
    """Argmax over candidate sequences; ties resolve to the lowest index."""
    fn = objective_fn if objective_fn is not None else objective
    best_seq: tuple[int, ...] | None = None
    best_val = -math.inf
    values: dict[tuple[int, ...], float] = {}
    for seq in tree.candidate_sequences():
        val = fn(tree, seq)
        values[seq] = val
        if val > best_val:
            best_val = val
            best_seq = seq
    assert best_seq is not None
    return ActionId(best_seq[0]), best_seq, best_val, values


def planning_result(
    tree: BeliefTree,
    method: str,
    overlap_depths: int,
    *,
    objective_fn=None,
    reuse_info: dict[str, float | int | str | None] | None = None,
) -> PlanningResult:
    """Score a built tree and split its depth timings at ``overlap_depths``."""
    act, seq, val, values = best_action(tree, objective_fn)
    total = float(sum(tree.depth_times))
    overlap = float(sum(tree.depth_times[:overlap_depths]))
    return PlanningResult(
        tree=tree, method=method, objectives=values, best_seq=seq,
        best_action=act, objective=val, counts=tree.tag_counts(),
        timing={"total_s": total, "overlap_s": overlap,
                "extension_s": total - overlap},
        reuse_info=reuse_info if reuse_info is not None else {},
    )


def plan_xbsp(
    root_belief: GaussianBelief,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
) -> PlanningResult:
    """One full-expectation planning session from the given posterior root."""
    tree = build_tree(planning_root(root_belief), cfg, motion, meas, goal,
                      base_seed, most_likely=False)
    return planning_result(tree, "xbsp", cfg.horizon - cfg.overlap)


def plan_mlbsp(
    root_belief: GaussianBelief,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
) -> PlanningResult:
    """One maximum-likelihood planning session."""
    tree = build_tree(planning_root(root_belief), cfg, motion, meas, goal,
                      base_seed, most_likely=True)
    return planning_result(tree, "mlbsp", cfg.horizon - cfg.overlap)
