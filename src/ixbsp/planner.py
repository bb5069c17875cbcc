"""Lookahead belief trees and the sampling-based planners.

A planning session expands a tree rooted at the current posterior: each level
picks every candidate action, propagates, generates measurement futures
(state-major: n_x state realizations times n_z value draws each, or the
single most-likely future), and conditions.  The objective of a candidate
action sequence averages immediate rewards over that sequence's sample paths
level by level:

    J(u_seq) = sum_i (1/n_i) sum_{paths at step i} w * r_i.

A path's weight is the balance heuristic of multiple importance sampling
(Veach & Guibas, SIGGRAPH 1995) over its step's tags.  With p and q the path's
densities under this session's propagated beliefs and under the generators
that drew it, and n_r of the step's n paths re-used from an archived tree:

    w = p / ((n_r / n) q + (1 - n_r / n) p) = 1 / (1 + (n_r / n) (exp(-log_ratio) - 1))

so a weight reads one number per path, ``BeliefTreeNode.log_ratio`` =
log p - log q.  Every step of a fresh tree draws its futures from this
session's beliefs, so n_r = 0 and every weight is exactly the float 1.0: the
objective is the plain sample mean.  The argmax over sequences (ties to the
lowest enumeration index) gives the action to execute.

All four planners share one level loop.  ``build_tree`` makes every
session's tree: it times each level, propagates each ``(parent, action)``
slot, draws the slot's ``node_rng`` stream (sampled mode only) and turns
fresh futures into nodes through ``add_nominal_children``.  An incremental
planner passes its archive's re-use object
(``incremental.ArchiveReuse``), which may fill the slots of the overlap
levels with archived children instead.  ``planning_result`` scores the tree
and splits its depth timings.

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
from .errors import InvalidInput, NumericalError, UnknownSequence
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

    info_and_distance blends the information of the newest pose's marginal
    with the step's progress toward the goal; distance_with_cov_penalty
    trades progress against a hard uncertainty gate.
    """
    d2g_prev = distance_to_goal(prev_belief, goal)
    d2g = distance_to_goal(belief, goal)
    progress = d2g_prev - d2g
    sl = belief.index.slice_of(belief.index.newest_pose())
    cov = belief.cov[sl, sl]
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
    """One posterior node of the lookahead tree.  Mutated only during build.

    A child's action index is ``path[-2]`` and its sample slot ``path[-1]``.
    ``log_ratio`` is the path's log p - log q: its futures' density under
    this tree's propagated beliefs minus that under the generators that drew
    them.  A nominal or wildfire step adds 0.0; a re-used step adds, over
    the archived entries it kept, each one's log density under ``prop``
    minus its archived one.  Only the root has no sample and no ``prop``.
    """

    node_id: int
    parent: int | None
    depth: int
    path: tuple[int, ...]
    sample: MeasurementSample | None
    belief: GaussianBelief
    prop: PropagatedBelief | None
    reward: float = 0.0
    log_ratio: float = 0.0
    tag: str = TAG_NOMINAL
    origin: int | None = None
    children: list[list[int]] = field(default_factory=list)


@dataclass
class BeliefTree:
    """Arena-allocated lookahead tree for one planning session: node 0 is
    the root, and a node's id is its position in ``nodes``."""

    planning_time: int
    horizon: int
    n_u: int
    n_x: int
    n_z: int
    base_seed: int
    nodes: list[BeliefTreeNode] = field(default_factory=list)
    depth_times: list[float] = field(default_factory=list)

    def node(self, node_id: int) -> BeliefTreeNode:
        return self.nodes[node_id]

    @property
    def root(self) -> BeliefTreeNode:
        return self.nodes[0]

    def add_root(self, belief: GaussianBelief) -> BeliefTreeNode:
        if self.nodes:
            raise InvalidInput("tree already has a root")
        node = BeliefTreeNode(
            node_id=0, parent=None, depth=0, path=(), sample=None,
            belief=belief, prop=None,
            children=[[] for _ in range(self.n_u)],
        )
        self.nodes.append(node)
        return node

    def add_child(
        self,
        parent: BeliefTreeNode,
        action_index: int,
        sample_index: int,
        step_log_ratio: float = 0.0,
        **kwargs,
    ) -> BeliefTreeNode:
        node = BeliefTreeNode(
            node_id=len(self.nodes),
            parent=parent.node_id,
            depth=parent.depth + 1,
            path=parent.path + (action_index, sample_index),
            log_ratio=parent.log_ratio + step_log_ratio,
            children=[[] for _ in range(self.n_u)],
            **kwargs,
        )
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
    """Outcome of one planning session.

    ``counts`` holds the tree's node counts by tag and ``gn_cap_hits``: how
    many of the nodes this session solved (tags nominal and reused) come
    from a Gauss-Newton solve that stopped at its iteration cap.
    ``overlap_s`` is the build time of the levels the previous session's
    tree also spans.
    """

    tree: BeliefTree
    objectives: dict[tuple[int, ...], float]
    best_seq: tuple[int, ...]
    best_action: ActionId
    objective: float
    counts: dict[str, int]
    overlap_s: float
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
            sample=sample, belief=belief, prop=prop,
            reward=reward_fn(belief, parent.belief),
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
    reuse=None,
) -> BeliefTree:
    """Lookahead tree of one session, for every planner.

    The one loop over tree levels, each level timed: under every node of the
    level above, every candidate action's slot is propagated and gets fresh
    futures, one model-mean future when ``most_likely`` and otherwise
    n_x * n_z draws from the slot's ``node_rng`` stream.  ``reuse``, an
    ``incremental.ArchiveReuse``, answers for the slots of its first
    ``reuse.levels`` levels: ``reuse.copy`` takes all of a node's slots from
    the archive before any propagation, and ``reuse.fill`` one propagated
    slot; a slot neither takes gets fresh futures.
    """
    tree = BeliefTree(
        planning_time=root_belief.time, horizon=cfg.horizon,
        n_u=cfg.n_u, n_x=1 if most_likely else cfg.n_x,
        n_z=1 if most_likely else cfg.n_z, base_seed=base_seed,
    )
    tree.add_root(root_belief)
    reward_fn = make_reward_fn(cfg.reward, goal)
    frontier = [tree.root]
    for depth in range(cfg.horizon):
        t0 = time.perf_counter()
        first = len(tree.nodes)
        archived = reuse is not None and depth < reuse.levels
        for parent in frontier:
            if archived and reuse.copy(tree, parent):
                continue
            for a in range(tree.n_u):
                prop = propagate(parent.belief, ActionId(a), motion)
                rng = None if most_likely else node_rng(
                    tree.base_seed, parent.path + (a,))
                if archived and reuse.fill(tree, parent, a, prop, rng, reward_fn):
                    continue
                if rng is None:
                    samples = [most_likely_measurement(prop, meas)]
                else:
                    samples = sample_future_measurements(
                        prop, meas, tree.n_x, tree.n_z, rng)
                add_nominal_children(tree, parent, a, prop, samples, meas,
                                     reward_fn)
        frontier = tree.nodes[first:]
        tree.depth_times.append(time.perf_counter() - t0)
    return tree


_LOG_MAX_WEIGHT = math.log(np.finfo(float).max)


def balance_weight(log_ratio: float, n_reused: int, n_nominal: int) -> float:
    """Balance-heuristic weight of one sample path at one step.

    ``log_ratio`` is the path's cumulative log p - log q; the counts split
    the step's paths by their own step tag.  The weight is exactly 1.0
    whenever the log ratio is zero or no path at the step was re-used, and
    p/q when every path was; a p/q beyond the float range (or a NaN log
    ratio) raises ``NumericalError``.
    """
    if n_reused < 0 or n_nominal < 0 or n_reused + n_nominal < 1:
        raise InvalidInput("tag counts must be non-negative and sum >= 1")
    if n_reused == 0 or log_ratio == 0.0:
        return 1.0
    if n_nominal == 0:
        if not log_ratio <= _LOG_MAX_WEIGHT:
            raise NumericalError(
                f"balance weight overflows: log p/q = {log_ratio!r} on an "
                "all-re-used step")
        return float(np.exp(log_ratio))
    n = n_reused + n_nominal
    log_den = np.logaddexp(math.log(n_reused / n) - log_ratio,
                           math.log(n_nominal / n))
    return float(np.exp(-log_den))


def objective(tree: BeliefTree, seq: tuple[int, ...]) -> float:
    """Sampled objective of one candidate sequence, for every planner.

    Each step averages its paths' rewards, each weighted by the balance
    heuristic over the step's tag counts; a step with no re-used path, and
    so every step of a fresh tree, has unit weights.
    """
    total = 0.0
    for depth in range(1, tree.horizon + 1):
        nodes = tree.paths_for_seq(seq, depth)
        if not nodes:
            raise UnknownSequence(f"sequence {seq} has no paths at depth {depth}")
        n_reused = sum(1 for n in nodes if n.tag == TAG_REUSED)
        n_nominal = len(nodes) - n_reused
        acc = 0.0
        for n in nodes:
            acc += balance_weight(n.log_ratio, n_reused, n_nominal) * n.reward
        total += acc / len(nodes)
    return total


def best_action(
    tree: BeliefTree,
) -> tuple[ActionId, tuple[int, ...], float, dict[tuple[int, ...], float]]:
    """Argmax over candidate sequences; ties resolve to the lowest index.

    NaN objectives never win; when every candidate is NaN or -inf there is
    no argmax and ``NumericalError`` is raised.
    """
    best_seq: tuple[int, ...] | None = None
    best_val = -math.inf
    values: dict[tuple[int, ...], float] = {}
    for seq in tree.candidate_sequences():
        val = objective(tree, seq)
        values[seq] = val
        if val > best_val:
            best_val = val
            best_seq = seq
    if best_seq is None:
        raise NumericalError(
            f"no argmax: all {len(values)} candidate objectives are NaN or -inf")
    return ActionId(best_seq[0]), best_seq, best_val, values


def planning_result(
    tree: BeliefTree,
    overlap_depths: int,
    *,
    reuse_info: dict[str, float | int | str | None] | None = None,
) -> PlanningResult:
    """Score a built tree and time its first ``overlap_depths`` levels."""
    act, seq, val, values = best_action(tree)
    counts = tree.tag_counts()
    counts["gn_cap_hits"] = sum(
        1 for n in tree.nodes
        if n.depth > 0 and n.tag != TAG_WILDFIRE and n.belief.gn_capped)
    return PlanningResult(
        tree=tree, objectives=values, best_seq=seq,
        best_action=act, objective=val, counts=counts,
        overlap_s=float(sum(tree.depth_times[:overlap_depths])),
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
    return planning_result(tree, cfg.horizon - cfg.overlap)


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
    return planning_result(tree, cfg.horizon - cfg.overlap)
