"""Planning-session reuse: incremental belief trees with importance reweighting.

A finished session leaves behind its lookahead tree.  The next session, one
executed action later, selects the archived branch closest to the new
posterior and re-uses as much of that subtree as the distances allow:

* distance <= eps_wf (with wildfire enabled): adopt verbatim, no update, no
  reward recomputation; weights stay neutral.
* distance <= eps_c, sampled futures only: keep the archived futures whose
  generating states still represent the new propagated belief, refresh the
  rest, condition every kept measurement set on the new propagated belief
  (the one-step update a fresh future gets), recompute rewards.
* otherwise, and in a most-likely session not adopted: plan from scratch.

``planner.build_tree`` makes every level of the new tree, as for the fresh
planners.  ``ArchiveReuse`` carries the selected branch and answers, for each
action slot of the levels the archived tree also spans, whether the slot takes
archived children (copied or re-used) or fresh futures.

Because re-used futures were sampled under last session's propagated beliefs,
a re-used step records its log p - log q in ``BeliefTreeNode.log_ratio``, and
``planner.objective``, the one objective of every planner, weights each path
by the balance heuristic defined there.  Paths whose log ratio is zero get
weight exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from ._gaussian import spd_inverse
from .beliefs import (
    GaussianBelief,
    GaussianState,
    MeasurementSet,
    PropagatedBelief,
    VariableIndex,
    overlay,
    planning_root,
    propagate,
    update_with_measurements,
    wrap_state,
)
from .config import ScenarioConfig
from .distances import d_sqrt_j
from .errors import (
    EmptyCandidates,
    IncompatibleHorizon,
    IncompatibleStates,
    IncompatibleTrees,
    InvalidInput,
)
from .models import MeasModel, MotionModel
from .planner import (
    TAG_REUSED,
    TAG_WILDFIRE,
    BeliefTree,
    BeliefTreeNode,
    PlanningResult,
    add_nominal_children,
    build_tree,
    planning_result,
)
from .planner import objective as mis_objective  # a perfbench span's binding
from .sampling import (
    MeasurementSample,
    _measure_at,
    measurement_likelihood_density,
    most_likely_measurement,
    predicted_da,
    sample_future_measurements,
    sample_state_futures,
)


@dataclass(frozen=True)
class PlanningArchive:
    """A previous session's tree plus the actions executed since."""

    tree: BeliefTree
    executed_actions: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.executed_actions:
            raise InvalidInput("archive needs at least one executed action")
        if len(self.executed_actions) >= self.tree.horizon:
            raise IncompatibleHorizon(
                "executed prefix consumes the whole archived horizon")

    @property
    def overlap(self) -> int:
        return len(self.executed_actions)


# ---------------------------------------------------------------------------
# branch and belief selection


def select_closest_branch(
    root: GaussianBelief, archive: PlanningArchive
) -> tuple[float, int]:
    """Closest archived depth-l posterior consistent with the executed actions.

    Returns the winner's sqrt-J distance to ``root`` and its node id.
    """
    tree = archive.tree
    l = archive.overlap
    cands = [
        (n.node_id, n.belief) for n in tree.nodes_at_depth(l)
        if tuple(n.path[0::2]) == tuple(archive.executed_actions)
    ]
    if not cands:
        raise EmptyCandidates("no archived branch matches the executed actions")
    return closest_belief(root, cands)


_K = TypeVar("_K")


def closest_belief(
    target: GaussianState,
    candidates: list[tuple[_K, GaussianState]],
) -> tuple[float, _K]:
    """Min sqrt-J scan over keyed candidate beliefs; first found wins ties."""
    if not candidates:
        raise EmptyCandidates("no archived beliefs to compare")
    best_dist = math.inf
    best_key = candidates[0][0]
    for key, belief in candidates:
        dist = d_sqrt_j(target, belief)
        if dist < best_dist:
            best_dist = dist
            best_key = key
    return best_dist, best_key


class _CandidateScan:
    """Batched min sqrt-J scan over one level's archived propagated beliefs.

    Planning adds one pose per level and no landmark, so all candidates of a
    level share one variable layout (mixed layouts raise
    ``IncompatibleTrees``), and so do all its targets.  The candidates'
    moments on the variables shared with the target are stacked once, and
    each target is evaluated against all of them with batched contractions:
    ``closest_belief``'s distance and first-wins tie rule.
    """

    __slots__ = ("candidates", "_index", "_stacks")

    def __init__(
        self, candidates: list[tuple[tuple[int, int], PropagatedBelief]]
    ) -> None:
        if not candidates:
            raise EmptyCandidates("no archived propagated beliefs to compare")
        self._index = candidates[0][1].index
        if any(prop.index != self._index for _, prop in candidates):
            raise IncompatibleTrees(
                "archived propagated beliefs of one level differ in layout")
        self.candidates = candidates
        self._stacks: tuple | None = None

    def _stacks_for(self, target_index: VariableIndex) -> tuple:
        """Candidate stacks on the variables shared with ``target_index``."""
        if self._stacks is not None and self._stacks[0] == target_index.vars:
            return self._stacks[1:]
        common = [v for v in target_index.vars if v in self._index]
        if not common:
            raise IncompatibleStates(
                "target shares no variable with the archived level")
        sub = VariableIndex(tuple(common))
        t_idx = target_index.indices_of(common)
        c_idx = self._index.indices_of(common)
        sel = np.ix_(c_idx, c_idx)
        means = np.stack([p.mean[c_idx] for _, p in self.candidates])
        covs = np.stack([p.cov[sel] for _, p in self.candidates])
        self._stacks = (target_index.vars, t_idx, means, covs,
                        np.linalg.inv(covs), sub)
        return self._stacks[1:]

    def closest(self, target: PropagatedBelief) -> tuple[float, tuple[int, int]]:
        t_idx, means, covs, precs, sub = self._stacks_for(target.index)
        cov_t = target.cov[np.ix_(t_idx, t_idx)]
        prec_t = spd_inverse(cov_t)
        diffs = wrap_state(sub, means - target.mean[t_idx])
        inner = (
            np.einsum("ci,cij,cj->c", diffs, precs, diffs)
            + np.einsum("ci,ij,cj->c", diffs, prec_t, diffs)
            + np.einsum("cij,ij->c", precs, cov_t)
            + np.einsum("cij,ij->c", covs, prec_t)
            - 2.0 * sub.dim
        )
        dists = 0.5 * np.sqrt(np.maximum(inner, 0.0))
        i = int(np.argmin(dists))
        return float(dists[i]), self.candidates[i][0]


def is_rep_sample(
    chi: np.ndarray,
    chi_index: VariableIndex,
    prop: PropagatedBelief,
    beta_sigma: float,
) -> bool:
    """Does an archived state realization still represent ``prop``?

    Tested over the variables both sides share: every coordinate must lie
    within beta_sigma marginal standard deviations of the propagated mean.
    """
    if math.isinf(beta_sigma):
        return True
    common = [v for v in chi_index.vars if v in prop.index]
    if not common:
        return False
    idx_new = prop.index.indices_of(common)
    diff = wrap_state(VariableIndex(tuple(common)),
                      chi[chi_index.indices_of(common)] - prop.mean[idx_new])
    sigma = np.sqrt(np.diag(prop.cov)[idx_new])
    return bool(np.all(np.abs(diff) <= beta_sigma * sigma))


# ---------------------------------------------------------------------------
# tree update


class ArchiveReuse:
    """One session's re-use of the archived branch within eps_c of its root,
    asked by ``build_tree`` about each slot of the first ``levels`` levels.

    Verbatim (wildfire) copies need wildfire on and a branch holding every
    variable of the new root: distances over shared variables cannot certify
    a copy that lacks one.  Planning adds one pose per level and no landmark,
    so this one test decides every slot below.  Within eps_wf the root is
    adopted (``mode`` ``"adopt"``) and ``copy`` fills every overlap level.
    """

    def __init__(self, archive: PlanningArchive, branch_id: int,
                 branch_dist: float, root: GaussianBelief, cfg: ScenarioConfig,
                 meas: MeasModel) -> None:
        arch = self.arch_tree = archive.tree
        self.meas = meas
        self.epsilon_wf = cfg.epsilon_wf
        self.epsilon_c = cfg.epsilon_c
        self.beta_sigma = cfg.beta_sigma
        self.wildfire = cfg.use_wildfire and set(root.index.vars) <= set(
            arch.node(branch_id).belief.index.vars)
        adopt = self.wildfire and branch_dist <= cfg.epsilon_wf
        self.adopted = branch_id if adopt else None
        self.mode = "adopt" if adopt else "update"
        self.levels = cfg.horizon - archive.overlap
        # one scan per level over the archived slots under the branch
        self.scans: list[_CandidateScan] = []
        parents = [branch_id]
        for _ in range(self.levels):
            candidates: list[tuple[tuple[int, int], PropagatedBelief]] = []
            children: list[int] = []
            for pid in parents:
                for a, ids in enumerate(arch.node(pid).children):
                    if ids:
                        candidates.append(((pid, a), arch.node(ids[0]).prop))
                    children.extend(ids)
            self.scans.append(_CandidateScan(candidates))
            parents = children

    def copy(self, tree: BeliefTree, parent: BeliefTreeNode) -> bool:
        """Before any propagation: an adopted root or a wildfire node copies
        its archived counterpart's children."""
        source = self.adopted if parent.parent is None else (
            parent.origin if parent.tag == TAG_WILDFIRE else None)
        if source is None:
            return False
        for a, ids in enumerate(self.arch_tree.node(source).children):
            self._copy(tree, parent, a, ids)
        return True

    def fill(self, tree: BeliefTree, parent: BeliefTreeNode, action_index: int,
             prop: PropagatedBelief, rng: np.random.Generator,
             reward_fn) -> bool:
        """Sampled sessions: the nearest archived slot to ``prop`` gives its
        children, copied within eps_wf, re-used within eps_c, else none."""
        dist, (c_pid, c_a) = self.scans[parent.depth].closest(prop)
        arch_ids = self.arch_tree.node(c_pid).children[c_a]
        if self.wildfire and dist <= self.epsilon_wf:
            self._copy(tree, parent, action_index, arch_ids)
        elif dist <= self.epsilon_c:
            self._reuse(tree, parent, action_index, prop, arch_ids, rng,
                        reward_fn)
        else:
            return False
        return True

    def _copy(self, tree: BeliefTree, parent: BeliefTreeNode,
              action_index: int, arch_ids: list[int]) -> None:
        """Wildfire adoption: archived children become new children untouched."""
        for s_idx, cid in enumerate(arch_ids):
            arch = self.arch_tree.node(cid)
            tree.add_child(
                parent, action_index, s_idx,
                sample=arch.sample, belief=arch.belief, prop=arch.prop,
                reward=arch.reward, tag=TAG_WILDFIRE, origin=arch.node_id,
            )

    def _reuse(self, tree: BeliefTree, parent: BeliefTreeNode,
               action_index: int, prop: PropagatedBelief, arch_ids: list[int],
               rng: np.random.Generator, reward_fn) -> None:
        """Re-use archived futures where representative, refresh the rest.

        Archived children are grouped by generating state (state-major
        order); each group is accepted or rejected as a whole, mirroring how
        the state realization, not the value draw, decides
        representativeness.  A re-used child's step log ratio sums its kept
        entries' log densities under ``prop`` minus their archived ones.
        """
        meas = self.meas
        n_z = tree.n_z
        slot = 0
        for g in range(0, len(arch_ids), n_z):
            group = [self.arch_tree.node(cid) for cid in arch_ids[g:g + n_z]]
            lead = group[0]
            arch_prop = lead.prop
            if not is_rep_sample(lead.sample.chi, arch_prop.index, prop,
                                 self.beta_sigma):
                fresh = sample_state_futures(prop, meas, n_z, rng)
                add_nominal_children(tree, parent, action_index, prop, fresh,
                                     meas, reward_fn, first_slot=slot)
                slot += len(fresh)
                continue
            # the archived realization over the new index; landmarks mapped
            # since keep the new propagated mean
            chi = overlay(prop.index, prop.mean, arch_prop.index, lead.sample.chi)
            da = set(predicted_da(prop, meas, chi))
            for arch_node in group:
                kept = tuple(e for e in arch_node.sample.z_set if e.lm in da)
                added_da = tuple(sorted(
                    lm for lm in da if arch_node.sample.z_set.get(lm) is None))
                added = _measure_at(prop, meas, chi, added_da, rng)
                z_set = MeasurementSet(kept + tuple(added))
                log_p = measurement_likelihood_density(z_set, prop, meas)
                log_q = arch_node.sample.entry_log_densities
                step_log_ratio = 0.0
                for e in kept:
                    step_log_ratio += log_p[e.lm] - log_q[e.lm]
                belief = update_with_measurements(prop, z_set, meas)
                tree.add_child(
                    parent, action_index, slot, step_log_ratio,
                    sample=MeasurementSample(chi, z_set, log_p), belief=belief,
                    prop=prop, reward=reward_fn(belief, parent.belief),
                    tag=TAG_REUSED, origin=arch_node.node_id,
                )
                slot += 1


# ---------------------------------------------------------------------------
# planning entry points


def _check_archive(archive: PlanningArchive, posterior: GaussianBelief,
                   cfg: ScenarioConfig, *, ml_mode: bool) -> None:
    tree = archive.tree
    if tree.horizon != cfg.horizon:
        raise IncompatibleTrees("archived horizon differs from configured")
    expect = (1, 1) if ml_mode else (cfg.n_x, cfg.n_z)
    if (tree.n_x, tree.n_z) != expect or tree.n_u != cfg.n_u:
        raise IncompatibleTrees("archived sampling budgets differ from configured")
    if tree.planning_time + archive.overlap != posterior.time:
        raise IncompatibleHorizon(
            f"archive at time {tree.planning_time} plus {archive.overlap} executed "
            f"steps does not reach posterior time {posterior.time}")


def _plan_incremental(
    posterior: GaussianBelief,
    archive: PlanningArchive | None,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
    *,
    ml_mode: bool,
) -> PlanningResult:
    root = planning_root(posterior)
    info: dict = {"mode": "no_archive", "branch_dist": None, "branch_id": None}
    overlap_depths = cfg.horizon - cfg.overlap
    reuse = None
    if archive is not None:
        _check_archive(archive, posterior, cfg, ml_mode=ml_mode)
        dist, branch_id = select_closest_branch(root, archive)
        overlap_depths = cfg.horizon - archive.overlap
        if dist <= cfg.epsilon_c:
            reuse = ArchiveReuse(archive, branch_id, dist, root, cfg, meas)
            if ml_mode and reuse.adopted is None:
                reuse = None  # see plan_iml
        info = {"mode": "fresh" if reuse is None else reuse.mode,
                "branch_dist": dist, "branch_id": branch_id}

    tree = build_tree(root, cfg, motion, meas, goal, base_seed,
                      most_likely=ml_mode, reuse=reuse)
    return planning_result(tree, overlap_depths, reuse_info=info)


def plan_ixbsp(
    posterior: GaussianBelief,
    archive: PlanningArchive | None,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
) -> PlanningResult:
    """Incremental full-expectation planning session.

    With no archive this is exactly a fresh full-expectation session.
    """
    return _plan_incremental(posterior, archive, cfg, motion, meas, goal,
                             base_seed, ml_mode=False)


def plan_iml(
    posterior: GaussianBelief,
    archive: PlanningArchive | None,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
) -> PlanningResult:
    """Incremental maximum-likelihood planning session.

    It adopts the closest archived branch verbatim (the wildfire zone) or
    plans exactly as the fresh ML planner.  Unlike the paper's iML-BSP it
    never re-uses an archived ML future: that future's update starts off the
    new optimum and iterates, while a fresh one starts at a zero gradient and
    stops at once, so a fresh future is the cheaper one.
    """
    return _plan_incremental(posterior, archive, cfg, motion, meas, goal,
                             base_seed, ml_mode=True)
