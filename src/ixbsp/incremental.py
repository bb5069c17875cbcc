"""Planning-session reuse: incremental belief trees with importance reweighting.

A finished session leaves behind its lookahead tree.  The next session, one
executed action later, selects the archived branch closest to the new
posterior and re-uses as much of that subtree as the distances allow:

* distance <= eps_wf (with wildfire enabled): adopt verbatim, no update, no
  reward recomputation; weights stay neutral.
* distance <= eps_c: keep the archived measurement futures whose generating
  states still represent the new propagated belief, refresh the rest, update
  every kept belief against the new root, recompute rewards.
* otherwise: plan from scratch.

Because re-used futures were sampled under last session's propagated beliefs,
objective averages reweight every sample path by the balance heuristic

    w = p(path) / sum_m (n_m / n) q_m(path)

with two mixture components per step: the all-archived sequence density q and
the all-nominal sequence density p, both evaluated along the path's own
nodes.  Paths whose archived and nominal densities coincide (fresh samples,
wildfire adoptions, identical generators) get weight exactly one.
"""

from __future__ import annotations

import math
import time
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
    planning_root,
    propagate,
    update_with_measurements,
)
from .config import ScenarioConfig
from .distances import d_da, d_sqrt_j
from .errors import (
    EmptyCandidates,
    IncompatibleHorizon,
    IncompatibleTrees,
    IncompleteRecord,
    InvalidInput,
)
from .models import ActionId, MeasModel, MotionModel, wrap_angle_array
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
from .sampling import (
    MeasurementSample,
    _measure_at,
    measurement_likelihood_density,
    most_likely_measurement,
    node_rng,
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
# balance-heuristic weights


def balance_weight(
    cum_log_p: float, cum_log_q: float, n_reused: int, n_nominal: int
) -> float:
    """Balance-heuristic weight of one sample path at one step.

    cum_log_p / cum_log_q are the path's nominal and archived sequence log
    densities; the counts split the step's paths by their own step tag.
    Degenerates to exactly 1.0 whenever the two densities coincide or no
    path at the step was re-used, and to p/q when every path was.
    """
    if n_reused < 0 or n_nominal < 0 or n_reused + n_nominal < 1:
        raise InvalidInput("tag counts must be non-negative and sum >= 1")
    if n_reused == 0 or cum_log_p == cum_log_q:
        return 1.0
    if n_nominal == 0:
        return float(np.exp(cum_log_p - cum_log_q))
    n = n_reused + n_nominal
    log_den = np.logaddexp(
        math.log(n_reused / n) + cum_log_q,
        math.log(n_nominal / n) + cum_log_p,
    )
    return float(np.exp(cum_log_p - log_den))


def mis_objective(tree: BeliefTree, seq: tuple[int, ...]) -> float:
    """Importance-reweighted sampled objective of one candidate sequence.

    Each step averages its paths' rewards, each weighted by the balance
    heuristic over the step's tag counts.  On a tree with no re-used paths
    this equals the unweighted objective exactly (all weights are the float
    1.0).
    """
    total = 0.0
    for depth in range(1, tree.horizon + 1):
        nodes = tree.paths_for_seq(seq, depth)
        if not nodes:
            raise IncompleteRecord(f"sequence {seq} has no paths at depth {depth}")
        n_reused = sum(1 for n in nodes if n.tag == TAG_REUSED)
        n_nominal = len(nodes) - n_reused
        weights = [balance_weight(n.cum_log_p, n.cum_log_q, n_reused, n_nominal)
                   for n in nodes]
        acc = 0.0
        for w, n in zip(weights, nodes):
            acc += w * n.reward
        total += acc / len(nodes)
    return total


# ---------------------------------------------------------------------------
# branch and belief selection


def _covers(candidate: VariableIndex, target: VariableIndex) -> bool:
    """Whether every variable of ``target`` is present in ``candidate``.

    Verbatim (wildfire) reuse copies cached beliefs untouched, so it is only
    sound when the cached branch describes every state the new session knows
    about; distances over the shared subset alone cannot certify that.
    """
    return set(target.vars) <= set(candidate.vars)


def select_closest_branch(
    posterior: GaussianBelief,
    root: GaussianBelief,
    archive: PlanningArchive,
    cfg: ScenarioConfig,
) -> tuple[float, int]:
    """Closest archived depth-l posterior consistent with the executed actions.

    Ordering follows cfg.distance; the returned scalar is always the sqrt-J
    distance of the winner, since thresholds only apply to that metric.
    """
    tree = archive.tree
    l = archive.overlap
    cands = [
        n for n in tree.nodes_at_depth(l)
        if tuple(n.path[0::2]) == tuple(archive.executed_actions)
    ]
    if not cands:
        raise EmptyCandidates("no archived branch matches the executed actions")
    if cfg.distance == "da_key":
        best = min(
            range(len(cands)),
            key=lambda i: d_da(posterior.history, cands[i].belief.history),
        )
        winner = cands[best]
        return d_sqrt_j(root, winner.belief), winner.node_id
    return closest_belief(root, [(n.node_id, n.belief) for n in cands])


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

    Equivalent to ``closest_belief`` (same distance, same first-wins tie
    rule) but amortized: candidates are grouped by variable signature, their
    marginals and precisions stacked once per target signature, and each
    target is evaluated against a whole group with batched contractions.
    """

    __slots__ = ("candidates", "_groups", "_cache")

    def __init__(
        self, candidates: list[tuple[tuple[int, int], PropagatedBelief]]
    ) -> None:
        if not candidates:
            raise EmptyCandidates("no archived propagated beliefs to compare")
        self.candidates = candidates
        self._groups: dict[tuple, dict] = {}
        for pos, (_, prop) in enumerate(candidates):
            g = self._groups.setdefault(prop.index.vars, {"props": [], "pos": []})
            g["props"].append(prop)
            g["pos"].append(pos)
        self._cache: dict[tuple, tuple | None] = {}

    def _stacks(self, target_index: VariableIndex, sig: tuple) -> tuple | None:
        key = (target_index.vars, sig)
        if key in self._cache:
            return self._cache[key]
        group = self._groups[sig]
        g_index = group["props"][0].index
        common = [v for v in target_index.vars if v in g_index]
        if not common:
            self._cache[key] = None
            return None
        sub = VariableIndex(tuple(common))
        t_idx = target_index.indices_of(common)
        c_idx = g_index.indices_of(common)
        sel = np.ix_(c_idx, c_idx)
        means = np.stack([p.mean[c_idx] for p in group["props"]])
        covs = np.stack([p.cov[sel] for p in group["props"]])
        out = (t_idx, means, covs, np.linalg.inv(covs), sub.theta_mask(), sub.dim)
        self._cache[key] = out
        return out

    def closest(self, target: PropagatedBelief) -> tuple[float, tuple[int, int]]:
        best_dist = math.inf
        best_pos = -1
        for sig, group in self._groups.items():
            stacks = self._stacks(target.index, sig)
            if stacks is None:
                continue
            t_idx, means, covs, precs, mask, d = stacks
            mu_t = target.mean[t_idx]
            cov_t = target.cov[np.ix_(t_idx, t_idx)]
            prec_t = spd_inverse(cov_t)
            diffs = means - mu_t
            if mask.any():
                diffs[:, mask] = wrap_angle_array(diffs[:, mask])
            inner = (
                np.einsum("ci,cij,cj->c", diffs, precs, diffs)
                + np.einsum("ci,ij,cj->c", diffs, prec_t, diffs)
                + np.einsum("cij,ij->c", precs, cov_t)
                + np.einsum("cij,ij->c", covs, prec_t)
                - 2.0 * d
            )
            dists = 0.5 * np.sqrt(np.maximum(inner, 0.0))
            i = int(np.argmin(dists))
            pos = group["pos"][i]
            if dists[i] < best_dist or (dists[i] == best_dist and pos < best_pos):
                best_dist = float(dists[i])
                best_pos = pos
        if best_pos < 0:
            return closest_belief(target, self.candidates)
        return best_dist, self.candidates[best_pos][0]


def is_rep_sample(
    chi: np.ndarray,
    chi_index: VariableIndex,
    prop: PropagatedBelief,
    beta_sigma: float,
    rep_test: str,
) -> bool:
    """Does an archived state realization still represent ``prop``?

    Tested over the variables both sides share.  per_coordinate demands every
    coordinate within beta_sigma marginal deviations; mahalanobis compares
    the squared form against beta_sigma^2 * dim.
    """
    if math.isinf(beta_sigma):
        return True
    common = [v for v in chi_index.vars if v in prop.index]
    if not common:
        return False
    sub = VariableIndex(tuple(common))
    idx_chi = chi_index.indices_of(common)
    idx_new = prop.index.indices_of(common)
    diff = chi[idx_chi] - prop.mean[idx_new]
    mask = sub.theta_mask()
    diff[mask] = wrap_angle_array(diff[mask])
    cov = prop.cov[np.ix_(idx_new, idx_new)]
    if rep_test == "per_coordinate":
        sigma = np.sqrt(np.diag(cov))
        return bool(np.all(np.abs(diff) <= beta_sigma * sigma))
    md2 = float(diff @ spd_inverse(cov) @ diff)
    return md2 <= beta_sigma**2 * diff.size


def _hybrid_state(
    chi: np.ndarray, chi_index: VariableIndex, prop: PropagatedBelief
) -> np.ndarray:
    """Archived realization re-expressed over the new propagated index.

    Shared variables copy the archived values; variables the archive never
    knew (landmarks mapped since) take the new propagated mean.
    """
    out = prop.mean.copy()
    for v in prop.index.vars:
        if v in chi_index:
            out[prop.index.slice_of(v)] = chi[chi_index.slice_of(v)]
    return out


# ---------------------------------------------------------------------------
# tree update


def _copy_children_verbatim(
    tree: BeliefTree,
    parent: BeliefTreeNode,
    arch_tree: BeliefTree,
    arch_child_ids: list[int],
    action_index: int,
) -> None:
    """Wildfire adoption: archived children become new children untouched."""
    for s_idx, cid in enumerate(arch_child_ids):
        arch = arch_tree.node(cid)
        tree.add_child(
            parent, action_index, s_idx,
            action=ActionId(action_index), sample=arch.sample,
            belief=arch.belief, prop=arch.prop, reward=arch.reward,
            log_p_step=arch.log_p_step, log_q_step=arch.log_p_step,
            tag=TAG_WILDFIRE, origin=arch.node_id,
        )


def _reuse_group(
    tree: BeliefTree,
    parent: BeliefTreeNode,
    action_index: int,
    prop_new: PropagatedBelief,
    arch_tree: BeliefTree,
    arch_child_ids: list[int],
    cfg: ScenarioConfig,
    meas: MeasModel,
    reward_fn,
    rng: np.random.Generator,
    *,
    ml_mode: bool,
) -> None:
    """Re-use archived futures where representative, refresh the rest.

    Archived children are grouped by generating state (state-major order);
    each group is accepted or rejected as a whole, mirroring how the state
    realization, not the value draw, decides representativeness.
    """
    n_z = tree.n_z
    slot = 0
    for g in range(0, len(arch_child_ids), n_z):
        group = [arch_tree.node(cid) for cid in arch_child_ids[g:g + n_z]]
        lead = group[0]
        arch_prop = lead.prop
        if ml_mode:
            accepted = True  # the eps_c gate already passed for the branch
        else:
            accepted = is_rep_sample(
                lead.sample.chi, arch_prop.index, prop_new,
                cfg.beta_sigma, cfg.rep_test,
            )
        if accepted:
            chi = _hybrid_state(lead.sample.chi, arch_prop.index, prop_new)
            new_da = predicted_da(prop_new, meas, chi)
            da_keys = set(new_da)
            for arch_node in group:
                kept = tuple(e for e in arch_node.sample.z_set if e.key in da_keys)
                added_da = tuple(sorted(
                    k for k in da_keys if arch_node.sample.z_set.get(k) is None))
                added = _measure_at(prop_new, meas, chi, added_da,
                                    None if ml_mode else rng)
                z_set = MeasurementSet(kept + tuple(added))
                log_p, per_entry_p = measurement_likelihood_density(z_set, prop_new, meas)
                log_q = 0.0
                for e in z_set:
                    if arch_node.sample.z_set.get(e.key) is not None:
                        log_q += arch_node.sample.entry_log_densities[e.key]
                    else:
                        log_q += per_entry_p[e.key]
                belief = update_with_measurements(
                    prop_new, z_set, meas, init_hint=arch_node.belief)
                sample = MeasurementSample(chi, new_da, z_set, log_p, per_entry_p)
                tree.add_child(
                    parent, action_index, slot,
                    action=ActionId(action_index), sample=sample, belief=belief,
                    prop=prop_new, reward=reward_fn(belief, parent.belief),
                    log_p_step=log_p, log_q_step=log_q,
                    tag=TAG_REUSED, origin=arch_node.node_id,
                )
                slot += 1
        else:
            if ml_mode:
                fresh = [most_likely_measurement(prop_new, meas)]
            else:
                fresh = sample_state_futures(prop_new, meas, n_z, rng)
            add_nominal_children(tree, parent, action_index, prop_new, fresh,
                                 meas, reward_fn, first_slot=slot)
            slot += len(fresh)


def inc_update_belief_tree(
    tree: BeliefTree,
    archive: PlanningArchive,
    branch_id: int,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    reward_fn,
    *,
    ml_mode: bool,
    adopt: bool,
) -> None:
    """Build the overlap levels of ``tree`` by re-using the archived branch.

    Level by level: a wildfire-adopted parent copies all the children of its
    archived counterpart verbatim.  With ``adopt`` the root counts as adopted
    from the selected branch, so the whole branch is copied.  Every other
    parent searches the same-level archived propagated beliefs per action,
    then adopts / re-uses / draws fresh futures according to the distance
    zones.  Appends one depth timing per level.
    """
    arch_tree = archive.tree
    overlap_depths = cfg.horizon - archive.overlap

    # archived levels under the selected branch
    arch_levels: list[list[int]] = [[branch_id]]
    for _ in range(overlap_depths):
        nxt: list[int] = []
        for nid in arch_levels[-1]:
            for ids in arch_tree.node(nid).children:
                nxt.extend(ids)
        arch_levels.append(nxt)

    use_wf = cfg.use_wildfire
    for depth in range(1, overlap_depths + 1):
        t0 = time.perf_counter()
        candidates: list[tuple[tuple[int, int], PropagatedBelief]] = []
        for pid in arch_levels[depth - 1]:
            pnode = arch_tree.node(pid)
            for a in range(arch_tree.n_u):
                ids = pnode.children[a]
                if ids:
                    candidates.append(((pid, a), arch_tree.node(ids[0]).prop))
        scan = _CandidateScan(candidates)
        for parent in tree.nodes_at_depth(depth - 1):
            source = branch_id if adopt and depth == 1 else (
                parent.origin if parent.tag == TAG_WILDFIRE else None)
            if source is not None:
                counterpart = arch_tree.node(source)
                for a in range(tree.n_u):
                    _copy_children_verbatim(
                        tree, parent, arch_tree, counterpart.children[a], a)
                continue
            for a in range(tree.n_u):
                prop_new = propagate(parent.belief, ActionId(a), motion)
                rng = node_rng(tree.base_seed, parent.path + (a,))
                dist, (c_pid, c_a) = scan.closest(prop_new)
                arch_child_ids = arch_tree.node(c_pid).children[c_a]
                cand_prop = arch_tree.node(arch_child_ids[0]).prop
                if (use_wf and dist <= cfg.epsilon_wf
                        and _covers(cand_prop.index, prop_new.index)):
                    _copy_children_verbatim(tree, parent, arch_tree,
                                            arch_child_ids, a)
                elif dist <= cfg.epsilon_c:
                    _reuse_group(tree, parent, a, prop_new, arch_tree,
                                 arch_child_ids, cfg, meas, reward_fn, rng,
                                 ml_mode=ml_mode)
                else:
                    if ml_mode:
                        samples = [most_likely_measurement(prop_new, meas)]
                    else:
                        samples = sample_future_measurements(
                            prop_new, meas, tree.n_x, tree.n_z, rng)
                    add_nominal_children(tree, parent, a, prop_new, samples,
                                         meas, reward_fn)
        tree.depth_times.append(time.perf_counter() - t0)


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
    reuse_levels = None
    if archive is not None:
        _check_archive(archive, posterior, cfg, ml_mode=ml_mode)
        dist, branch_id = select_closest_branch(posterior, root, archive, cfg)
        info = {"mode": "fresh", "branch_dist": dist, "branch_id": branch_id}
        overlap_depths = cfg.horizon - archive.overlap
        if dist <= cfg.epsilon_c:
            branch_index = archive.tree.node(branch_id).belief.index
            adopt = (cfg.use_wildfire and dist <= cfg.epsilon_wf
                     and _covers(branch_index, root.index))
            info["mode"] = "adopt" if adopt else "update"

            def reuse_levels(tree: BeliefTree, reward_fn) -> None:
                inc_update_belief_tree(tree, archive, branch_id, cfg, motion,
                                       meas, reward_fn, ml_mode=ml_mode,
                                       adopt=adopt)

    tree = build_tree(root, cfg, motion, meas, goal, base_seed,
                      most_likely=ml_mode, reuse_levels=reuse_levels)
    return planning_result(tree, "imlbsp" if ml_mode else "ixbsp",
                           overlap_depths, objective_fn=mis_objective,
                           reuse_info=info)


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

    With no archive this reduces bit-for-bit to the fresh ML planner (the ML
    tree is deterministic, so reuse only changes which futures are kept).
    Archived ML futures are re-used whenever the propagated-belief distance
    passes the eps_c gate; the per-state representativeness test does not
    apply at a single deterministic sample.
    """
    return _plan_incremental(posterior, archive, cfg, motion, meas, goal,
                             base_seed, ml_mode=True)
