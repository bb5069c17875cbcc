"""Ground-truth world simulation and the plan-act-infer rollout loop.

A rollout runs model-predictive control: plan a lookahead tree from the
current posterior, execute the first action of the best sequence, sense the
world from the (hidden) ground-truth pose, fold the measurements into the
posterior with a full-history Gauss-Newton solve, and repeat until every goal
is reached or the session cap trips.

Planning wall-time is measured around the planner call only; simulation and
inference run outside the timed section.  Shadow planners replan from the
identical posterior each session without influencing execution, which gives
paired per-session timing and action-agreement data on a single trajectory.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from ._gaussian import chol_lower
from .beliefs import (
    GaussianBelief,
    MeasurementEntry,
    MeasurementSet,
    make_prior_belief,
    propagate,
    update_with_measurements,
)
from .config import PLANNER_NAMES, ScenarioConfig, WorldConfig
from .errors import InvalidInput
from .incremental import PlanningArchive, plan_iml, plan_ixbsp
from .models import ActionId, MeasModel, MotionModel, landmark_var, wrap_angle
from .planner import TAG_REUSED, TAG_WILDFIRE, BeliefTree, PlanningResult, plan_mlbsp, plan_xbsp


# ---------------------------------------------------------------------------
# world


@dataclass(frozen=True)
class WorldModel:
    """Static ground truth: landmark field and ordered goals."""

    landmarks: tuple[tuple[int, tuple[float, float]], ...]
    goals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ids = [i for i, _ in self.landmarks]
        if len(set(ids)) != len(ids):
            raise InvalidInput("landmark ids must be unique")
        if not self.goals:
            raise InvalidInput("world needs at least one goal")


def world_from_config(cfg: WorldConfig, seed: int) -> WorldModel:
    """Config-shaped world: landmarks around the start, goals on a ring.

    Landmarks are uniform over the extent square centered at the start pose;
    goals sit at ``goal_distance`` from the start at rng-drawn headings, which
    keeps rollout lengths comparable across seeds.  Both draws are
    deterministic per seed.
    """
    half = cfg.extent / 2.0
    x0, y0 = cfg.start_xy
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(311,)))
    pts = rng.uniform((x0 - half, y0 - half), (x0 + half, y0 + half),
                      size=(cfg.n_landmarks, 2))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(313,)))
    angles = rng.uniform(-math.pi, math.pi, size=cfg.n_goals)
    return WorldModel(
        landmarks=tuple((j, (float(p[0]), float(p[1]))) for j, p in enumerate(pts)),
        goals=tuple(
            (x0 + cfg.goal_distance * math.cos(a), y0 + cfg.goal_distance * math.sin(a))
            for a in angles),
    )


# ---------------------------------------------------------------------------
# sensing


def _noise_draw(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if not np.any(cov):
        return np.zeros(cov.shape[0])
    return chol_lower(cov) @ rng.standard_normal(cov.shape[0])


def simulate_step(
    gt_pose: np.ndarray,
    action: ActionId,
    world: WorldModel,
    motion: MotionModel,
    meas: MeasModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, MeasurementSet]:
    """Advance ground truth one noisy step and sense the visible landmarks.

    Returns the new ground-truth pose and the realized measurement set, which
    belongs to the step it ends: conditioning the belief propagated by
    ``action`` on it gives that step's time to every entry.
    """
    new_gt = motion.step_mean(gt_pose, action) + _noise_draw(motion.noise_cov, rng)
    new_gt[2] = wrap_angle(new_gt[2])
    entries: list[MeasurementEntry] = []
    for lm_id, pos in world.landmarks:
        pos_arr = np.asarray(pos, dtype=float)
        if not meas.visible(new_gt, pos_arr):
            continue
        z = meas.predict(new_gt, pos_arr) + _noise_draw(meas.noise_cov, rng)
        z[1] = wrap_angle(z[1])
        entries.append(MeasurementEntry(lm_id, z))
    return new_gt, MeasurementSet(tuple(entries))


def estimation_error(final_belief: GaussianBelief, gt_pose: np.ndarray) -> float:
    """Position error (meters) between the newest pose estimate and ground truth."""
    sl = final_belief.index.slice_of(final_belief.index.newest_pose())
    est = final_belief.mean[sl]
    return float(np.hypot(est[0] - gt_pose[0], est[1] - gt_pose[1]))


def _pose_cov_norm(belief: GaussianBelief) -> float:
    sl = belief.index.slice_of(belief.index.newest_pose())
    pos_cov = belief.cov[sl, sl][:2, :2]
    return float(math.sqrt(max(np.trace(pos_cov), 0.0)))


# ---------------------------------------------------------------------------
# factor re-use accounting


def factor_reuse_counts(
    result: PlanningResult, archive: PlanningArchive | None
) -> tuple[int, int, int]:
    """(reused, removed, reusable) measurement-factor counts for one session.

    reused: archived measurement entries carried into the new tree (verbatim
    or with refreshed beliefs); removed: archived entries dropped by the new
    data association; reusable: entries in the overlap region whose landmark
    already exists in the planning root, the ceiling on what re-use could keep.
    """
    tree = result.tree
    root_index = tree.root.belief.index
    overlap_depths = tree.horizon - 1  # rollouts archive one executed action
    reused = removed = reusable = 0
    arch_nodes = archive.tree.nodes if archive is not None else None
    for node in tree.nodes:
        if node.depth == 0 or node.sample is None:
            continue
        if node.depth <= overlap_depths:
            reusable += sum(
                1 for e in node.sample.z_set if landmark_var(e.lm) in root_index)
        if node.tag not in (TAG_REUSED, TAG_WILDFIRE) or node.origin is None:
            continue
        if arch_nodes is None:
            continue
        arch_keys = set(arch_nodes[node.origin].sample.z_set.keys()) \
            if arch_nodes[node.origin].sample is not None else set()
        new_keys = set(node.sample.z_set.keys())
        reused += len(arch_keys & new_keys)
        removed += len(arch_keys - new_keys)
    return reused, removed, reusable


# ---------------------------------------------------------------------------
# rollout loop


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One planning session's outcome for one planner.

    ``gn_cap_hits`` is the planning result's count of capped solves;
    ``posterior_gn_capped`` says whether the posterior the session planned
    from came from a solve that stopped at its iteration cap.
    """

    session: int
    planner: str
    time_s: float
    overlap_time_s: float
    objective: float
    chosen_seq: tuple[int, ...]
    nominal: int
    reused: int
    wildfire: int
    dist_to_goal: float
    reuse_mode: str
    reused_factors: int
    removed_factors: int
    reusable_factors: int
    gn_cap_hits: int
    posterior_gn_capped: bool


@dataclass
class RolloutMetrics:
    """Everything one rollout produced, driver and shadows alike."""

    planner: str
    world_seed: int
    rollout_seed: int
    sessions: list[SessionRecord]
    shadow_sessions: dict[str, list[SessionRecord]]
    actions: list[int]
    estimation_err: float
    final_cov_norm: float
    goals_reached: int
    n_goals: int
    timed_out: bool
    final_tree: "BeliefTree | None" = None

    def cumulative_time(self) -> float:
        return sum(r.time_s for r in self.sessions)

    def to_json_dict(self) -> dict:
        return {
            "planner": self.planner,
            "world_seed": self.world_seed,
            "rollout_seed": self.rollout_seed,
            "estimation_err": self.estimation_err,
            "final_cov_norm": self.final_cov_norm,
            "goals_reached": self.goals_reached,
            "n_goals": self.n_goals,
            "timed_out": self.timed_out,
            "actions": list(self.actions),
            "cumulative_time_s": self.cumulative_time(),
            "cumulative_overlap_time_s": sum(r.overlap_time_s for r in self.sessions),
            "sessions": [asdict(r) for r in self.sessions],
            "shadow_sessions": {
                k: [asdict(r) for r in rows]
                for k, rows in self.shadow_sessions.items()
            },
        }


def plan_session(
    kind: str,
    posterior: GaussianBelief,
    archive: PlanningArchive | None,
    cfg: ScenarioConfig,
    motion: MotionModel,
    meas: MeasModel,
    goal: np.ndarray,
    base_seed: int,
) -> PlanningResult:
    """Dispatch one planning session to the named planner."""
    if kind == "xbsp":
        return plan_xbsp(posterior, cfg, motion, meas, goal, base_seed)
    if kind == "mlbsp":
        return plan_mlbsp(posterior, cfg, motion, meas, goal, base_seed)
    if kind == "ixbsp":
        return plan_ixbsp(posterior, archive, cfg, motion, meas, goal, base_seed)
    if kind == "imlbsp":
        return plan_iml(posterior, archive, cfg, motion, meas, goal, base_seed)
    raise InvalidInput(f"planner must be one of {PLANNER_NAMES}, got {kind!r}")


def session_seed(rollout_seed: int, session: int) -> int:
    """Deterministic per-session planning seed, independent of wall clock."""
    ss = np.random.SeedSequence(entropy=rollout_seed, spawn_key=(401, session))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _session_record(
    session: int, kind: str, res: PlanningResult, elapsed: float,
    dist_to_goal: float, archive: PlanningArchive | None,
    posterior: GaussianBelief,
) -> SessionRecord:
    reused_f, removed_f, reusable_f = factor_reuse_counts(res, archive)
    return SessionRecord(
        session=session,
        planner=kind,
        time_s=elapsed,
        overlap_time_s=res.overlap_s,
        objective=res.objective,
        chosen_seq=res.best_seq,
        nominal=res.counts.get("nominal", 0),
        reused=res.counts.get("reused", 0),
        wildfire=res.counts.get("wildfire", 0),
        dist_to_goal=dist_to_goal,
        reuse_mode=str(res.reuse_info.get("mode", "fresh")),
        reused_factors=reused_f,
        removed_factors=removed_f,
        reusable_factors=reusable_f,
        gn_cap_hits=res.counts["gn_cap_hits"],
        posterior_gn_capped=posterior.gn_capped,
    )


def run_rollout(
    world: WorldModel,
    planner_kind: str,
    cfg: ScenarioConfig,
    seed: int,
    *,
    world_seed: int = 0,
    shadow_kinds: tuple[str, ...] = (),
) -> RolloutMetrics:
    """One full MPC rollout with ``planner_kind`` driving execution.

    Each shadow planner kind replans under ``cfg`` from the same posterior
    every session; its records are kept for paired timing and agreement
    statistics, but its actions are never executed.  The driver and the
    shadows must be distinct planner kinds.  The ground-truth start pose is
    sampled from the prior belief itself, so the estimation problem is
    consistent with the planner's own uncertainty.
    """
    kinds = (planner_kind, *shadow_kinds)
    if len(set(kinds)) != len(kinds):
        raise InvalidInput(f"driver and shadows must be distinct kinds, got {kinds}")
    cfg.validate()
    motion = cfg.motion_model()
    meas = cfg.meas_model()
    x0, y0 = cfg.world.start_xy
    pose0 = np.array([x0, y0, math.radians(cfg.world.start_heading_deg)])
    prior_cov = cfg.prior_cov()
    belief = make_prior_belief(pose0, prior_cov, t=0)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(211,)))
    gt = pose0 + _noise_draw(prior_cov, rng)
    gt[2] = wrap_angle(gt[2])

    archives: dict[str, PlanningArchive | None] = {kind: None for kind in kinds}
    sessions: list[SessionRecord] = []
    shadow_sessions: dict[str, list[SessionRecord]] = {k: [] for k in shadow_kinds}
    actions: list[int] = []
    goal_idx = 0
    goals = [np.asarray(g, dtype=float) for g in world.goals]
    final_tree: BeliefTree | None = None

    for session in range(cfg.max_sessions):
        pose_sl = belief.index.slice_of(belief.index.newest_pose())
        est_xy = belief.mean[pose_sl][:2]
        while goal_idx < len(goals) and float(
                np.linalg.norm(est_xy - goals[goal_idx][:2])) <= cfg.goal_tolerance:
            goal_idx += 1
        if goal_idx >= len(goals):
            break
        goal = goals[goal_idx]
        dist_to_goal = float(np.linalg.norm(est_xy - goal[:2]))
        base_seed = session_seed(seed, session)

        results: dict[str, PlanningResult] = {}
        for kind in kinds:
            t0 = time.perf_counter()
            results[kind] = plan_session(
                kind, belief, archives[kind], cfg, motion, meas, goal,
                base_seed)
            elapsed = time.perf_counter() - t0
            rec = _session_record(session, kind, results[kind], elapsed,
                                  dist_to_goal, archives[kind], belief)
            if kind == planner_kind:
                sessions.append(rec)
            else:
                shadow_sessions[kind].append(rec)

        action = results[planner_kind].best_action
        actions.append(action.index)
        # a horizon-1 tree holds only the executed level: nothing to re-use
        if cfg.horizon > 1:
            for kind in kinds:
                if kind in ("ixbsp", "imlbsp"):
                    archives[kind] = PlanningArchive(results[kind].tree,
                                                     (action.index,))

        final_tree = results[planner_kind].tree

        gt, z_set = simulate_step(gt, action, world, motion, meas, rng)
        prop = propagate(belief, action, motion)
        belief = update_with_measurements(prop, z_set, meas, inference=True)

    return RolloutMetrics(
        planner=planner_kind,
        world_seed=world_seed,
        rollout_seed=seed,
        sessions=sessions,
        shadow_sessions=shadow_sessions,
        actions=actions,
        estimation_err=estimation_error(belief, gt),
        final_cov_norm=_pose_cov_norm(belief),
        goals_reached=goal_idx,
        n_goals=len(goals),
        timed_out=goal_idx < len(goals),
        final_tree=final_tree,
    )


def win_fraction(errors_a: np.ndarray, errors_b: np.ndarray) -> float:
    """Fraction of paired rollouts planner A wins on estimation error.

    Ties count half, so two identical planners score exactly 0.5.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise InvalidInput("need matching non-empty error arrays")
    wins = int(np.count_nonzero(a < b))
    ties = int(np.count_nonzero(a == b))
    return (wins + 0.5 * ties) / a.size
