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
    """Static ground truth: landmark field, ordered goals, extent rectangle."""

    landmarks: tuple[tuple[int, tuple[float, float]], ...]
    goals: tuple[tuple[float, float], ...]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

    def __post_init__(self) -> None:
        ids = [i for i, _ in self.landmarks]
        if len(set(ids)) != len(ids):
            raise InvalidInput("landmark ids must be unique")
        if not self.goals:
            raise InvalidInput("world needs at least one goal")
        xmin, ymin, xmax, ymax = self.bounds
        if xmin >= xmax or ymin >= ymax:
            raise InvalidInput("bounds rectangle is empty")

    def to_json_dict(self) -> dict:
        return {
            "landmarks": [[i, list(p)] for i, p in self.landmarks],
            "goals": [list(g) for g in self.goals],
            "bounds": list(self.bounds),
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "WorldModel":
        return cls(
            landmarks=tuple((int(i), (float(p[0]), float(p[1])))
                            for i, p in raw["landmarks"]),
            goals=tuple((float(g[0]), float(g[1])) for g in raw["goals"]),
            bounds=tuple(float(v) for v in raw["bounds"]),
        )


def generate_world(
    seed: int,
    n_landmarks: tuple[int, int] = (2, 150),
    n_goals: int = 1,
    bounds: tuple[float, float, float, float] = (-6.0, -6.0, 6.0, 6.0),
) -> WorldModel:
    """Uniform random landmark field and goals, deterministic per seed."""
    lo, hi = n_landmarks
    if not (1 <= lo <= hi):
        raise InvalidInput("landmark count range must satisfy 1 <= lo <= hi")
    if n_goals < 1:
        raise InvalidInput("need at least one goal")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(311,)))
    n = int(rng.integers(lo, hi + 1))
    xmin, ymin, xmax, ymax = bounds
    pts = rng.uniform((xmin, ymin), (xmax, ymax), size=(n, 2))
    goals = rng.uniform((xmin, ymin), (xmax, ymax), size=(n_goals, 2))
    return WorldModel(
        landmarks=tuple((j, (float(p[0]), float(p[1]))) for j, p in enumerate(pts)),
        goals=tuple((float(g[0]), float(g[1])) for g in goals),
        bounds=bounds,
    )


def world_from_config(cfg: WorldConfig, seed: int) -> WorldModel:
    """Config-shaped world: landmarks around the start, goals on a ring.

    Landmarks are uniform over the extent square centered at the start pose;
    goals sit at ``goal_distance`` from the start at rng-drawn headings, which
    keeps rollout lengths comparable across seeds.
    """
    half = cfg.extent / 2.0
    x0, y0 = cfg.start_xy
    base = generate_world(
        seed,
        n_landmarks=(cfg.n_landmarks, cfg.n_landmarks),
        n_goals=cfg.n_goals,
        bounds=(x0 - half, y0 - half, x0 + half, y0 + half),
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(313,)))
    angles = rng.uniform(-math.pi, math.pi, size=cfg.n_goals)
    goals = tuple(
        (x0 + cfg.goal_distance * math.cos(a), y0 + cfg.goal_distance * math.sin(a))
        for a in angles
    )
    return WorldModel(landmarks=base.landmarks, goals=goals, bounds=base.bounds)


# ---------------------------------------------------------------------------
# sensing


def _noise_draw(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if not np.any(cov):
        return np.zeros(cov.shape[0])
    return chol_lower(cov) @ rng.standard_normal(cov.shape[0])


def simulate_step(
    gt_pose: np.ndarray,
    t_next: int,
    action: ActionId,
    world: WorldModel,
    motion: MotionModel,
    meas: MeasModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, MeasurementSet, tuple[tuple[int, int], ...]]:
    """Advance ground truth one noisy step and sense the visible landmarks.

    Returns the new ground-truth pose, the realized measurement set stamped
    ``t_next``, and its data association (sorted (time, landmark) keys).
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
        entries.append(MeasurementEntry(t_next, lm_id, z))
    z_set = MeasurementSet(tuple(entries))
    return new_gt, z_set, z_set.keys()


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
    root_index = tree.node(tree.root_id).belief.index
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
    over_time_budget: bool
    gn_cap_hits: int
    posterior_gn_capped: bool

    def planning_time(self, timing_mode: str) -> float:
        return self.overlap_time_s if timing_mode == "overlap-only" else self.time_s


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

    def cumulative_time(self, timing_mode: str = "full") -> float:
        return sum(r.planning_time(timing_mode) for r in self.sessions)

    def agreement_with(self, shadow: str) -> float:
        """Fraction of sessions where the shadow chose the executed action."""
        rows = self.shadow_sessions[shadow]
        if not rows:
            return float("nan")
        hits = sum(1 for r, a in zip(rows, self.actions) if r.chosen_seq[0] == a)
        return hits / len(rows)

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
            "cumulative_time_s": self.cumulative_time("full"),
            "cumulative_overlap_time_s": self.cumulative_time("overlap-only"),
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
    budget_s: float, posterior: GaussianBelief,
) -> SessionRecord:
    reused_f, removed_f, reusable_f = factor_reuse_counts(res, archive)
    return SessionRecord(
        session=session,
        planner=kind,
        time_s=elapsed,
        overlap_time_s=res.timing.get("overlap_s", elapsed),
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
        over_time_budget=elapsed > budget_s,
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
    shadow_configs: dict[str, ScenarioConfig] | None = None,
) -> RolloutMetrics:
    """One full MPC rollout with ``planner_kind`` driving execution.

    Shadow planners replan from the same posterior every session; their
    actions are logged for agreement statistics but never executed.  A shadow
    entry is either a planner kind, or ``label:kind`` so the same kind can run
    twice (``shadow_configs`` maps labels to per-shadow config variants; the
    simulated world always follows ``cfg``).  The ground-truth start pose
    is sampled from the prior belief itself, so the estimation problem is
    consistent with the planner's own uncertainty.
    """
    shadows: list[tuple[str, str]] = []
    for entry in shadow_kinds:
        label, _, kind = entry.rpartition(":")
        label = label or kind
        shadows.append((label, kind))
    labels = [lab for lab, _ in shadows]
    if planner_kind in labels:
        raise InvalidInput("driver cannot also be a shadow")
    if len(set(labels)) != len(labels):
        raise InvalidInput("shadow labels must be unique")
    overrides = dict(shadow_configs or {})
    if not set(overrides) <= set(labels):
        raise InvalidInput("shadow_configs keys must match shadow labels")
    cfg.validate()
    for alt in overrides.values():
        alt.validate()
    motion = cfg.motion_model()
    meas = cfg.meas_model()
    x0, y0 = cfg.world.start_xy
    pose0 = np.array([x0, y0, math.radians(cfg.world.start_heading_deg)])
    prior_cov = cfg.prior_cov()
    belief = make_prior_belief(pose0, prior_cov, t=0)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(211,)))
    gt = pose0 + _noise_draw(prior_cov, rng)
    gt[2] = wrap_angle(gt[2])

    runners = [(planner_kind, planner_kind, cfg)]
    runners += [(lab, kind, overrides.get(lab, cfg)) for lab, kind in shadows]
    archives: dict[str, PlanningArchive | None] = {lab: None for lab, _, _ in runners}
    sessions: list[SessionRecord] = []
    shadow_sessions: dict[str, list[SessionRecord]] = {lab: [] for lab in labels}
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
        for label, kind, run_cfg in runners:
            t0 = time.perf_counter()
            results[label] = plan_session(
                kind, belief, archives[label], run_cfg, motion, meas, goal,
                base_seed)
            elapsed = time.perf_counter() - t0
            rec = _session_record(session, label, results[label], elapsed,
                                  dist_to_goal, archives[label],
                                  cfg.session_timeout_s, belief)
            if label == planner_kind:
                sessions.append(rec)
            else:
                shadow_sessions[label].append(rec)

        action = results[planner_kind].best_action
        actions.append(action.index)
        for label, kind, run_cfg in runners:
            # a horizon-1 tree holds only the executed level: nothing to re-use
            if kind in ("ixbsp", "imlbsp") and run_cfg.horizon > 1:
                archives[label] = PlanningArchive(results[label].tree,
                                                  (action.index,))

        final_tree = results[planner_kind].tree

        gt, z_set, _ = simulate_step(gt, belief.time + 1, action, world,
                                     motion, meas, rng)
        prop = propagate(belief, action, motion)
        belief = update_with_measurements(prop, z_set, meas,
                                          init_new_landmarks=True)

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
