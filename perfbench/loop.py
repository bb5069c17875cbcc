"""The measured loop: paired rollouts, one at a time, with output checks.

``run_pass`` drives ``simulation.run_rollout`` directly in this process on
world after world of a workload until its stop rule fires, at the start of a
driver session, either when the loop's wall time reaches a deadline or when
a fixed number of driver sessions is done.  A wrapper around
``simulation.plan_session`` records every planning call, so the sessions of
a rollout cut by the stop rule still count.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ixbsp import planner, simulation
from ixbsp.config import ScenarioConfig
from ixbsp.serialize import tree_from_json_dict, tree_to_json_dict

from spans import Tracer
from workloads import Workload


class WindowClosed(Exception):
    """Raised into ``run_rollout`` to stop the loop at a session boundary."""


@dataclass(frozen=True)
class Plan:
    """One planning call, as the session wrapper saw it."""

    kind: str
    time_s: float
    objective: float
    seq: tuple[int, ...]
    mode: str
    has_archive: bool
    nodes: int          # non-root nodes of the tree
    reused_nodes: int   # nodes tagged reused or wildfire
    overlap_nodes: int  # nodes within the archive's overlap depths


@dataclass(frozen=True)
class Session:
    world_seed: int
    index: int
    driver: Plan
    shadow: Plan

    @property
    def action(self) -> int:
        return self.driver.seq[0]


@dataclass
class PassResult:
    sessions: list[Session] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_rollouts: int = 0
    snapshot_s: list[float] = field(default_factory=list)
    snapshot_bytes: list[int] = field(default_factory=list)


def _plan_record(kind: str, res, elapsed: float, archive) -> Plan:
    nodes = [n for n in res.tree.nodes if n.depth > 0]
    overlap = res.tree.horizon - archive.overlap if archive is not None else 0
    return Plan(
        kind=kind, time_s=elapsed, objective=res.objective,
        seq=tuple(res.best_seq), mode=str(res.reuse_info.get("mode", "fresh")),
        has_archive=archive is not None, nodes=len(nodes),
        reused_nodes=sum(1 for n in nodes
                         if n.tag in (planner.TAG_REUSED, planner.TAG_WILDFIRE)),
        overlap_nodes=sum(1 for n in nodes if n.depth <= overlap),
    )


class _Recorder:
    """Replaces ``simulation.plan_session`` for the span of one rollout."""

    def __init__(self, workload: Workload, stop, tracer: Tracer | None) -> None:
        self.workload = workload
        self.stop = stop
        self.tracer = tracer
        self.plans: list[Plan] = []
        self.last_driver = None

    @contextmanager
    def installed(self):
        original = simulation.plan_session

        def plan_session(kind, posterior, archive, *args):
            is_driver = kind == self.workload.driver
            if is_driver and self.stop():
                raise WindowClosed
            t0 = time.perf_counter()
            if self.tracer is None:
                res = original(kind, posterior, archive, *args)
            else:
                with self.tracer.session("fresh" if is_driver else "incr"):
                    res = original(kind, posterior, archive, *args)
            elapsed = time.perf_counter() - t0
            self.plans.append(_plan_record(kind, res, elapsed, archive))
            if is_driver:
                self.last_driver = res
            return res

        simulation.plan_session = plan_session
        try:
            yield self
        finally:
            simulation.plan_session = original


def session_errors(s: Session, n_u: int, horizon: int) -> list[str]:
    """Output checks on one paired session."""
    errors = []
    for plan in (s.driver, s.shadow):
        if not math.isfinite(plan.objective):
            errors.append(f"{plan.kind} objective {plan.objective!r} not finite")
        if len(plan.seq) != horizon or not all(0 <= a < n_u for a in plan.seq):
            errors.append(f"{plan.kind} chosen_seq {plan.seq} out of range")
    if s.index == 0 and (repr(s.shadow.objective) != repr(s.driver.objective)
                         or s.shadow.seq != s.driver.seq):
        errors.append(
            f"{s.shadow.kind} ({s.shadow.objective!r}, {s.shadow.seq}) differs"
            f" from {s.driver.kind} ({s.driver.objective!r}, {s.driver.seq})")
    return [f"world {s.world_seed} session {s.index}: {e}" for e in errors]


def _metrics_errors(sessions: list[Session], metrics, shadow: str) -> list[str]:
    """The rollout's own records must agree with what the wrapper saw."""
    rows = list(zip(metrics.sessions, metrics.shadow_sessions[shadow]))
    same = len(rows) == len(sessions) and metrics.actions == [
        s.action for s in sessions] and all(
        repr(d.objective) == repr(s.driver.objective) and d.chosen_seq == s.driver.seq
        and repr(h.objective) == repr(s.shadow.objective) and h.chosen_seq == s.shadow.seq
        for (d, h), s in zip(rows, sessions))
    return [] if same else ["rollout records disagree with the planning calls"]


def snapshot_round_trip(result) -> tuple[float, int, list[str]]:
    """Tree -> JSON dict -> text -> tree; returns (seconds, bytes, errors)."""
    t0 = time.perf_counter()
    text = json.dumps(tree_to_json_dict(result.tree))
    restored = tree_from_json_dict(json.loads(text))
    elapsed = time.perf_counter() - t0
    errors = []
    # The driver is a fresh planner, whose objective is planner.objective.
    act, seq, _, values = planner.best_action(restored)
    if act != result.best_action or seq != result.best_seq:
        errors.append(f"restored tree picks {seq}, not {result.best_seq}")
    if values != result.objectives:
        errors.append("restored tree gives other objectives")
    return elapsed, len(text.encode()), errors


def run_pass(workload: Workload, seed: int, *, seconds: float | None = None,
             max_sessions: int | None = None,
             tracer: Tracer | None = None) -> PassResult:
    """Rollouts on the workload's worlds until the stop rule fires.

    Exactly one of ``seconds`` (wall time of the rollout loop) and
    ``max_sessions`` (driver sessions) sets the stop rule.
    """
    if (seconds is None) == (max_sessions is None):
        raise ValueError("give exactly one of seconds and max_sessions")
    cfg = ScenarioConfig.from_json_dict(workload.config)
    out = PassResult()
    rollout_t0 = 0.0

    def stop() -> bool:
        if seconds is not None:
            return out.wall_s + (time.perf_counter() - rollout_t0) >= seconds
        done = len(out.sessions) + sum(
            1 for p in recorder.plans if p.kind == workload.driver)
        return done >= max_sessions

    i = 0
    while True:
        recorder = _Recorder(workload, stop, tracer)
        rollout_t0 = time.perf_counter()
        if stop():
            break
        ws = workload.world_seed(seed, i)
        i += 1
        world = simulation.world_from_config(cfg.world, ws)
        metrics, errors, closed = None, [], False
        rollout_t0 = time.perf_counter()
        try:
            with recorder.installed():
                metrics = simulation.run_rollout(
                    world, workload.driver, cfg, ws, world_seed=ws,
                    shadow_kinds=(workload.shadow,))
        except WindowClosed:
            closed = True
        except Exception as exc:  # a failed rollout is counted, not fatal
            errors.append(f"world {ws}: {type(exc).__name__}: {exc}")
        out.wall_s += time.perf_counter() - rollout_t0

        plans = recorder.plans
        sessions = [Session(ws, k, plans[2 * k], plans[2 * k + 1])
                    for k in range(len(plans) // 2)]
        if not sessions and closed:
            break
        out.attempted += 1
        for s in sessions:
            errors += session_errors(s, cfg.n_u, cfg.horizon)
        if metrics is not None:
            errors += _metrics_errors(sessions, metrics, workload.shadow)
        if recorder.last_driver is not None:
            snap_s, snap_bytes, snap_errors = snapshot_round_trip(
                recorder.last_driver)
            out.snapshot_s.append(snap_s)
            out.snapshot_bytes.append(snap_bytes)
            errors += [f"world {ws} snapshot: {e}" for e in snap_errors]
        out.sessions += sessions
        if errors:
            out.failed_rollouts += 1
            out.failures += errors
        if closed:
            break
    return out
