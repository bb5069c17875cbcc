"""Turn measured sessions and span sums into the benchmark's metrics.

Every metric is a ``(value, unit)`` pair keyed by its name in
``BENCHMARK.json``.  Ratios whose base is empty (no adopt sessions, no
hinted re-solves, ...) read 0.
"""

from __future__ import annotations

import hashlib
import statistics
from collections.abc import Mapping, Sequence

from loop import Session

Metrics = dict[str, tuple[float, str]]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    h = (len(xs) - 1) * q / 100.0
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def decision_digest(sessions: Sequence[Session]) -> str:
    """SHA-256 over executed actions, chosen sequences and objective reprs."""
    h = hashlib.sha256()
    for s in sessions:
        h.update(
            f"{s.world_seed}:{s.index}:{s.action}:"
            f"{s.driver.seq}:{s.driver.objective!r}:"
            f"{s.shadow.seq}:{s.shadow.objective!r}\n".encode())
    return h.hexdigest()


def end_to_end(sessions: Sequence[Session], wall_s: float, attempted: int,
               failed: int, setup_s: float) -> tuple[Metrics, dict[str, int]]:
    """End-to-end metrics of an untraced pass, plus their sample counts."""
    plan = [s.driver.time_s for s in sessions]
    iplan = [s.shadow.time_s for s in sessions]
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "plan_s_p50": (percentile(plan, 50), "s"),
        "plan_s_p75": (percentile(plan, 75), "s"),
        "iplan_s_p50": (percentile(iplan, 50), "s"),
        "iplan_s_p75": (percentile(iplan, 75), "s"),
        "sessions_per_s": (2 * len(sessions) / wall_s, "1/s"),
        "success_rate": (1.0 - failed / attempted, "fraction"),
    }
    counts = {"plan_s": len(plan), "iplan_s": len(iplan),
              "sessions": 2 * len(sessions), "rollouts": attempted}
    return metrics, counts


def _session_layer(sums: Mapping[str, float], prefix: str,
                   plans: Sequence) -> Metrics:
    out: Metrics = {}
    solve = f"{prefix}.beliefs.solve"
    calls = sums[solve + ".calls"]
    out[solve + ".calls"] = (calls, "count")
    out[solve + ".iters"] = (sums[solve + ".iters"], "count")
    out[solve + ".iters_per_call"] = (_ratio(sums[solve + ".iters"], calls), "iter/call")
    out[solve + ".cap_hits"] = (sums[solve + ".cap_hits"], "count")
    out[solve + ".linearizations"] = (sums[solve + ".linearizations"], "count")
    out[solve + ".s"] = (sums[solve + ".s"], "s")
    for layer in ("beliefs.update", "beliefs.propagate", "sampling.draw",
                  "sampling.density", "planner.reward", "planner.objective"):
        key = f"{prefix}.{layer}"
        out[key + ".calls"] = (sums[key + ".calls"], "count")
        out[key + ".s"] = (sums[key + ".s"], "s")
    out[f"{prefix}.planner.nodes"] = (sum(p.nodes for p in plans), "count")
    return out


def per_layer(sums: Mapping[str, float], traced: Sequence[Session],
              untraced: Sequence[Session], snapshot_s: Sequence[float],
              snapshot_bytes: Sequence[int], overhead: float) -> Metrics:
    """Per-layer metrics of a traced pass.

    ``traced`` and ``untraced`` cover the same sessions; counts come from
    the traced pass, the paired speed-up from the untraced one.
    """
    out: Metrics = {"agreement": (_ratio(
        sum(s.shadow.seq[0] == s.action for s in untraced), len(untraced)),
        "fraction")}
    out.update(_session_layer(sums, "fresh", [s.driver for s in traced]))
    out.update(_session_layer(sums, "incr", [s.shadow for s in traced]))

    shadow = [s.shadow for s in traced]
    for mode in ("no_archive", "fresh", "adopt", "update"):
        out[f"incremental.mode.{mode}"] = (
            sum(p.mode == mode for p in shadow), "sessions")
    out["incremental.scan.calls"] = (sums["incremental.scan.calls"], "count")
    out["incremental.scan.s"] = (sums["incremental.scan.s"], "s")
    out["incremental.select_branch.s"] = (sums["incremental.select_branch.s"], "s")
    out["incremental.rep_accept_ratio"] = (_ratio(
        sums["incremental.rep_test.accepted"],
        sums["incremental.rep_test.calls"]), "fraction")
    resolves = sums["incremental.resolve.calls"]
    out["incremental.resolve.calls"] = (resolves, "count")
    out["incremental.resolve.iters_per_call"] = (
        _ratio(sums["incremental.resolve.iters"], resolves), "iter/call")
    out["incremental.resolve.cap_hits"] = (
        sums["incremental.resolve.cap_hits"], "count")
    out["incremental.resolve_cost_ratio"] = (_ratio(
        _ratio(sums["incremental.resolve.s"], resolves),
        _ratio(sums["fresh.beliefs.solve.s"], sums["fresh.beliefs.solve.calls"])),
        "ratio")

    archived = [p for p in shadow if p.has_archive]
    total_nodes = sum(p.nodes for p in archived)
    out["incremental.reused_frac"] = (
        _ratio(sum(p.reused_nodes for p in archived), total_nodes), "fraction")
    out["incremental.reuse_ceiling"] = (
        _ratio(sum(p.overlap_nodes for p in archived), total_nodes), "fraction")
    paired = [s for s in untraced if s.shadow.has_archive]
    out["incremental.speedup"] = (_ratio(
        sum(s.driver.time_s for s in paired),
        sum(s.shadow.time_s for s in paired)), "ratio")
    for mode in ("adopt", "update"):
        ratios = [s.driver.time_s / s.shadow.time_s
                  for s in paired if s.shadow.mode == mode]
        out[f"incremental.speedup_{mode}_p50"] = (
            statistics.median(ratios) if ratios else 0.0, "ratio")

    out["distances.sqrt_j.calls"] = (sums["distances.sqrt_j.calls"], "count")
    out["distances.sqrt_j.s"] = (sums["distances.sqrt_j.s"], "s")
    infer = sums["simulation.infer.calls"]
    out["simulation.infer.calls"] = (infer, "count")
    out["simulation.infer.s"] = (sums["simulation.infer.s"], "s")
    out["simulation.infer.iters_per_call"] = (
        _ratio(sums["simulation.infer.iters"], infer), "iter/call")
    out["simulation.step.s"] = (sums["simulation.step.s"], "s")
    out["serialize.snapshot.s"] = (
        statistics.median(snapshot_s) if snapshot_s else 0.0, "s")
    out["serialize.snapshot.bytes"] = (
        statistics.median(snapshot_bytes) if snapshot_bytes else 0.0, "B")
    out["trace.overhead"] = (overhead, "fraction")
    return out
