"""Command-line front end: rollout batches, planner comparisons, bound sweeps.

``run`` and ``compare`` take ``--config``, ``--out``, ``--planners``,
``--seeds`` and ``--world-seeds``; ``bounds`` sweeps a built-in linear
scenario and takes only ``--out`` and ``--seeds``::

    ixbsp run     --config cfg.json --out out/ --planners xbsp ixbsp --seeds 0 1
    ixbsp compare --config cfg.json --out out/ --planners xbsp ixbsp --seeds 0 1
    ixbsp bounds  --out out/ --seeds 0

``compare`` runs the first planner as the driver and the others as shadows
that plan from the same posterior every session; ``compare_ratios.csv``
holds each session's driver/shadow ratio of full planning time
(``time_full_s``).

Exit codes: 0 success, 1 runtime failure, 2 configuration problem.  All
randomness flows from the manifest seeds, and results are merged in task
order, never completion order, so repeated executions (also under parallel
workers) reproduce every output except wall-clock times.  The CSVs of ``run``
(``sessions_*.csv``) and ``bounds`` hold no wall-clock time and are
byte-identical across executions; ``run`` reports times only in its JSON
summaries.  ``compare`` does write wall-clock times to CSV: the
``time_full_s`` and ``time_overlap_s`` columns of ``compare_sessions.csv``,
every ratio in ``compare_ratios.csv`` and ``mean_time_s``/``median_time_s``
in ``compare_table.csv``; its other columns are deterministic.
``IXBSP_THREADS`` caps the worker pool.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .bounds import LinearGaussianScenario, bound_sweep
from .config import PLANNER_NAMES, ScenarioConfig, load_config
from .errors import ConfigError, InvalidInput
from .serialize import TREE_FORMAT, tree_to_json_dict
from .simulation import (
    RolloutMetrics,
    run_rollout,
    win_fraction,
    world_from_config,
)

SESSIONS_CSV_SCHEMA = "ixbsp-sessions-v1"
COMPARE_CSV_SCHEMA = "ixbsp-compare-v1"
BOUNDS_CSV_SCHEMA = "ixbsp-bounds-v1"

SESSIONS_HEADER = ("session", "planner", "objective", "chosen_seq",
                   "reused", "fresh", "wildfire", "dist_to_goal",
                   "gn_cap_hits", "posterior_gn_capped")

DEFAULT_BOUNDS_EPS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_BOUNDS_TRIALS = 100


@dataclass(frozen=True)
class RunManifest:
    """Everything one CLI invocation needs, resolved from flags."""

    config_path: str | None
    out_dir: str
    planners: tuple[str, ...]
    seeds: tuple[int, ...]
    world_seeds: tuple[int, ...]

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one rollout seed is required")
        if not self.world_seeds:
            raise ConfigError("at least one world seed is required")
        if min(self.seeds + self.world_seeds) < 0:
            raise ConfigError("seeds must be non-negative")
        for p in self.planners:
            if p not in PLANNER_NAMES:
                raise ConfigError(
                    f"unknown planner {p!r}; choose from {PLANNER_NAMES}")
        if len(set(self.planners)) != len(self.planners):
            raise ConfigError("planner list contains duplicates")


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("IXBSP_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ConfigError(f"IXBSP_THREADS must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise ConfigError("IXBSP_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _map_tasks(fn: Callable, tasks: Sequence) -> list:
    """Run tasks through the worker pool; results come back in task order."""
    workers = _worker_count(len(tasks))
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _fmt_seq(seq: tuple[int, ...]) -> str:
    return "-".join(str(a) for a in seq)


def _session_rows(metrics: RolloutMetrics) -> list[list]:
    rows = []
    for rec in metrics.sessions:
        rows.append([
            rec.session, rec.planner, repr(rec.objective),
            _fmt_seq(rec.chosen_seq), rec.reused, rec.nominal, rec.wildfire,
            repr(rec.dist_to_goal), rec.gn_cap_hits, int(rec.posterior_gn_capped),
        ])
    return rows


def _rollout_summary(metrics: RolloutMetrics) -> dict:
    base = metrics.to_json_dict()
    base["csv_schema"] = SESSIONS_CSV_SCHEMA
    return base


def _run_cell(payload: tuple) -> tuple[list[list], dict, dict | None]:
    planner, world_seed, rollout_seed, cfg = payload
    world = world_from_config(cfg.world, seed=world_seed)
    metrics = run_rollout(world, planner, cfg, rollout_seed,
                          world_seed=world_seed)
    snapshot = None
    if metrics.final_tree is not None:
        snapshot = tree_to_json_dict(metrics.final_tree)
    return _session_rows(metrics), _rollout_summary(metrics), snapshot


def _prepare_out(manifest: RunManifest) -> Path:
    out = Path(manifest.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output dir {out} is not writable: {exc}") from exc
    return out


# the manifest fields each command takes from its flags
_COMMAND_FIELDS = {
    "run": ("config_path", "planners", "seeds", "world_seeds"),
    "compare": ("config_path", "planners", "seeds", "world_seeds"),
    "bounds": ("seeds",),
}


def _write_manifest(out: Path, manifest: RunManifest, command: str,
                    cfg: ScenarioConfig | None, extra: dict | None = None) -> None:
    payload: dict[str, Any] = {"command": command}
    for name in _COMMAND_FIELDS[command]:
        value = getattr(manifest, name)
        payload[name] = list(value) if isinstance(value, tuple) else value
    payload.update({
        "csv_schemas": {
            "sessions": SESSIONS_CSV_SCHEMA,
            "compare": COMPARE_CSV_SCHEMA,
            "bounds": BOUNDS_CSV_SCHEMA,
        },
        "tree_format": TREE_FORMAT,
    })
    if cfg is not None:
        payload["config"] = cfg.to_json_dict()
    if extra:
        payload.update(extra)
    _write_json(out / "manifest.json", payload)


def cmd_run(manifest: RunManifest) -> int:
    """Run the rollout grid and write per-rollout CSVs, summaries, snapshots."""
    try:
        manifest.validate()
        if manifest.config_path is None:
            raise ConfigError("run requires --config")
        if not manifest.planners:
            raise ConfigError("run requires at least one planner")
        cfg = load_config(manifest.config_path)
        out = _prepare_out(manifest)
    except (ConfigError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        tasks = [
            (planner, ws, rs, cfg)
            for planner in manifest.planners
            for ws in manifest.world_seeds
            for rs in manifest.seeds
        ]
        results = _map_tasks(_run_cell, tasks)
        for (planner, ws, rs, _), (rows, summary, snapshot) in zip(tasks, results):
            base = f"{planner}_w{ws}_s{rs}"
            _write_csv(out / f"sessions_{base}.csv", SESSIONS_HEADER, rows)
            _write_json(out / f"summary_{base}.json", summary)
            if snapshot is not None:
                _write_json(snap_dir / f"tree_{base}.json", snapshot)
        _write_manifest(out, manifest, "run", cfg)
    except Exception as exc:  # CLI boundary: report, do not crash
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _mann_whitney_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney p-value; degenerate all-tie samples give 1.0."""
    from scipy.stats import mannwhitneyu

    arr_a, arr_b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.all(arr_a == arr_a[0]) and np.all(arr_b == arr_a[0]):
        return 1.0
    try:
        return float(mannwhitneyu(arr_a, arr_b, alternative="two-sided").pvalue)
    except ValueError:
        return 1.0


def _compare_cell(payload: tuple) -> dict:
    """One paired grid cell: a shadowed rollout plus own-drive rollouts."""
    driver, others, world_seed, rollout_seed, cfg = payload
    world = world_from_config(cfg.world, seed=world_seed)
    paired = run_rollout(world, driver, cfg, rollout_seed,
                         world_seed=world_seed, shadow_kinds=tuple(others))
    own_err = {driver: paired.estimation_err}
    own_cov = {driver: paired.final_cov_norm}
    for kind in others:
        own = run_rollout(world, kind, cfg, rollout_seed, world_seed=world_seed)
        own_err[kind] = own.estimation_err
        own_cov[kind] = own.final_cov_norm
    session_rows = []
    all_rows = {driver: paired.sessions,
                **{k: paired.shadow_sessions[k] for k in others}}
    for kind in (driver, *others):
        for rec, executed in zip(all_rows[kind], paired.actions):
            session_rows.append({
                "world_seed": world_seed, "seed": rollout_seed,
                "session": rec.session, "planner": kind,
                "time_full_s": rec.time_s,
                "time_overlap_s": rec.overlap_time_s,
                "objective": rec.objective,
                "chosen_seq": _fmt_seq(rec.chosen_seq),
                "executed": executed,
                "agrees": int(rec.chosen_seq[0] == executed),
                "nominal": rec.nominal, "reused": rec.reused,
                "wildfire": rec.wildfire,
            })
    return {
        "world_seed": world_seed,
        "seed": rollout_seed,
        "own_err": own_err,
        "own_cov": own_cov,
        "session_rows": session_rows,
    }


def cmd_compare(manifest: RunManifest) -> int:
    """Paired comparison: first planner drives, the rest shadow it."""
    try:
        manifest.validate()
        if len(manifest.planners) < 2:
            raise ConfigError("compare requires at least two planners")
        if manifest.config_path is None:
            raise ConfigError("compare requires --config")
        cfg = load_config(manifest.config_path)
        out = _prepare_out(manifest)
    except (ConfigError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        driver, others = manifest.planners[0], manifest.planners[1:]
        tasks = [
            (driver, others, ws, rs, cfg)
            for ws in manifest.world_seeds
            for rs in manifest.seeds
        ]
        cells = _map_tasks(_compare_cell, tasks)
        sess_header = ("world_seed", "seed", "session", "planner",
                       "time_full_s", "time_overlap_s", "objective",
                       "chosen_seq", "executed", "agrees",
                       "nominal", "reused", "wildfire")
        sess_rows = [
            [row[k] for k in sess_header]
            for cell in cells for row in cell["session_rows"]
        ]
        _write_csv(out / "compare_sessions.csv", sess_header, sess_rows)

        ratio_rows = []
        for cell in cells:
            by_planner: dict[str, dict[int, dict]] = {}
            for row in cell["session_rows"]:
                by_planner.setdefault(row["planner"], {})[row["session"]] = row
            for kind in others:
                for s, row in sorted(by_planner.get(kind, {}).items()):
                    base_row = by_planner[driver][s]
                    denom = row["time_full_s"]
                    ratio = (base_row["time_full_s"] / denom if denom > 0
                             else float("inf"))
                    ratio_rows.append([cell["world_seed"], cell["seed"], s,
                                       kind, repr(ratio)])
        _write_csv(out / "compare_ratios.csv",
                   ("world_seed", "seed", "session", "planner",
                    f"time_ratio_{driver}_over_planner"), ratio_rows)

        table_rows = []
        errs = {p: [c["own_err"][p] for c in cells] for p in manifest.planners}
        covs = {p: [c["own_cov"][p] for c in cells] for p in manifest.planners}
        for kind in manifest.planners:
            rows = [r for c in cells for r in c["session_rows"]
                    if r["planner"] == kind]
            times = [r["time_full_s"] for r in rows]
            tags = np.array([[r["nominal"], r["reused"], r["wildfire"]]
                             for r in rows], dtype=float)
            wf_frac = float(tags[:, 2].sum() / max(tags.sum(), 1.0))
            agrees = [r["agrees"] for r in rows]
            if kind == driver:
                win, pval = "", ""
            else:
                win = repr(win_fraction(np.array(errs[kind]),
                                        np.array(errs[driver])))
                pval = repr(_mann_whitney_p(errs[kind], errs[driver]))
            table_rows.append([
                kind, len(cells),
                repr(float(np.mean(times))), repr(float(statistics.median(times))),
                repr(float(np.mean(errs[kind]))), win, pval,
                repr(float(np.mean(covs[kind]))), repr(wf_frac),
                repr(float(np.mean(agrees))),
            ])
        table_header = ("planner", "rollouts", "mean_time_s", "median_time_s",
                        "mean_estimation_err", f"win_fraction_vs_{driver}",
                        f"mann_whitney_p_vs_{driver}", "mean_final_cov_norm",
                        "wildfire_fraction", "agreement_with_driver")
        _write_csv(out / "compare_table.csv", table_header, table_rows)

        _write_manifest(out, manifest, "compare", cfg, extra={
            "driver": driver,
            "estimation_errors": {p: errs[p] for p in manifest.planners},
        })
    except Exception as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_bounds(manifest: RunManifest) -> int:
    """Wildfire-threshold sweep on the built-in linear scenario."""
    try:
        manifest.validate()
        out = _prepare_out(manifest)
    except (ConfigError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        scenario = LinearGaussianScenario()
        spec = scenario.holder_spec()
        sweep_rows = []
        diff_rows = []
        summaries = []
        for seed in manifest.seeds:
            points = bound_sweep(scenario, spec, DEFAULT_BOUNDS_EPS,
                                 DEFAULT_BOUNDS_TRIALS, seed=seed)
            for pt in points:
                sweep_rows.append([
                    seed, repr(pt.eps_wf), DEFAULT_BOUNDS_TRIALS,
                    repr(pt.fraction), repr(pt.diff_variance),
                    repr(pt.mean_phi), repr(pt.mean_psi),
                ])
                for trial, diff in enumerate(pt.diffs):
                    diff_rows.append([seed, repr(pt.eps_wf), trial, repr(diff)])
                summaries.append({"seed": seed, **pt.to_json_dict()})
        _write_csv(out / "bounds_sweep.csv",
                   ("seed", "eps_wf", "trials", "fraction_within",
                    "diff_variance", "mean_phi", "mean_psi"), sweep_rows)
        _write_csv(out / "bounds_diffs.csv",
                   ("seed", "eps_wf", "trial", "objective_diff"), diff_rows)
        _write_manifest(out, manifest, "bounds", None, extra={
            "holder": {"lam_alpha": spec.lam_alpha, "alpha": spec.alpha},
            "eps_values": list(DEFAULT_BOUNDS_EPS),
            "trials": DEFAULT_BOUNDS_TRIALS,
            "points": summaries,
        })
    except Exception as exc:
        print(f"bounds failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _split_tokens(values: list[str]) -> list[str]:
    out = []
    for v in values:
        out.extend(t for t in v.split(",") if t)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixbsp",
        description="Belief-space planning benchmarks: rollouts, comparisons, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a rollout grid and write metrics")
    compare = sub.add_parser("compare",
                             help="paired planner comparison on a shared grid")
    bounds = sub.add_parser("bounds", help="wildfire-threshold bound sweep")
    for p in (run, compare):
        p.add_argument("--config", default=None, help="scenario config JSON")
        p.add_argument("--planners", nargs="*", default=[],
                       help="planner kinds (space or comma separated)")
        p.add_argument("--world-seeds", nargs="*", default=["0"],
                       help="world generation seeds")
    # bounds sweeps a built-in scenario: fill the manifest fields it does not take
    bounds.set_defaults(config=None, planners=[], world_seeds=["0"])
    for p in (run, compare, bounds):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", nargs="*", default=["0"],
                       help="rollout seeds")
    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    try:
        seeds = tuple(int(s) for s in _split_tokens(args.seeds))
        world_seeds = tuple(int(s) for s in _split_tokens(args.world_seeds))
    except ValueError as exc:
        raise ConfigError(f"seeds must be integers: {exc}") from exc
    return RunManifest(
        config_path=args.config,
        out_dir=args.out,
        planners=tuple(_split_tokens(args.planners)),
        seeds=seeds,
        world_seeds=world_seeds,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = manifest_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    command = {"run": cmd_run, "compare": cmd_compare, "bounds": cmd_bounds}
    return command[args.command](manifest)


if __name__ == "__main__":
    sys.exit(main())
