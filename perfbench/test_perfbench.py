"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Synthetic spans check the arithmetic (self time, percentiles, counters,
attribution); a quick smoke setting runs the real command end to end.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from loop import Plan, Session, run_pass  # noqa: E402
from spans import Tracer  # noqa: E402
from summary import decision_digest, end_to_end, per_layer, percentile  # noqa: E402
from workloads import GATED, WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _plan(kind, time_s, seq=(0, 0, 0), mode="no_archive", archive=False):
    return Plan(kind=kind, time_s=time_s, objective=1.5, seq=seq, mode=mode,
                has_archive=archive, nodes=39, reused_nodes=12 if archive else 0,
                overlap_nodes=12 if archive else 0)


def _session(index, t_driver, t_shadow, mode="no_archive", shadow_seq=(0, 0, 0)):
    archive = index > 0
    return Session(7, index, _plan("mlbsp", t_driver),
                   _plan("imlbsp", t_shadow, shadow_seq, mode, archive))


class TestPercentiles:
    def test_linear_interpolation(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 75) == 3.25
        assert percentile([9.0], 75) == 9.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_end_to_end_reports_sample_counts(self):
        sessions = [_session(k, 0.1 * (k + 1), 0.2, shadow_seq=(k % 2, 0, 0))
                    for k in range(4)]
        metrics, counts = end_to_end(sessions, wall_s=2.0, attempted=2,
                                     failed=0, setup_s=0.4)
        assert counts == {"plan_s": 4, "iplan_s": 4, "sessions": 8, "rollouts": 2}
        assert metrics["plan_s_p50"] == (pytest.approx(0.25), "s")
        assert metrics["plan_s_p75"] == (pytest.approx(0.325), "s")
        assert metrics["sessions_per_s"] == (4.0, "1/s")
        assert metrics["success_rate"] == (1.0, "fraction")


class TestSpans:
    def test_self_time_subtracts_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        outer = tracer.open("beliefs.update")
        clock.t = 1.0
        inner = tracer.open("beliefs.solve")
        clock.t = 4.0
        assert tracer.close(inner) == 3.0
        clock.t = 5.0
        deeper = tracer.open("sampling.density")
        clock.t = 5.5
        assert tracer.close(deeper) == 0.5
        clock.t = 6.0
        assert tracer.close(outer) == pytest.approx(2.5)
        with pytest.raises(RuntimeError):
            tracer.close(outer)

    def test_linearizations_and_cap_hits(self):
        tracer = Tracer(FakeClock(), gn_iter_cap=60)
        solve = tracer.wrap(lambda factors, iters: (None, None, iters),
                            "beliefs.solve")
        with tracer.session("fresh"):
            solve(["f"] * 5, 3)
            solve(["f"] * 4, 60)
        assert tracer.sums["fresh.beliefs.solve.calls"] == 2
        assert tracer.sums["fresh.beliefs.solve.iters"] == 63
        assert tracer.sums["fresh.beliefs.solve.linearizations"] == 4 * 5 + 61 * 4
        assert tracer.sums["fresh.beliefs.solve.cap_hits"] == 1

    def test_session_prefix_attribution(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def solve(factors, init=None):
            clock.t += 1.0
            return None, None, 2

        wrapped_solve = tracer.wrap(solve, "beliefs.solve")

        def update(factors, init_hint=None):
            clock.t += 0.25
            return wrapped_solve(factors)

        planning_update = tracer.wrap(update, "beliefs.update", hinted=True)
        inference_update = tracer.wrap(update, "simulation.infer")
        scan = tracer.wrap(lambda: clock.t, "incremental.scan")

        with tracer.session("fresh"):
            planning_update(["f"])
        with tracer.session("incr"):
            planning_update(["f"])
            planning_update(["f", "g"], init_hint="archived belief")
            scan()
        inference_update(["f"] * 3)

        sums = tracer.sums
        assert sums["fresh.beliefs.solve.calls"] == 1
        assert sums["incr.beliefs.solve.calls"] == 2
        assert sums["fresh.beliefs.update.s"] == 0.25
        assert sums["incr.beliefs.update.calls"] == 2
        assert sums["incremental.resolve.calls"] == 1
        assert sums["incremental.resolve.iters"] == 2
        assert sums["incremental.scan.calls"] == 1
        # inference is outside every session: no prefixed counts, and its
        # time includes its solve
        assert sums["simulation.infer.calls"] == 1
        assert sums["simulation.infer.iters"] == 2
        assert sums["simulation.infer.s"] == 1.25
        assert not any(k.startswith("None") for k in sums)
        with tracer.session("fresh"):
            with pytest.raises(RuntimeError):
                with tracer.session("incr"):
                    pass

    def test_per_layer_ratios(self):
        tracer = Tracer(FakeClock())
        tracer.sums.update({
            "fresh.beliefs.solve.calls": 4, "fresh.beliefs.solve.s": 2.0,
            "incremental.resolve.calls": 2, "incremental.resolve.s": 0.5,
            "incremental.rep_test.calls": 4, "incremental.rep_test.accepted": 3,
        })
        traced = [_session(0, 1.0, 1.0), _session(1, 1.0, 0.5, "adopt"),
                  _session(2, 1.0, 2.0, "update")]
        m = per_layer(tracer.sums, traced, traced, [0.03], [1000], 0.05)
        assert m["incremental.resolve_cost_ratio"][0] == 0.5
        assert m["incremental.rep_accept_ratio"][0] == 0.75
        assert m["incremental.speedup"][0] == pytest.approx(2.0 / 2.5)
        assert m["incremental.speedup_adopt_p50"][0] == 2.0
        assert m["incremental.speedup_update_p50"][0] == 0.5
        assert m["incremental.reuse_ceiling"][0] == pytest.approx(12 / 39)
        assert m["incremental.mode.adopt"][0] == 1
        assert m["trace.overhead"][0] == 0.05
        assert m["agreement"] == (1.0, "fraction")


class TestWorkloads:
    def test_configs_match_the_shared_bench_scenario(self):
        sys.path.insert(0, str(ROOT / "tests"))
        from _util import bench_cfg
        from ixbsp.config import ScenarioConfig

        assert ScenarioConfig.from_json_dict(WORKLOADS["bench-x"].config) == bench_cfg()
        assert ScenarioConfig.from_json_dict(WORKLOADS["bench-ml"].config) == bench_cfg()
        assert ScenarioConfig.from_json_dict(
            WORKLOADS["bench-x-h2"].config) == bench_cfg(horizon=2)
        big = ScenarioConfig.from_json_dict(WORKLOADS["map-ml"].config)
        assert big.max_sessions == 20
        assert (big.world.n_landmarks, big.world.extent, big.world.goal_distance) \
            == (12, 20.0, 10.0)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(GATED)
        for w in spec["workloads"]:
            assert w["why"] == WORKLOADS[w["name"]].why
        tracer = Tracer(FakeClock())
        names = set(per_layer(tracer.sums, [_session(0, 1.0, 1.0)], [],
                              [], [], 0.0))
        assert names == {m["name"] for m in spec["per_layer"]}
        e2e, _ = end_to_end([_session(0, 1.0, 1.0)], 1.0, 1, 0, 0.5)
        assert set(e2e) == {m["name"] for m in spec["end_to_end"]}


class TestRealRollouts:
    def test_traced_pass_attributes_and_matches_untraced(self):
        workload = WORKLOADS["bench-ml"]
        plain = run_pass(workload, 3, max_sessions=2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(workload, 3, max_sessions=2, tracer=tracer)
        from ixbsp import beliefs, simulation
        assert not hasattr(beliefs.solve_factors, "__wrapped__")
        assert not hasattr(simulation.update_with_measurements, "__wrapped__")

        assert not plain.failures and not traced.failures
        assert len(traced.sessions) == 2
        assert decision_digest(traced.sessions) == decision_digest(plain.sessions)
        sums = tracer.sums
        for prefix in ("fresh", "incr"):
            for layer in ("beliefs.solve", "beliefs.update", "beliefs.propagate",
                          "sampling.draw", "sampling.density", "planner.reward",
                          "planner.objective"):
                assert sums[f"{prefix}.{layer}.calls"] > 0, (prefix, layer)
        assert sums["simulation.infer.calls"] >= 1
        assert sums["distances.sqrt_j.calls"] >= 1
        # ML solves converge in one GN step in planning
        assert sums["fresh.beliefs.solve.iters"] == sums["fresh.beliefs.solve.calls"]

    def test_a_shadow_that_differs_in_session_zero_fails_the_rollout(
            self, monkeypatch):
        from dataclasses import replace

        from ixbsp import simulation

        original = simulation.plan_iml

        def off_by_an_ulp(*args):
            res = original(*args)
            return replace(res, objective=res.objective * (1 + 1e-15))

        monkeypatch.setattr(simulation, "plan_iml", off_by_an_ulp)
        out = run_pass(WORKLOADS["bench-ml"], 3, max_sessions=1)
        assert out.failed_rollouts == 1
        assert any("differs from mlbsp" in f for f in out.failures)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class TestCommand:
    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_smoke(self, trace):
        out = _run(ROOT, "--workload", "bench-ml", "--seed", "1",
                   "--seconds", "2", "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if trace == "1" else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]

    def test_fails_without_program_sources(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(tmp_path, "--workload", "bench-ml", "--seed", "0",
                   "--seconds", "2", "--trace", "0")
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
