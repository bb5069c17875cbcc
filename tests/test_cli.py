"""CLI subcommands: output layout, determinism, exit codes."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from ixbsp import cli
from ixbsp.cli import (
    DEFAULT_BOUNDS_EPS,
    DEFAULT_BOUNDS_TRIALS,
    SESSIONS_HEADER,
    RunManifest,
    _split_tokens,
    _worker_count,
    main,
)
from ixbsp.errors import ConfigError
from ixbsp.planner import TAG_REUSED, objective
from ixbsp.serialize import tree_from_json_dict

from _util import tiny_cfg


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_cfg(max_sessions=2).to_json_dict()))
    return str(path)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestArgPlumbing:
    def test_split_tokens_mixes_spaces_and_commas(self):
        assert _split_tokens(["a,b", "c", "", "d,,e"]) == \
               ["a", "b", "c", "d", "e"]
        assert _split_tokens([]) == []

    def test_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv("IXBSP_THREADS", "3")
        assert _worker_count(8) == 3
        assert _worker_count(2) == 2
        monkeypatch.setenv("IXBSP_THREADS", "zero")
        with pytest.raises(ConfigError):
            _worker_count(4)
        monkeypatch.setenv("IXBSP_THREADS", "0")
        with pytest.raises(ConfigError):
            _worker_count(4)
        monkeypatch.delenv("IXBSP_THREADS")
        assert _worker_count(1) == 1

    def test_manifest_validation(self):
        good = RunManifest(config_path=None, out_dir="x", planners=("xbsp",),
                           seeds=(0,), world_seeds=(0,))
        good.validate()
        cases = [
            dict(seeds=()),
            dict(world_seeds=()),
            dict(seeds=(0, -1)),
            dict(world_seeds=(-3,)),
            dict(planners=("warp",)),
            dict(planners=("xbsp", "xbsp")),
        ]
        for kw in cases:
            base = dict(config_path=None, out_dir="x", planners=("xbsp",),
                        seeds=(0,), world_seeds=(0,))
            base.update(kw)
            with pytest.raises(ConfigError):
                RunManifest(**base).validate()


class TestRunCommand:
    def _run(self, cfg_path, out_dir, seeds=("0", "1"),
             planners="mlbsp,imlbsp"):
        return main(["run", "--config", cfg_path, "--out", str(out_dir),
                     "--planners", planners, "--seeds", *seeds])

    def test_grid_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert self._run(cfg_path, out) == 0
        for planner in ("mlbsp", "imlbsp"):
            for seed in (0, 1):
                base = f"{planner}_w0_s{seed}"
                header, rows = _read_csv(out / f"sessions_{base}.csv")
                assert tuple(header) == SESSIONS_HEADER
                assert rows, "every rollout should log sessions"
                for i, row in enumerate(rows):
                    assert int(row[0]) == i
                    assert row[1] == planner
                    float(row[2])  # objective parses
                assert (out / f"summary_{base}.json").exists()
                assert (out / "snapshots" / f"tree_{base}.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["planners"] == ["mlbsp", "imlbsp"]
        assert manifest["config"]["max_sessions"] == 2
        assert manifest["csv_schemas"]["sessions"] == "ixbsp-sessions-v1"

    def test_outputs_byte_identical_across_reruns_and_workers(
            self, cfg_path, tmp_path, monkeypatch):
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        assert self._run(cfg_path, out1) == 0
        assert self._run(cfg_path, out2) == 0
        monkeypatch.setenv("IXBSP_THREADS", "4")
        assert self._run(cfg_path, out3) == 0
        names = sorted(p.name for p in out1.glob("sessions_*.csv"))
        assert len(names) == 4
        for name in names:
            ref = (out1 / name).read_bytes()
            assert (out2 / name).read_bytes() == ref
            assert (out3 / name).read_bytes() == ref
        snaps = sorted(p.name for p in (out1 / "snapshots").iterdir())
        for name in snaps:
            assert (out3 / "snapshots" / name).read_bytes() == \
                   (out1 / "snapshots" / name).read_bytes()

    def test_snapshot_rescores_the_logged_objective(self, tmp_path):
        # the third session re-uses archived futures, so ixbsp's final tree
        # holds re-used paths whose weights are not one
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_cfg(max_sessions=3).to_json_dict()))
        out = tmp_path / "out"
        assert self._run(str(path), out, seeds=("0",),
                         planners="xbsp,ixbsp") == 0
        for planner in ("xbsp", "ixbsp"):
            header, rows = _read_csv(out / f"sessions_{planner}_w0_s0.csv")
            last = rows[-1]
            seq = tuple(
                int(a) for a in last[header.index("chosen_seq")].split("-"))
            raw = json.loads(
                (out / "snapshots" / f"tree_{planner}_w0_s0.json").read_text())
            tree = tree_from_json_dict(raw)
            assert repr(objective(tree, seq)) == last[header.index("objective")]
        assert any(n.tag == TAG_REUSED and n.log_ratio != 0.0
                   for n in tree.nodes)

    def test_config_problems_exit_two(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--out", out, "--planners", "mlbsp"]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", out, "--planners", "mlbsp"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_u": 3,,}')
        assert main(["run", "--config", str(bad), "--out", out,
                     "--planners", "mlbsp"]) == 2
        assert "line" in capsys.readouterr().err
        val = tmp_path / "val.json"
        val.write_text('{"n_u": "banana"}')
        assert main(["run", "--config", str(val), "--out", out,
                     "--planners", "mlbsp"]) == 2
        assert main(["run", "--config", cfg_path, "--out", out,
                     "--planners", "warp-drive"]) == 2
        assert main(["run", "--config", cfg_path, "--out", out,
                     "--planners", "mlbsp", "--seeds", "one"]) == 2
        # a directory, and a file that is not UTF-8
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"n_u": 3, "note": "caf\u00e9"}'.encode("latin-1"))
        capsys.readouterr()
        for path in (tmp_path, latin1):
            assert main(["run", "--config", str(path), "--out", out,
                         "--planners", "mlbsp"]) == 2
            assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("run", "--seeds"), ("run", "--world-seeds"),
        ("compare", "--seeds"), ("compare", "--world-seeds"),
        ("bounds", "--seeds"),
    ])
    def test_negative_seeds_exit_two(self, command, flag, cfg_path, tmp_path,
                                     capsys):
        args = [command, "--out", str(tmp_path / "out"), flag, "0", "-1"]
        if command != "bounds":
            args += ["--config", cfg_path, "--planners", "mlbsp", "imlbsp"]
        assert main(args) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_runtime_failure_exits_one(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "snapshots").write_text("in the way")
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--planners", "mlbsp"]) == 1
        assert "run failed" in capsys.readouterr().err


class TestCompareCommand:
    def test_paired_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg_path, "--out", str(out),
                     "--planners", "imlbsp", "mlbsp", "--seeds", "0,1"])
        assert code == 0
        header, rows = _read_csv(out / "compare_sessions.csv")
        assert "agrees" in header and "executed" in header
        planners = {row[header.index("planner")] for row in rows}
        assert planners == {"imlbsp", "mlbsp"}
        for row in rows:
            assert row[header.index("agrees")] in ("0", "1")

        theader, trows = _read_csv(out / "compare_table.csv")
        assert theader[0] == "planner"
        by_planner = {row[0]: row for row in trows}
        win_col = theader.index("win_fraction_vs_imlbsp")
        p_col = theader.index("mann_whitney_p_vs_imlbsp")
        assert by_planner["imlbsp"][win_col] == ""
        assert 0.0 <= float(by_planner["mlbsp"][win_col]) <= 1.0
        assert 0.0 <= float(by_planner["mlbsp"][p_col]) <= 1.0
        agree_col = theader.index("agreement_with_driver")
        assert float(by_planner["imlbsp"][agree_col]) == 1.0

        rheader, rrows = _read_csv(out / "compare_ratios.csv")
        assert rheader[4] == "time_ratio_imlbsp_over_planner"
        assert rrows and all(row[3] == "mlbsp" for row in rrows)
        for row in rrows:
            assert float(row[4]) > 0.0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["driver"] == "imlbsp"
        assert set(manifest["estimation_errors"]) == {"imlbsp", "mlbsp"}

    def test_ratios_divide_full_planning_times(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg_path, "--out", str(out),
                     "--planners", "xbsp", "ixbsp", "mlbsp",
                     "--seeds", "0", "--world-seeds", "0,1"]) == 0
        header, rows = _read_csv(out / "compare_sessions.csv")
        col = {name: header.index(name) for name in header}
        full = {(r[col["world_seed"]], r[col["seed"]], r[col["session"]],
                 r[col["planner"]]): float(r[col["time_full_s"]]) for r in rows}
        _, rrows = _read_csv(out / "compare_ratios.csv")
        assert {row[3] for row in rrows} == {"ixbsp", "mlbsp"}
        assert len(rrows) == len(rows) - len(rows) // 3
        for ws, seed, session, planner, ratio in rrows:
            assert float(ratio) == (full[ws, seed, session, "xbsp"]
                                    / full[ws, seed, session, planner])

    def test_single_planner_rejected(self, cfg_path, tmp_path, capsys):
        code = main(["compare", "--config", cfg_path,
                     "--out", str(tmp_path / "o"), "--planners", "mlbsp"])
        assert code == 2
        assert "two planners" in capsys.readouterr().err


class TestBoundsCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--out", str(out), "--seeds", "0"]) == 0
        header, rows = _read_csv(out / "bounds_sweep.csv")
        assert tuple(header) == ("seed", "eps_wf", "trials", "fraction_within",
                                 "diff_variance", "mean_phi", "mean_psi")
        assert len(rows) == len(DEFAULT_BOUNDS_EPS)
        assert [float(r[1]) for r in rows] == list(DEFAULT_BOUNDS_EPS)
        for row in rows:
            assert float(row[3]) == 1.0
            assert int(row[2]) == DEFAULT_BOUNDS_TRIALS
        variances = [float(r[4]) for r in rows]
        assert variances == sorted(variances)

        _, drows = _read_csv(out / "bounds_diffs.csv")
        assert len(drows) == len(DEFAULT_BOUNDS_EPS) * DEFAULT_BOUNDS_TRIALS

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "bounds"
        assert manifest["trials"] == DEFAULT_BOUNDS_TRIALS
        assert len(manifest["points"]) == len(DEFAULT_BOUNDS_EPS)

    def test_manifest_records_only_the_flags_it_takes(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_BOUNDS_EPS", (0.0,))
        monkeypatch.setattr(cli, "DEFAULT_BOUNDS_TRIALS", 2)
        out = tmp_path / "out"
        assert main(["bounds", "--out", str(out), "--seeds", "3", "4"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [3, 4]
        assert not {"config_path", "planners", "world_seeds",
                    "config"} & set(manifest)

    @pytest.mark.parametrize("flag", ["--config", "--planners", "--world-seeds"])
    def test_takes_only_out_and_seeds(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--out", str(tmp_path / "out"), flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
