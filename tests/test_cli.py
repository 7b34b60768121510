"""CLI subcommands, exit codes, determinism of the report pipeline."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bfcsim.io
from bfcsim.cli import main
from bfcsim.report import LOCK_FILENAME

FAST_CONFIG = """\
[cavity] preset="45ghz"
[comb] n_max=6
[hom] window_ps=40, step_ps=0.1
[jsi] max_bin=2, pump_mw=2
[chsh] integration=2000, seed=7
"""


FRINGES = [f"fringe_p1_{a}.csv" for a in (45, 90, 135, 180)]
# Every file each command writes.
ARTIFACTS = {
    "hom": ["hom_trace.csv", "hom_trace_zoom.csv", "revivals.csv"],
    "jsi": ["jsi_matrix.csv", "jsi_matrix.json"],
    "schmidt": ["dimensionality.json", "schmidt_frequency.csv", "schmidt_time.csv"],
    "chsh": ["chsh.json"] + FRINGES,
    "report": [
        "hom_trace.csv",
        "hom_trace_zoom.csv",
        "revivals.csv",
        "schmidt_time_theory.csv",
        "schmidt_time_fitted.csv",
        "jsi_scan.csv",
        "jsi_scan.json",
        "schmidt_frequency_ideal.csv",
        "schmidt_frequency_degraded.csv",
        "chsh.json",
        "report.json",
        "summary.txt",
    ]
    + ["chsh_" + f for f in FRINGES],
}
COMMANDS = list(ARTIFACTS)


# A chsh run, reseeded so its files differ, killed in the middle of its write.
KILLED_RUN = """\
import os, sys
import bfcsim.io
from bfcsim.cli import main
bfcsim.io.export_json = lambda path, obj: os._exit(9)
main(["chsh", "--config", sys.argv[1], "--out", sys.argv[2], "--seed", "8"])
"""


# A chsh run killed after writing its pid file, before linking it to the lock.
KILLED_BEFORE_LINK = """\
import os, sys
from bfcsim.cli import main
os.link = lambda src, dst: os._exit(9)
main(["chsh", "--config", sys.argv[1], "--out", sys.argv[2]])
"""


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _snapshot(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.fixture()
def fast_cfg_path(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


class TestExitCodes:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "bfcsim 0.1.0" in capsys.readouterr().out

    def test_validation_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[cavity] fsr_ghz=1.0, linewidth_ghz=2.0\n")
        code = main(["report", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "fsr_hz > linewidth_fwhm_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("owner", ["", str(os.getpid())], ids=["empty", "live-pid"])
    def test_locked_output_is_exit_2(self, command, owner, fast_cfg_path, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        (out / LOCK_FILENAME).write_text(owner)
        code = main([command, "--config", fast_cfg_path, "--out", str(out)])
        assert code == 2
        assert "locked" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [LOCK_FILENAME]

    def test_unknown_preset_is_exit_1(self, tmp_path, capsys):
        code = main(["hom", "--preset", "7ghz", "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("command", ["hom", "jsi", "schmidt", "chsh", "report"])
    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("[hom] window_ps=inf", "window_ps must be finite"),
            ("[hom] step_ps=nan", "step_ps must be finite"),
            ("[hom] window_ps=5.0", "shorter than one revival period"),
            ("[jsi] max_bin=2.7", "max_bin must be an integer"),
            ("[chsh] seed=1.9", "seed must be an integer"),
            ("[jsi] pump_mw=10", "accidental floor at 1.327"),
            ("[chsh] seed=-1", "seed must be >= 0"),
            ('[jsi] filter_shape="box"', "filter_shape must be one of"),
            ('[hom] window_ps="abc"', "[hom] window_ps must be a number"),
            ("[hom] step_ps=1e-7", "at most 1000000 are allowed"),
        ],
    )
    def test_bad_config_is_exit_1_before_any_output(
        self, command, line, message, tmp_path, capsys
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f'[cavity] preset="45ghz"\n{line}\n')
        out = tmp_path / "o"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["chsh", "report"])
    def test_negative_seed_flag_is_exit_1_before_any_output(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hom", "jsi", "schmidt"])
    def test_seed_flag_only_where_something_is_random(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_value_error_in_a_stage_is_exit_1(self, tmp_path, capsys):
        # Too coarse a scan locates too few revivals to fit the time-bin decay.
        bad = tmp_path / "coarse.cfg"
        bad.write_text('[cavity] preset="45ghz"\n[hom] window_ps=30, step_ps=5\n')
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="coarser"):
            code = main(["report", "--config", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'schmidt-time' failed" in err
        assert "at least 2 visibility points" in err
        assert not out.exists()


class TestSubcommands:
    def test_hom_writes_trace_and_revivals(self, fast_cfg_path, tmp_path, capsys):
        out = tmp_path / "hom"
        code = main(["hom", "--config", fast_cfg_path, "--out", str(out)])
        assert code == 0
        assert (out / "hom_trace.csv").exists()
        assert (out / "revivals.csv").exists()
        header = (out / "revivals.csv").read_text().splitlines()[0]
        assert header == "n,center_ps,visibility"

    def test_jsi_emits_matrix_and_sidecar(self, fast_cfg_path, tmp_path):
        out = tmp_path / "jsi"
        assert main(["jsi", "--config", fast_cfg_path, "--out", str(out)]) == 0
        sidecar = json.loads((out / "jsi_matrix.json").read_text())
        assert "crosstalk_db" in sidecar
        assert (out / "jsi_matrix.csv").exists()

    def test_jsi_ingests_external_matrix(self, fast_cfg_path, tmp_path):
        out1 = tmp_path / "gen"
        main(["jsi", "--config", fast_cfg_path, "--out", str(out1)])
        out2 = tmp_path / "ingest"
        code = main(
            [
                "jsi",
                "--config",
                fast_cfg_path,
                "--out",
                str(out2),
                "--input",
                str(out1 / "jsi_matrix.csv"),
            ]
        )
        assert code == 0
        assert (out2 / "jsi_matrix.csv").exists()

    def test_schmidt_from_visibilities(self, fast_cfg_path, tmp_path):
        vis = tmp_path / "vis.csv"
        vis.write_text("n,visibility\n1,0.9946\n2,0.9797\n3,0.9575\n")
        out = tmp_path / "schmidt"
        code = main(
            [
                "schmidt",
                "--config",
                fast_cfg_path,
                "--out",
                str(out),
                "--visibilities",
                str(vis),
            ]
        )
        assert code == 0
        dim = json.loads((out / "dimensionality.json").read_text())
        assert dim["total_dimensionality"] >= 2
        assert (out / "schmidt_time.csv").exists()
        assert (out / "schmidt_frequency.csv").exists()

    def test_chsh_writes_fringes_and_result(self, fast_cfg_path, tmp_path):
        out = tmp_path / "chsh"
        code = main(["chsh", "--config", fast_cfg_path, "--out", str(out)])
        assert code == 0
        for fixed in (45, 90, 135, 180):
            assert (out / f"fringe_p1_{fixed}.csv").exists()
        result = json.loads((out / "chsh.json").read_text())
        assert 0.0 < result["s_value"] <= 2.8285

    def test_chsh_counts_at_chsh_visibility_as_in_report(self, fast_cfg_path, tmp_path):
        main(["chsh", "--config", fast_cfg_path, "--out", str(tmp_path / "c")])
        main(["report", "--config", fast_cfg_path, "--out", str(tmp_path / "r")])
        chsh = json.loads((tmp_path / "c" / "chsh.json").read_text())
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert chsh["s_value"] == report["s_chsh_simulated"]
        assert (chsh["fringe_visibility"], chsh["chsh_visibility"]) == (0.9796, 0.9497)

    def test_visibility_flag_sets_both_visibilities(self, fast_cfg_path, tmp_path):
        out = tmp_path / "v"
        main(["chsh", "--config", fast_cfg_path, "--out", str(out), "--visibility", "0.9"])
        result = json.loads((out / "chsh.json").read_text())
        assert (result["fringe_visibility"], result["chsh_visibility"]) == (0.9, 0.9)
        assert result["s_fringe"] == pytest.approx(0.9 * 2 * 2**0.5, rel=1e-12)

    def test_jsi_sidecar_describes_the_clamped_scan(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text('[cavity] preset="45ghz"\n[jsi] max_bin=40\n')
        out = tmp_path / "jsi"
        assert main(["jsi", "--config", str(cfg), "--out", str(out)]) == 0
        sidecar = json.loads((out / "jsi_matrix.json").read_text())
        assert sidecar["max_bin"] == 16
        assert sidecar["filter_fwhm_ghz"] == pytest.approx(51.9314, abs=1e-4)
        rows = (out / "jsi_matrix.csv").read_text().splitlines()
        assert len(rows) == 1 + 33
        assert all(len(r.split(",")) == 1 + 33 for r in rows)

    def test_env_var_output_dir(self, fast_cfg_path, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("BFCSIM_OUT", str(target))
        assert main(["chsh", "--config", fast_cfg_path]) == 0
        assert (target / "chsh.json").exists()

    def test_seed_flag_changes_counts(self, fast_cfg_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["chsh", "--config", fast_cfg_path, "--out", str(out1), "--seed", "1"])
        main(["chsh", "--config", fast_cfg_path, "--out", str(out2), "--seed", "2"])
        a = json.loads((out1 / "chsh.json").read_text())
        b = json.loads((out2 / "chsh.json").read_text())
        assert a["s_value"] != b["s_value"]


class TestWriteStage:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_lists_exactly_the_artifacts(self, command, fast_cfg_path, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        # What a killed run leaves: its lock, holding the pid of a reaped
        # child, and its staging directory. Neither blocks the next run.
        (out / LOCK_FILENAME).write_text(f"{_dead_pid()}\n")
        (out / ".bfcsim-staging-killed").mkdir()
        (out / ".bfcsim-staging-killed" / "chsh.json").write_text("{")
        assert main([command, "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[command])

    def test_run_killed_mid_write_leaves_earlier_files_and_blocks_nothing(
        self, fast_cfg_path, tmp_path
    ):
        out = tmp_path / "o"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        before = _snapshot(out)
        # The fringe CSVs are staged; the process dies before writing chsh.json.
        killed = subprocess.Popen(
            [sys.executable, "-c", KILLED_RUN, fast_cfg_path, str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(bfcsim.io.__file__).parents[1])},
        )
        assert killed.wait(timeout=60) == 9
        assert {n: (out / n).read_bytes() for n in before} == before
        staging, lock = sorted(set(p.name for p in out.iterdir()) - set(before))
        assert staging.startswith(".bfcsim-staging-") and lock == LOCK_FILENAME
        assert (out / LOCK_FILENAME).read_text() == f"{killed.pid}\n"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert _snapshot(out) == before

    @pytest.mark.parametrize(
        ("command", "failing"), [("chsh", "chsh.json"), ("report", "report.json")]
    )
    def test_failed_write_leaves_the_directory_as_it_was(
        self, command, failing, fast_cfg_path, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "o"
        assert main([command, "--config", fast_cfg_path, "--out", str(out)]) == 0
        before = _snapshot(out)
        reseeded = tmp_path / "reseeded.cfg"
        reseeded.write_text(FAST_CONFIG.replace("seed=7", "seed=8"))
        real_export_json = bfcsim.io.export_json

        def export_json(path, obj):
            if Path(path).name == failing:
                raise RuntimeError("disk full")
            real_export_json(path, obj)

        monkeypatch.setattr(bfcsim.io, "export_json", export_json)
        assert main([command, "--config", str(reseeded), "--out", str(out)]) == 2
        assert "stage 'write' failed: disk full" in capsys.readouterr().err
        assert _snapshot(out) == before

    def test_failure_before_the_lock_link_leaves_no_lock(
        self, fast_cfg_path, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "o"

        def link(src, dst):
            assert Path(src).read_text() == f"{os.getpid()}\n"  # the pid is written
            raise RuntimeError("killed before link")

        monkeypatch.setattr(os, "link", link)
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 2
        assert "killed before link" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        monkeypatch.undo()
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS["chsh"])

    def test_kill_before_the_lock_link_blocks_nothing(self, fast_cfg_path, tmp_path):
        out = tmp_path / "o"
        killed = subprocess.Popen(
            [sys.executable, "-c", KILLED_BEFORE_LINK, fast_cfg_path, str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(bfcsim.io.__file__).parents[1])},
        )
        assert killed.wait(timeout=60) == 9
        # No lock: only the pid file, already holding the pid.
        (pid_file,) = out.iterdir()
        assert pid_file.name.startswith(".bfcsim-pid-")
        assert pid_file.read_text() == f"{killed.pid}\n"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert not (out / LOCK_FILENAME).exists()


class TestRevivalSpacing:
    def test_spacing_counts_n_steps_across_missing_dips(self, tmp_path):
        # Finesse 3: some |n| >= 25 have no dip, so n skips values.
        cfg = tmp_path / "f3.cfg"
        cfg.write_text("[cavity] fsr_ghz=45, linewidth_ghz=15\n")
        out = tmp_path / "o"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        ns = [row[0] for row in report["visibility_table"]]
        assert ns[-1] - ns[0] > len(ns) - 1
        half_round_trip = report["round_trip_ps"] / 2
        assert report["revival_spacing_ps"] == pytest.approx(half_round_trip, abs=0.05)

    def test_contiguous_n_keeps_the_mean_of_differences(self):
        from bfcsim.hom import RevivalRecord
        from bfcsim.report import _revival_spacing

        centers = [-22.1, -11.03, 0.0, 11.07, 22.05]
        records = [RevivalRecord(n, c, 0.5) for n, c in zip(range(-2, 3), centers)]
        assert _revival_spacing(records) == float(np.mean(np.diff(centers)))
        assert np.isnan(_revival_spacing(records[:1]))


class TestOneStageGraph:
    # (subcommand, its file, the report's file with the same content)
    PAIRS = [
        ("hom", "hom_trace.csv", "hom_trace.csv"),
        ("hom", "hom_trace_zoom.csv", "hom_trace_zoom.csv"),
        ("hom", "revivals.csv", "revivals.csv"),
        ("jsi", "jsi_matrix.csv", "jsi_scan.csv"),
        ("jsi", "jsi_matrix.json", "jsi_scan.json"),
        ("schmidt", "schmidt_time.csv", "schmidt_time_theory.csv"),
        ("schmidt", "schmidt_frequency.csv", "schmidt_frequency_degraded.csv"),
    ] + [("chsh", f"fringe_p1_{a}.csv", f"chsh_fringe_p1_{a}.csv") for a in (45, 90, 135, 180)]

    def test_subcommand_artifacts_match_the_report(self, fast_cfg_path, tmp_path):
        for command in ("report", "hom", "jsi", "schmidt", "chsh"):
            out = tmp_path / command
            assert main([command, "--config", fast_cfg_path, "--out", str(out)]) == 0
        report = tmp_path / "report"
        for command, name, report_name in self.PAIRS:
            got = (tmp_path / command / name).read_bytes()
            assert got == (report / report_name).read_bytes(), (command, name)


class TestReportDeterminism:
    def _digest_dir(self, path: Path) -> dict:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())
            if p.name != LOCK_FILENAME
        }

    def test_repeat_runs_byte_identical(self, fast_cfg_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--config", fast_cfg_path, "--out", str(out1)]) == 0
        assert main(["report", "--config", fast_cfg_path, "--out", str(out2)]) == 0
        assert self._digest_dir(out1) == self._digest_dir(out2)

    def test_report_json_round_trips(self, fast_cfg_path, tmp_path):
        from bfcsim.config import load_config
        from bfcsim.report import run_report

        out = tmp_path / "rt"
        report = run_report(load_config(fast_cfg_path, output_dir=str(out)))
        payload = json.loads((out / "report.json").read_text())
        assert payload == report.to_dict()
        assert payload["total_dimensionality"] == 2 * int(payload["k_time_theory"]) ** 2
        assert payload["config_hash"]

    def test_lock_released_after_run(self, tmp_path):
        fast = tmp_path / "f.cfg"
        fast.write_text(FAST_CONFIG)
        assert main(["report", "--config", str(fast), "--out", str(tmp_path / "lk")]) == 0
        assert not (tmp_path / "lk" / LOCK_FILENAME).exists()
