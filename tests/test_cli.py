"""CLI subcommands, exit codes, determinism of the report pipeline."""

import hashlib
import json
from pathlib import Path

import pytest

from bfcsim.cli import main
from bfcsim.report import LOCK_FILENAME

FAST_CONFIG = """\
[cavity] preset="45ghz"
[comb] n_max=6
[hom] window_ps=40, step_ps=0.1
[jsi] max_bin=2, pump_mw=2
[chsh] integration=2000, seed=7
"""


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

    def test_locked_output_is_exit_2(self, fast_cfg_path, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        (out / LOCK_FILENAME).touch()
        code = main(["report", "--config", fast_cfg_path, "--out", str(out)])
        assert code == 2
        assert "locked" in capsys.readouterr().err

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
        with pytest.warns(UserWarning, match="coarser"):
            code = main(["report", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'schmidt-time' failed" in err
        assert "at least 2 visibility points" in err


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
