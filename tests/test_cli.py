"""CLI subcommands, exit codes, determinism of the report pipeline."""

import contextlib
import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bfcsim
import bfcsim.io
from bfcsim.cli import build_parser, main

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


# Takes the lock a run takes on the directory argv[1], says so, and waits to be killed.
HOLDER = """\
import fcntl, os, sys, time
fcntl.flock(os.open(sys.argv[1], os.O_RDONLY), fcntl.LOCK_EX)
print("held", flush=True)
time.sleep(600)
"""


# A report in a fresh interpreter; prints whether numpy.ma was loaded before and after it.
MA_PROBE = """\
import sys
from bfcsim.cli import main
before = "numpy.ma" in sys.modules
assert main(["report", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(before, "numpy.ma" in sys.modules)
"""


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(bfcsim.io.__file__).parents[1])}


@contextlib.contextmanager
def _locked(path: Path):
    """Hold the lock of a run on `path`; BlockingIOError if another holds it."""
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def _snapshot(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


def _revival_rows(path: Path) -> list:
    """The rows of a `revivals.csv`, read back as revival records."""
    from bfcsim.hom import RevivalRecord

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,center_ps,visibility"
    return [
        RevivalRecord(int(n), float(center), float(v))
        for n, center, v in (line.split(",") for line in lines[1:])
    ]


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

    def test_package_version_is_the_pyproject_version(self):
        # Python 3.10 has no tomllib; the [project] version is one plain line.
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
        assert version == bfcsim.__version__

    def test_validation_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[cavity] fsr_ghz=1.0, linewidth_ghz=2.0\n")
        code = main(["report", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "fsr_hz > linewidth_fwhm_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_locked_output_is_exit_2(self, command, fast_cfg_path, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        (out / "chsh.json").write_text("{}")
        before = _snapshot(out)
        with _locked(out):
            code = main([command, "--config", fast_cfg_path, "--out", str(out)])
        assert code == 2
        assert "is locked by another run" in capsys.readouterr().err
        assert _snapshot(out) == before

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
            ("[hom] step_ps=0", "[hom] step_ps must be > 0, got 0.0"),
            ("[hom] accidentals=1", "[hom] accidentals must be in [0, 1), got 1.0"),
            ("[jsi] filter_fwhm_pm=-1e-9", "[jsi] filter_fwhm_pm must be >= 0, got -1e-09"),
            ("[jsi] max_bin=-1", "[jsi] max_bin must be >= 0, got -1"),
            ("[jsi] pump_mw=-1", "[jsi] pump_mw must be >= 0, got -1.0"),
            (
                "[chsh] fringe_visibility=1.0000001",
                "[chsh] fringe_visibility must be in [0, 1], got 1.0000001",
            ),
            ("[chsh] integration=0", "[chsh] integration must be > 0, got 0.0"),
            ("[chsh] integration=1e30", "[chsh] integration must be <= 1e+18, got 1e+30"),
            ("[comb] n_max=-1", "[comb] n_max must be >= 0, got -1"),
            ("[source] bpm_ghz=1e290", "[source] bpm_ghz=1e+290 (n_max 6.62e+288)"),
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

    # --visibility and --integration belong to chsh alone.
    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["chsh", "--seed", "-1"], "seed must be >= 0"),
            (["report", "--seed", "-1"], "seed must be >= 0"),
            (
                ["chsh", "--visibility", "1.0000001"],
                "[chsh] fringe_visibility must be in [0, 1], got 1.0000001",
            ),
            (["chsh", "--visibility", "nan"], "[chsh] fringe_visibility must be finite, got nan"),
            (["chsh", "--integration", "0"], "[chsh] integration must be > 0, got 0.0"),
            (
                ["chsh", "--integration", "1e19"],
                "[chsh] integration must be <= 1e+18, got 1e+19",
            ),
            (
                ["chsh", "--angles", "nan", "0", "0", "0"],
                "stage 'chsh' failed: s_chsh: angles must be finite, and so must each "
                "setting's phase 2(phi1 + phi2); got (nan, 0.0, 0.0, 0.0)",
            ),
            (
                ["chsh", "--angles", "0", "inf", "0", "0"],
                "s_chsh: angles must be finite, and so must each setting's phase "
                "2(phi1 + phi2); got (0.0, inf, 0.0, 0.0)",
            ),
            (
                ["chsh", "--angles", "1e308", "1e308", "0", "0"],
                "s_chsh: angles must be finite, and so must each setting's phase "
                "2(phi1 + phi2); got (1e+308, 1e+308, 0.0, 0.0)",
            ),
        ],
        ids=[
            "chsh-seed",
            "report-seed",
            "visibility",
            "visibility-nan",
            "integration",
            "integration-too-large",
            "angles-nan",
            "angles-inf",
            "angles-phase-overflow",
        ],
    )
    def test_bad_flag_is_exit_1_before_any_output(self, argv, message, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize("command", ["jsi", "schmidt"])
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_matrix_cell_rejected(self, fast_cfg_path, tmp_path, command, cell):
        matrix = tmp_path / "m.csv"
        matrix.write_text(f"bin,-1,0,1\n-1,0,0,1\n0,0,{cell},0\n1,1,0,0\n")
        out = tmp_path / "out"
        argv = [command, "--config", fast_cfg_path, "--out", str(out), "--input", str(matrix)]
        assert main(argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["jsi", "schmidt"])
    def test_tiny_negative_matrix_cell_rejected(self, fast_cfg_path, tmp_path, capsys, command):
        # One matrix is valid for both --input commands or for neither.
        matrix = tmp_path / "m.csv"
        matrix.write_text("bin,-1,0,1\n-1,0,0,1\n0,0,-1e-17,0\n1,1,0,0\n")
        out = tmp_path / "out"
        argv = [command, "--config", fast_cfg_path, "--out", str(out), "--input", str(matrix)]
        assert main(argv) == 1
        assert str(matrix) in capsys.readouterr().err
        assert not out.exists()

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

    def test_chsh_past_tsirelson_by_noise_is_exit_0(self, tmp_path):
        # Seed 743 samples S 3.3 sigma above 2 sqrt(2); noise, not an unphysical run.
        out = tmp_path / "c"
        argv = ["chsh", "--preset", "45ghz", "--visibility", "1", "--integration", "10000"]
        assert main([*argv, "--seed", "743", "--out", str(out)]) == 0
        assert json.loads((out / "chsh.json").read_text())["s_value"] > 2.0 * 2.0**0.5

    def test_chsh_sampled_s_of_four_at_zero_sigma_is_exit_0(self, tmp_path):
        # Seed 1892 draws |E| = 1 at all four pairs: S = 4 with sigma 0, a sampled result.
        out = tmp_path / "c"
        argv = ["chsh", "--preset", "45ghz", "--visibility", "1", "--integration", "5"]
        assert main([*argv, "--seed", "1892", "--out", str(out)]) == 0
        result = json.loads((out / "chsh.json").read_text())
        assert (result["s_value"], result["s_sigma"]) == (4.0, 0.0)

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

    def test_consecutive_mains_share_no_state(self, fast_cfg_path, tmp_path):
        # main() keeps one parser for the process; no option of one call
        # may reach the next.
        alone, after, chsh = tmp_path / "alone", tmp_path / "after", tmp_path / "chsh"
        assert main(["report", "--config", fast_cfg_path, "--out", str(alone)]) == 0
        argv = ["chsh", "--config", fast_cfg_path, "--out", str(chsh), "--seed", "5"]
        assert main(argv + ["--visibility", "0.9", "--angles", "0", "45", "22.5", "67.5"]) == 0
        assert json.loads((chsh / "chsh.json").read_text())["seed"] == 5
        assert main(["report", "--config", fast_cfg_path, "--out", str(after)]) == 0
        assert _snapshot(after) == _snapshot(alone)
        assert build_parser() is build_parser()


def _cells(text: str, fmt: str) -> str:
    """Every cell of every line after the header through ``fmt``."""
    header, *rows = text.splitlines()
    rows = [",".join(fmt.format(cell) for cell in row.split(",")) for row in rows]
    return "\n".join([header, *rows]) + "\n"


class TestMeasuredInputFiles:
    """`--input` and `--visibilities` files written in other CSV dialects, and broken ones."""

    MATRIX = "bin,-1,0,1\n-1,0.05,0.15,0.8\n0,0.1,0.7,0.2\n1,0.75,0.2,0.05\n"
    VISIBILITIES = "n,visibility\n1,0.9946\n2,0.9797\n3,0.9575\n"
    # (command, input flag, plain file)
    INPUTS = {
        "jsi-input": ("jsi", "--input", MATRIX),
        "schmidt-input": ("schmidt", "--input", MATRIX),
        "schmidt-visibilities": ("schmidt", "--visibilities", VISIBILITIES),
    }
    DIALECTS = {
        "trailing-blank-line": lambda text: text + "\n",
        "crlf": lambda text: text.replace("\n", "\r\n"),
        "quoted-cells": lambda text: _cells(text, '"{}"'),
        "spaced-cells": lambda text: _cells(text, " {} "),
    }

    def _run(self, fast_cfg_path, tmp_path, kind, text, out) -> int:
        command, flag, _ = self.INPUTS[kind]
        path = tmp_path / "input.csv"
        path.write_text(text, newline="")
        return main([command, "--config", fast_cfg_path, "--out", str(out), flag, str(path)])

    @pytest.mark.parametrize("dialect", DIALECTS)
    @pytest.mark.parametrize("kind", INPUTS)
    def test_dialect_gives_the_plain_file_output(self, fast_cfg_path, tmp_path, kind, dialect):
        plain = self.INPUTS[kind][2]
        assert self._run(fast_cfg_path, tmp_path, kind, plain, tmp_path / "plain") == 0
        variant = self.DIALECTS[dialect](plain)
        assert variant != plain
        assert self._run(fast_cfg_path, tmp_path, kind, variant, tmp_path / "variant") == 0
        assert _snapshot(tmp_path / "variant") == _snapshot(tmp_path / "plain")

    @pytest.mark.parametrize("row", ["ragged", "short"])
    @pytest.mark.parametrize("kind", INPUTS)
    def test_ragged_or_short_row_is_exit_1(self, fast_cfg_path, tmp_path, capsys, kind, row):
        lines = self.INPUTS[kind][2].splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")
        lines[2] = ",".join(cells + ["0.1"] if row == "ragged" else cells[:1]) + "\n"
        out = tmp_path / "out"
        assert self._run(fast_cfg_path, tmp_path, kind, "".join(lines), out) == 1
        assert "input.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_n_is_exit_1(self, fast_cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        text = "n,visibility\n1,0.99\n2,0.98\n1,0.5\n"
        assert self._run(fast_cfg_path, tmp_path, "schmidt-visibilities", text, out) == 1
        assert "input.csv: n=1 is on more than one row" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows", [(1, 10**160), (1, 10**400), (10**154, -(10**154))], ids=["1e160", "1e400", "sum"]
    )
    def test_n_whose_square_overflows_is_exit_1(self, fast_cfg_path, tmp_path, capsys, rows):
        # The last case: each n*n is a finite float, their sum is not.
        out = tmp_path / "out"
        text = "n,visibility\n" + "".join(f"{n},{v}\n" for n, v in zip(rows, (0.99, 0.5)))
        assert self._run(fast_cfg_path, tmp_path, "schmidt-visibilities", text, out) == 1
        assert f"n={max(rows)} too large" in capsys.readouterr().err
        assert not out.exists()


class TestWriteStage:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_lists_exactly_the_artifacts(self, command, fast_cfg_path, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        # What a killed run leaves: staged files, which the next run removes, and
        # likewise the staging directory of an earlier version.
        (out / ".bfcsim-staging-chsh.json").write_text("{")
        (out / ".bfcsim-staging-killed").mkdir()
        (out / ".bfcsim-staging-killed" / "chsh.json").write_text("{")
        assert main([command, "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[command])

    def test_stale_staging_entries_are_removed_and_links_not_followed(
        self, fast_cfg_path, tmp_path
    ):
        out, elsewhere = tmp_path / "o", tmp_path / "elsewhere"
        (out / ".bfcsim-staging-x" / "nested").mkdir(parents=True)
        (out / ".bfcsim-staging-x" / "nested" / "chsh.json").write_text("{")
        elsewhere.mkdir()
        (elsewhere / "keep.txt").write_text("kept")
        (out / ".bfcsim-staging-link").symlink_to(elsewhere, target_is_directory=True)
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS["chsh"])
        assert (elsewhere / "keep.txt").read_text() == "kept"

    def test_run_killed_mid_write_leaves_earlier_files_and_blocks_nothing(
        self, fast_cfg_path, tmp_path
    ):
        out = tmp_path / "o"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        before = _snapshot(out)
        # The fringe CSVs are staged beside their targets; the process dies before
        # writing chsh.json.
        killed = subprocess.Popen(
            [sys.executable, "-c", KILLED_RUN, fast_cfg_path, str(out)], env=_child_env()
        )
        assert killed.wait(timeout=60) == 9
        assert {n: (out / n).read_bytes() for n in before} == before
        staged = set(p.name for p in out.iterdir()) - set(before)
        assert staged == {".bfcsim-staging-" + name for name in FRINGES}
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
            if Path(path).name == ".bfcsim-staging-" + failing:
                raise RuntimeError("disk full")
            real_export_json(path, obj)

        monkeypatch.setattr(bfcsim.io, "export_json", export_json)
        assert main([command, "--config", str(reseeded), "--out", str(out)]) == 2
        assert "stage 'write' failed: disk full" in capsys.readouterr().err
        assert _snapshot(out) == before
        with _locked(out):  # the failed run let go of its lock
            pass

    def test_killed_lock_holder_blocks_nothing(self, fast_cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLDER, str(out)], stdout=subprocess.PIPE, text=True
        )
        try:
            assert holder.stdout.readline() == "held\n"
            assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 2
            assert "is locked by another run" in capsys.readouterr().err
        finally:
            holder.kill()
            holder.communicate(timeout=60)
        assert holder.returncode == -signal.SIGKILL
        # The kernel freed the lock with the process: no file to remove by hand.
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS["chsh"])

    @pytest.mark.parametrize(
        ("name", "owner"),
        [
            (".bfcsim.lock", f"{os.getpid()}\n"),
            (".bfcsim.lock", ""),
            (".bfcsim-pid-waiting", f"{os.getpid()}\n"),
        ],
        ids=["live-pid", "empty", "pid-file"],
    )
    def test_old_lock_file_is_inert(self, name, owner, fast_cfg_path, tmp_path):
        # Earlier versions locked with a `.bfcsim.lock` holding the owner's pid,
        # written first to a `.bfcsim-pid-*` file. Neither blocks or is touched.
        out = tmp_path / "o"
        out.mkdir()
        (out / name).write_text(owner)
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS["chsh"] + [name])
        assert (out / name).read_text() == owner

    def test_two_runs_at_once(self, fast_cfg_path, tmp_path):
        solo, out = tmp_path / "solo", tmp_path / "o"
        assert main(["report", "--config", fast_cfg_path, "--out", str(solo)]) == 0
        argv = [sys.executable, "-m", "bfcsim.cli", "report", "--config", fast_cfg_path]
        argv += ["--out", str(out)]
        runs = [
            subprocess.Popen(
                argv,
                env=_child_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        errors = [run.communicate(timeout=120)[1] for run in runs]
        for run, err in zip(runs, errors):
            assert run.returncode == 0 or (run.returncode == 2 and "locked" in err), err
        assert 0 in [run.returncode for run in runs]
        assert _snapshot(out) == _snapshot(solo)


class TestRevivalSpacing:
    def test_spacing_counts_n_steps_across_missing_dips(self):
        # A window whose minimum falls on its edge has no dip, so n skips values.
        from bfcsim.hom import RevivalRecord
        from bfcsim.report import _revival_spacing

        ns = [-3, -1, 0, 2, 3]
        centers = [-33.1, -11.03, 0.0, 22.05, 33.08]
        records = [RevivalRecord(n, c, 0.5) for n, c in zip(ns, centers)]
        assert ns[-1] - ns[0] > len(ns) - 1
        assert _revival_spacing(records) == pytest.approx(11.03, abs=0.05)

    def test_finesse_3_keeps_only_dips_above_the_floor(self, tmp_path):
        # The outer revivals fall to ~1e-8, below the plateau ripple; only |n| <= 6 are dips.
        from bfcsim.hom import REVIVAL_VISIBILITY_FLOOR

        cfg = tmp_path / "f3.cfg"
        cfg.write_text("[cavity] fsr_ghz=45, linewidth_ghz=15\n")
        out = tmp_path / "o"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rows = _revival_rows(out / "revivals.csv")
        assert all(r.visibility >= REVIVAL_VISIBILITY_FLOOR for r in rows)
        wide_step_ps = 0.2
        half_round_trip = report["round_trip_ps"] / 2
        assert report["revival_spacing_ps"] == pytest.approx(half_round_trip, abs=wide_step_ps)
        assert report["k_time_fitted"] == pytest.approx(report["k_time_theory"], rel=0.01)

    def test_contiguous_n_keeps_the_mean_of_differences(self):
        from bfcsim.hom import RevivalRecord
        from bfcsim.report import _revival_spacing

        centers = [-22.1, -11.03, 0.0, 11.07, 22.05]
        records = [RevivalRecord(n, c, 0.5) for n, c in zip(range(-2, 3), centers)]
        assert _revival_spacing(records) == float(np.mean(np.diff(centers)))
        assert np.isnan(_revival_spacing(records[:1]))


class TestOneHomePerTable:
    def test_report_json_holds_no_table(self, fast_cfg_path, tmp_path):
        # The per-dip table is in revivals.csv alone; report.json's only lists
        # are the [lo, hi] acceptance bands.
        from bfcsim.report import _revival_spacing

        out = tmp_path / "r"
        assert main(["report", "--config", fast_cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == "2"
        nested = [key for key, value in report.items() if isinstance(value, (list, dict))]
        assert nested == ["bands"]
        for lo, hi in report["bands"].values():
            assert isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and lo <= hi

        rows = _revival_rows(out / "revivals.csv")
        assert len(rows) == report["revival_count"]
        assert next(r.visibility for r in rows if r.n == 0) == report["central_visibility"]
        assert _revival_spacing(rows) == report["revival_spacing_ps"]


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
        }

    def test_repeat_runs_byte_identical(self, fast_cfg_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--config", fast_cfg_path, "--out", str(out1)]) == 0
        assert main(["report", "--config", fast_cfg_path, "--out", str(out2)]) == 0
        assert self._digest_dir(out1) == self._digest_dir(out2)

    def test_label_next_to_a_preset_names_the_cavity(self, tmp_path):
        cfg = tmp_path / "labelled.cfg"
        cfg.write_text(FAST_CONFIG.replace('preset="45ghz"', 'preset="45ghz", label="mycav"'))
        out = tmp_path / "lab"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["cavity_label"] == "mycav"
        assert "cavity mycav:" in (out / "summary.txt").read_text()

    def test_report_json_round_trips(self, fast_cfg_path, tmp_path):
        from bfcsim.config import load_config
        from bfcsim.report import run_report

        out = tmp_path / "rt"
        report = run_report(load_config(fast_cfg_path, output_dir=str(out)))
        payload = json.loads((out / "report.json").read_text())
        assert payload == report
        assert payload["total_dimensionality"] == 2 * int(payload["k_time_theory"]) ** 2
        assert payload["config_hash"]

    def test_lock_released_after_run(self, fast_cfg_path, tmp_path):
        out = tmp_path / "lk"
        assert main(["report", "--config", fast_cfg_path, "--out", str(out)]) == 0
        with _locked(out):
            pass


def test_report_does_not_import_numpy_ma(fast_cfg_path, tmp_path):
    # numpy 1.x loads numpy.ma with numpy itself, numpy 2 only on first use; a
    # report adds it in neither.
    argv = [sys.executable, "-c", MA_PROBE, fast_cfg_path, str(tmp_path / "ma")]
    done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, check=True)
    before, after = done.stdout.split()[-2:]
    assert after == before
