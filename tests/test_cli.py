"""CLI subcommands, exit codes, determinism of the report pipeline."""

import contextlib
import errno
import fcntl
import hashlib
import io
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
from bfcsim.config import _FIELDS
from conftest import revival_rows

FAST_CONFIG = """\
[cavity] preset="45ghz"
[comb] n_max=6
[hom] window_ps=40, step_ps=0.1
[jsi] max_bin=2, pump_mw=2
[chsh] integration=2000, seed=7
"""


# Every file each command writes.
ARTIFACTS = {
    "hom": ["hom_trace.csv", "hom_trace_zoom.csv", "revivals.csv"],
    "jsi": ["jsi_matrix.csv", "jsi_matrix.json"],
    "schmidt": ["dimensionality.json", "schmidt_frequency_ideal.csv", "schmidt_time_theory.csv"],
    "chsh": ["chsh.json", "chsh_fringes.csv"],
    "report": [
        "hom_trace.csv",
        "hom_trace_zoom.csv",
        "revivals.csv",
        "schmidt_time_theory.csv",
        "schmidt_time_fitted.csv",
        "jsi_matrix.csv",
        "jsi_matrix.json",
        "schmidt_frequency_ideal.csv",
        "schmidt_frequency_degraded.csv",
        "dimensionality.json",
        "chsh_fringes.csv",
        "chsh.json",
        "report.json",
        "summary.txt",
    ],
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


# A run in a process that may write files of at most 64 KiB; past that, write(2)
# fails with EFBIG instead of raising SIGXFSZ.
FSIZE_LIMITED_RUN = """\
import resource, signal, sys
from bfcsim.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[1:]))
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


def _perfect_chsh(tmp_path: Path, integration: int) -> str:
    """A 45ghz config whose fringe and CHSH visibilities are both 1."""
    cfg = tmp_path / "perfect.cfg"
    cfg.write_text(
        '[cavity] preset="45ghz"\n'
        f"[chsh] fringe_visibility=1, chsh_visibility=1, integration={integration}\n"
    )
    return str(cfg)


def _snapshot(path: Path) -> dict:
    """Every entry under `path`: a file's bytes, a directory's own snapshot."""
    return {p.name: _snapshot(p) if p.is_dir() else p.read_bytes() for p in path.iterdir()}


def _reseeded(tmp_path: Path) -> str:
    """The fast config with another seed, so its chsh, report and summary files differ."""
    path = tmp_path / "reseeded.cfg"
    path.write_text(FAST_CONFIG.replace("seed=7", "seed=8"))
    return str(path)


class _FullDisk(io.FileIO):
    """A file on a full disk: it opens, and every write fails with ENOSPC."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _fill_disk(monkeypatch, name: str) -> None:
    """Make the writes of the staged artifact `name` fail, below `bfcsim.io`'s exporters."""

    def full_open(path, *args, **kwargs):
        if os.path.basename(path) == ".bfcsim-staging-" + name:
            return io.BufferedWriter(_FullDisk(path, "w"))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(bfcsim.io, "open", full_open, raising=False)


def _revival_rows(path: Path) -> np.recarray:
    """The rows of a `revivals.csv`, read back as `locate_revivals` returns them."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,center_ps,visibility"
    return revival_rows(
        (int(n), float(center), float(v))
        for n, center, v in (line.split(",") for line in lines[1:])
    )


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
            ("[chsh] fringe_visibility=nan", "[chsh] fringe_visibility must be finite, got nan"),
            # Negative values in exponent form reach the range checks.
            (
                "[chsh] chsh_visibility=-1e-3",
                "[chsh] chsh_visibility must be in [0, 1], got -0.001",
            ),
            ("[chsh] integration=-1e3", "[chsh] integration must be > 0, got -1000.0"),
            ("[comb] n_max=-1", "[comb] n_max must be >= 0, got -1"),
            ("[source] bpm_ghz=1e290", "[source] bpm_ghz=1e+290 (n_max 6.62e+288)"),
            ("[source] pump_mw=2", "line 2: unknown key 'pump_mw' in section [source]"),
            ('[output] dir="run#1"', "line 2: unmatched quote in 'dir=\"run'"),
            ('[cavity] preset="5ghz"', "line 2: repeated key 'preset' in section [cavity]"),
            # Rejected although --out replaces it.
            ('[output] dir=""', "[output] dir must be nonempty, got ''"),
        ],
    )
    def test_bad_config_is_exit_1_before_any_output(
        self, command, line, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text(f'[cavity] preset="45ghz"\n{line}\n')
        out = tmp_path / "o"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_padded_config_preset_is_exit_1_before_any_output(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # Not 15ghz's cavity with 45ghz's JSI defaults and no k_time_theory band.
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text('[cavity] preset=" 15ghz"\n')
        out = tmp_path / "o"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 1
        assert "unknown cavity preset ' 15ghz'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_config_dir_is_exit_1_before_any_output(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # With no --out, an empty dir would be the working directory.
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text('[cavity] preset="45ghz"\n[output] dir=""\n')
        assert main([command, "--config", str(bad)]) == 1
        assert "[output] dir must be nonempty, got ''" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["chsh", "--seed", "-1"], "seed must be >= 0"),
            *[([c, "--out", ""], "[output] dir must be nonempty, got ''") for c in COMMANDS],
            (["schmidt", "--config", ""], "cannot read config"),
            (["schmidt", "--preset", ""], "unknown cavity preset ''"),
            # Not 15ghz's cavity with 45ghz's JSI defaults.
            (["jsi", "--preset", "15ghz "], "unknown cavity preset '15ghz '"),
            (["jsi", "--input", ""], "--input must be nonempty, got ''"),
            (["schmidt", "--input", ""], "--input must be nonempty, got ''"),
            (["schmidt", "--visibilities", ""], "--visibilities must be nonempty, got ''"),
        ],
        ids=[
            "chsh-seed",
            *[f"{command}-empty-out" for command in COMMANDS],
            "empty-config",
            "empty-preset",
            "padded-preset",
            "jsi-empty-input",
            "schmidt-empty-input",
            "empty-visibilities",
        ],
    )
    def test_bad_flag_is_exit_1_before_any_output(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        # The --out of argv, if any, comes last and wins; an empty one would be
        # the working directory.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o"
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["hom", "jsi", "schmidt"])
    def test_seed_flag_only_where_something_is_random(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    # The config's [chsh] keys set these values; the CHSH angles are fixed.
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--seed", "1"],
            ["chsh", "--visibility", "0.9"],
            ["chsh", "--integration", "5"],
            ["chsh", "--angles", "0", "0", "0", "0"],
        ],
        ids=["report-seed", "visibility", "integration", "angles"],
    )
    def test_value_flag_is_a_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_and_preset_together_is_a_usage_error(
        self, command, fast_cfg_path, tmp_path, capsys
    ):
        out = tmp_path / "o"
        argv = [command, "--config", fast_cfg_path, "--preset", "5ghz", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--preset: not allowed with argument --config" in capsys.readouterr().err
        assert not out.exists()

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
        assert (out / "schmidt_time_fitted.csv").exists()
        assert (out / "schmidt_frequency_ideal.csv").exists()

    def test_schmidt_from_a_measured_matrix(self, fast_cfg_path, tmp_path):
        jsi = tmp_path / "jsi"
        assert main(["jsi", "--config", fast_cfg_path, "--out", str(jsi)]) == 0
        out = tmp_path / "schmidt"
        matrix = str(jsi / "jsi_matrix.csv")
        argv = ["schmidt", "--config", fast_cfg_path, "--out", str(out), "--input", matrix]
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "dimensionality.json",
            "schmidt_frequency_degraded.csv",
            "schmidt_time_theory.csv",
        ]
        rows = np.loadtxt(out / "schmidt_frequency_degraded.csv", delimiter=",", skiprows=1)
        spectrum = np.rec.fromarrays(
            [rows[:, 0].astype(np.int64), rows[:, 1]], names=("n", "eigenvalue")
        )
        dim = json.loads((out / "dimensionality.json").read_text())
        assert dim["k_freq"] == bfcsim.schmidt_number(spectrum)

    def test_chsh_writes_fringes_and_result(self, fast_cfg_path, tmp_path):
        out = tmp_path / "chsh"
        code = main(["chsh", "--config", fast_cfg_path, "--out", str(out)])
        assert code == 0
        assert (out / "chsh_fringes.csv").exists()
        result = json.loads((out / "chsh.json").read_text())
        assert 0.0 < result["s_value"] <= 2.8285

    def test_chsh_past_tsirelson_by_noise_is_exit_0(self, tmp_path):
        # Seed 743 samples S 3.3 sigma above 2 sqrt(2); noise, not an unphysical run.
        out = tmp_path / "c"
        argv = ["chsh", "--config", _perfect_chsh(tmp_path, integration=10000)]
        assert main([*argv, "--seed", "743", "--out", str(out)]) == 0
        assert json.loads((out / "chsh.json").read_text())["s_value"] > 2.0 * 2.0**0.5

    def test_chsh_sampled_s_of_four_at_zero_sigma_is_exit_0(self, tmp_path):
        # Seed 1892 draws |E| = 1 at all four pairs: S = 4 with sigma 0, a sampled result.
        out = tmp_path / "c"
        argv = ["chsh", "--config", _perfect_chsh(tmp_path, integration=5)]
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

    def test_output_dir_is_not_read_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BFCSIM_OUT", str(tmp_path / "envout"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FAST_CONFIG + '[output] dir="fromcfg"\n')
        assert main(["chsh", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in (tmp_path / "fromcfg").iterdir()) == sorted(ARTIFACTS["chsh"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "fromcfg"]

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
        assert main(argv) == 0
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

    @pytest.mark.parametrize("row", ["1.0,0.5", "1,abc", "1e400,0.2"])
    def test_unreadable_cell_is_exit_1_naming_the_file(
        self, fast_cfg_path, tmp_path, capsys, row
    ):
        out = tmp_path / "out"
        text = f"n,visibility\n{row}\n2,0.98\n"
        assert self._run(fast_cfg_path, tmp_path, "schmidt-visibilities", text, out) == 1
        assert f"stage 'schmidt-time' failed: {tmp_path / 'input.csv'}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows", ["1,1e400\n2,0.98\n", "1,nan\n2,0.98\n", "1,0.99\n"], ids=["inf", "nan", "one-row"]
    )
    def test_points_the_fit_rejects_are_exit_1_naming_the_file(
        self, fast_cfg_path, tmp_path, capsys, rows
    ):
        out = tmp_path / "out"
        text = "n,visibility\n" + rows
        assert self._run(fast_cfg_path, tmp_path, "schmidt-visibilities", text, out) == 1
        err = capsys.readouterr().err
        assert f"failed: {tmp_path / 'input.csv'}: fit_decay_parameter: " in err
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
        # What a killed run leaves: a staged file, which the next run removes.
        (out / ".bfcsim-staging-chsh.json").write_text("{")
        assert main([command, "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[command])

    def test_stale_staging_entries_are_removed_and_links_not_followed(
        self, fast_cfg_path, tmp_path
    ):
        out, elsewhere = tmp_path / "o", tmp_path / "elsewhere"
        (out / ".bfcsim-staging-x" / "nested").mkdir(parents=True)
        (out / ".bfcsim-staging-x" / "nested" / "chsh.json").write_text("{")
        (out / ".bfcsim-staging-chsh.json").write_text("{")
        elsewhere.mkdir()
        (elsewhere / "keep.txt").write_text("kept")
        (out / ".bfcsim-staging-link").symlink_to(elsewhere / "keep.txt")
        (out / ".bfcsim-staging-dirlink").symlink_to(elsewhere, target_is_directory=True)
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        # The staged file and the link go; a directory, as an earlier version
        # staged into, is left as it is, and so is a link to one.
        left = sorted([*ARTIFACTS["chsh"], ".bfcsim-staging-x", ".bfcsim-staging-dirlink"])
        assert sorted(p.name for p in out.iterdir()) == left
        assert (out / ".bfcsim-staging-x" / "nested" / "chsh.json").read_text() == "{"
        assert sorted(p.name for p in elsewhere.iterdir()) == ["keep.txt"]
        assert (elsewhere / "keep.txt").read_text() == "kept"

    def test_run_killed_mid_write_leaves_earlier_files_and_blocks_nothing(
        self, fast_cfg_path, tmp_path
    ):
        out = tmp_path / "o"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        before = _snapshot(out)
        # The fringe CSV is staged beside its target; the process dies before
        # writing chsh.json.
        killed = subprocess.Popen(
            [sys.executable, "-c", KILLED_RUN, fast_cfg_path, str(out)], env=_child_env()
        )
        assert killed.wait(timeout=60) == 9
        assert {n: (out / n).read_bytes() for n in before} == before
        staged = set(p.name for p in out.iterdir()) - set(before)
        assert staged == {".bfcsim-staging-chsh_fringes.csv"}
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
        real_export_json = bfcsim.io.export_json

        def export_json(path, obj):
            if Path(path).name == ".bfcsim-staging-" + failing:
                raise RuntimeError("disk full")
            real_export_json(path, obj)

        monkeypatch.setattr(bfcsim.io, "export_json", export_json)
        assert main([command, "--config", _reseeded(tmp_path), "--out", str(out)]) == 2
        assert "stage 'write' failed: disk full" in capsys.readouterr().err
        assert _snapshot(out) == before
        with _locked(out):  # the failed run let go of its lock
            pass

    @pytest.mark.parametrize(
        ("failing", "kind"),
        [("revivals.csv", "CSV"), ("dimensionality.json", "JSON"), ("summary.txt", "text")],
    )
    def test_full_disk_leaves_the_directory_as_it_was(
        self, failing, kind, fast_cfg_path, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "o"
        assert main(["report", "--config", fast_cfg_path, "--out", str(out)]) == 0
        before = _snapshot(out)
        _fill_disk(monkeypatch, failing)
        assert main(["report", "--config", _reseeded(tmp_path), "--out", str(out)]) == 2
        staged = out / (".bfcsim-staging-" + failing)
        assert f"failed writing {kind} {staged}: [Errno {errno.ENOSPC}]" in capsys.readouterr().err
        # The staged file the failed write opened is gone with the others.
        assert _snapshot(out) == before
        with _locked(out):
            pass

    def test_file_size_limit_fails_the_write_and_leaves_the_directory(self, tmp_path):
        out, cfg = tmp_path / "o", tmp_path / "reseeded45.cfg"
        cfg.write_text('[cavity] preset="45ghz"\n[chsh] seed=8\n')
        assert main(["report", "--preset", "45ghz", "--out", str(out)]) == 0
        assert (out / "hom_trace.csv").stat().st_size > 64 * 1024
        before = _snapshot(out)
        run = subprocess.run(
            [sys.executable, "-c", FSIZE_LIMITED_RUN, "report", "--config", str(cfg)]
            + ["--out", str(out)],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 2, run.stderr
        staged = out / ".bfcsim-staging-hom_trace.csv"
        assert f"failed writing CSV {staged}: [Errno {errno.EFBIG}]" in run.stderr
        assert _snapshot(out) == before

    def test_directory_of_an_artifact_name_fails_before_anything_is_staged(
        self, fast_cfg_path, tmp_path, capsys
    ):
        out = tmp_path / "o"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        (out / "chsh.json").unlink()
        (out / "chsh.json" / "x").mkdir(parents=True)
        before = _snapshot(out)
        # chsh_fringes.csv, whose rename comes first, keeps the earlier run's bytes, and
        # no staged entry is left.
        assert main(["chsh", "--config", _reseeded(tmp_path), "--out", str(out)]) == 2
        assert f"artifact path {out / 'chsh.json'} is a directory" in capsys.readouterr().err
        assert _snapshot(out) == before
        with _locked(out):
            pass

    def test_link_to_a_directory_of_an_artifact_name_is_replaced(self, fast_cfg_path, tmp_path):
        out, elsewhere = tmp_path / "o", tmp_path / "elsewhere"
        (elsewhere / "x").mkdir(parents=True)
        out.mkdir()
        (out / "chsh.json").symlink_to(elsewhere, target_is_directory=True)
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert not (out / "chsh.json").is_symlink()
        assert "s_value" in json.loads((out / "chsh.json").read_text())
        assert _snapshot(elsewhere) == {"x": {}}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_no_descriptor_outlives_a_run(self, fast_cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "o"
        argv = ["report", "--config", fast_cfg_path, "--out", str(out)]
        before = len(os.listdir("/proc/self/fd"))
        assert main(argv) == 0
        assert len(os.listdir("/proc/self/fd")) == before
        with _locked(out):
            held = len(os.listdir("/proc/self/fd"))
            assert main(argv) == 2
            assert len(os.listdir("/proc/self/fd")) == held
        _fill_disk(monkeypatch, "summary.txt")
        assert main(argv) == 2
        assert len(os.listdir("/proc/self/fd")) == before

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
        from bfcsim.report import _revival_spacing

        ns = [-3, -1, 0, 2, 3]
        centers = [-33.1, -11.03, 0.0, 22.05, 33.08]
        records = revival_rows((n, c, 0.5) for n, c in zip(ns, centers))
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
        from bfcsim.report import _revival_spacing

        centers = [-22.1, -11.03, 0.0, 11.07, 22.05]
        records = revival_rows((n, c, 0.5) for n, c in zip(range(-2, 3), centers))
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


class TestRowResults:
    def test_read_only_record_arrays_named_by_their_csv_headers(self, fast_cfg_path, tmp_path):
        # A result that is only rows is a record array whose fields are its CSV header.
        from bfcsim.report import (
            chsh_stage,
            comb_stage,
            freq_schmidt_stage,
            hom_stage,
            jsi_stage,
            time_schmidt_stage,
        )

        cfg = bfcsim.load_config(fast_cfg_path)
        comb = comb_stage(cfg)
        revivals = bfcsim.locate_revivals(hom_stage(cfg, comb)[0])
        scan = bfcsim.simulate_fringe_scan(45.0, [0.0, 10.0], 0.9, 100.0, seed=1)
        fringes = chsh_stage(cfg)[2]
        points = list(zip(revivals.n.tolist(), revivals.visibility.tolist()))
        spectra = (
            time_schmidt_stage(cfg),
            time_schmidt_stage(cfg, points),
            bfcsim.ideal_frequency_spectrum(comb),
            freq_schmidt_stage(jsi_stage(cfg, comb)[0]),
        )
        out = tmp_path / "o"
        assert main(["hom", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        assert main(["schmidt", "--config", fast_cfg_path, "--out", str(out)]) == 0

        def header(name):
            return tuple((out / name).read_text().split("\n", 1)[0].split(","))

        assert revivals.dtype.names == header("revivals.csv") == ("n", "center_ps", "visibility")
        fields = ("phi1_deg", "phi2_deg", "counts")
        assert fringes.dtype.names == header("chsh_fringes.csv") == fields
        assert scan.dtype.names == ("phi2_deg", "counts")
        for name in ("schmidt_time_theory.csv", "schmidt_frequency_ideal.csv"):
            assert header(name) == ("n", "eigenvalue")
        for spectrum in spectra:
            assert spectrum.dtype.names == ("n", "eigenvalue")
        for rows in (revivals, scan, fringes, *spectra):
            assert isinstance(rows, np.recarray) and rows.size
            for field in rows.dtype.names:
                with pytest.raises(ValueError, match="read-only"):
                    rows[field][0] = 0
                with pytest.raises(ValueError, match="read-only"):
                    setattr(rows, field, 0)
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = rows[-1]


class TestOneStageGraph:
    def test_subcommand_artifacts_match_the_report(self, fast_cfg_path, tmp_path):
        for command in ("report", "hom", "jsi", "schmidt", "chsh"):
            out = tmp_path / command
            assert main([command, "--config", fast_cfg_path, "--out", str(out)]) == 0
        report = tmp_path / "report"
        for command in ("hom", "jsi", "schmidt", "chsh"):
            for path in sorted((tmp_path / command).iterdir()):
                got = path.read_bytes()
                assert got == (report / path.name).read_bytes(), (command, path.name)

    def test_fringe_table_is_the_four_scans(self, fast_cfg_path, tmp_path):
        out = tmp_path / "c"
        assert main(["chsh", "--config", fast_cfg_path, "--out", str(out)]) == 0
        table = np.loadtxt(out / "chsh_fringes.csv", delimiter=",", skiprows=1, ndmin=2)
        c = bfcsim.load_config(fast_cfg_path).chsh
        for i, p1 in enumerate((45.0, 90.0, 135.0, 180.0)):
            scan = bfcsim.simulate_fringe_scan(
                p1, np.arange(0, 360, 10), c.fringe_visibility, c.integration, c.seed + i
            )
            rows = table[table[:, 0] == p1]
            assert np.array_equal(rows[:, 1], scan.phi2_deg)
            assert np.array_equal(rows[:, 2], scan.counts)
        assert np.array_equal(table[:, 0], np.repeat([45.0, 90.0, 135.0, 180.0], 36))


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


# Every config key but [output] dir: its value in the base config, then a second one.
EVERY_KEY = {
    ("cavity", "fsr_ghz"): ("45.32", "45"),
    ("cavity", "linewidth_ghz"): ("1.56", "1.5"),
    ("cavity", "label"): ("fast", "other"),
    ("source", "bpm_ghz"): ("245", "300"),
    ("source", "envelope"): ("sinc_squared", "gaussian"),
    ("source", "wavelength_nm"): ("1316", "1550"),
    ("comb", "n_max"): ("6", "5"),
    ("hom", "window_ps"): ("40", "45"),
    ("hom", "step_ps"): ("0.1", "0.2"),
    ("hom", "accidentals"): ("0", "0.1"),
    ("jsi", "filter_fwhm_pm"): ("300", "100"),
    ("jsi", "filter_shape"): ("gaussian", "lorentzian"),
    ("jsi", "max_bin"): ("2", "3"),
    ("jsi", "pump_mw"): ("2", "4"),
    ("chsh", "fringe_visibility"): ("0.9796", "0.9"),
    ("chsh", "chsh_visibility"): ("0.9497", "0.9"),
    ("chsh", "integration"): ("2000", "1000"),
    ("chsh", "seed"): ("7", "8"),
}


def _every_key_report(out: Path, changed=None) -> dict:
    """A report on EVERY_KEY's base values, `changed` set to its second value.

    Returns every artifact but `config_hash` and the summary line that quotes it.
    """
    values = {key: pair[key == changed] for key, pair in EVERY_KEY.items()}
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text("".join(f"[{section}] {key}={v}\n" for (section, key), v in values.items()))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    files = _snapshot(out)
    report = json.loads(files.pop("report.json"))
    del report["config_hash"]
    return {**files, "report.json": report, "summary.txt": files["summary.txt"].split(b"\n", 1)[1]}


@pytest.fixture(scope="module")
def every_key_base(tmp_path_factory):
    return _every_key_report(tmp_path_factory.mktemp("every-key") / "base")


def test_every_config_key_is_listed():
    every = {(section, key) for section, rows in _FIELDS.items() for key in rows}
    assert set(EVERY_KEY) == every - {("output", "dir")}


@pytest.mark.parametrize("key", list(EVERY_KEY), ids=[f"{s}.{k}" for s, k in EVERY_KEY])
def test_every_config_key_moves_an_artifact(key, every_key_base, tmp_path):
    assert _every_key_report(tmp_path / "changed", key) != every_key_base
