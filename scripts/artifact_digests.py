"""Print a sha256 for every artifact and every stdout of a fixed set of bfcsim runs.

Usage: python scripts/artifact_digests.py OUT_DIR

Runs `report` on the three presets and on `docs/sample.cfg`, and each
subcommand (`hom`, `jsi`, `jsi --input`, `schmidt`, `schmidt --input
--visibilities`, `chsh`) on a small fast config and on `--preset 15ghz`,
and `chsh --seed` on the fast config with its other `[chsh]` keys changed,
each into its own directory under OUT_DIR, which must be new or empty.
Prints one sorted JSON map of ``run/file -> sha256``; ``run/stdout`` is
the run's standard output.
Two checkouts, or two interpreters, that print the same map produced
byte-identical artifacts.  Exits 1 if any run fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bfcsim.cli import main  # noqa: E402

# The fast config of tests/test_cli.py.
FAST_CONFIG = """\
[cavity] preset="45ghz"
[comb] n_max=6
[hom] window_ps=40, step_ps=0.1
[jsi] max_bin=2, pump_mw=2
[chsh] integration=2000, seed=7
"""
# The fast config with its [chsh] visibilities and integration changed; --seed replaces its seed.
CHSH_CONFIG = FAST_CONFIG.replace(
    "integration=2000", "fringe_visibility=0.9, chsh_visibility=0.9, integration=5000"
)


def _run(name: str, argv: list[str]) -> None:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", name])
    if code != 0:
        raise SystemExit(f"artifact_digests: {name} ({' '.join(argv)}) exited {code}")
    Path(name, "stdout").write_text(stdout.getvalue(), encoding="utf-8")


def _visibilities_from_revivals(revivals: Path, path: Path) -> None:
    rows = [line.split(",") for line in revivals.read_text(encoding="utf-8").splitlines()[1:]]
    path.write_text(
        "n,visibility\n" + "".join(f"{n},{v}\n" for n, _, v in rows if 0.0 < float(v) <= 1.0),
        encoding="utf-8",
    )


def run_all(out_dir: Path) -> dict[str, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise SystemExit(f"artifact_digests: {out_dir} is not empty")
    os.chdir(out_dir)  # relative --out paths keep stdout free of OUT_DIR
    for preset in ("45ghz", "15ghz", "5ghz"):
        _run(f"report-{preset}", ["report", "--preset", preset])
    _run("report-sample", ["report", "--config", str(ROOT / "docs" / "sample.cfg")])

    Path("fast.cfg").write_text(FAST_CONFIG, encoding="utf-8")
    for label, source in (("fast", ["--config", "fast.cfg"]), ("15ghz", ["--preset", "15ghz"])):
        _run(f"hom-{label}", ["hom", *source])
        _run(f"jsi-{label}", ["jsi", *source])
        matrix = f"jsi-{label}/jsi_matrix.csv"
        _run(f"jsi-input-{label}", ["jsi", *source, "--input", matrix])
        vis = f"visibilities-{label}.csv"
        _visibilities_from_revivals(Path(f"hom-{label}", "revivals.csv"), Path(vis))
        _run(f"schmidt-{label}", ["schmidt", *source])
        _run(
            f"schmidt-input-{label}",
            ["schmidt", *source, "--input", matrix, "--visibilities", vis],
        )
        _run(f"chsh-{label}", ["chsh", *source])
    Path("chsh.cfg").write_text(CHSH_CONFIG, encoding="utf-8")
    _run("chsh-seed-fast", ["chsh", "--config", "chsh.cfg", "--seed", "5"])

    return {
        path.relative_to(".").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(".").rglob("*"))
        if path.is_file()
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    print(json.dumps(run_all(Path(sys.argv[1])), indent=1, sort_keys=True))
