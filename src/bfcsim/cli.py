"""Command-line entry point: hom | jsi | schmidt | chsh | report subcommands.

Every subcommand is a view over the stages in `bfcsim.report`: it runs the
stages it needs, hands its files to the `write` stage and prints one line.
Exit codes: 0 success, 1 configuration/validation error, 2 runtime error;
a failed stage exits as the error it raised would.
The output directory resolves as --out, then $BFCSIM_OUT, then the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import io as io_mod
from .chsh import DEFAULT_ANGLES_DEG
from .config import (
    RunConfig,
    SCHEMA_VERSION,
    TOOL_VERSION,
    available_presets,
    load_config,
    preset_config,
)
from .report import (
    StageError,
    chsh_stage,
    comb_stage,
    dimensionality_stage,
    dip_width_stage,
    freq_schmidt_stage,
    hom_stage,
    jsi_stage,
    measured_jsi_stage,
    revivals_stage,
    run_report,
    summary_text,
    time_schmidt_stage,
    write_stage,
)

# Unused here; perfbench's tracer wraps these names on this module and stops if one is missing.
from .comb import build_comb  # noqa: F401
from .jsi import scan_correlation_matrix  # noqa: F401
from .schmidt import schmidt_decompose, time_bin_spectrum_from_visibilities  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfcsim",
        description="Biphoton frequency comb simulator and analysis toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"bfcsim {TOOL_VERSION} (config schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a config file")
        p.add_argument(
            "--preset",
            help=f"cavity preset ({', '.join(available_presets())}); default 45ghz",
        )
        p.add_argument("--out", help="output directory (overrides $BFCSIM_OUT and config)")

    p_hom = sub.add_parser("hom", help="simulate the coincidence trace and locate revivals")
    add_common(p_hom)

    p_jsi = sub.add_parser("jsi", help="scan the filtered frequency-bin correlation matrix")
    add_common(p_jsi)
    p_jsi.add_argument("--input", help="load an externally measured matrix CSV instead")

    p_schmidt = sub.add_parser("schmidt", help="Schmidt spectra and dimensionality report")
    add_common(p_schmidt)
    p_schmidt.add_argument("--input", help="matrix CSV for the frequency-bin analysis")
    p_schmidt.add_argument("--visibilities", help="n,visibility CSV for the time-bin fit")

    p_chsh = sub.add_parser("chsh", help="fringe scans and the CHSH S parameter")
    add_common(p_chsh)
    p_chsh.add_argument(
        "--visibility", type=float, help="visibility of the fringe scans and the CHSH counts"
    )
    p_chsh.add_argument("--integration", type=float, help="mean counts at the fringe maximum")
    p_chsh.add_argument(
        "--angles",
        type=float,
        nargs=4,
        metavar=("PHI1", "PHI1P", "PHI2", "PHI2P"),
        help="CHSH analyzer angles in degrees",
    )

    p_report = sub.add_parser("report", help="full reproduction pipeline")
    add_common(p_report)
    # Only these two commands have a random stage.
    for p in (p_chsh, p_report):
        p.add_argument("--seed", type=int, help="seed of the simulated CHSH and fringe counts")
    return parser


def _resolve_config(args) -> RunConfig:
    out = args.out or os.environ.get("BFCSIM_OUT")
    if args.config:
        cfg = load_config(args.config, output_dir=out)
    else:
        cfg = preset_config(args.preset or "45ghz", output_dir=out)
    chsh = {}
    if getattr(args, "seed", None) is not None:
        chsh["seed"] = args.seed
    if getattr(args, "visibility", None) is not None:
        chsh["fringe_visibility"] = chsh["chsh_visibility"] = args.visibility
    if getattr(args, "integration", None) is not None:
        chsh["integration"] = args.integration
    if chsh:
        cfg = dataclasses.replace(cfg, chsh=dataclasses.replace(cfg.chsh, **chsh))
    return cfg


def _matrix(cfg: RunConfig, args):
    """The measured matrix from --input, else the scan, with its sidecar."""
    if args.input:
        return measured_jsi_stage(args.input)
    return jsi_stage(cfg, comb_stage(cfg))


def _cmd_hom(cfg: RunConfig, args) -> None:
    trace, zoom = hom_stage(cfg, comb_stage(cfg))
    revivals = revivals_stage(trace)
    width = dip_width_stage(zoom)
    out = write_stage(
        cfg.output_dir,
        {"hom_trace.csv": trace, "hom_trace_zoom.csv": zoom, "revivals.csv": revivals},
    )
    print(f"wrote hom_trace.csv, hom_trace_zoom.csv and revivals.csv in {out}")
    print(f"{len(revivals)} revival dips, central dip width {width:.3f} ps")


def _cmd_jsi(cfg: RunConfig, args) -> None:
    matrix, sidecar = _matrix(cfg, args)
    out = write_stage(cfg.output_dir, {"jsi_matrix.csv": matrix, "jsi_matrix.json": sidecar})
    xtalk = sidecar["crosstalk_db"]
    print(f"wrote {out / 'jsi_matrix.csv'}; crosstalk {xtalk if xtalk is not None else 'none'} dB")


def _cmd_schmidt(cfg: RunConfig, args) -> None:
    _, theory, fitted = time_schmidt_stage(cfg, args.visibilities)
    time_spec = fitted if fitted is not None else theory
    freq_spec, _ = freq_schmidt_stage(_matrix(cfg, args)[0])
    _, dim = dimensionality_stage(cfg, time_spec.k_number, freq_spec.k_number)
    write_stage(
        cfg.output_dir,
        {
            "schmidt_time.csv": time_spec,
            "schmidt_frequency.csv": freq_spec,
            "dimensionality.json": dataclasses.asdict(dim),
        },
    )
    print(
        f"K_time={dim.k_time:.4f} K_freq={dim.k_freq:.4f} "
        f"total dimensionality {dim.total_dimensionality}"
    )


def _cmd_chsh(cfg: RunConfig, args) -> None:
    angles = tuple(args.angles) if args.angles else DEFAULT_ANGLES_DEG
    s_fringe, _, result, fringes = chsh_stage(cfg, angles)
    summary = {
        **dataclasses.asdict(cfg.chsh),
        "angles_deg": list(angles),
        "s_fringe": s_fringe,
        **io_mod.chsh_to_dict(result),
    }
    write_stage(
        cfg.output_dir,
        {**{f"fringe_p1_{int(f.fixed_angle_deg)}.csv": f for f in fringes}, "chsh.json": summary},
    )
    print(
        f"S = {result.s_value:.4f} +/- {result.s_sigma:.4f} "
        f"({result.violation_sigmas:.1f} sigma above the classical bound)"
    )


def _cmd_report(cfg: RunConfig, args) -> None:
    print(summary_text(run_report(cfg)))


_VIEWS = {
    "hom": _cmd_hom,
    "jsi": _cmd_jsi,
    "schmidt": _cmd_schmidt,
    "chsh": _cmd_chsh,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _VIEWS[args.command](_resolve_config(args), args)
    except Exception as exc:
        # A stage names itself in the message; the exit code follows what it raised.
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        if isinstance(cause, ValueError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
