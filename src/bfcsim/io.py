"""CSV and JSON persistence for traces, matrices, spectra, and reports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .chsh import ChshResult, FringeScan
from .hom import HomTrace, RevivalRecord
from .jsi import Jsi
from .schmidt import SchmidtSpectrum


def export_csv(path, header: list[str], rows) -> None:
    """Write rows as CSV with a header line; floats use repr precision."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(c) for c in row])
    except OSError as exc:
        raise RuntimeError(f"failed writing CSV {path}: {exc}") from exc


def _format_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def export_json(path, obj) -> None:
    """Write JSON with sorted keys and a trailing newline."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise RuntimeError(f"failed writing JSON {path}: {exc}") from exc


def trace_to_csv(trace: HomTrace, path) -> None:
    export_csv(path, ["delay_ps", "coincidence"], zip(trace.delays_ps, trace.coincidence))


def revivals_to_csv(records: list[RevivalRecord], path) -> None:
    export_csv(
        path,
        ["n", "center_ps", "visibility"],
        ((r.n, r.center_ps, r.visibility) for r in records),
    )


def spectrum_to_csv(spectrum: SchmidtSpectrum, path) -> None:
    """Eigenvalues as ``n,eigenvalue``; n is the bin label if present, else the rank."""
    if spectrum.bin_indices is not None:
        labels = spectrum.bin_indices
    else:
        labels = np.arange(spectrum.eigenvalues.size)
    export_csv(path, ["n", "eigenvalue"], zip(labels, spectrum.eigenvalues))


def jsi_to_csv(jsi: Jsi, path) -> None:
    """Matrix with a leading header row/column of signal/idler bin indices."""
    bins = jsi.bins
    rows = [[int(n_s)] + [v for v in row] for n_s, row in zip(bins, jsi.values)]
    export_csv(path, ["bin"] + [str(int(b)) for b in bins], rows)


def jsi_from_csv(path) -> Jsi:
    """Load a matrix in the `jsi_to_csv` layout; weights are renormalized."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise RuntimeError(f"failed reading CSV {path}: {exc}") from exc
    if len(reader) < 2 or len(reader[0]) < 2 or reader[0][0] != "bin":
        raise ValueError(f"{path}: expected a 'bin'-headed matrix CSV")
    col_bins = [int(x) for x in reader[0][1:]]
    row_bins = [int(r[0]) for r in reader[1:]]
    size = len(col_bins)
    if len(row_bins) != size:
        raise ValueError(f"{path}: matrix must be square, got {len(row_bins)}x{size}")
    n_max = size // 2
    expected = list(range(-n_max, n_max + 1))
    if col_bins != expected or row_bins != expected:
        raise ValueError(f"{path}: bin indices must run -N..N on both axes")
    values = np.array([[float(x) for x in r[1:]] for r in reader[1:]])
    total = values.sum()
    if total <= 0.0:
        raise ValueError(f"{path}: matrix has no weight")
    return Jsi(n_max=n_max, values=values / total, normalized=True)


def visibilities_from_csv(path) -> list[tuple[int, float]]:
    """Load ``n,visibility`` rows for a time-bin Schmidt fit."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise RuntimeError(f"failed reading CSV {path}: {exc}") from exc
    if not reader or [h.strip() for h in reader[0][:2]] != ["n", "visibility"]:
        raise ValueError(f"{path}: expected header 'n,visibility'")
    return [(int(r[0]), float(r[1])) for r in reader[1:] if r]


def fringe_to_csv(scan: FringeScan, path) -> None:
    export_csv(path, ["phi2_deg", "counts"], zip(scan.scan_angles_deg, scan.counts))


def chsh_to_dict(result: ChshResult) -> dict:
    return {
        "correlations": list(result.correlations),
        "s_value": result.s_value,
        "s_sigma": result.s_sigma,
        "violation_sigmas": result.violation_sigmas,
    }
