"""CSV and JSON persistence for traces, matrices, spectra, and reports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .chsh import FringeScan
from .hom import HomTrace
from .jsi import Jsi
from .schmidt import SchmidtSpectrum


def export_csv(path, header: list[str], rows) -> None:
    """Write rows as CSV with a header line.

    Cells are written as they are, so floats must be float64: each is
    written in its shortest form that reads back exactly.  `write_artifact`
    builds its rows with ``.tolist()``, which yields Python ``int`` and
    ``float`` far faster than converting cell by cell.
    """
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise RuntimeError(f"failed writing CSV {path}: {exc}") from exc


def export_json(path, obj) -> None:
    """Write JSON with sorted keys and a trailing newline."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise RuntimeError(f"failed writing JSON {path}: {exc}") from exc


def _read_csv(path) -> list[list[str]]:
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise RuntimeError(f"failed reading CSV {path}: {exc}") from exc


def jsi_from_csv(path) -> Jsi:
    """Load a matrix in the `write_artifact` layout; weights are renormalized."""
    reader = _read_csv(path)
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
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: matrix cells must be finite")
    total = values.sum()
    if total <= 0.0:
        raise ValueError(f"{path}: matrix has no weight")
    return Jsi(n_max=n_max, values=values / total, normalized=True)


def visibilities_from_csv(path) -> list[tuple[int, float]]:
    """Load ``n,visibility`` rows for a time-bin Schmidt fit."""
    reader = _read_csv(path)
    if not reader or [h.strip() for h in reader[0][:2]] != ["n", "visibility"]:
        raise ValueError(f"{path}: expected header 'n,visibility'")
    return [(int(r[0]), float(r[1])) for r in reader[1:] if r]


def write_artifact(path, value) -> None:
    """Write one artifact in the layout of its type (see docs/formats.md).

    A dict is written as JSON and a str as text; a list holds revival records.
    """
    if isinstance(value, dict):
        export_json(path, value)
    elif isinstance(value, str):
        Path(path).write_text(value, encoding="utf-8")
    elif isinstance(value, HomTrace):
        rows = zip(value.delays_ps.tolist(), value.coincidence.tolist())
        export_csv(path, ["delay_ps", "coincidence"], rows)
    elif isinstance(value, Jsi):
        # A header row and a leading column of signal/idler bin indices.
        bins = value.bins.tolist()
        rows = ([n] + row.tolist() for n, row in zip(bins, value.values))
        export_csv(path, ["bin"] + [str(b) for b in bins], rows)
    elif isinstance(value, SchmidtSpectrum):
        # n is the bin label if the spectrum has them, else the rank.
        labels = value.bin_indices
        labels = range(value.eigenvalues.size) if labels is None else labels.tolist()
        export_csv(path, ["n", "eigenvalue"], zip(labels, value.eigenvalues.tolist()))
    elif isinstance(value, FringeScan):
        rows = zip(value.scan_angles_deg.tolist(), value.counts.tolist())
        export_csv(path, ["phi2_deg", "counts"], rows)
    else:
        rows = ((r.n, r.center_ps, r.visibility) for r in value)
        export_csv(path, ["n", "center_ps", "visibility"], rows)
