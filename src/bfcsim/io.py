"""CSV and JSON persistence for traces, matrices, spectra, and reports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import orjson

from .chsh import FringeScan
from .hom import HomTrace
from .jsi import Jsi
from .schmidt import SchmidtSpectrum


def export_csv(path, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV under a header line.

    Integer columns are written with `str`, float columns as float64 in the
    shortest form that reads back exactly, spelled as `repr` spells it.
    Each distinct float bit pattern of the table is formatted once, so
    ``-0.0`` stays apart from ``0.0``.  Header cells are written as they
    are and must not need quoting.  Columns of unequal length raise
    `ValueError`.
    """
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    n_rows = columns[0].size if columns else 0
    if any(c.shape != (n_rows,) for c in columns):
        raise ValueError(f"{path}: CSV columns must be 1-D and of equal length")
    floats = [c for c in columns if c.dtype.kind == "f"]
    if floats:
        bits = np.concatenate(floats).astype(np.float64, copy=False).view(np.uint64)
        patterns, inverse = np.unique(bits, return_inverse=True)
        values = patterns.view(np.float64)
        # orjson writes repr's text, about ten times faster, except where repr
        # writes an exponent (nonzero |x| outside [1e-4, 1e16)) or nan and
        # inf; those stay with repr.  Float64 magnitudes order as their bit
        # patterns, with inf and nan above every finite one.
        magnitude = patterns & np.uint64(2**63 - 1)
        low, high = np.array([1e-4, 1e16]).view(np.uint64)
        by_repr = (magnitude != 0) & ((magnitude < low) | (magnitude >= high))
        texts = np.empty(patterns.size, dtype=object)
        texts[by_repr] = [repr(v) for v in values[by_repr].tolist()]
        # No value left dumps as b"[]", a lone "" that fills no cell.
        texts[~by_repr] = orjson.dumps(values[~by_repr].tolist())[1:-1].decode().split(",")
        float_cells = iter(texts[inverse].reshape(len(floats), n_rows).tolist())
    cells = [
        next(float_cells) if c.dtype.kind == "f" else list(map(str, c.tolist()))
        for c in columns
    ]
    text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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


def _read_lines(path) -> list[str]:
    """The non-blank lines of a UTF-8 text file, whatever its line ends."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"failed reading CSV {path}: {exc}") from exc
    return [line for line in text.split("\n") if line]


def jsi_from_csv(path) -> Jsi:
    """Load a matrix in the `write_artifact` layout; weights are renormalized.

    The header is ``bin`` and then the idler bin labels; each row is a
    signal bin label and then its cells.  Labels are integers running
    -N..N on both axes.  Cells are parsed by `np.loadtxt`, correctly
    rounded like `float`.  Blank lines are skipped, and CRLF line ends,
    quoted cells and spaces around cells are accepted.  A short or ragged
    row, a non-finite cell or a matrix with no weight raises `ValueError`.
    """
    lines = _read_lines(path)
    header = next(csv.reader(lines[:1]), [])
    if len(lines) < 2 or len(header) < 2 or header[0] != "bin":
        raise ValueError(f"{path}: expected a 'bin'-headed matrix CSV")
    try:
        col_bins = [int(x) for x in header[1:]]
        # Row labels go through `int`, as the column labels do.
        cells = np.loadtxt(
            lines[1:], delimiter=",", quotechar='"', comments=None, ndmin=2, converters={0: int}
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    size = len(col_bins)
    if cells.shape != (size, size + 1):
        rows, cols = cells.shape
        raise ValueError(f"{path}: matrix must be square, got {rows}x{cols - 1}")
    n_max = size // 2
    expected = list(range(-n_max, n_max + 1))
    if col_bins != expected or cells[:, 0].tolist() != expected:
        raise ValueError(f"{path}: bin indices must run -N..N on both axes")
    values = cells[:, 1:]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: matrix cells must be finite")
    total = values.sum()
    if total <= 0.0:
        raise ValueError(f"{path}: matrix has no weight")
    return Jsi(n_max=n_max, values=values / total, normalized=True)


def visibilities_from_csv(path) -> list[tuple[int, float]]:
    """Load ``n,visibility`` rows for a time-bin Schmidt fit; blank lines are skipped.

    Each n may be on one row only.
    """
    rows = list(csv.reader(_read_lines(path)))
    if not rows or [h.strip() for h in rows[0][:2]] != ["n", "visibility"]:
        raise ValueError(f"{path}: expected header 'n,visibility'")
    width = len(rows[0])
    if any(len(r) != width for r in rows[1:]):
        raise ValueError(f"{path}: every row must have the header's {width} cells")
    points, seen = [], set()
    for r in rows[1:]:
        n = int(r[0])
        if n in seen:
            raise ValueError(f"{path}: n={n} is on more than one row")
        seen.add(n)
        points.append((n, float(r[1])))
    return points


def write_artifact(path, value) -> None:
    """Write one artifact in the layout of its type (see docs/formats.md).

    A dict is written as JSON and a str as text; a list holds revival records.
    """
    if isinstance(value, dict):
        export_json(path, value)
    elif isinstance(value, str):
        Path(path).write_text(value, encoding="utf-8")
    elif isinstance(value, HomTrace):
        export_csv(path, ["delay_ps", "coincidence"], [value.delays_ps, value.coincidence])
    elif isinstance(value, Jsi):
        # A header row and a leading column of signal/idler bin indices.
        bins = value.bins
        export_csv(path, ["bin", *map(str, bins.tolist())], [bins, *value.values.T])
    elif isinstance(value, SchmidtSpectrum):
        # n is the bin label if the spectrum has them, else the rank.
        labels = value.bin_indices
        labels = np.arange(value.eigenvalues.size) if labels is None else labels
        export_csv(path, ["n", "eigenvalue"], [labels, value.eigenvalues])
    elif isinstance(value, FringeScan):
        export_csv(path, ["phi2_deg", "counts"], [value.scan_angles_deg, value.counts])
    else:
        fields = ["n", "center_ps", "visibility"]
        export_csv(path, fields, [[getattr(r, f) for r in value] for f in fields])
