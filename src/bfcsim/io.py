"""CSV and JSON persistence for traces, matrices, spectra, and reports."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import orjson

from .hom import HomTrace
from .jsi import Jsi


# orjson writes repr's shortest digits (Ryu) about ten times faster than repr,
# and below 1e-9 and in [1e-4, 1e16) in repr's layout too.  Elsewhere its
# layout differs: 1.5e-7 and 1e16 for repr's 1.5e-07 and 1e+16, 0.0000123
# for 1.23e-05 in [1e-5, 1e-4), and null for nan and inf, which stay with repr.
# Each band starts at a bit pattern: the positive bands by magnitude from +0.0
# (inf and nan last), then the negative ones from -0.0, as np.unique sorts them.
_AS_IS, _EXPONENT, _FIFTH_PLACE, _REPR = range(4)
_BAND_STARTS = np.array(
    [0.0, 1e-9, 1e-5, 1e-4, 1e16, math.inf, -0.0, -1e-9, -1e-5, -1e-4, -1e16, -math.inf]
).view(np.uint64)
_BAND_SPELLING = [_AS_IS, _EXPONENT, _FIFTH_PLACE, _AS_IS, _EXPONENT, _REPR] * 2


def _spell(values: np.ndarray, rule: int) -> list[str]:
    """`repr` of each of one or more floats of one spelling band."""
    if rule == _REPR:
        return [repr(v) for v in values.tolist()]
    text = orjson.dumps(values.tolist())[1:-1]
    if rule == _EXPONENT:
        # The exponents here are -9..-6 or 16 and up: 1.5e-7 -> 1.5e-07, 1e16 -> 1e+16.
        text = text.replace(b"e", b"e+").replace(b"e+-", b"e-0")
    elif rule == _FIFTH_PLACE:
        # Every value is 0.0000d... with a first digit d of 1..9:
        # 0.0000123 -> 1.23e-05, 0.00005 -> 5.e-05 -> 5e-05.
        for digit in b"123456789":
            text = text.replace(b"0.0000" + bytes([digit]), bytes([digit]) + b".")
        text = (text.replace(b",", b"e-05,") + b"e-05").replace(b".e", b"e")
    return text.decode().split(",")


def _repr_cells(floats: list[np.ndarray], n_rows: int):
    """The `repr` text of each cell of the float columns, one list per column.

    Each distinct bit pattern is spelled once, so ``-0.0`` stays apart from ``0.0``.
    """
    bits = np.concatenate(floats).view(np.uint64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    starts = np.searchsorted(patterns, _BAND_STARTS).tolist() + [patterns.size]
    texts = np.empty(patterns.size, dtype=object)
    for rule, start, stop in zip(_BAND_SPELLING, starts, starts[1:]):
        if start < stop:
            texts[start:stop] = _spell(patterns[start:stop].view(np.float64), rule)
    return iter(texts[inverse].reshape(len(floats), n_rows).tolist())


def _float_rows(cells: np.ndarray, n_cols: int) -> np.ndarray:
    """CSV rows of float64 cells laid out row by row, from one `orjson.dumps`.

    The text of the cells is ``[v,v,...,v]``: every n_cols-th comma ends a
    row, and so does the closing bracket.  The bytes are returned as a view,
    without the bracket that opened them.
    """
    text = np.frombuffer(
        bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)), dtype=np.uint8
    )
    commas = np.flatnonzero(text == ord(","))
    text[commas[n_cols - 1 :: n_cols]] = ord("\n")
    text[-1] = ord("\n")
    return text[1:]


def _write(path, kind: str, *chunks) -> None:
    """Write the chunks to the file at `path`; an `OSError` raises `RuntimeError` naming it."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise RuntimeError(f"failed writing {kind} {path}: {exc}") from exc


def export_csv(path, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV under a header line.

    Integer columns are written with `str`, float columns as float64 in the
    shortest form that reads back exactly, spelled as `repr` spells it.  An
    all-float table in orjson's `_AS_IS` bands is written by one `orjson.dumps`
    of its cells row by row; any other table spells each distinct float once.
    Header cells are written as they are and must not need quoting.  Columns
    of unequal length raise `ValueError`.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c.astype(np.float64, copy=False) if c.dtype.kind == "f" else c for c in columns]
    n_rows = columns[0].size if columns else 0
    if any(c.shape != (n_rows,) for c in columns):
        raise ValueError(f"{path}: CSV columns must be 1-D and of equal length")
    floats = [c for c in columns if c.dtype.kind == "f"]
    in_band = len(floats) == len(columns) and all(
        np.all((m < 1e-9) | ((m >= 1e-4) & (m < 1e16))) for m in map(np.abs, floats)
    )
    if n_rows and in_band:
        rows = _float_rows(np.column_stack(floats).ravel(), len(columns))
        data = [(",".join(header) + "\n").encode("utf-8"), rows]
    else:
        float_cells = _repr_cells(floats, n_rows) if floats else None
        cells = [
            next(float_cells) if c.dtype.kind == "f" else list(map(str, c.tolist()))
            for c in columns
        ]
        text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
        data = [text.encode("utf-8")]
    _write(path, "CSV", *data)


def export_json(path, obj) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline as UTF-8."""
    _write(path, "JSON", (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _read_lines(path) -> list[str]:
    """The non-blank lines of a UTF-8 text file, whatever its line ends."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"failed reading CSV {path}: {exc}") from exc
    return [line for line in text.split("\n") if line]


def _json_matrix(rows: list[str]) -> np.ndarray | None:
    """The rows as one float matrix, parsed by one `orjson.loads`, or None.

    None unless every row is a list of JSON numbers, all rows have one
    length and every row label is a JSON integer, which `int` reads alike.
    Numbers are correctly rounded, as `np.loadtxt` rounds them.  A zero cell
    gives None too, since a JSON ``-0`` is the integer 0 and loses its sign.
    """
    text = "[[" + "],[".join(rows) + "]]"
    # Without these characters, a string, literal, object or nested array
    # cannot occur, so every value parsed is a number.
    if any(c in text for c in '"tfn{}') or text.count("[") != len(rows) + 1:
        return None
    try:
        parsed = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    width = len(parsed[0])
    if width == 0 or any(len(r) != width or type(r[0]) is not int for r in parsed):
        return None
    cells = np.array(parsed, dtype=float)
    return cells if cells[:, 1:].all() else None


def jsi_from_csv(path) -> Jsi:
    """Load a matrix in the `write_artifact` layout; its cells are kept as written.

    The header is ``bin`` and then the idler bin labels; each row is a
    signal bin label and then its cells.  Labels are integers running
    -N..N on both axes.  Blank lines are skipped, and CRLF line ends,
    quoted cells and spaces around cells are accepted.  A short or ragged
    row, a non-finite or negative cell or a matrix with no weight raises
    `ValueError`.

    Rows that are JSON numbers (integer labels, no quoted cell, no zero
    cell; the layout `write_artifact` writes) are parsed by one
    `orjson.loads`.  Every other text, such as a quoted cell, ``nan``,
    ``+1``, ``.5``, ``1.``, a ragged row or a float label, is parsed by
    `np.loadtxt`.  Both round correctly, like `float`, so a cell reads
    the same either way.
    """
    lines = _read_lines(path)
    header = next(csv.reader(lines[:1]), [])
    if len(lines) < 2 or len(header) < 2 or header[0] != "bin":
        raise ValueError(f"{path}: expected a 'bin'-headed matrix CSV")
    try:
        col_bins = [int(x) for x in header[1:]]
        cells = _json_matrix(lines[1:])
        if cells is None:
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
    if values.sum() <= 0.0:
        raise ValueError(f"{path}: matrix has no weight")
    try:
        return Jsi(n_max=n_max, values=values)
    except ValueError as exc:  # `Jsi`'s own checks, such as a negative cell
        raise ValueError(f"{path}: {exc}") from exc


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
        try:
            n, v = int(r[0]), float(r[1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if n in seen:
            raise ValueError(f"{path}: n={n} is on more than one row")
        seen.add(n)
        points.append((n, v))
    return points


def write_artifact(path, value) -> None:
    """Write one artifact in the layout of its type (see docs/formats.md).

    A dict is written as JSON and a str as text; a record array is written
    with its field names as the header.
    """
    if isinstance(value, dict):
        export_json(path, value)
    elif isinstance(value, str):
        _write(path, "text", value.encode("utf-8"))
    elif isinstance(value, HomTrace):
        export_csv(path, ["delay_ps", "coincidence"], [value.delays_ps, value.coincidence])
    elif isinstance(value, Jsi):
        # A header row and a leading column of signal/idler bin indices.
        bins = value.bins
        export_csv(path, ["bin", *map(str, bins.tolist())], [bins, *value.values.T])
    else:
        names = list(value.dtype.names)
        export_csv(path, names, [value[f] for f in names])
