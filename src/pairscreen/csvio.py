"""CSV ingestion and serialization.

Input matrices are UTF-8 comma-separated files with one header row and
purely numeric cells; missing values are a hard error (no imputation).
Floats are written with ``repr``, which is exact under round-trip.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import EmptyInput, ParseError

__all__ = ["load_csv_matrix", "write_csv_matrix", "dominant_encode", "format_number"]


def format_number(value) -> str:
    """Round-trip-exact text for a float; integers stay integral."""
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def load_csv_matrix(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read an n x p numeric matrix with its header labels.

    Raises FileNotFoundError, EmptyInput for a file without data rows, and
    ParseError (with 1-based line/column) for ragged rows or non-numeric
    cells.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]  # blank lines skipped
    if not rows:
        raise EmptyInput(f"{path}: file is empty")
    header = tuple(label.strip() for label in rows[0][1])
    if len(rows) == 1:
        raise EmptyInput(f"{path}: header only, no data rows")
    width = len(header)
    data = np.empty((len(rows) - 1, width))
    for r, (i, row) in enumerate(rows[1:]):
        if len(row) != width:
            raise ParseError(f"{path}: line {i} has {len(row)} cells, expected {width}", line=i)
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {i}, column {j + 1}: non-numeric cell {cell.strip()!r}",
                    line=i,
                    col=j + 1,
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"{path}: line {i}, column {j + 1}: non-finite cell {cell.strip()!r}",
                    line=i,
                    col=j + 1,
                )
            data[r, j] = value
    return data, header


def write_csv_matrix(path, matrix, labels) -> None:
    """Write a matrix with a header row; LF line endings, '.' decimals."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or len(labels) != arr.shape[1]:
        raise ValueError("matrix must be 2-D with one label per column")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(labels)
        for row in arr:
            writer.writerow([format_number(v) for v in row])


def dominant_encode(g) -> np.ndarray:
    """Map genotype counts {0, 1, 2} to a carrier indicator {0, 1}."""
    arr = np.asarray(g, dtype=float)
    if not np.isin(arr, (0.0, 1.0, 2.0)).all():
        bad = arr[~np.isin(arr, (0.0, 1.0, 2.0))].flat[0]
        raise ParseError(f"dominant encoding requires entries in {{0, 1, 2}}, got {bad!r}")
    return (arr > 0).astype(float)
