"""CSV ingestion and the text of output numbers.

Input matrices are UTF-8 comma-separated files, with or without a
byte-order mark, with one header row and purely numeric cells; missing
values and text that is not UTF-8 are a hard error (no imputation).
``load_csv_matrix`` reads a file of one-digit cells (0/1/2 genotype codes)
as bytes, other plain numbers with ``np.loadtxt`` and the rest cell by
cell, the reader that also gives each error its line and column.
``format_number`` writes floats with ``repr``, exact under round-trip.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import warnings
from pathlib import Path

import numpy as np

from .errors import EmptyInput, ParseError

__all__ = ["load_csv_matrix", "dominant_encode", "format_number"]


def format_number(value) -> str:
    """Round-trip-exact text for a number; integers stay integral."""
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


@contextlib.contextmanager
def _open_text(path: Path):
    """The file as text for ``csv.reader``: UTF-8, a leading byte-order mark
    dropped; a byte that is not UTF-8 raises ParseError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason}: {byte:#04x})") from None


def load_csv_matrix(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read an n x p numeric matrix with its header labels.

    Raises FileNotFoundError, EmptyInput for a file without data rows, and
    ParseError (with 1-based line/column) for ragged rows or non-numeric
    cells, or (without them) for text that is not UTF-8.  A file of
    one-digit cells is read as bytes (``_load_digits``); any other has its
    data rows parsed by ``np.loadtxt``, and whatever that rejects or reads
    differently (wrong width, no rows, a non-finite value) is read again
    cell by cell, which gives the error with its line and column and
    accepts the few cells ``float`` takes and ``loadtxt`` does not (quoted
    numbers, digit separators).  All three give the same arrays and labels.
    """
    path = Path(path)
    digits = _load_digits(path)
    if digits is not None:
        return digits
    with _open_text(path) as fh:
        header = next((row for row in csv.reader(fh) if row), None)
        data = None
        if header is not None:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    pass
    if data is None or data.shape[0] == 0 or data.shape[1] != len(header):
        return _load_cell_by_cell(path)
    if not np.isfinite(data).all():  # loadtxt reads inf and nan
        return _load_cell_by_cell(path)
    return data, tuple(label.strip() for label in header)


def _load_digits(path: Path) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """``load_csv_matrix`` for a file of one-digit cells, else None, having
    read no further than the first data row.  The header is UTF-8 with no
    quote, carriage return or NUL (``csv.reader`` refuses NUL before Python
    3.11), which ``csv.reader`` splits at every comma.  Each data row is
    ``width`` digits, each followed by a comma, the last by a line feed.
    """
    with open(path, "rb") as fh:
        head = fh.readline().removeprefix(codecs.BOM_UTF8).removesuffix(b"\n")
        if not head or any(c in head for c in (b'"', b"\r", b"\0")):
            return None
        try:
            labels = tuple(label.strip() for label in head.decode("utf-8").split(","))
        except UnicodeDecodeError:
            return None
        first, width = fh.readline(), len(labels)
        layout = b"," * (width - 1) + b"\n"
        if len(first) != 2 * width or first[1::2] != layout or not first[::2].isdigit():
            return None
        body = np.frombuffer(first + fh.read(), dtype=np.uint8)
    if body.size % (2 * width):
        return None
    cells = body.reshape(-1, 2 * width)
    values = cells[:, 0::2] - ord("0")  # a byte below "0" wraps above 9
    if not ((values <= 9).all() and (cells[:, 1::2] == np.frombuffer(layout, np.uint8)).all()):
        return None
    return values.astype(float), labels


def _load_cell_by_cell(path: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    """``load_csv_matrix`` with one ``float`` call per cell."""
    with _open_text(path) as fh:
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


def dominant_encode(g) -> np.ndarray:
    """Map genotype counts {0, 1, 2} to a carrier indicator {0, 1}."""
    arr = np.asarray(g, dtype=float)
    cells = np.atleast_1d(arr)
    valid = (cells == 0.0) | (cells == 1.0) | (cells == 2.0)
    if not valid.all():
        where = tuple(np.argwhere(~valid)[0])
        col = int(where[-1]) + 1
        raise ParseError(
            "dominant encoding requires entries in {0, 1, 2}, "
            f"got {format_number(cells[where])} in column {col}",
            col=col,
        )
    return (arr > 0).astype(float)
