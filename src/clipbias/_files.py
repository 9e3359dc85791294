"""The text rules of every data file the package writes.

CSV files are written column by column with one cell rule: a missing
value (None or NaN) is a blank cell, an integer is ``str(int)``, a
string is written as it is, and any other real is ``repr(float)``, the
shortest text that parses back to the same double. A float or integer
column is formatted in one pass over its ``tolist()``; any other column
goes cell by cell. Text is quoted as the ``csv`` module's default dialect
quotes it (a cell holding a comma, a quote or a line break, and the lone
cell of a one-column row when it is blank), and rows end in ``\\r\\n``.
JSON files are indented, key-sorted and end in a newline.
"""

import json

import numpy as np


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if value is None or value != value:
        return ""
    return repr(float(value))


def _quote(text):
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values):
    """The cells of one column through the cell rule."""
    col = np.asarray(values)
    if col.dtype.kind == "f":
        cells = list(map(float.__repr__, col.astype(float, copy=False).tolist()))
        for i in np.flatnonzero(np.isnan(col)).tolist():
            cells[i] = ""
        return cells
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    return [_quote(_cell(v)) for v in col.tolist()]


def write_csv(path, header, columns):
    """Write ``header`` and then one row per index of the equal-length
    ``columns`` (arrays or sequences), each cell through the cell rule."""
    cells = [_column(col) for col in columns]
    if len(cells) != len(header) or len({len(col) for col in cells}) > 1:
        raise ValueError(f"{len(header)} header names need as many equal-length columns")
    lines = [",".join(map(_quote, header)), *map(",".join, zip(*cells))]
    if len(header) == 1:  # csv quotes a lone blank cell, so its row is not empty
        lines = [line or '""' for line in lines]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def json_text(payload):
    """The text of a JSON file: indented, keys sorted, newline-terminated."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
