"""The text rules of every data file the package writes.

CSV files are written column by column with one cell rule: a missing
value (None or NaN) is a blank cell, an integer is ``str(int)``, a
string is written as it is, and any other real is ``repr(float)``, the
shortest text that parses back to the same double. JSON files are
indented, key-sorted and end in a newline.
"""

import csv
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


def write_csv(path, header, columns):
    """Write ``header`` and then one row per index of the equal-length
    ``columns`` (arrays or sequences), each cell through the cell rule."""
    cells = [[_cell(v) for v in np.asarray(col).tolist()] for col in columns]
    if len(cells) != len(header) or len({len(col) for col in cells}) > 1:
        raise ValueError(f"{len(header)} header names need as many equal-length columns")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def json_text(payload):
    """The text of a JSON file: indented, keys sorted, newline-terminated."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
