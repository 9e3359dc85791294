import numpy as np
import pytest

from clipbias._files import write_csv
from oracles import write_csv_cells

TEXT = ["pass", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " lead", "trail ", "é"]

CASES = {
    "floats": (["x", "y"], [
        np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 2.0 ** 1023]),
        [float("nan"), 1.0, -0.0, 2.5, 1e300, -1e-300, 1e-7, 123456789.125],
    ]),
    "float32": (["x", "y"], [np.array([0.1, np.nan, 3.0], dtype=np.float32),
                             np.array([1.5, -np.inf, 0.0], dtype=np.float16)]),
    "ints": (["n", "m", "u"], [np.array([0, -3, 2 ** 62]), [1, 2, np.int64(3)],
                               np.array([1, 2, 2 ** 64 - 1], dtype=np.uint64)]),
    "objects": (["v", "w"], [[None, 1.5, 7, float("nan"), np.int64(4), "a,b"],
                             [True, None, -0.0, 5e-324, np.float32(0.1), 2 ** 70]]),
    "bools": (["b", "n"], [np.array([True, False]), [True, 3]]),
    "text": (["check", "note"], [TEXT, TEXT[::-1]]),
    "every character": (["c", "d"], [[chr(i) for i in range(1, 128)],
                                     ["x" + chr(i) + "y" for i in range(1, 128)]]),
    "mixed row": (["d", "check"], [[10, 1000], ["pass", ""]]),
    "no rows": (["a", "b"], [np.empty(0), []]),
    "one column": (["x"], [[np.nan, 1.0, None, 2.0]]),
    "one float column": (["x"], [np.array([np.nan, 2.0, np.nan])]),
    "one text column": (["x"], [["", "a", ""]]),
    "blank header": ([""], [np.array([1.0])]),
    "quoted header": (["a,b", 'q"', "line\nbreak"], [[1], [2.0], ["c"]]),
}


@pytest.mark.parametrize("name", CASES)
def test_csv_files_match_the_cell_by_cell_oracle(tmp_path, name):
    header, columns = CASES[name]
    write_csv(tmp_path / "fast.csv", header, columns)
    write_csv_cells(tmp_path / "oracle.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_csv_columns_must_match_the_header():
    with pytest.raises(ValueError, match="2 header names"):
        write_csv("unused.csv", ["a", "b"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="equal-length"):
        write_csv("unused.csv", ["a", "b"], [[1.0, 2.0], [3.0]])
