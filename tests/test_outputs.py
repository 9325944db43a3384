"""Byte format of the CSV and JSON writers."""

import math

import numpy as np
import pytest

from oncocontrol.errors import NumericalError
from oncocontrol.outputs import write_csv, write_json

FLOATS = [0.1, 0.1 + 0.2, 1.0 / 3.0, 1e-300 / 3.0, 2.5e16, -0.0, 7.0e5]


def test_write_json_writes_numpy_floats_as_floats(tmp_path):
    write_json(tmp_path / "plain.json", {"values": FLOATS, "one": FLOATS[1]})
    write_json(
        tmp_path / "numpy.json",
        {"values": [np.float64(x) for x in FLOATS], "one": np.float64(FLOATS[1])},
    )
    plain = (tmp_path / "plain.json").read_bytes()
    assert (tmp_path / "numpy.json").read_bytes() == plain


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        [np.float64(x) for x in FLOATS],
        [np.bool_(True), np.bool_(False), True, False, None, 3, "a,b"],
    ]
    write_csv(path, [f"c{i}" for i in range(len(FLOATS))], rows)
    assert path.read_text().splitlines() == [
        "c0,c1,c2,c3,c4,c5,c6",
        ",".join(repr(x) for x in FLOATS),
        'true,false,true,false,,3,"a,b"',
    ]


@pytest.mark.parametrize("value", [math.nan, np.float64(-math.inf)], ids=["nan", "-inf"])
def test_non_finite_floats_are_numerical_errors_with_nothing_written(tmp_path, value):
    with pytest.raises(NumericalError, match=r"cells\.csv: column 'c1' holds"):
        write_csv(tmp_path / "cells.csv", ["c0", "c1"], [[1.0, 2.0], ["nan", value]])
    with pytest.raises(NumericalError, match=r"summary\.json: "):
        write_json(tmp_path / "summary.json", {"final": [1.0, value]})
    assert list(tmp_path.iterdir()) == []
