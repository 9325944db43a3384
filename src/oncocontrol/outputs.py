"""Deterministic file output.

All writers go through an atomic replace: content lands in a temp file in
the target directory and is moved into place, so a crash never leaves a
half-written artifact.  Floats are serialised with repr, the shortest
string that round-trips the exact double, which keeps reruns
byte-identical across platforms.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def format_value(value) -> str:
    # numpy scalars repr as np.float64(...); unwrap before formatting
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _umask() -> int:
    # the umask can only be read by setting it; put it straight back
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        # mkstemp creates the file 0600 and os.replace keeps that mode; give
        # it the mode a plain open() would have
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    _atomic_write_text(path, buffer.getvalue())


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"real": obj.real, "imag": obj.imag}
    if isinstance(obj, Path):
        return str(obj)
    return obj


def write_json(path: Path, payload) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write_text(path, text + "\n")
