"""Deterministic file output.

All writers go through an atomic replace: content lands in a temp file in
the target directory and is moved into place, so a crash never leaves a
half-written artifact.  Floats are serialised with repr, the shortest
string that round-trips the exact double, which keeps reruns
byte-identical across platforms.

JSON payloads are plain Python values (dicts with string keys, lists,
str, int, float, bool, None) handed straight to json.dumps; a numpy
float64 passes as the float subclass it is and is written with the same
repr digits.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


def format_value(value):
    """A CSV cell for csv.writer, which writes a float by repr and None as
    an empty cell.  Numpy scalars are unwrapped to the Python values whose
    repr the output promises, and booleans are spelled true/false."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _umask() -> int:
    # the umask can only be read by setting it; put it straight back
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _atomic_write_text(path: Path, text: str) -> None:
    # an output path the system refuses (a file where a directory should
    # be, no permission) is a configuration problem: it ends in a one-line
    # ConfigError naming the path, not a traceback
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            # mkstemp creates the file 0600 and os.replace keeps that mode;
            # give it the mode a plain open() would have
            os.fchmod(fd, 0o666 & ~_umask())
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    _atomic_write_text(path, buffer.getvalue())


def write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write_text(path, text + "\n")
