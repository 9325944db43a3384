"""Deterministic file output.

All writers go through an atomic replace: content lands in a temp file in
the target directory and is moved into place, so a crash never leaves a
half-written artifact.  Floats are serialised with repr, the shortest
string that round-trips the exact double, which keeps reruns
byte-identical across platforms.  No non-finite float reaches disk:
either writer raises NumericalError, naming the file, before it writes.

JSON payloads are plain Python values (dicts with string keys, lists,
str, int, float, bool, None) handed straight to json.dumps; a numpy
float64 passes as the float subclass it is and is written with the same
repr digits.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError


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
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = [format_value(v) for v in row]
        writer.writerow(cells)
        # csv writes a non-finite float as nan, inf or -inf, so only a row
        # whose line holds one of those needs its cells looked at
        if "nan" in lines[-1] or "inf" in lines[-1]:
            for name, cell in zip(header, cells):
                if isinstance(cell, float) and not math.isfinite(cell):
                    raise NumericalError(f"{path}: column {name!r} holds {cell!r}; nothing written")
    _atomic_write_text(path, "".join(lines))


def write_json(path: Path, payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite float
        raise NumericalError(f"{path}: {exc}; nothing written") from exc
    _atomic_write_text(path, text + "\n")
