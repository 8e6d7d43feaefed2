"""Small file-output helpers shared by the CSV and JSON writers."""

from __future__ import annotations

import json
import math
import os

from .errors import CharflowError


def atomic_write_text(path, text):
    """Write text to path through a same-directory temp file and rename.

    Readers never observe a half-written file, and a crash leaves the old
    content in place.  The file gets the mode that ``open(path, "w")``
    gives a new file: 0o666 less the umask.
    """
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    """Write obj as JSON with ``indent=2`` and sorted keys, newline-ended:
    the one form of every summary, JSON table and error record."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_table(path, columns, rows, fmt):
    """Write a table of floats as CSV (repr floats) or JSON.

    The JSON form is ``{"columns": [...], "rows": [[...], ...]}``, written
    by :func:`write_json`.  A non-finite cell, such as a refinement study's
    missing first ratio (NaN) or the ratio over a zero distance (infinity),
    is ``null`` in JSON, which has no token for either, and its ``repr`` in
    CSV.  Both forms round-trip every finite float exactly, so rewriting the
    same table is byte-identical.  A row whose width differs from the
    header's is refused before anything is written.
    """
    for row in rows:
        if len(row) != len(columns):
            raise CharflowError(f"table row has the wrong width: "
                                f"{len(row)} columns, not {len(columns)}")
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(repr(float(x)) for x in row) for row in rows]
        atomic_write_text(path, "\n".join(lines) + "\n")
    else:
        write_json(path, {"columns": list(columns),
                          "rows": [[x if math.isfinite(x) else None
                                    for x in map(float, row)]
                                   for row in rows]})
