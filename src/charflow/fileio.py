"""Small file-output helpers shared by the CSV and JSON writers."""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path, text):
    """Write text to path through a same-directory temp file and rename.

    Readers never observe a half-written file, and a crash leaves the old
    content in place.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path, columns, rows, fmt):
    """Write a table of floats as CSV (repr floats) or JSON.

    The JSON form is ``{"columns": [...], "rows": [[...], ...]}`` with
    ``indent=2`` and sorted keys.  Both forms round-trip every float
    exactly, so rewriting the same table is byte-identical.
    """
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(repr(float(x)) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"columns": list(columns),
                           "rows": [list(map(float, row)) for row in rows]},
                          indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, text)
