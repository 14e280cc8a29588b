"""The artifact text format, and the only code that writes or parses it.

Every artifact is text with `\\n` line endings.  A line that starts with `#`
is a comment; a `# manifest:` comment holds whitespace-separated key=value
pairs (every value is whitespace-free by construction, so nothing is
escaped).  A table has one header line of comma-separated column names and
then one line per row of comma-separated cells; a number is written as the
shortest repr of its float, so a write/read cycle is lossless, and a string
cell as it is.  Readers skip blank lines.
"""

from __future__ import annotations

import itertools

import numpy as np

_MANIFEST = "# manifest:"


def manifest_line(pairs: dict) -> str:
    """The `# manifest:` comment line of key=value pairs, in the given order."""
    return f"{_MANIFEST} " + " ".join(f"{k}={v}" for k, v in pairs.items())


def write_lines(path, lines) -> None:
    """Write each line followed by `\\n`."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _cell(value) -> str:
    return value if isinstance(value, str) else repr(float(value))


def write_table(path, manifest, header, rows) -> None:
    """Manifest/comment lines, the header, then one line per row.

    Rows are formatted one at a time as they are written, so a large table
    is never held as text.
    """
    body = (",".join(map(_cell, row.tolist() if isinstance(row, np.ndarray) else row))
            for row in rows)
    write_lines(path, itertools.chain(manifest, [",".join(header)], body))


def read_table(path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(manifest pairs, column names, (rows, columns) float data) of a table.

    Raises ValueError for a file without a header and, naming the file and
    line, for a row whose field count differs from the header's.
    """
    manifest: dict[str, str] = {}
    header: list[str] | None = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_MANIFEST):
                    for token in line[len(_MANIFEST):].split():
                        key, eq, value = token.partition("=")
                        if eq:
                            manifest[key] = value
                continue
            fields = line.split(",")
            if header is None:
                header = fields
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}, line {lineno}: {len(fields)} fields "
                                 f"under a header of {len(header)}")
            rows.append([float(v) for v in fields])
    if header is None:
        raise ValueError(f"{path}: no header row")
    return manifest, header, np.array(rows, dtype=float).reshape(len(rows), len(header))
