"""CSV writing shared by the export paths.

Floats carry 17 significant digits so every float64 round-trips exactly and
repeated runs produce byte-identical files; line endings are pinned to \\n.
Every data row is a fixed run of literal fields followed by bare floats,
which the csv module never quotes, so ``write_rows`` formats each block of
rows from one line template: the bytes are those of ``csv.writer`` applied
to ``fmt`` strings, without a Python call per field.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt(v: float) -> str:
    return format(float(v), ".17g")


def _csv_line(fields: Sequence[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def write_rows(path: str | Path, header: Sequence[str],
               blocks: Iterable[tuple[Sequence[str], np.ndarray]]) -> None:
    """Write the header row, then every row of each ``(lead, table)`` block.

    ``table`` is a 2-D float array (one CSV row per array row) and ``lead``
    the literal fields put before each of its rows. An empty header writes
    no header row.
    """
    with open(path, "w", newline="") as f:
        if header:
            f.write(_csv_line(header))
        for lead, table in blocks:
            table = np.asarray(table, dtype=float)
            # the lead as csv.writer would start the row, "%" kept literal
            prefix = _csv_line([*lead, ""])[:-1].replace("%", "%%") if lead else ""
            line = prefix + ",".join(["%.17g"] * table.shape[1]) + "\n"
            f.writelines(line % tuple(row) for row in table.tolist())
