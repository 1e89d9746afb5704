"""Shared deterministic formatting for CSV/JSON artifacts.

Floats are printed at 12 significant digits with '\n' line endings so
golden files stay byte-identical across runs and platforms.
"""

from __future__ import annotations

import numbers
import os
from typing import Mapping, Optional

__all__ = ["fmt_float", "write_table", "atomic_write_text"]


def fmt_float(x) -> str:
    """x at 12 significant digits ("nan", "inf" and "-inf" as such), or "" for None."""
    return "" if x is None else format(float(x), ".12g")


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _cells(column) -> list[str]:
    """One column's cells, by one formatter for the whole column: text and
    integers as they are, other numbers by fmt_float; None as an empty cell."""
    values = column.tolist() if hasattr(column, "tolist") else list(column)
    kinds = set(map(type, values)) - {type(None)}
    if all(issubclass(kind, (str, numbers.Integral)) for kind in kinds):
        return ["" if v is None else str(v) for v in values]
    return [fmt_float(v) for v in values]


def write_table(path, columns: Mapping[str, object], trailer: Optional[str] = None) -> None:
    """Write ``columns`` (header -> equal-length column) as CSV, then ``trailer`` if given."""
    cells = [_cells(column) for column in columns.values()]
    if len({len(column) for column in cells}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in cells]}")
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    if trailer is not None:
        lines.append(trailer)
    atomic_write_text(path, "\n".join(lines) + "\n")
