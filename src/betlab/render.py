"""How betlab writes a table cell and a CSV file.

Every text line and CSV row that the CLI and the scripts print is made
here; only JSON, which carries full precision, is not.

A cell is ``NA`` for an undefined value, ``true``/``false`` for a flag, a
float with 12 significant digits (round-half-even), and ``str`` of
anything else.  CSV is ``csv.writer``'s default dialect with ``\\n`` line ends.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Iterator, Sequence

_FLOAT = "{:.12g}".format


def cell(value: object) -> str:
    """The text of one value, by the rule above."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT(value)
    return str(value)


def floats(values: Iterable[float]) -> Iterator[str]:
    """Cells of many floats, made as they are read, for the long tables."""
    return map(_FLOAT, values)


def csv_writer(fh: IO[str]):
    return csv.writer(fh, lineterminator="\n")


def write_rows(fh: IO[str], rows: Iterable[Sequence[object]]) -> None:
    csv_writer(fh).writerows(map(cell, row) for row in rows)
