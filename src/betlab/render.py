"""How betlab writes a table cell and a CSV file.

Every text line and CSV row that the CLI and the scripts print is made
here; only JSON, which carries full precision, is not.

A cell is ``NA`` for an undefined value, ``true``/``false`` for a flag, a
float with 12 significant digits (round-half-even), and ``str`` of
anything else.  CSV is ``csv.writer``'s default dialect with ``\\n`` line ends.
The long tables (wealth paths, match transcripts) hold only numbers and
letters, which that dialect never quotes, so ``write_columns`` joins
their cells into the same bytes without a writer.
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


def line(row: Iterable[object]) -> str:
    """A text line: the row's cells joined by single spaces."""
    return " ".join(map(cell, row))


def floats(values: Iterable[float]) -> Iterator[str]:
    """Cells of many floats, made as they are read, for the long tables."""
    return map(_FLOAT, values)


def write_rows(fh: IO[str], rows: Iterable[Sequence[object]]) -> None:
    csv.writer(fh, lineterminator="\n").writerows(map(cell, row) for row in rows)


def write_columns(fh: IO[str], columns: Sequence[Iterable[str]]) -> None:
    """Write equal-length columns of finished cells as CSV rows, in one string.

    The cells must need no quoting: no ``,``, ``"`` or line break, and no
    empty cell alone on its row.
    """
    text = "\n".join(map(",".join, zip(*columns)))
    if text:
        fh.write(text + "\n")
