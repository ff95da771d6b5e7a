"""How betlab writes a table cell and a CSV file.

Every cell that the CLI and the scripts print in a text line or a CSV
row follows the rule here; only JSON, which carries full precision, does
not.

A cell is ``NA`` for an undefined value, ``true``/``false`` for a flag, a
float by ``FLOAT``, 12 significant digits (round-half-even), and ``str``
of anything else.  CSV is ``csv.writer``'s default dialect with ``\\n``
line ends.  The long tables (wealth paths, match transcripts) hold only
numbers and letters, which that dialect never quotes, so their writers
join cells made by the same rule (the paths by ``%`` templates around
``FLOAT``) into the same bytes without a writer.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Sequence

FLOAT = "%.12g"


def cell(value: object) -> str:
    """The text of one value, by the rule above."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT % value
    return str(value)


def line(row: Iterable[object]) -> str:
    """A text line: the row's cells joined by single spaces."""
    return " ".join(map(cell, row))


def write_rows(fh: IO[str], rows: Iterable[Sequence[object]]) -> None:
    csv.writer(fh, lineterminator="\n").writerows(map(cell, row) for row in rows)

