"""Results persistence: long-format CSV series and JSON run summaries."""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator

CSV_HEADER = ("t", "entity", "id", "field", "value")
LINE_END = csv.excel.lineterminator


class _KeyText(dict):
    """``(entity, id, field)`` -> ``,entity,id,field,`` as ``csv.writer``
    quotes it between two fields that need no quoting, made on first use."""

    def __missing__(self, key):
        buf = io.StringIO()
        csv.writer(buf).writerow(("0", *key, "0"))
        text = self[key] = buf.getvalue()[1:-1 - len(LINE_END)]
        return text


class SeriesWriter:
    """Incremental CSV writer; flushes after every batch so partial output
    survives interruption.  The file is created by the first batch, so a
    run refused before its first sample leaves none behind.

    Rows come out as ``csv.writer`` writes ``(repr(t), entity, id, field,
    repr(value))``.  Each key's quoted text is made once, by ``csv.writer``
    itself, and each run of rows with equal ``t`` (a sample) is formatted
    and written with one call, so a long batch is never held as text whole.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._keys = _KeyText()

    def write_rows(self, rows):
        if self._fh is None:
            self._fh = open(self.path, "w", newline="")
            csv.writer(self._fh).writerow(CSV_HEADER)
        keys, write = self._keys, self._fh.write
        for t, sample in itertools.groupby(rows, operator.itemgetter(0)):
            t_text = repr(float(t))
            write("".join([f"{t_text}{keys[e, i, f]}{float(v)!r}{LINE_END}"
                           for _, e, i, f, v in sample]))
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_series(rows, path) -> None:
    with SeriesWriter(path) as w:
        w.write_rows(rows)


def read_series(path):
    """Load a series CSV back into (t, entity, id, field, value) rows."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for t, entity, entity_id, fieldname, value in reader:
            rows.append((float(t), entity, entity_id, fieldname,
                         float(value)))
    return rows


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
