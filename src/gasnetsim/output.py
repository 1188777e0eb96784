"""Results persistence: long-format CSV series and JSON run summaries."""

from __future__ import annotations

import csv
import json

CSV_HEADER = ("t", "entity", "id", "field", "value")


class SeriesWriter:
    """Incremental CSV writer; flushes after every batch so partial output
    survives interruption.  The file is created by the first batch, so a
    run refused before its first sample leaves none behind."""

    def __init__(self, path):
        self.path = path
        self._fh = None

    def write_rows(self, rows):
        if self._fh is None:
            self._fh = open(self.path, "w", newline="")
            self._writer = csv.writer(self._fh)
            self._writer.writerow(CSV_HEADER)
        for t, entity, entity_id, fieldname, value in rows:
            self._writer.writerow((repr(float(t)), entity, entity_id,
                                   fieldname, repr(float(value))))
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
