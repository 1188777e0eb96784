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
    """Incremental CSV writer; flushes after every sample so partial output
    survives interruption.  The file is created by the first write, so a
    run refused before its first sample leaves none behind.

    Rows come out as ``csv.writer`` writes ``(repr(t), entity, id, field,
    repr(value))``.  Each key's quoted text is made once, by ``csv.writer``
    itself, the texts of a key list are joined once per list and ``t`` is
    formatted once per sample.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._keys = _KeyText()
        self._sample_keys = self._texts = None

    def _file(self):
        if self._fh is None:
            self._fh = open(self.path, "w", newline="")
            csv.writer(self._fh).writerow(CSV_HEADER)
        return self._fh

    def write_sample(self, t, keys, values):
        """Write one sample: a row at time ``t`` for each ``(entity, id,
        field)`` of ``keys`` and its value in ``values``, in order.

        ``keys`` is read once per list object, so a caller passing the same
        list again must not have changed it.  A sample whose length differs
        from its keys raises ``ValueError`` before anything is written.
        """
        if keys is not self._sample_keys:
            self._texts = [self._keys[key] for key in keys]
            self._sample_keys = keys
        texts = self._texts
        if len(values) != len(texts):
            raise ValueError(f"a sample of {len(values)} values for "
                             f"{len(texts)} keys")
        fh = self._file()
        t_text = repr(float(t))
        fh.write(t_text + (LINE_END + t_text).join(
            [f"{key}{float(v)!r}" for key, v in zip(texts, values)]) +
            LINE_END)
        fh.flush()

    def write_rows(self, rows):
        """Write ``(t, entity, id, field, value)`` rows, each run of rows
        with equal ``t`` as one sample."""
        self._file()
        for t, sample in itertools.groupby(rows, operator.itemgetter(0)):
            sample = list(sample)
            self.write_sample(t, [row[1:4] for row in sample],
                              [row[4] for row in sample])

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


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
