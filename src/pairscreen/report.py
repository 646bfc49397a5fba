"""Analysis-report serialization: JSON document plus rejected-pairs CSV."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .pipeline import Dataset, FdrReport

__all__ = ["write_report"]

# A "pairs" or "skipped" record as json.dump(indent=2) lays it out; %r of a
# float is float.__repr__, the text json gives a finite float.
_RECORD = '    {\n      "j": %d,\n      "k": %d,\n      "label_j": %s,\n      "label_k": %s,\n'
_PAIR = _RECORD + '      "t_jk": %r,\n      "rejected": %s\n    }'
_SKIPPED = _RECORD + '      "reason": %s\n    }'


def rejected_csv_path(out_path) -> Path:
    """report.json -> report.rejected.csv alongside it."""
    out = Path(out_path)
    return out.with_name(out.stem + ".rejected.csv")


def _array(template: str, rows):
    """The text of a JSON array of ``template % row`` records, in pieces."""
    sep = "[\n"
    for row in rows:
        yield sep + template % row
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def write_report(report: FdrReport, data: Dataset, out_path) -> Path:
    """Write the JSON report and the rejected-pairs CSV; returns the CSV path.

    The JSON is the text of ``json.dump(..., indent=2)`` of the report: the
    pair records are streamed from a template.  The CSV lists rejected pairs
    sorted by |T_jk| descending.  Floats are serialized with shortest
    round-trip representations, exact for 64-bit values.
    """
    out = Path(out_path)
    csv_path = rejected_csv_path(out)
    res, rej, encode = report.pairs, report.rejected, json.encoder.encode_basestring_ascii
    labels = [encode(data.label(j)) for j in range(data.p)]
    fitted = res.status == ""
    head = {
        "tool": "pairscreen",
        "command": "analyze",
        "family": data.family.name,
        "n": report.n,
        "p": report.p,
        "eta": report.eta,
        "alpha1": report.alpha1,
        "alpha": report.alpha,
        "strict_cutoff": report.strict,
        "t_hat": report.t_hat,
        "t_max": math.sqrt(2.0 * math.log(report.p)),
        "p1": report.p1,
        "m_tested": report.m_tested,
        "omega": report.omega,
        "rejections": report.rejections,
        "skipped_count": int(fitted.size - fitted.sum()),
        "stage1_failed": {str(j): code for j, code in sorted(report.stage1_failed.items())},
    }
    pairs = (
        (j, k, labels[j], labels[k], t, "true" if hit else "false")
        for j, k, t, hit in zip(*(a[fitted].tolist() for a in (res.j, res.k, res.t, rej)))
    )
    skipped = (
        (j, k, labels[j], labels[k], encode(code))
        for j, k, code in zip(*(a[~fitted].tolist() for a in (res.j, res.k, res.status)))
    )
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(head, indent=2)[: -len("\n}")] + ',\n  "pairs": ')
        fh.writelines(_array(_PAIR, pairs))
        fh.write(',\n  "skipped": ')
        fh.writelines(_array(_SKIPPED, skipped))
        fh.write(',\n  "rejected_csv": %s\n}\n' % encode(csv_path.name))
    ranked = sorted(
        zip(res.j[rej].tolist(), res.k[rej].tolist(), res.t[rej].tolist()),
        key=lambda rec: (-abs(rec[2]), rec[0], rec[1]),
    )
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["j", "k", "label_j", "label_k", "t_jk"])
        for j, k, t in ranked:
            writer.writerow([j, k, data.label(j), data.label(k), repr(t)])
    return csv_path
