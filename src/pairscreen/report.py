"""Analysis-report serialization: JSON document plus rejected-pairs CSV."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .pipeline import Dataset, FdrReport

__all__ = ["write_report"]


def rejected_csv_path(out_path) -> Path:
    """report.json -> report.rejected.csv alongside it."""
    out = Path(out_path)
    return out.with_name(out.stem + ".rejected.csv")


def report_to_dict(report: FdrReport, data: Dataset, rejected_csv: str) -> dict:
    res = report.pairs
    rows = zip(res.j.tolist(), res.k.tolist(), res.t.tolist(), res.status.tolist())
    pairs, skipped = [], []
    for (j, k, t, status), rejected in zip(rows, report.rejected.tolist()):
        rec = {"j": j, "k": k, "label_j": data.label(j), "label_k": data.label(k)}
        if status:
            skipped.append({**rec, "reason": status})
        else:
            pairs.append({**rec, "t_jk": t, "rejected": rejected})
    return {
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
        "skipped_count": len(skipped),
        "stage1_failed": {str(j): code for j, code in sorted(report.stage1_failed.items())},
        "pairs": pairs,
        "skipped": skipped,
        "rejected_csv": rejected_csv,
    }


def write_report(report: FdrReport, data: Dataset, out_path) -> Path:
    """Write the JSON report and the rejected-pairs CSV; returns the CSV path.

    The CSV lists rejected pairs sorted by |T_jk| descending.  Floats are
    serialized with shortest round-trip representations, exact for 64-bit
    values.
    """
    out = Path(out_path)
    csv_path = rejected_csv_path(out)
    doc = report_to_dict(report, data, rejected_csv=csv_path.name)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    res, rej = report.pairs, report.rejected
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
