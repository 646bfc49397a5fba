"""The report writer's bytes against a frozen copy of the dict-and-json.dump
writer it replaced.

``write_report`` fills a template per pair; the document must stay the one
that ``json.dump(..., indent=2)`` writes for the report as a dict, byte for
byte, and so must the rejected-pairs CSV.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairscreen import GAUSSIAN, LOGISTIC, Dataset, FdrReport, PairTestResult
from pairscreen.report import rejected_csv_path, write_report


def frozen_report_to_dict(report, data, rejected_csv):
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


def frozen_write_report(report, data, out_path):
    out = Path(out_path)
    csv_path = rejected_csv_path(out)
    doc = frozen_report_to_dict(report, data, rejected_csv=csv_path.name)
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


LABEL_CHARS = st.sampled_from(
    ['"', "\\", "/", " ", "é", "中", "\U0001f600", "\x00", "\x1f", "\t", "\u2028", "\u2029"]
)
# Dataset takes only labels that encode as UTF-8: no lone surrogates
LABELS = st.text(alphabet=st.one_of(LABEL_CHARS, st.characters(codec="utf-8")), max_size=6)
EDGE_T = [5e-324, 1.7976931348623157e308, -0.0, 1e16, 1e-7, -1.7976931348623157e308]
T_VALUES = st.sampled_from(EDGE_T) | st.floats(allow_nan=False, allow_infinity=False)
CODES = ["", "", "SINGULAR_DESIGN", "SEPARATION", "DEGENERATE_VARIANCE", "NOT_CONVERGED"]


@st.composite
def reports(draw):
    p = draw(st.integers(2, 6))
    labels = draw(st.none() | st.lists(LABELS, min_size=p, max_size=p).map(tuple))
    family = draw(st.sampled_from([GAUSSIAN, LOGISTIC]))
    data = Dataset(x=np.zeros((6, p)), y=np.zeros(6), family=family, labels=labels)
    jj, kk = np.triu_indices(p, 1)
    kept = np.array(draw(st.lists(st.booleans(), min_size=jj.size, max_size=jj.size)), dtype=bool)
    jj, kk = jj[kept], kk[kept]  # none, some or all of the pairs
    status = np.array(draw(st.lists(st.sampled_from(CODES), min_size=jj.size, max_size=jj.size)))
    status = status.astype(object)
    t = np.array(draw(st.lists(T_VALUES, min_size=jj.size, max_size=jj.size)), dtype=float)
    t[status != ""] = np.nan
    hit = np.array(draw(st.lists(st.booleans(), min_size=jj.size, max_size=jj.size)), dtype=bool)
    failed = draw(st.dictionaries(st.integers(0, p - 1), st.sampled_from(CODES[2:]), max_size=2))
    report = FdrReport(
        t_hat=draw(st.floats(0.0, 10.0)),
        eta=draw(st.floats(0.001, 0.999)),
        alpha=draw(st.floats(0.0, 5.0)),
        alpha1=draw(st.floats(0.0, 5.0)),
        m_tested=int(jj.size),
        p1=p,
        p=p,
        n=6,
        omega=draw(st.floats(0.0, 1.0)),
        pairs=PairTestResult(j=jj, k=kk, t=t, status=status),
        rejected=hit & (status == ""),
        stage1_failed=failed,
        strict=draw(st.booleans()),
    )
    return report, data


@settings(max_examples=300, deadline=None)
@given(case=reports(), name=st.sampled_from(["report.json", 'a"b é.json']))
def test_same_bytes_as_the_dict_writer(case, name):
    report, data = case
    with tempfile.TemporaryDirectory() as tmp:
        got_dir, want_dir = Path(tmp, "got"), Path(tmp, "want")
        got_dir.mkdir()
        want_dir.mkdir()
        got_csv = write_report(report, data, got_dir / name)
        want_csv = frozen_write_report(report, data, want_dir / name)
        assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes()
        assert got_csv.name == want_csv.name
        assert got_csv.read_bytes() == want_csv.read_bytes()


@pytest.mark.parametrize("label", ["\ud800", 7, None, b"x"])
def test_dataset_refuses_labels_the_report_cannot_write(label):
    # a lone surrogate cannot be written as UTF-8, nor a non-str label as JSON text
    with pytest.raises(ValueError, match="labels must be strings that encode as UTF-8"):
        Dataset(x=np.zeros((6, 2)), y=np.zeros(6), family=GAUSSIAN, labels=("a", label))
