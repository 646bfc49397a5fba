"""Output checks for every timed call.

At any seed, an ``analyze`` report must validate against the report schema,
mark as rejected exactly the pairs with ``|T| >= t_hat``, account for
``M = p1 (p1 - 1) / 2`` pairs, and satisfy the cutoff condition
``G(t_hat) M / max(R(t_hat), 1) <= eta`` (or sit at the ``sqrt(2 log p)``
cap) with no smaller order statistic satisfying it.  ``G`` comes from
``scipy.special.ndtr``, independent of the program's own normal code.  A
``simulate`` CSV must have its documented shape, no failed replicate, and
aggregate rows that are the means of its replicate rows.

At the default seed both are also compared with the reference stored under
``reference/``: same rejection set, skip codes and stage-1 failures and
``|dT| <= 1e-8`` for ``analyze``; metric cells within 1e-8 and identical
text cells for ``simulate``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy.special import ndtr

TOL = 1e-8
SIM_COLUMNS = [
    "alpha1", "b", "rep", "fdp", "power", "omega", "p1", "t_hat", "rejections",
    "seed", "error", "fdp_se", "power_se", "power_reps", "failed_reps",
]


def _tail(t):
    return 2.0 * ndtr(-np.asarray(t, dtype=float))


def check_report(path: Path, schema: dict, eta: float) -> list[str]:
    """Problems found in one ``analyze`` report (empty when it is correct)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    problems = []
    p1, m = doc["p1"], doc["m_tested"]
    if m != p1 * (p1 - 1) // 2:
        problems.append(f"m_tested {m} != p1(p1-1)/2 for p1={p1}")
    if len(doc["pairs"]) + len(doc["skipped"]) != m:
        problems.append("pairs + skipped do not add up to m_tested")
    t_hat, t_max = doc["t_hat"], math.sqrt(2.0 * math.log(doc["p"]))
    abs_t = np.array([abs(rec["t_jk"]) for rec in doc["pairs"]])
    flags = np.array([rec["rejected"] for rec in doc["pairs"]], dtype=bool)
    if not np.array_equal(flags, abs_t >= t_hat):
        problems.append("rejected flags differ from {|T| >= t_hat}")
    if doc["rejections"] != int(flags.sum()):
        problems.append("rejections count differs from the rejected flags")
    if abs(doc["t_max"] - t_max) > 1e-12:
        problems.append(f"t_max {doc['t_max']} != sqrt(2 log p) = {t_max}")

    sorted_t = np.sort(abs_t)

    def ratio(t):  # G(t) M / max(R(t), 1) with R(t) = #{|T| >= t}
        r = sorted_t.size - np.searchsorted(sorted_t, t, side="left")
        return _tail(t) * m / np.maximum(r, 1)

    if m > 0 and t_hat < t_max - 1e-12 and ratio(t_hat) > eta * (1 + 1e-9):
        problems.append(f"cutoff condition fails at t_hat={t_hat}")
    below = np.concatenate(([0.0], np.unique(abs_t[abs_t < t_hat])))
    if m > 0 and t_hat > 0 and (ratio(below) <= eta * (1 - 1e-9)).any():
        problems.append("a smaller cutoff satisfies the condition")
    rejected_csv = Path(path).with_name(doc["rejected_csv"])
    with open(rejected_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    listed = {(int(r["j"]), int(r["k"])) for r in rows}
    if len(rows) != len(listed) or listed != {
        (rec["j"], rec["k"]) for rec in doc["pairs"] if rec["rejected"]
    }:
        problems.append("rejected CSV does not list the rejected pairs")
    return problems


def report_reference(path: Path) -> dict:
    """What a stored ``analyze`` reference keeps of a report."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        "t_hat": doc["t_hat"],
        "p1": doc["p1"],
        "m_tested": doc["m_tested"],
        "stage1_failed": doc["stage1_failed"],
        "skipped": sorted([s["j"], s["k"], s["reason"]] for s in doc["skipped"]),
        "rejected": sorted([r["j"], r["k"]] for r in doc["pairs"] if r["rejected"]),
        "pairs": [[r["j"], r["k"], r["t_jk"]] for r in doc["pairs"]],
    }


def compare_report(path: Path, reference: dict) -> list[str]:
    got = report_reference(path)
    problems = [
        f"{key} differs from the reference"
        for key in ("p1", "m_tested", "stage1_failed", "skipped", "rejected")
        if got[key] != reference[key]
    ]
    if abs(got["t_hat"] - reference["t_hat"]) > TOL:
        problems.append(f"t_hat {got['t_hat']} vs reference {reference['t_hat']}")
    got_t = {(j, k): t for j, k, t in got["pairs"]}
    ref_t = {(j, k): t for j, k, t in reference["pairs"]}
    if got_t.keys() != ref_t.keys():
        problems.append("tested pairs differ from the reference")
    else:
        worst = max((abs(got_t[key] - ref_t[key]) for key in ref_t), default=0.0)
        if worst > TOL:
            problems.append(f"max |dT| = {worst:.3g} > {TOL}")
    return problems


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_simulate(path: Path, p: int, alpha1: list[float], reps: int, seed: int) -> list[str]:
    """Problems found in one ``simulate`` metrics CSV."""
    rows = _rows(path)
    if not rows or rows[0] != SIM_COLUMNS:
        return ["metrics CSV header differs from the documented columns"]
    body = [dict(zip(SIM_COLUMNS, row)) for row in rows[1:]]
    per_rep = [r for r in body if r["rep"] != "mean"]
    means = [r for r in body if r["rep"] == "mean"]
    if len(per_rep) != reps * len(alpha1) or len(means) != len(alpha1):
        return [f"expected {reps * len(alpha1)} replicate rows and {len(alpha1)} mean rows"]
    problems = []
    t_max = math.sqrt(2.0 * math.log(p))
    for r in per_rep:
        if r["error"]:
            problems.append(f"replicate {r['rep']} at alpha1={r['alpha1']} failed: {r['error']}")
            continue
        p1 = int(r["p1"])
        omega = (2 * p + p1 * (p1 - 1)) / (p * (p - 1))
        if int(r["seed"]) != seed + int(r["rep"]):
            problems.append(f"replicate {r['rep']} has seed {r['seed']}")
        if not (0 <= float(r["fdp"]) <= 1 and 0 <= p1 <= p and 0 <= float(r["t_hat"]) <= t_max):
            problems.append(f"replicate {r['rep']} has out-of-range metrics")
        if r["power"] and not 0 <= float(r["power"]) <= 1:
            problems.append(f"replicate {r['rep']} has power outside [0, 1]")
        if abs(float(r["omega"]) - omega) > 1e-12:
            problems.append(f"replicate {r['rep']} omega {r['omega']} != {omega}")
    for mean_row in means:
        cell = [r for r in per_rep if r["alpha1"] == mean_row["alpha1"] and not r["error"]]
        for col in ("fdp", "omega", "p1", "t_hat", "rejections"):
            expect = sum(float(r[col]) for r in cell) / max(len(cell), 1)
            if abs(float(mean_row[col]) - expect) > 1e-9 * max(1.0, abs(expect)):
                problems.append(f"mean {col} at alpha1={mean_row['alpha1']} is not the mean")
    return problems


def simulate_reference(path: Path) -> dict:
    return {"rows": _rows(path)}


def compare_simulate(path: Path, reference: dict) -> list[str]:
    got, ref = _rows(path), reference["rows"]
    if len(got) != len(ref) or any(len(a) != len(b) for a, b in zip(got, ref)):
        return ["metrics CSV shape differs from the reference"]
    problems = []
    for line, (row, ref_row) in enumerate(zip(got, ref), start=1):
        for col, a, b in zip(SIM_COLUMNS, row, ref_row):
            try:
                close = abs(float(a) - float(b)) <= TOL
            except ValueError:  # text cells (header, "mean", error codes) match exactly
                close = a == b
            if not close:
                problems.append(f"line {line} column {col}: {a!r} vs reference {b!r}")
    return problems
