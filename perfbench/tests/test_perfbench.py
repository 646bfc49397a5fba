"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

Each workload runs at its tiny size, traced and untraced, and must print
every metric that BENCHMARK.json names, with its unit.  The output checks
must reject a report with one rejection flipped.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                    "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert "machine: " in out.stdout
    if trace == "0":
        assert "raw: " in out.stdout


def test_times_are_scaled_by_the_reference_around_each_call():
    # The same work timed at half speed (reference twice its nominal time)
    # scales to the same seconds as at full speed.
    ref = speed.REFERENCE_S
    calls = [
        {"wall_s": 2.0, "ref_wall_s": 2 * ref},
        {"wall_s": 1.0, "ref_wall_s": ref},
        {"wall_s": 3.0, "ref_wall_s": ref},
    ]
    assert run.scaled(calls, "wall") == pytest.approx(1.0)


def test_probe_samples_inside_a_call_and_reports_the_pause():
    probe = speed.Probe()
    probe.start(sample=True)
    start = time.perf_counter()
    while time.perf_counter() - start < 3 * speed.PERIOD_S:
        pass
    probe.stop()
    inside = len(probe.rounds) - 1
    assert inside >= 2
    assert probe.paused[0] == pytest.approx(sum(r[0] for r in probe.rounds[1:]))
    wall, cpu = probe.finish()
    assert len(probe.rounds) == inside + 2 and wall > 0 and cpu > 0
    # Once stopped, the probe adds no rounds.
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.rounds) == inside + 2


def test_flipped_rejection_fails_the_output_check(tmp_path):
    out = run_bench("--workload", "analyze-logistic-continuous", "--seed", "3",
                    "--seconds", "0.2", "--tiny")
    assert out.returncode == 0, out.stderr
    run_dir = ROOT / ".perfbench_run" / "analyze-logistic-continuous"
    report = tmp_path / "report.json"
    shutil.copy(run_dir / "call-0.json", report)
    shutil.copy(run_dir / "call-0.rejected.csv", tmp_path / "report.rejected.csv")
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["rejected_csv"] = "report.rejected.csv"
    report.write_text(json.dumps(doc), encoding="utf-8")
    schema = json.loads((ROOT / "docs" / "report.schema.json").read_text(encoding="utf-8"))
    assert check.check_report(report, schema, 0.05) == []
    reference = check.report_reference(report)

    doc["pairs"][0]["rejected"] = not doc["pairs"][0]["rejected"]
    report.write_text(json.dumps(doc), encoding="utf-8")
    assert check.check_report(report, schema, 0.05)
    assert "rejected differs from the reference" in check.compare_report(report, reference)


def test_changed_simulate_cell_fails_the_reference_comparison(tmp_path):
    rows = [check.SIM_COLUMNS, ["0", "0.4", "0", "0.25"] + [""] * 11]
    path = tmp_path / "metrics.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    reference = check.simulate_reference(path)
    assert check.compare_simulate(path, reference) == []
    rows[1][10] = "SINGULAR_DESIGN"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    assert check.compare_simulate(path, reference)


def test_inputs_are_byte_identical_for_a_seed(tmp_path):
    for name in ("analyze-logistic-continuous", "analyze-dominant-wide"):
        w = WORKLOADS[name]
        texts = []
        for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
            (tmp_path / sub).mkdir()
            paths = write_inputs(w, seed, w.tiny, tmp_path / sub)
            texts.append(paths["x"].read_bytes() + paths["y"].read_bytes())
            shutil.rmtree(tmp_path / sub)
        assert texts[0] == texts[1] != texts[2]


def test_uncalled_function_is_reported_missing_not_zero():
    # One call that reached stage 2 without going through fit_glm, and whose
    # second CSV load raised.
    fake = [
        (0, 3, 0, "load_csv_matrix", 0.0, 0.1, 12),
        (0, 4, 0, "load_csv_matrix", 0.1, 0.2, "PARSE_ERROR"),
        (0, 1, 0, "stage2_tests", 0.0, 1.0, None),
        (0, 2, 0, "fdr_cutoff", 1.0, 1.1, (10, 10)),
        (0, 0, -1, spans.ROOT, 0.0, 1.2, None),
    ]
    metrics, missing = spans.layer_metrics(fake, WORKLOADS["analyze-logistic-continuous"].expects)
    assert "fit_glm" in missing
    assert "glm.fit_s" not in metrics and "glm.fit_calls" not in metrics
    assert metrics["pipeline.stage2_s"] == 1.0
    assert metrics["csvio.cells"] == 12
    assert metrics["simulate.gen_s"] == 0  # simulate functions do not apply to analyze


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench("--workload", "analyze-logistic-continuous", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
