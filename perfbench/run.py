"""pairscreen benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/pairscreen`` and
``docs/report.schema.json`` must be there).  The run draws the workload's
inputs from the seed, then starts one worker process that calls
``pairscreen.cli.main`` in-process again and again for S seconds, with
``--workers 1`` and BLAS pinned to one thread.  Every call's output is
checked (see ``check.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over the run's calls: ``wall_s``, ``cpu_s``, ``peak_rss_mb`` of
the worker, and ``setup_s``, the median time from starting a fresh
interpreter to ``import pairscreen`` done.  Times are scaled to a fixed
host speed by the reference rounds of ``speed.py``, run before, during and
after each call on the same CPU; the raw medians are printed on the line
before.  With ``--trace 1`` calls
alternate untraced and traced, and the last line reports the per-layer
metrics of ``spans.py`` (medians over traced calls) and
``trace.overhead_frac``.  Lines before it give the machine record, the
failed fraction, missing layer metrics and the span file.  Everything the
run writes goes under ``.perfbench_run/`` in the checkout.

``--write-reference`` stores the default-seed outputs that later runs are
compared with; ``--tiny`` shrinks the inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS reads these when numpy is first imported, here and in every child.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, job_argv, write_inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report.schema.json"
REFERENCE_DIR = BENCH_DIR / "reference"
SETUP_SAMPLES = 11
SETUP_ROUNDS = 4  # reference rounds between two set-up starts
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's default-seed output as the reference")
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def measure_setup(samples: int) -> tuple[float, float]:
    """Median seconds from starting an interpreter to ``import pairscreen``
    done, after one unmeasured start that compiles the bytecode caches:
    scaled to the reference speed, and raw.  Reference rounds run between
    the starts."""
    code = "import pairscreen, time; print(time.perf_counter())"
    times, refs = [], [speed.reference(SETUP_ROUNDS)[0]]
    for _ in range(samples + 1):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout) - start)
        refs.append(speed.reference(SETUP_ROUNDS)[0])
    scaled = [t * 2 * speed.REFERENCE_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def scaled(calls: list[dict], kind: str) -> float:
    """Median over calls of the call's ``kind`` seconds at the reference speed."""
    return statistics.median(
        c[f"{kind}_s"] * speed.REFERENCE_S / c[f"ref_{kind}_s"] for c in calls
    )


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        model = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        model = platform.processor() or "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "workers": 1,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run_worker(spec: dict) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"worker exited with {out.returncode}:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def check_call(workload, record, seed, size, reference, schema) -> list[str]:
    if record["rc"] != 0:
        return [f"call {record['index']} returned {record['rc']}: {record['error'] or ''}"]
    out = Path(record["out"])

    def option(flag):
        return workload.options[workload.options.index(flag) + 1]

    if workload.command == "analyze":
        problems = check.check_report(out, schema, float(option("--eta")))
        if reference is not None:
            problems += check.compare_report(out, reference)
    else:
        alpha1 = [float(a) for a in option("--alpha1").split(",")]
        problems = check.check_simulate(out, size["p"], alpha1, size["reps"], seed)
        if reference is not None:
            problems += check.compare_simulate(out, reference)
    return [f"call {record['index']}: {msg}" for msg in problems]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pairscreen" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no pairscreen source checkout at {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.tiny if args.tiny else workload.full
    run_dir = ROOT / ".perfbench_run" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    speed.pin_to_one_cpu()

    inputs = write_inputs(workload, args.seed, size, run_dir)
    suffix = ".json" if workload.command == "analyze" else ".csv"
    spec = {
        "src": str(SRC),
        "argv": job_argv(workload, args.seed, size, inputs, "{out}"),
        "out": str(run_dir / f"call-{{i}}{suffix}"),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "expects": sorted(workload.expects),
        "span_file": str(run_dir / "spans.csv"),
    }
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(SETUP_SAMPLES)
    result = run_worker(spec)
    calls = result["calls"]

    ref_path = REFERENCE_DIR / f"{workload.name}.json"
    use_reference = args.seed == DEFAULT_SEED and not args.tiny
    if args.write_reference:
        if not use_reference:
            print("error: references are stored at the default seed and full size",
                  file=sys.stderr)
            return 2
        out = Path(calls[0]["out"])
        if workload.command == "analyze":
            ref = check.report_reference(out)
        else:
            ref = check.simulate_reference(out)
        ref_path.write_text(json.dumps(ref, indent=0) + "\n", encoding="utf-8")
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if use_reference else None

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    problems = []
    failed = 0
    for record in calls:
        found = check_call(workload, record, args.seed, size, reference, schema)
        failed += bool(found)
        problems += found
    for msg in problems:
        print(f"check failed: {msg}")

    machine = machine_record()
    print("machine: " + json.dumps(machine))
    print(f"fail_frac: {failed / len(calls):.4f} ({failed} of {len(calls)} calls)")
    if args.trace:
        traced = [c for c in calls if c["traced"]]
        untraced = [c for c in calls if not c["traced"]]
        missing = sorted({name for c in traced for name in c["missing"]})
        if missing:
            print("missing: traced functions not called: " + ", ".join(missing))
        metrics = {}
        for name in spans.PER_LAYER[:-1]:
            values = [c["layers"][name] for c in traced if name in c["layers"]]
            if len(values) == len(traced):
                metrics[name] = {"value": statistics.median(values), "unit": spans.unit(name)}
        overhead = scaled(traced, "wall") / scaled(untraced, "wall") - 1.0
        metrics[spans.OVERHEAD] = {"value": overhead, "unit": spans.unit(spans.OVERHEAD)}
        print(f"span_file: {spec['span_file']} ({len(traced)} traced calls)")
        print("self_s: " + ", ".join(
            f"{layer} {metrics[layer + '.self_s']['value']:.4f}"
            for layer in spans.LAYERS if layer + ".self_s" in metrics
        ))
    else:
        print("raw: " + json.dumps({
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "cpu_s": statistics.median(c["cpu_s"] for c in calls),
            "setup_s": raw_setup_s,
            "reference_s": statistics.median(c["ref_wall_s"] for c in calls),
        }))
        values = {
            "wall_s": scaled(calls, "wall"),
            "cpu_s": scaled(calls, "cpu"),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "calls": calls, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
