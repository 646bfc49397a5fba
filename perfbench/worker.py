"""The process that runs a workload: repeated in-process calls of
``pairscreen.cli.main``.

Usage: ``python3 worker.py SPEC_JSON``, started by ``run.py`` with BLAS
pinned to one thread.  SPEC_JSON holds the source directory, the call
arguments (with ``{out}`` standing for each call's output path), the run
length, whether to trace, and the traced functions the workload should call.
Every call gets its own output path.  With tracing, calls alternate between
untraced and traced.  A ``speed.Probe`` runs reference rounds before and
after every call and, in untraced calls, every ``speed.PERIOD_S`` seconds
inside it; each call records its time less the rounds inside it, and the
mean round time.  The last line of stdout is a JSON record of every call
and the process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from pairscreen import cli, pipeline, simulate  # noqa: E402  (path set above)

    import spans  # noqa: E402
    import speed  # noqa: E402

    tracer = spans.Tracer({"cli": cli, "pipeline": pipeline, "simulate": simulate})
    expects = frozenset(spec["expects"])
    calls = []
    min_calls = 2 if spec["trace"] else 1
    probe = speed.Probe()
    start = time.perf_counter()
    speed.reference(5)  # warm-up
    # Start a call only while it is expected to end within the run length.
    while len(calls) < min_calls or (
        (time.perf_counter() - start) * (len(calls) + 1) / len(calls) <= spec["seconds"]
    ):
        index = len(calls)
        traced = spec["trace"] and index % 2 == 1
        out = spec["out"].format(i=index)
        argv = [out if a == "{out}" else a for a in spec["argv"]]
        first_span = len(tracer.spans)
        error = None
        probe.start(sample=not traced)  # rounds would inflate the spans
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                with tracer.call(index):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        except Exception:  # a raising call counts as failed; the run goes on
            rc, error = None, traceback.format_exc()
        probe.stop()
        wall = time.perf_counter() - wall0 - probe.paused[0]
        cpu = time.process_time() - cpu0 - probe.paused[1]
        ref_wall, ref_cpu = probe.finish()
        record = {"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "ref_wall_s": ref_wall, "ref_cpu_s": ref_cpu,
                  "ref_rounds": len(probe.rounds), "rc": rc, "error": error, "out": out}
        if traced:
            record["layers"], record["missing"] = spans.layer_metrics(
                tracer.spans[first_span:], expects
            )
        calls.append(record)
    if spec["trace"]:
        tracer.write(Path(spec["span_file"]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"calls": calls, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
