"""Runs a job list through ``stormlet.cli.main`` in this process, closed loop.

Usage: python3 perfbench/worker.py JOBS.json SECONDS TRACE OUT.json

One client, no threads: jobs run back to back, and passes over the job
list repeat until SECONDS have elapsed. The first pass warms up and is not
timed. Between jobs, ``speed.probe`` measures how fast the machine runs.
With TRACE=1, untraced and
traced passes alternate, so the tracing overhead is measured in the same
process. This process imports stormlet, the tracer and the speed probe
only (no oracle code). Its peak RSS is read from ``VmHWM``, which counts
from this process's exec; ``ru_maxrss`` would also hold the peak of the
process image before exec, that is the parent that ran the oracles.
"""

import contextlib
import io
import json
import os
import sys
import time

import speed


def peak_rss_kb():
    """Peak resident memory of this process since its exec, in KiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, reported with its type
            code = f"raised {type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "seconds": time.perf_counter() - start}


def run_pass(jobs, main, tracer=None):
    """Run every job once: (seconds, results). Each result carries the mean
    of the speed probes taken just before and just after the job, outside
    every timed region."""
    results = []
    before = speed.probe()
    for job in jobs:
        if tracer is None:
            result = run_job(main, job["argv"])
        else:
            result = tracer.job(run_job, main, job["argv"])
        after = speed.probe()
        result["probe"] = (before + after) / 2
        before = after
        results.append(result)
    return sum(r["seconds"] for r in results), results


def main(argv):
    jobs_path, seconds, trace, out_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    import numpy
    from stormlet import cli, kernels

    if trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    begin = time.perf_counter()
    _, warm = run_pass(jobs, cli.main)
    passes = [{"warmup": True, "traced": False, "results": warm}]
    span_log = []
    while True:
        measured = len(passes) - 1
        if time.perf_counter() - begin >= seconds and measured >= (2 if trace else 1):
            break
        if trace and measured % 2 == 1:
            tracer.install()
            try:
                wall, results = run_pass(jobs, cli.main, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layers = layer_metrics(spans)
            layers["trace.wall_s"] = wall
            passes.append({"warmup": False, "traced": True, "wall": wall, "results": results,
                           "layers": layers})
            span_log.append(spans)
        else:
            wall, results = run_pass(jobs, cli.main)
            passes.append({"warmup": False, "traced": False, "wall": wall, "results": results})
    payload = {
        "backend": kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "peak_rss_kb": peak_rss_kb(),
        "passes": passes,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    if trace:
        with open(os.path.join(os.path.dirname(out_path), "spans.tsv"), "w", encoding="utf-8") as fh:
            fh.write("pass\tname\tstart\tend\tparent\n")
            for k, spans in enumerate(span_log):
                for name, start, end, parent, _ in spans:
                    fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
