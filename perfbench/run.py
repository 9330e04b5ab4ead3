"""The repository benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It writes the workload's input files under ``.bench_work/NAME/``, computes
every reference value with ``oracles.py``, then runs the jobs through
``stormlet.cli.main`` in a worker process for S seconds (closed loop, one
client). Every printed value is checked against its reference. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``). The lines before it
give the same numbers for people, with the run's metadata.

The kernel backend is whatever ``stormlet.kernels`` imports; results of
different backends are not comparable, and every result names its backend.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 15
SPEED_WINDOW = 2
DEADLINE_S = 170  # the whole run, set-up included, ends before this
# the import probe runs after the import, so it loads nothing stormlet would
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import stormlet.cli; "
    "took = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import speed; "
    "print(repr(took), repr(speed.import_probe()))"
)


def _env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root, deadline):
    """Median time to import stormlet.cli, each in a fresh interpreter, at
    nominal speed; and the median as measured."""
    # numpy starts OpenBLAS's thread pool on import. On a shared 2-vCPU
    # machine, starting its second thread cost 0 to 60 ms, depending on what
    # the other vCPU was doing, and moved setup_s by a third from one minute
    # to the next. A one-thread pool takes out that noise and keeps the cost
    # of the imports themselves, numpy's included.
    env = dict(_env(root), OPENBLAS_NUM_THREADS="1")
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], cwd=root, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        took, probe = (float(v) for v in out.stdout.split())
        raw.append(took)
        scaled.append(speed.scale(took, probe, speed.IMPORT_NOMINAL_S))
    return statistics.median(scaled), statistics.median(raw)


def scaled_pass_times(passes):
    """Pass times at nominal speed. Each job is scaled by the median probe of
    the jobs within SPEED_WINDOW of it, in run order: that smooths the
    probe's own noise and still follows drift over a few seconds."""
    probes = [r["probe"] for p in passes for r in p["results"]]
    out, k = [], 0
    for p in passes:
        total = 0.0
        for r in p["results"]:
            window = probes[max(0, k - SPEED_WINDOW): k + SPEED_WINDOW + 1]
            total += speed.scale(r["seconds"], statistics.median(window))
            k += 1
        out.append(total)
    return out


def check_result(job, result):
    """(why the job failed or None, whether that is only a precision miss,
    largest relative error of a float value)."""
    worst = 0.0
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()[-300:]}", False, worst
    try:
        lines = [json.loads(line) for line in result["stdout"].splitlines() if line.strip()]
    except json.JSONDecodeError:
        return "output is not JSON", False, worst
    if len(lines) != len(job.refs):
        return f"{len(lines)} results for {len(job.refs)} properties", False, worst
    miss = None
    for line, (kind, ref) in zip(lines, job.refs):
        values = list(line["values"].values())
        if len(values) != 1:
            return "expected exactly one initial state", False, worst
        value = values[0]
        if kind == "bool":
            if value is not ref:
                return f"{line['property']}: {value} instead of {ref}", False, worst
        elif kind == "exact":
            if not isinstance(value, str) or Fraction(value) != ref:
                return f"{line['property']}: {value} is not the exact value {ref}", False, worst
        else:
            if not isinstance(value, float) or not math.isfinite(value):
                return f"{line['property']}: {value!r} is not a finite float", False, worst
            ref = float(ref)
            err = abs(value - ref) / abs(ref) if ref else abs(value)
            worst = max(worst, err)
            if err > job.precision and miss is None:
                miss = f"{line['property']}: relative error {err:.3g} exceeds precision {job.precision:g}"
    return miss, miss is not None, worst


def run(args):
    root = Path.cwd()
    deadline = time.monotonic() + DEADLINE_S
    if not (root / "src" / "stormlet" / "cli.py").is_file():
        print("perfbench: run from the root of a stormlet checkout (src/stormlet is missing)",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(args.workload, args.seed, work / "inputs", args.scale)
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps([{"name": j.name, "argv": j.argv} for j in jobs]), encoding="utf-8")

    if not args.trace:
        setup_s, setup_raw = measure_setup(root, deadline)
    out_path = work / "worker.json"
    worker = [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(args.seconds),
              "1" if args.trace else "0", str(out_path)]
    proc = subprocess.run(worker, cwd=root, env=_env(root), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        print(f"perfbench: worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}", file=sys.stderr)
        return 3
    data = json.loads(out_path.read_text(encoding="utf-8"))

    attempted = failed = 0
    unexpected = []
    failures = {}
    max_rel_err = 0.0
    for p in data["passes"]:
        for job, result in zip(jobs, p["results"]):
            attempted += 1
            why, precision_miss, err = check_result(job, result)
            max_rel_err = max(max_rel_err, err)
            if why is None:
                continue
            failed += 1
            failures.setdefault(job.name, why)
            # a known defect excuses a bounded precision miss of its own job, nothing else
            if not job.excused(precision_miss, err):
                unexpected.append(f"{job.name}: {why}")

    for p, scaled in zip(data["passes"], scaled_pass_times(data["passes"])):
        p["scaled"] = scaled
    untraced = [p for p in data["passes"] if not p["warmup"] and not p["traced"]]
    traced = [p for p in data["passes"] if p["traced"]]
    meta = (f"backend={data['backend']} python={data['python']} numpy={data['numpy']} "
            f"nproc={os.cpu_count()}")
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} {meta}")
    print(f"  results compare only with runs whose backend is {data['backend']}")

    if args.trace:
        names = sorted(traced[0]["layers"])
        metrics = {n: statistics.fmean(p["layers"][n] for p in traced) for n in names}
        metrics["solvers.max_rel_err"] = max_rel_err
        metrics["trace.overhead_s"] = (statistics.median(p["scaled"] for p in traced)
                                       - statistics.median(p["scaled"] for p in untraced))
        sample = f"mean of {len(traced)} traced passes"
    else:
        metrics = {
            "wall_s": statistics.median(p["scaled"] for p in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
        }
        raw_wall = statistics.median(p["wall"] for p in untraced)
        sample = (f"wall_s: median of {len(untraced)} passes, {raw_wall:.6g} s as measured; "
                  f"setup_s: median of {SETUP_LAUNCHES} imports, {setup_raw:.6g} s as measured")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs; {sample})")
    for name, why in sorted(failures.items()):
        known = next(j.known_defect for j in jobs if j.name == name)
        print(f"  FAILED {name}: {why}" + (f" [known defect: {known}]" if known else ""))

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"meta": meta, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
