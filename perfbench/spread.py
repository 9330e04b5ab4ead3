"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--seeds 10] [--trace 0] [WORKLOAD ...]

Each run's line gives its fail_ratio and metrics with units. For every
workload and end-to-end metric it then prints the median of the runs
and the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
in BENCHMARK.json. Runs are sequential; each takes ``run_seconds`` plus
set-up.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    failed = False
    backends = set()
    for workload in args.workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            lines = proc.stdout.strip().splitlines()
            backends.update(w.split("=", 1)[1] for w in lines[0].split() if w.startswith("backend="))
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed = True
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"fail_ratio={result['failed'] / result['attempted']:.4g} ({result['failed']}/"
                  f"{result['attempted']}) " + " ".join(f"{n}={m['value']:.5g} {m['unit']}"
                                                        for n, m in result["metrics"].items()
                                                        if n in bounds or args.trace), flush=True)
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            share = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} ({'ok' if share < bound / 3 else 'WIDE'})"
            print(f"{workload} {name}: median {med:.6g} spread {share:.4f} over {len(vals)} runs{note}")
    if len(backends) > 1:
        print(f"runs used different kernel backends {sorted(backends)}: not comparable")
        failed = True
    else:
        print(f"backend: {''.join(backends)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
