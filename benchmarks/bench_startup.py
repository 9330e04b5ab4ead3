#!/usr/bin/env python3
"""Benchmark what a fresh stormlet process pays before and around one check.

Three measures, each taken in fresh interpreters that run with
``PYTHONDONTWRITEBYTECODE=1`` (every module is compiled from source) and
``OPENBLAS_NUM_THREADS=1`` (numpy's thread pool start-up varies with the
machine's load):

- ``import``: the time of ``import stormlet.cli``, measured inside the
  interpreter;
- ``prism``: a one-shot ``P=? [ F "six" ]`` check of ``tests/corpus/die.pm``,
  from process start to exit;
- ``explicit``: the same check on die.pm written by ``--export-model`` into
  a temporary directory and read back with ``--explicit``.

Each ``--src`` is the ``src`` directory of a checkout; the default is this
checkout's. With several, the runs alternate between them in round-robin,
so a drift in machine speed hits each alike. The script prints the median
in ms of each measure per source, with the spread between its quartiles.

Usage: python3 benchmarks/bench_startup.py [--runs 15] [--src DIR ...]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIE = str(ROOT / "tests" / "corpus" / "die.pm")
PROPERTY = 'P=? [ F "six" ]'
IMPORT = "import sys, time; t = time.perf_counter(); import stormlet.cli; print(time.perf_counter() - t)"
CHECK = "import sys; from stormlet.cli import main; sys.exit(main())"


def environment(src):
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}


def one_shot(src, argv):
    """Seconds from starting a CLI process on argv to its exit."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", CHECK, *argv], capture_output=True, text=True,
                            env=environment(src))
    took = time.perf_counter() - start
    if result.returncode != 0 or "Result (state 0): 0.166667" not in result.stdout:
        raise SystemExit(f"check failed under {src}:\n{result.stdout}{result.stderr}")
    return took


def import_time(src):
    result = subprocess.run([sys.executable, "-c", IMPORT], capture_output=True, text=True,
                            env=environment(src), check=True)
    return float(result.stdout)


def quartiles(samples):
    """(median, upper minus lower quartile) in ms."""
    if len(samples) < 2:
        return samples[0] * 1e3, 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2 * 1e3, (q3 - q1) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per measure and source")
    parser.add_argument("--src", action="append", help="a checkout's src directory (repeatable)")
    args = parser.parse_args()
    sources = args.src or [str(ROOT / "src")]

    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", CHECK, "--prism", DIE, "--export-model", tmp, "--prop", PROPERTY],
                       env=environment(sources[0]), check=True, capture_output=True)
        measures = {
            "import": import_time,
            "prism": lambda src: one_shot(src, ["--prism", DIE, "--prop", PROPERTY]),
            "explicit": lambda src: one_shot(
                src, ["--explicit", f"{tmp}/model.tra", f"{tmp}/model.lab", "--prop", PROPERTY]),
        }
        times = {(name, src): [] for name in measures for src in sources}
        for _ in range(args.runs):
            for name, measure in measures.items():
                for src in sources:
                    times[name, src].append(measure(src))

    print(f"{'source':<40} " + " ".join(f"{name + ' ms':>10} {'iqr':>6}" for name in measures))
    for src in sources:
        cells = (quartiles(times[name, src]) for name in measures)
        print(f"{src:<40} " + " ".join(f"{median:>10.1f} {iqr:>6.1f}" for median, iqr in cells))


if __name__ == "__main__":
    main()
