"""The benchmark scripts run to completion at tiny sizes, and the perfbench
tracer still finds every function it wraps, so neither can rot."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stormlet

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.mark.parametrize("script, args", [
    # bench_kernels asserts every kernel output bit-identical to its reference loop
    pytest.param("bench_kernels.py", ["--sizes", "100", "--repeats", "1"], id="bench_kernels"),
    pytest.param("bench_explicit.py", ["--sizes", "50", "--repeats", "1"], id="bench_explicit"),
    pytest.param("bench_explore.py", ["--caps", "2", "--repeats", "1"], id="bench_explore"),
    pytest.param("bench_graph.py", ["--sizes", "50", "--repeats", "1"], id="bench_graph"),
    # bench_poisson fails if a window's true tail exceeds its epsilon
    pytest.param("bench_poisson.py", ["--rates", "0.5,30", "--epsilons", "1e-18", "--repeats", "1"],
                 id="bench_poisson"),
    pytest.param("bench_solve.py", ["--chains", "20", "--grids", "3", "--gs-states", "50", "--repeats", "1"],
                 id="bench_solve"),
    pytest.param("bench_startup.py", ["--runs", "1"], id="bench_startup"),
])
def test_benchmark_script_runs(script, args):
    src = str(Path(stormlet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(BENCHMARKS / script), *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_perfbench_spans_resolve():
    # ``perfbench/run.py --trace 1`` wraps each of these attributes by name
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = []
    for module, path, _, _ in spans.WRAPPED:
        try:
            owner, attr = spans._resolve(module, path)
            if not callable(getattr(owner, attr)):
                missing.append(f"{module}.{path}")
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    assert missing == []
