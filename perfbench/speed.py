"""A fixed pure-Python probe of how fast the machine runs right now.

On a shared host the interpreter's speed drifts by a third within a minute,
as other tenants load the cores, caches and memory bus. Times taken with
this probe beside them are scaled to a nominal speed:

    scaled = measured * NOMINAL_S / probe()

so a run made while the machine is slow reads about the same as one made
while it is fast, and a change in the program still shows. The probe uses
no stormlet code, only the kinds of operation stormlet's pure-Python paths
spend their time on: dict, attribute and call traffic, element-wise loops
over numpy arrays, Fraction arithmetic on small and on large operands,
whole-array numpy calls, and splitting and parsing text. Workloads weight
these differently; on the machine below, the sum of all six tracked every
workload's slowdowns better than any one part or smaller mix.

Import times (``setup_s``) follow that probe poorly. They are scaled by
``import_probe``, which times importing standard-library modules in the
same fresh interpreter, right after stormlet.cli.
"""

import time
from fractions import Fraction

import numpy as np

# about what probe() takes on a quiet 2-vCPU x86-64 virtual machine (Python 3.11)
NOMINAL_S = 0.015


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _step(cell, i):
    cell.value = (cell.value * 31 + i) % 1000003
    return cell.value


def _objects():
    """Dict, attribute and call traffic, as in exploration and parsing."""
    table = {}
    cells = [_Cell(i) for i in range(64)]
    for i in range(6000):
        key = (i % 101, i & 7)
        table[key] = table.get(key, 0) + _step(cells[i & 63], i)
    return len(table)


def _elements(values, cols, x):
    """Element-wise loop over numpy arrays, as in the pure-Python kernels."""
    acc = 0.0
    for k in range(len(values)):
        acc += values[k] * x[cols[k]]
    return acc


def _rationals():
    """Fraction arithmetic with growing operands, as in exact mode."""
    x = Fraction(1, 3)
    for i in range(360):
        x = x * Fraction(431, 1000) + Fraction(1, 7)
        if i % 40 == 39:
            x = Fraction(1, 3)
    return x


def _bigint():
    """Fraction arithmetic whose operands grow to hundreds of digits."""
    x = Fraction(1, 3)
    for _ in range(200):
        x = x * Fraction(431, 1000) + Fraction(1, 7)
    return x


def _vectors(values, cols, x):
    """Whole-array numpy calls on small arrays, as in graph precomputation."""
    hit = x > 0.5
    for _ in range(50):
        cum = np.cumsum(hit[cols % len(x)], dtype=np.int64)
        hit = hit | (cum[: len(x)] % 3 == 0)
    return int(hit.sum())


def _text(lines):
    """Splitting and number parsing, as in the explicit-format reader."""
    rows = {}
    for line in lines:
        a, b, v = line.split()
        rows[(int(a), int(b))] = float(v)
    return len(rows)


def probe(repeat=2):
    """Seconds the probe takes now: the sum over its parts of the fastest of
    ``repeat`` runs of each, so an interrupt during one run does not count
    as a slow machine."""
    rng = np.random.default_rng(0)
    arrays = (rng.random(6000), rng.integers(0, 500, 6000), rng.random(500))
    lines = [f"{i} {(i * 7) % 1000} 0.{i % 997:03d}" for i in range(3000)]
    parts = ((_objects, ()), (_elements, arrays), (_rationals, ()), (_bigint, ()),
             (_vectors, arrays), (_text, (lines,)))
    total = 0.0
    for part, args in parts:
        best = None
        for _ in range(repeat):
            start = time.perf_counter()
            part(*args)
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
        total += best
    return total


def scale(seconds, probed, nominal=NOMINAL_S):
    """``seconds`` measured while the probe read ``probed``, at nominal speed."""
    return seconds * nominal / probed


# --- the import probe, for setup_s ----------------------------------------

# Standard-library modules a model checker has no use for, so stormlet.cli
# loads none of them and each is imported, not found in sys.modules.
IMPORT_PROBE_MODULES = (
    "asyncio", "unittest", "email.mime.multipart", "http.client", "xml.dom.minidom", "sqlite3",
    "ssl", "tarfile", "urllib.request", "pydoc", "mailbox", "configparser", "difflib", "uuid",
)
# about what import_probe() takes on the machine above. Over 23 rounds of 15
# launches there, log(import time) against log(import_probe) had a slope of
# 0.98, so import times scale linearly with this probe.
IMPORT_NOMINAL_S = 0.07


def import_probe():
    """Seconds importing IMPORT_PROBE_MODULES takes, in an interpreter that
    has just imported stormlet.cli. The probe measures the speed of imports
    (reading, unmarshalling and running module code), which the pure-Python
    probe above tracks poorly."""
    import importlib

    start = time.perf_counter()
    for name in IMPORT_PROBE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start
