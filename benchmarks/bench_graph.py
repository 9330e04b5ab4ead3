#!/usr/bin/env python3
"""Benchmark the qualitative precomputation on growing birth-death chains.

The DTMC is a gambler's-ruin chain on 0..N: state 0 is absorbing (ruin),
state N is the target, every other state moves up or down. The MDP gives
each inner state a second choice that moves up or stays, so Pmax reaches
the target almost surely while Pmin does not. Every set spans the whole
chain, which makes a fixed point that adds one layer per matrix scan
quadratic here. The MDP's ``prob01_max to 0`` row takes state 0 as the
target instead: prob1E is {0} alone, and a greatest fixed point that drops
one state per round is quadratic there.

For each N the script prints the best time of each graph call in ms and
the same time per 10^3 stored transitions; a flat last column is linear
growth. The first call on a matrix builds the predecessor index that the
graph layer caches on it, so the best time is that of a call that reuses
it; the ``index`` rows time building it.

Usage: python3 benchmarks/bench_graph.py [--sizes 1000,10000,100000]
"""

import argparse
import time

import numpy as np

from stormlet import graph
from stormlet.sparse import SparseMatrix


def chain(n, choices):
    """CSR matrix and choice offsets of the ruin chain on 0..n."""
    rows = [[(0, 1.0)]]
    for x in range(1, n):
        rows.append([(x - 1, 0.6), (x + 1, 0.4)])
        if choices == 2:
            rows.append([(x, 0.5), (x + 1, 0.5)])
    rows.append([(n, 1.0)])
    counts = [1] + [choices] * (n - 1) + [1]
    lengths = [len(r) for r in rows]
    matrix = SparseMatrix(
        len(rows), n + 1,
        np.concatenate(([0], np.cumsum(lengths))),
        [c for r in rows for c, _ in r],
        [v for r in rows for _, v in r],
        "float",
    )
    return matrix, np.concatenate(([0], np.cumsum(counts)))


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_size(n, repeats):
    everywhere = np.ones(n + 1, dtype=bool)
    target = np.zeros(n + 1, dtype=bool)
    target[n] = True

    dtmc, identity = chain(n, 1)

    def dtmc_01():
        graph.prob1(dtmc, everywhere, target, graph.prob0(dtmc, everywhere, target))

    def index(matrix, offsets):
        matrix.predecessors = None
        graph._predecessors(matrix, offsets)

    mdp, offsets = chain(n, 2)
    _, p1e = graph.prob01_max(mdp, offsets, everywhere, target)
    ruin = np.zeros(n + 1, dtype=bool)
    ruin[0] = True
    return [
        ("dtmc", "index", dtmc.nnz, best_of(lambda: index(dtmc, identity), repeats)),
        ("dtmc", "prob0+prob1", dtmc.nnz, best_of(dtmc_01, repeats)),
        ("mdp", "index", mdp.nnz, best_of(lambda: index(mdp, offsets), repeats)),
        ("mdp", "prob01_max", mdp.nnz, best_of(lambda: graph.prob01_max(mdp, offsets, everywhere, target), repeats)),
        ("mdp", "prob01_max to 0", mdp.nnz,
         best_of(lambda: graph.prob01_max(mdp, offsets, everywhere, ruin), repeats)),
        ("mdp", "prob01_min", mdp.nnz, best_of(lambda: graph.prob01_min(mdp, offsets, everywhere, target), repeats)),
        ("mdp", "prob1e_witness", mdp.nnz,
         best_of(lambda: graph.prob1e_witness(mdp, offsets, everywhere, target, p1e), repeats)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000", help="comma-separated chain lengths N")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()

    print(f"{'N':>8}  {'model':<5} {'call':<15} {'transitions':>11} {'ms':>10} {'ms/1e3 tr':>10}")
    for n in (int(s) for s in args.sizes.split(",")):
        for model, call, nnz, seconds in bench_size(n, args.repeats):
            ms = seconds * 1e3
            print(f"{n:>8}  {model:<5} {call:<15} {nnz:>11} {ms:>10.2f} {ms / nnz * 1e3:>10.4f}")


if __name__ == "__main__":
    main()
