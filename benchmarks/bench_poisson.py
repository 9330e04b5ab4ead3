#!/usr/bin/env python3
"""Measure the Poisson windows that CTMC uniformization steps through.

For each rate lambda and tail budget epsilon the script prints the window
[L, R] of ``solvers.fox_glynn``, its true tail, 1 minus the Poisson mass of
[L, R] summed at 50 digits with ``mpmath``, and the best time per call in
microseconds. R + 1 is the number of matrix-vector steps a time-bounded
property pays at that rate. The script fails if a tail exceeds its epsilon.

Usage: python3 benchmarks/bench_poisson.py [--rates 0.5,5.4,...] [--epsilons 1e-7,1e-13,1e-18] [--repeats 3]
"""

import argparse
import timeit

import mpmath

from stormlet import solvers


def true_tail(lam, L, R):
    """1 - the Poisson(lam) mass of [L, R], summed at 50 digits by the pmf recurrence."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        p = mpmath.exp(L * mpmath.log(lam) - lam - mpmath.loggamma(L + 1))
        mass = p
        for k in range(L + 1, R + 1):
            p = p * lam / k
            mass += p
        return float(1 - mass)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="0.5,5.4,24.9,30,100,1e3,1e4,1e5", help="comma-separated lambdas")
    parser.add_argument("--epsilons", default="1e-7,1e-13,1e-18", help="comma-separated tail budgets")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()

    print(f"{'lambda':>8} {'epsilon':>8} {'L':>7} {'R':>7} {'tail':>10} {'us/call':>10}")
    for lam in (float(s) for s in args.rates.split(",")):
        for eps in (float(s) for s in args.epsilons.split(",")):
            L, R, _, _ = solvers.fox_glynn(lam, eps)
            tail = true_tail(lam, L, R)
            if tail > eps:
                raise SystemExit(f"lambda={lam:g}, epsilon={eps:g}: window [{L}, {R}] leaves a tail of {tail:.3g}")
            timer = timeit.Timer(lambda: solvers.fox_glynn(lam, eps))
            us = min(seconds / number for number, seconds in (timer.autorange() for _ in range(args.repeats))) * 1e6
            print(f"{lam:>8g} {eps:>8g} {L:>7} {R:>7} {tail:>10.3g} {us:>10.1f}")


if __name__ == "__main__":
    main()
