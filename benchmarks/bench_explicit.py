#!/usr/bin/env python3
"""Benchmark the explicit-format loader on growing birth-death chains.

The chain on 0..N reflects at 0 (up or stay) and absorbs at N; every inner
state moves down, stays or moves up, with probabilities k/1000 drawn from a
seeded generator, written as decimals. The DTMC has one choice per state;
the MDP has two, so its file has about twice the lines. The ``.lab`` file
declares three labels.

For each N the script times ``explicit.build_model`` on the file texts (no
file I/O), in float and in exact mode, and prints the best time in ms and
the same time per 10^3 lines of the ``.tra`` file; a flat last column is
linear growth. Each ``.tra`` file is timed as written (``clean``) and as a
copy with a comment line after every 100 lines (``comment``); numpy's text
reader reads the pieces of both. Then ``explicit.parse_labels`` alone is
timed on the chain's ``.lab`` file (``labels``: one label per line but the
last), on a file that gives every state two labels (``labels2``) and on one
that declares 12 labels and gives every state one but the last, which lists
all 12 (``wide``: at N = 4000, a file of 4 001 state lines), per 10^3 lines
of the ``.lab`` file. numpy's text reader reads all three, each line padded
to the width of its piece's widest, so the one wide line makes ``wide``'s
last piece pay. Last, ``explicit.parse_transitions`` alone is timed on the
DTMC's ``.tra`` file (``tra``), on a copy whose first state index is an
Arabic-Indic zero (``nonascii``), whose whole first piece the line reader
reads, and on a copy whose last value is 0 (``error``), which fails a check
on a row that numpy's text reader read, on the file's last line; and a bare
``np.loadtxt`` call on the same file's lines after its header, split from
the text as the loader splits them (``loadtxt``): numpy's C reader alone,
which ``tra`` exceeds by the loader's own work.

Usage: python3 benchmarks/bench_explicit.py [--sizes 1000,10000,100000] [--repeats 3]
"""

import argparse
import random
import time

import numpy as np

from stormlet import explicit
from stormlet.errors import ParseError


def chain_files(n, choices, seed=1):
    """(tra, lab) texts of the reflecting chain on 0..n."""
    rng = random.Random(seed)
    lines = ["mdp" if choices > 1 else "dtmc"]
    for i in range(n + 1):
        for c in range(choices):
            head = f"{i} {c}" if choices > 1 else f"{i}"
            if i == n:
                lines.append(f"{head} {i} 1")
                break
            up = rng.randint(350 + 100 * c, 450 + 100 * c)
            down = 0 if i == 0 else rng.randint(100, 1000 - up - 100)
            if down:
                lines.append(f"{head} {i - 1} 0.{down:03d}")
            lines.append(f"{head} {i} 0.{1000 - up - down:03d}")
            lines.append(f"{head} {i + 1} 0.{up:03d}")
    half = n // 2
    lab = ["#DECLARATION", "init done far", "#END", "0 init"]
    lab += [f"{i} far" for i in range(half, n)]
    lab.append(f"{n} far done")
    return "\n".join(lines) + "\n", "\n".join(lab) + "\n"


def two_labels(n):
    """A ``.lab`` text that gives every state of 0..n two labels."""
    lab = ["#DECLARATION", "low high even odd", "#END"]
    lab += [f"{i} {'low' if 2 * i < n else 'high'} {'odd' if i % 2 else 'even'}" for i in range(n + 1)]
    return "\n".join(lab) + "\n"


def wide_labels(n):
    """A ``.lab`` text that declares 12 labels and gives each state of 0..n-1
    one of them, and state n all 12."""
    names = [f"l{j}" for j in range(12)]
    lab = ["#DECLARATION", " ".join(names), "#END"]
    lab += [f"{i} {names[i % 12]}" for i in range(n)] + [f"{n} {' '.join(names)}"]
    return "\n".join(lab) + "\n"


def commented(tra):
    """``tra`` with a comment line after every 100 lines."""
    lines = tra.splitlines()
    return "".join(f"{line}\n# line {k + 1}\n" if k % 100 == 99 else f"{line}\n" for k, line in enumerate(lines))


def failure(parse, text):
    """The ParseError that ``parse(text)`` raises, or None."""
    try:
        parse(text)
    except ParseError as exc:
        return exc
    return None


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,10000,100000", help="comma-separated chain lengths N")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()

    print(f"{'N':>8}  {'model':<5} {'file':<8} {'mode':<6} {'lines':>9} {'ms':>10} {'ms/1e3 lines':>13}")
    for n in (int(s) for s in args.sizes.split(",")):
        for model, choices in (("dtmc", 1), ("mdp", 2)):
            tra, lab = chain_files(n, choices)
            for file, text in (("clean", tra), ("comment", commented(tra))):
                bundle = explicit.ExplicitBundle(text, lab)
                lines = text.count("\n")
                for mode, rational in (("float", False), ("exact", True)):
                    loaded = explicit.build_model(bundle, rational=rational)
                    if loaded.n_states != n + 1:
                        raise SystemExit(f"{model} N={n}: loaded {loaded.n_states} states, expected {n + 1}")
                    ms = best_of(lambda: explicit.build_model(bundle, rational=rational), args.repeats) * 1e3
                    print(f"{n:>8}  {model:<5} {file:<8} {mode:<6} {lines:>9} {ms:>10.2f} {ms / lines * 1e3:>13.4f}")
        _, lab = chain_files(n, 1)
        for file, text, label, count in (("labels", lab, "far", n - n // 2 + 1),
                                         ("labels2", two_labels(n), "even", n // 2 + 1),
                                         ("wide", wide_labels(n), "l0", (n - 1) // 12 + 2)):
            if explicit.parse_labels(text, n + 1).get(label).sum() != count:
                raise SystemExit(f"{file} N={n}: {label!r} not on {count} states")
            lines = text.count("\n")
            ms = best_of(lambda: explicit.parse_labels(text, n + 1), args.repeats) * 1e3
            print(f"{n:>8}  {'dtmc':<5} {file:<8} {'-':<6} {lines:>9} {ms:>10.2f} {ms / lines * 1e3:>13.4f}")
        tra, _ = chain_files(n, 1)
        lines = tra.count("\n")
        header = len("dtmc\n")
        for file, text in (("tra", tra), ("nonascii", tra[:header] + "\u0660" + tra[header + 1 :]),
                           ("error", tra[: tra.rindex(" ")] + " 0\n")):
            line = getattr(failure(explicit.parse_transitions, text), "line", None)
            if line != (lines if file == "error" else None):
                raise SystemExit(f"{file} N={n}: error at line {line}")
            ms = best_of(lambda: failure(explicit.parse_transitions, text), args.repeats) * 1e3
            print(f"{n:>8}  {'dtmc':<5} {file:<8} {'float':<6} {lines:>9} {ms:>10.2f} {ms / lines * 1e3:>13.4f}")
        body = tra[tra.index("\n") + 1 :]

        def read():
            return np.loadtxt(body.split("\n"), dtype="i8,i8,f8", comments="#", ndmin=1)

        if len(read()) != lines - 1:
            raise SystemExit(f"loadtxt N={n}: not {lines - 1} rows")
        ms = best_of(read, args.repeats) * 1e3
        print(f"{n:>8}  {'dtmc':<5} {'loadtxt':<8} {'float':<6} {lines:>9} {ms:>10.2f} {ms / lines * 1e3:>13.4f}")


if __name__ == "__main__":
    main()
