#!/usr/bin/env python3
"""Benchmark model construction on a growing tandem queue, thin chains, a synchronised product and a lone state.

The tandem is a CTMC with three stations in series, each holding up to c
customers; stations 1-2 and 2-3 synchronise on the hand-over actions, and
the program has three labels and a state and an action reward structure, so
every construction phase has work to do. c = 10, 20, 30, 40, 46 gives
(c+1)^3 = 1 331 to 103 823 states, in 6c + 1 = 61 to 277 BFS layers: a
customer at station k is k steps from the empty queue. After exploring, the
tandem's three ``P=? [ F<=1/2 ... ]`` checks (one per label, as perfbench's
``build_tandem`` runs them) are timed together as its ``F<=1/2`` phase, which
uniformises and steps the states that can still move.

``explore`` builds a model one of two ways, and each row says which in its
``path`` column: ``whole`` where the packed key space has at most
``explore.WHOLE_SPACE_KEYS`` (2^14) keys, whose every valuation it expands
at once before numbering the reached ones, and ``layers`` (BFS, one layer at
a time) past it. The tandem's (c+1)^3 keys stay whole up to c = 24.

The chain is a birth-death DTMC with as many states, started in the middle,
so each BFS layer holds about two states: N states take N/2 layers. Past
``WHOLE_SPACE_KEYS`` it measures the fixed cost that exploration pays per
layer; below it, as at c = 10 and 20 here and for the 61- to 81-state chains
of ``perfbench``'s ``solve_iter``, the whole space is expanded and there is
no per-layer cost. The wide chain is the same chain with its variable's
range widened past ``states.DENSE_KEYS``, so that its states are interned
layer by layer through a dict instead of the dense index: at c >= 30 the two
rows compare the two indexes. The thin MDP has the shape of ``solve_iter``'s
two-action gambler's-ruin MDP: two interleaved commands that share a guard,
so each state of a layer has two choices. The explore rows of the layered
thin chains also give that cost in microseconds per layer.

The sync family has two modules with c commands each on one action, the
j-th guarded by ``mod(x, c)=j``: each state has one choice, but a layer's
states use up to c*c combinations of commands, over (4c+1)^2 states. It
measures that a synchronised action costs per command and branch, not per
combination.

The lone family has one reachable state, a loop, in a 128 x 128 key space
whose every valuation has the same two-branch choice: the worst case of the
whole-space path, which expands 16 384 valuations to keep one. Its second
row widens y's range to 129 values, past ``WHOLE_SPACE_KEYS``, so the same
state is explored as one layer: the two rows give what the worst case costs.

``explore`` is timed whole; the label and reward calls it makes, its one
assembly of the transition matrix from the explored branches
(``sparse.assemble``, phase ``assemble``), and on the whole path its BFS
numbering of the reached keys (``whole.bfs_order``, phase ``number``), are
timed by wrapping them where ``explore`` and ``whole_space`` look them up,
and the explore phase is the rest. For each size the script prints the best time
of each phase in ms and the same time per 10^3 stored transitions; a flat
column is linear growth. The explore rows of the layered tandem and thin
chains (``chain``, ``wide`` and ``mdp``) also give the time per BFS layer in
microseconds.

Usage: python3 benchmarks/bench_explore.py [--caps 10,20,30,40,46] [--repeats 3]
"""

import argparse
import importlib
import sys
import time

from stormlet import checkers, sparse
from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
from stormlet.prism.states import DENSE_KEYS
from stormlet.props import parse_property, resolve_atoms
from stormlet.solvers import SolverEnvironment

TANDEM = """ctmc

const int c;
const double lam = 3.001;
const double mu1 = 2.499;
const double mu2 = 1.999;
const double mu3 = 3.003;

module station1
  n1 : [0..c] init 0;
  [arrive] n1<c -> lam : (n1'=n1+1);
  [serve1] n1>0 -> mu1 : (n1'=n1-1);
endmodule

module station2
  n2 : [0..c] init 0;
  [serve1] n2<c -> 1 : (n2'=n2+1);
  [serve2] n2>0 -> mu2 : (n2'=n2-1);
endmodule

module station3
  n3 : [0..c] init 0;
  [serve2] n3<c -> 1 : (n3'=n3+1);
  [serve3] n3>0 -> mu3 : (n3'=n3-1);
endmodule

label "busy1" = n1>=1;
label "queue1" = n1>=2;
label "busy2" = n2>=1;

rewards "queue"
  true : n1+n2+n3;
endrewards

rewards "served"
  [serve3] true : 1;
endrewards
"""

# a birth-death chain over 0..N started at M = N // 2: each BFS layer adds
# the states one step further down and one step further up; x's range 0..R
# (R >= N) sets the key space
CHAIN = """dtmc

const int N;
const int M;
const int R;

module walk
  x : [0..R] init M;
  [] x>0 & x<N -> 0.4 : (x'=x+1) + 0.35 : (x'=x-1) + 0.25 : (x'=x);
  [] x=0 | x=N -> (x'=x);
endmodule

label "top" = x=N;

rewards "steps"
  x>0 & x<N : 1;
endrewards
"""

# the two-command gambler's-ruin MDP of ``solve_iter``, started in the middle
RUIN_MDP = """mdp

const int N;
const int M;

module walk
  x : [0..N] init M;
  [] x>0 & x<N -> 0.401 : (x'=x+1) + 0.599 : (x'=x-1);
  [] x>0 & x<N -> 0.441 : (x'=x+1) + 0.559 : (x'=x-1);
  [] x=0 | x=N -> (x'=x);
endmodule

label "top" = x=N;
label "end" = x=0 | x=N;

rewards "steps"
  x>0 & x<N : 1;
endrewards
"""

# one reachable state in a 128 x R key space, every valuation a loop
LONE = """dtmc

const int R;

module m
  x : [0..127] init 0;
  y : [0..R-1] init 0;
  [] true -> 0.5 : (x'=x) + 0.5 : (y'=y);
endmodule
"""


def sync_program(k):
    """Two modules with k commands each on [go], the j-th enabled where the
    module's variable is j modulo k; x walks, y jumps by j + 1."""
    n = 4 * k
    lines = ["mdp", "", "module a", f"  x : [0..{n}] init 0;"]
    lines += [f"  [go] mod(x, {k})={j} -> 0.5 : (x'=min(x+1, {n})) + 0.5 : (x'=max(x-1, 0));" for j in range(k)]
    lines += ["endmodule", "", "module b", f"  y : [0..{n}] init 0;"]
    lines += [f"  [go] mod(y, {k})={j} -> (y'=mod(y+{j + 1}, {n + 1}));" for j in range(k)]
    return "\n".join(lines + ["endmodule", ""])


PHASES = ("explore", "number", "labels", "rewards", "assemble")
# the time-bounded checks of perfbench's build_tandem, one per tandem label
TANDEM_CHECKS = [f'P=? [ F<=1/2 "{label}" ]' for label in ("busy1", "queue1", "busy2")]
EXPLORE = sys.modules["stormlet.prism.explore"]
WHOLE = importlib.import_module("stormlet.prism.whole")
# phase -> (module, attribute) of the call explore or whole_space makes for it
TIMED = {
    "number": (WHOLE, "bfs_order"),
    "labels": (EXPLORE, "build_label_bitsets"),
    "rewards": (EXPLORE, "build_reward_models"),
    "assemble": (sparse, "assemble"),
}


def timed_explore(program):
    """One explore call: the model, the seconds spent in each phase and the
    path it took (``whole`` or ``layers``)."""
    spent = dict.fromkeys(PHASES, 0.0)
    saved, built = {}, []

    def wrap(phase, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - start
        return timed

    def whole_space(*args):
        layers = whole(*args)
        built.append(layers is not None)
        return layers

    for phase, (owner, attr) in TIMED.items():
        saved[phase] = getattr(owner, attr)
        setattr(owner, attr, wrap(phase, saved[phase]))
    whole, WHOLE.whole_space = WHOLE.whole_space, whole_space
    try:
        start = time.perf_counter()
        model, _ = explore(program, ExploreOptions())
        total = time.perf_counter() - start
    finally:
        for phase, (owner, attr) in TIMED.items():
            setattr(owner, attr, saved[phase])
        WHOLE.whole_space = whole
    spent["explore"] = total - sum(spent[p] for p in TIMED)
    return model, spent, "whole" if built == [True] else "layers"


def bench(program, repeats, checks=()):
    """States, transitions, the exploration path and the best seconds of each
    phase; ``checks`` are property texts, timed together after exploring as
    phase ``F<=1/2``."""
    best = dict.fromkeys(PHASES, float("inf"))
    for _ in range(repeats):
        model, spent, path = timed_explore(program)
        for phase in PHASES:
            best[phase] = min(best[phase], spent[phase])
    if checks:
        env, props = SolverEnvironment(), [resolve_atoms(parse_property(text), model) for text in checks]
        for _ in range(repeats):
            start = time.perf_counter()
            for prop in props:
                checkers.check(model, prop, env)
            best["F<=1/2"] = min(best.get("F<=1/2", float("inf")), time.perf_counter() - start)
    return model.n_states, model.matrix.nnz, path, best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--caps", default="10,20,30,40,46",
                        help="comma-separated station capacities c; the thin chains get (c+1)^3 states, "
                             "the sync family c commands per module")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()

    print(f"{'family':<7} {'size':>7} {'states':>8} {'transitions':>11} {'path':<6}  {'phase':<12} {'ms':>10} "
          f"{'ms/1e3 tr':>10} {'us/layer':>9}")
    runs = []
    for cap in (int(s) for s in args.caps.split(",")):
        n = (cap + 1) ** 3 - 1
        runs += [
            ("tandem", cap, typecheck(parse_program(TANDEM), {"c": cap}), 6 * cap + 1),
            ("chain", n + 1, typecheck(parse_program(CHAIN), {"N": n, "M": n // 2, "R": n}), n - n // 2 + 1),
            ("wide", n + 1, typecheck(parse_program(CHAIN), {"N": n, "M": n // 2, "R": DENSE_KEYS}), n - n // 2 + 1),
            ("mdp", n + 1, typecheck(parse_program(RUIN_MDP), {"N": n, "M": n // 2}), n - n // 2 + 1),
            ("sync", cap, typecheck(parse_program(sync_program(cap))), None),
        ]
    runs += [("lone", r, typecheck(parse_program(LONE), {"R": r}), 1) for r in (128, 129)]
    for family, size, program, layers in runs:
        states, nnz, path, best = bench(program, args.repeats, TANDEM_CHECKS if family == "tandem" else ())
        for phase in best:
            ms = best[phase] * 1e3
            per_layer = (f"{ms * 1e3 / layers:9.1f}" if layers and path == "layers" and phase == "explore"
                         else f"{'-':>9}")
            print(f"{family:<7} {size:>7} {states:>8} {nnz:>11} {path:<6}  {phase:<12} {ms:>10.2f} "
                  f"{ms / nnz * 1e3:>10.4f} {per_layer}")


if __name__ == "__main__":
    main()
