#!/usr/bin/env python3
"""Benchmark the float solves: sparse elimination against the certified
iteration, and policy iteration against value iteration.

Three families of maybe-state systems x = A.x + b:
- ``chain N``: the lazy walk on 0..N that moves each way with probability
  1/100, solved for P(reach N before 0) on its inner states; elimination
  makes no fill-in, and iteration converges slowly;
- ``grid k``: a walk on a k x k grid that moves to each of its four
  neighbours with probability 1/4 and is absorbed when it leaves the grid,
  solved for P(leave through the right edge); elimination in row order fills
  in the band of k columns left and right of the diagonal;
- ``tandem c``, at c = 8 and 12: the three-station tandem CTMC of
  ``bench_explore.py``, solved for ``P=? [ (n3<c) U (n1=c) ]`` on its
  embedded chain; elimination in the explored order fills in badly.

For each system the script prints the best times of the factorisation and
of one solve with its factors (both triangular solves), the multiply-adds
the factorisation took per stored entry of A (against the budget
``solvers.ELIMINATION_BUDGET``), the certified relative ``error_bound`` and
whether the default solve falls back to the certified iteration (the budget
runs out, or the bound is missing or above the precision 1e-6), and, at the
sizes up to ``--gs-states``, the time the iteration takes on its own, its
iterations and its bound.

Two MDP families are solved end to end by ``checkers.check``, by policy
iteration (``pi``, the default) and by value iteration (``vi``):
- ``ruin mdp N``, at the ``--chains`` sizes: the two-action gambler's ruin of
  ``perfbench``'s ``solve_iter``, states 0..N, each inner state steps up with
  0.401 or with 0.441, started at N/2; ``Pmax`` and ``Pmin`` of reaching N and
  ``Rmin`` of the steps until 0 or N. Its induced chains make no fill-in.
- ``grid mdp k``, at the ``--grids`` sides: the grid walk above, where each
  inner state may also move left or right with 0.3 and up or down with 0.2,
  started in the middle; ``Pmax`` and ``Pmin`` of leaving through the right
  edge and ``Rmin`` and ``Rmax`` of the steps until leaving. Its induced
  chains fill in like the grid, more so in the explored order, and by
  k = 45 their elimination runs out of budget, so policy iteration hands
  over to the certified iteration.
Per check it prints the best time, each repeat starting from an empty
factorisation cache as a model's first check does, the iterations, the
method reported, the ``error_bound`` ("-" for none) and the relative error
at the initial state against a reference. The ruin references are exact:
the closed form (r^i - 1) / (r^N - 1), r = down/up, of the better or worse
choice for ``Pmax`` and ``Pmin``, and for ``Rmin`` the expected steps of the
scheduler that policy iteration in integers, started from the one ``pi``
returned, ends at (``tests/test_acceptance.py`` checks against the same
references). The grid reference is the certified ``pi`` value, exact within
its bound.

Usage: python3 benchmarks/bench_solve.py [--chains 60,300,1000]
       [--grids 10,30] [--gs-states 2500] [--repeats 3]

On a shared 2-vCPU x86-64 VM the defaults take about 1.5 minutes, and the
large sizes, ``--chains 60,300,1000,3000 --grids 10,30,45,60``, about a
quarter of an hour: value iteration on the ruin MDP at N = 3000 takes
23-51 s per check, and each grid MDP check at k = 60 7-21 s.
"""

import argparse
import time

import numpy as np

from bench_explore import TANDEM
from stormlet import checkers, graph, kernels, solvers, sparse
from stormlet.errors import NotConverged
from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
from stormlet.props import parse_property, resolve_atoms
from stormlet.solvers import BellmanSystem, LinearSystem, SolverEnvironment

PRECISION = 1e-6
# the iteration gives up after this many steps; the longer chains need millions
ITERATIONS = 20_000
TANDEM_CAPS = (8, 12)


def chain(n, move=0.01):
    """The inner states 1..n-1 of the lazy walk, as (A, b)."""
    triples = []
    for i in range(n - 1):
        if i > 0:
            triples.append((i, i - 1, move))
        triples.append((i, i, 1 - 2 * move))
        if i < n - 2:
            triples.append((i, i + 1, move))
    b = np.zeros(n - 1)
    b[-1] = move
    return sparse.build_sparse(triples, n - 1, n - 1), b


def grid(k):
    """The k x k grid walk, state r*k + c, as (A, b)."""
    triples = []
    b = np.zeros(k * k)
    for r in range(k):
        for c in range(k):
            for dr, dc in ((-1, 0), (0, -1), (0, 1), (1, 0)):
                if 0 <= r + dr < k and 0 <= c + dc < k:
                    triples.append((r * k + c, (r + dr) * k + c + dc, 0.25))
            if c == k - 1:
                b[r * k + c] = 0.25
    return sparse.build_sparse(triples, k * k, k * k), b


def tandem(c):
    """The maybe states of P=? [ (n3<c) U (n1=c) ] on the tandem with capacity c, as (A, b)."""
    model, state_map = explore(typecheck(parse_program(TANDEM), {"c": c}), ExploreOptions())
    n1, _, n3 = state_map.columns
    left, right = n3 < c, n1 == c
    p0 = graph.prob0(model.matrix, left, right)
    p1 = graph.prob1(model.matrix, left, right, p0)
    maybe = ~(p0 | p1)
    A, _ = sparse.restrict(model.matrix, maybe, maybe)
    return A, kernels.matvec(model.matrix, p1.astype(float))[maybe]


def best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench(name, A, b, repeats, gs_states):
    factor_s, lu = best_of(lambda: solvers._factor(A), repeats)
    rhs = b.tolist()
    solve_s, _ = best_of(lambda: lu.solve(rhs), repeats)
    certified = solvers._certified_elimination(LinearSystem(A, b), "relative")
    bound = float("inf") if certified is None else certified.error_bound
    fell_back = not bound <= PRECISION
    iterated = "-"
    if A.rows <= gs_states:
        # the system as the linear solve hands it to the iteration: one choice per state
        system = BellmanSystem(A, np.arange(A.rows + 1), b, "maximize")
        env = SolverEnvironment(precision=PRECISION, max_iterations=ITERATIONS)
        try:
            seconds, outcome = best_of(lambda: solvers._iterate(system, env), repeats)
            proven = "no bound" if outcome.error_bound is None else f"bound {outcome.error_bound:.1e}"
            iterated = f"{seconds * 1e3:.1f} ({outcome.iterations} iterations, {proven})"
        except NotConverged:
            iterated = f"no convergence in {ITERATIONS} iterations"
    shown = "-" if bound == float("inf") else f"{bound:.2e}"
    print(f"{name:<12} {A.rows:>8} {A.nnz:>8} {factor_s * 1e3:>10.1f} {solve_s * 1e3:>9.2f} {lu.work / A.nnz:>9.1f} "
          f"{shown:>11} {'yes' if fell_back else 'no':>9}  {iterated}")


# gambler's ruin on 0..n where every inner state steps up with 0.401 or with 0.441
RUIN_MDP = """mdp
module walk
  x : [0..{n}] init {init};
  [] x>0 & x<{n} -> 0.401 : (x'=x+1) + 0.599 : (x'=x-1);
  [] x>0 & x<{n} -> 0.441 : (x'=x+1) + 0.559 : (x'=x-1);
  [] x=0 | x={n} -> (x'=x);
endmodule
label "top" = x={n};
label "end" = x=0 | x={n};
rewards "steps"
  x>0 & x<{n} : 1;
endrewards
"""
RUIN_UPS = (401, 441)  # per thousand
RUIN_PROPS = ('Pmax=? [ F "top" ]', 'Pmin=? [ F "top" ]', 'Rmin=? [ F "end" ]')

# the k x k grid walk with a second, horizontal choice, absorbed on the border
GRID_MDP = """mdp
module walk
  r : [0..{e}] init {m};
  c : [0..{e}] init {m};
  [] r>0 & r<{e} & c>0 & c<{e} -> 0.25 : (r'=r-1) + 0.25 : (r'=r+1) + 0.25 : (c'=c-1) + 0.25 : (c'=c+1);
  [] r>0 & r<{e} & c>0 & c<{e} -> 0.2 : (r'=r-1) + 0.2 : (r'=r+1) + 0.3 : (c'=c-1) + 0.3 : (c'=c+1);
  [] r=0 | r={e} | c=0 | c={e} -> true;
endmodule
label "right" = c={e};
label "out" = r=0 | r={e} | c=0 | c={e};
rewards "steps"
  r>0 & r<{e} & c>0 & c<{e} : 1;
endrewards
"""
GRID_PROPS = ('Pmax=? [ F "right" ]', 'Pmin=? [ F "right" ]', 'Rmin=? [ F "out" ]', 'Rmax=? [ F "out" ]')


def ruin_top(n, up):
    """P(hit n before 0) from each of 0..n, stepping up with up/1000, as pairs (numerator, denominator).

    The closed form (r^x - 1) / (r^n - 1) with r = down/up is
    (down^x - up^x) up^(n-x) / (down^n - up^n).
    """
    down = 1000 - up
    up_powers, down_powers = [1], [1]
    for _ in range(n):
        up_powers.append(up_powers[-1] * up)
        down_powers.append(down_powers[-1] * down)
    denominator = down_powers[n] - up_powers[n]
    return [((down_powers[x] - up_powers[x]) * up_powers[n - x], denominator) for x in range(n + 1)]


def ruin_steps(n, policy):
    """Exact expected steps until 0 or n from each of 0..n, with ``policy[x]`` the choice at x.

    Returns the values as pairs (numerator, denominator) and the inner states
    where the other choice gives fewer steps, empty exactly when ``policy`` is
    optimal for Rmin. Shooting from D_0 = 0 and D_1 = t, per thousand:
    up D_(x+1) = 1000 D_x - 1000 - down D_(x-1), so D_x = (a_x + b_x t) / q_x
    in integers with q_(x+1) = ups[x+1] q_x, and D_n = 0 fixes t = -a_n / b_n.
    Then D_x = N_x / (q_x B) with B > 0.
    """
    a, b, q, ups = [0, 0], [0, 1], [1, 1], [1, 1]
    for x in range(1, n):
        up = RUIN_UPS[policy[x]]
        # a term over q_(x-1) is scaled by q_x / q_(x-1) = ups[x] to be over q_x
        a.append(1000 * a[x] - 1000 * q[x] - (1000 - up) * a[x - 1] * ups[x])
        b.append(1000 * b[x] - (1000 - up) * b[x - 1] * ups[x])
        q.append(up * q[x])
        ups.append(up)
    sign = 1 if b[n] > 0 else -1
    steps, common = [sign * (a[x] * b[n] - b[x] * a[n]) for x in range(n + 1)], sign * b[n]
    # choice up improves on x where 1000 D_x > 1000 + up D_(x+1) + down D_(x-1), times q_(x+1) B
    better = [x for x in range(1, n) if any(
        1000 * steps[x] * ups[x + 1]
        > 1000 * q[x + 1] * common + up * steps[x + 1] + (1000 - up) * steps[x - 1] * ups[x + 1] * ups[x]
        for up in RUIN_UPS)]
    return [(steps[x], q[x] * common) for x in range(n + 1)], better


def least_steps(n, policy):
    """Exact optimal Rmin from each of 0..n as pairs: policy iteration from ``policy`` in integers."""
    policy = list(policy)
    while True:
        steps, better = ruin_steps(n, policy)
        if not better:
            return steps
        for x in better:
            policy[x] = 1 - policy[x]


def relative_error(value, reference):
    """|value - p/q| / (p/q) for a float value and a pair (p, q) with p/q > 0, in integers."""
    p, q = reference
    vp, vq = float(value).as_integer_ratio()
    return abs(vp * q - p * vq) / (vq * p)


def check_afresh(model, prop, env):
    """``checkers.check`` as on a model's first check: without the factorisations earlier checks left."""
    model.matrix.factors.clear()
    return checkers.check(model, prop, env)


def bench_mdp(name, model, state_map, props, repeats, reference):
    """Time each property by policy and by value iteration.

    ``reference(text, result)`` gives the reference value at the initial
    state as a pair (p, q), or None, from the policy-iteration result.
    """
    refs = {}
    for method in ("policy_iteration", "value_iteration"):
        env = SolverEnvironment(minmax_method=method, precision=PRECISION)
        for text in props:
            prop = resolve_atoms(parse_property(text), model, state_map)
            seconds, result = best_of(lambda: check_afresh(model, prop, env), repeats)
            meta = result.metadata
            if text not in refs:
                refs[text] = reference(text, result)
            error = "-" if refs[text] is None else f"{relative_error(result.values[0], refs[text]):.1e}"
            bound = meta.get("error_bound")
            shown = "-" if bound is None else f"{bound:.2e}"
            print(f"{name:<14} {text[:4]:<5} {method[:1]}i {seconds * 1e3:>10.1f} {meta['iterations']:>6} "
                  f"{meta['method']:<16} {shown:>11} {error:>9}")


def bench_ruin_mdp(n, repeats):
    model, state_map = explore(typecheck(parse_program(RUIN_MDP.format(n=n, init=n // 2))), ExploreOptions())
    position = state_map.columns[0]

    def reference(text, result):
        if not text.startswith("Rmin"):
            return ruin_top(n, RUIN_UPS[text.startswith("Pmax")])[n // 2]
        policy = [0] * (n + 1)
        for s, x in enumerate(position):
            policy[x] = int(result.metadata["scheduler"][s])
        return least_steps(n, policy)[n // 2]

    bench_mdp(f"ruin mdp {n}", model, state_map, RUIN_PROPS, repeats, reference)


def bench_grid_mdp(k, repeats):
    source = GRID_MDP.format(e=k + 1, m=(k + 1) // 2)
    model, state_map = explore(typecheck(parse_program(source)), ExploreOptions())

    def reference(text, result):
        # no closed form: the certified policy-iteration value, exact within its bound
        return result.values[0].as_integer_ratio() if "error_bound" in result.metadata else None

    bench_mdp(f"grid mdp {k}", model, state_map, GRID_PROPS, repeats, reference)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", default="60,300,1000",
                        help="comma-separated sizes N of the chain and the ruin MDP")
    parser.add_argument("--grids", default="10,30", help="comma-separated sides k of the grid and the grid MDP")
    parser.add_argument("--gs-states", type=int, default=2500,
                        help="time the iteration only on systems of at most this many states")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()
    chains = [int(v) for v in args.chains.split(",") if v]
    grids = [int(v) for v in args.grids.split(",") if v]
    print(f"budget {solvers.ELIMINATION_BUDGET} multiply-adds per entry, precision {PRECISION:g}")
    print(f"{'system':<12} {'states':>8} {'nnz':>8} {'factor ms':>10} {'solve ms':>9} {'madd/nnz':>9} "
          f"{'error_bound':>11} {'fallback':>9}  iteration ms")
    for n in chains:
        bench(f"chain {n}", *chain(n), args.repeats, args.gs_states)
    for k in grids:
        bench(f"grid {k}", *grid(k), args.repeats, args.gs_states)
    for c in TANDEM_CAPS:
        bench(f"tandem {c}", *tandem(c), args.repeats, args.gs_states)
    print()
    print(f"{'mdp':<14} {'prop':<5} by {'ms':>10} {'iters':>6} {'method':<16} {'error_bound':>11} {'rel error':>9}")
    for n in chains:
        bench_ruin_mdp(n, args.repeats)
    for k in grids:
        bench_grid_mdp(k, args.repeats)


if __name__ == "__main__":
    main()
