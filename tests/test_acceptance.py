"""Top-level acceptance suite.

Each test covers one release gate and prints a single PASS/FAIL line so the
suite output doubles as a short report (run with `pytest -s` to see them).
"""

import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    dense_solve_exact,
    enumerate_schedulers,
    induced_rows,
    oracle_reach_probability,
    oracle_reach_reward,
    random_stochastic_rows,
    rows_to_matrix,
)
from stormlet import checkers, cli, explicit, graph, solvers
from stormlet.models import Model, ModelKind, RewardModel, StateLabeling
from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
from stormlet.props import parse_property, resolve_atoms
from stormlet.solvers import BellmanSystem, LinearSystem, SolverEnvironment

# the two-action ruin MDP and its exact references are shared with benchmarks/bench_solve.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_solve import RUIN_MDP, RUIN_PROPS, relative_error, ruin_steps, ruin_top  # noqa: E402

CORPUS = Path(__file__).parent / "corpus"
CORPUS_MODELS = ["die.pm", "coin.nm", "queue.sm"]

FLOAT_ENV = SolverEnvironment(precision=1e-6)
TIGHT_ENV = SolverEnvironment(precision=1e-10)
EXACT_ENV = SolverEnvironment()  # the exact methods follow from a rational matrix


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else "")
    print(line)
    assert ok, line


def check_text(model, text, env, state_map=None):
    prop = resolve_atoms(parse_property(text), model, state_map)
    return checkers.check(model, prop, env)


def load_corpus(name, exact=False):
    program = typecheck(parse_program((CORPUS / name).read_text()))
    return explore(program, ExploreOptions(exact=exact, fix_deadlocks=True))


def test_01_knuth_yao_die_end_to_end():
    start = time.perf_counter()
    model, state_map = load_corpus("die.pm")
    six = check_text(model, 'P=? [ F "six" ]', FLOAT_ENV, state_map).values[0]
    outcomes = [
        check_text(model, f'P=? [ F "{w}" ]', TIGHT_ENV, state_map).values[0]
        for w in ("one", "two", "three", "four", "five", "six")
    ]
    exact_model, exact_map = load_corpus("die.pm", exact=True)
    exact_six = check_text(exact_model, 'P=? [ F "six" ]', EXACT_ENV, exact_map).values[0]
    exact_outcomes = [
        check_text(exact_model, f'P=? [ F "{w}" ]', EXACT_ENV, exact_map).values[0]
        for w in ("one", "two", "three", "four", "five", "six")
    ]
    elapsed = time.perf_counter() - start
    ok = (
        abs(six - 1 / 6) <= 1e-6
        and exact_six == Fraction(1, 6)
        and abs(sum(outcomes) - 1.0) <= 1e-9
        and sum(exact_outcomes) == 1
        and elapsed < 1.0
    )
    report(
        "die end-to-end",
        ok,
        f"P(six)={six:.9f}, exact={exact_six}, outcome sum={sum(outcomes)!r}, {elapsed * 1000:.0f} ms",
    )


def test_02_solver_cross_validation():
    rng = random.Random(20240824)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = rng.randint(2, 50) if trial % 4 == 0 else rng.randint(2, 12)
        rows = random_stochastic_rows(rng, n, n)
        shrink = [Fraction(rng.randint(1, 3), 4) for _ in range(n)]
        rows = [{c: v * s for c, v in row.items()} for row, s in zip(rows, shrink)]
        matrix = rows_to_matrix(rows, n, False)
        b = [float(Fraction(rng.randint(0, 5), 4)) for _ in range(n)]
        solutions = []
        # certified elimination, and the exact solve of the same float system
        for A in (matrix, matrix.to_rational()):
            out = solvers.solve_linear(LinearSystem(A, b), FLOAT_ENV)
            solutions.append(np.array([float(v) for v in out.x]))
        # the certified iteration that the linear solve falls back to
        chain = BellmanSystem(matrix, np.arange(n + 1), b, "maximize")
        solutions.append(solvers._iterate(chain, SolverEnvironment(precision=1e-6)).x)
        for xa, xb in itertools.combinations(solutions, 2):
            worst = max(worst, float(np.max(np.abs(xa - xb), initial=0.0)))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-6 and elapsed < 10.0
    report("solver cross-validation", ok, f"worst pairwise gap {worst:.2e}, {elapsed:.1f} s")


def _enumerate_mdp_optima(rows, offsets, target, choice_rewards):
    """Per-state optima over all memoryless deterministic schedulers.

    Returns (pmax, pmin, rmax, rmin); reward entries of None mean infinity.
    """
    n = len(offsets) - 1
    counts = [int(offsets[s + 1] - offsets[s]) for s in range(n)]
    pmax = [Fraction(0)] * n
    pmin = [Fraction(1)] * n
    rmax = [None] * n  # running max over finite values; inf tracked separately
    rmin = [None] * n
    rmax_inf = [False] * n
    for sched in enumerate_schedulers(counts):
        ind = induced_rows(rows, offsets, sched)
        probs = oracle_reach_probability(ind, [True] * n, target)
        rw = [choice_rewards[int(offsets[s]) + sched[s]] for s in range(n)]
        rewards = oracle_reach_reward(ind, target, rw)
        for s in range(n):
            pmax[s] = max(pmax[s], probs[s])
            pmin[s] = min(pmin[s], probs[s])
            if rewards[s] is None:
                rmax_inf[s] = True
            else:
                rmax[s] = rewards[s] if rmax[s] is None else max(rmax[s], rewards[s])
                rmin[s] = rewards[s] if rmin[s] is None else min(rmin[s], rewards[s])
    rmax = [None if inf else v for v, inf in zip(rmax, rmax_inf)]
    return pmax, pmin, rmax, rmin


def test_03_mdp_oracle_equivalence():
    rng = random.Random(777)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = rng.randint(3, 6)
        counts = [rng.randint(1, 3) for _ in range(n)]
        offsets = np.cumsum([0] + counts)
        rows = random_stochastic_rows(rng, int(offsets[-1]), n)
        target = [False] * n
        target[n - 1] = True
        for c in range(int(offsets[n - 1]), int(offsets[n])):
            rows[c] = {n - 1: Fraction(1)}  # make the target absorbing
        choice_rewards = [Fraction(rng.randint(1, 3)) for _ in range(int(offsets[-1]))]
        pmax, pmin, rmax, rmin = _enumerate_mdp_optima(rows, offsets, target, choice_rewards)

        rm = RewardModel("r", action_rewards=np.array([float(v) for v in choice_rewards]))
        model = Model(
            ModelKind.MDP,
            rows_to_matrix(rows, n, False),
            StateLabeling(n, {"goal": target}),
            choice_offsets=offsets,
            rewards={"r": rm},
        )
        for method in ("value_iteration", "policy_iteration"):
            env = SolverEnvironment(minmax_method=method, precision=1e-9)
            got = {
                "pmax": check_text(model, 'Pmax=? [ F "goal" ]', env).values,
                "pmin": check_text(model, 'Pmin=? [ F "goal" ]', env).values,
                "rmax": check_text(model, 'Rmax{"r"}=? [ F "goal" ]', env).values,
                "rmin": check_text(model, 'Rmin{"r"}=? [ F "goal" ]', env).values,
            }
            for s in range(n):
                for key, expected in (("pmax", pmax[s]), ("pmin", pmin[s]), ("rmax", rmax[s]), ("rmin", rmin[s])):
                    value = got[key][s]
                    if expected is None:
                        assert math.isinf(value), f"{key} state {s}: expected inf, got {value}"
                    else:
                        worst = max(worst, abs(float(value) - float(expected)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report("MDP scheduler-enumeration equivalence", ok, f"worst gap {worst:.2e}, {elapsed:.1f} s")


def test_04_bounded_until_vs_path_enumeration():
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = random_stochastic_rows(rng, n, n)
        left = [rng.random() < 0.8 for _ in range(n)]
        right = [rng.random() < 0.3 for _ in range(n)]
        model = Model(
            ModelKind.DTMC,
            rows_to_matrix(rows, n, False),
            StateLabeling(n, {"l": left, "r": right}),
        )
        k = rng.randint(0, 6)
        got = check_text(model, f'P=? [ "l" U<={k} "r" ]', FLOAT_ENV).values
        for s in range(n):
            expected = _paths_bounded(rows, left, right, k, s)
            worst = max(worst, abs(got[s] - float(expected)))
    ok = worst <= 1e-12
    report("bounded until vs path enumeration", ok, f"worst gap {worst:.2e}")


def _paths_bounded(rows, left, right, k, s):
    if right[s]:
        return Fraction(1)
    if k == 0 or not left[s]:
        return Fraction(0)
    return sum(
        p * _paths_bounded(rows, left, right, k - 1, t) for t, p in rows[s].items()
    )


def test_05_ctmc_uniformization_closed_forms():
    worst = 0.0
    for lam, t in ((1.0, 1.0), (5.0, 0.5), (0.1, 10.0)):
        matrix = rows_to_matrix([{1: Fraction(1)}, {1: Fraction(1)}], 2, False)
        model = Model(
            ModelKind.CTMC,
            matrix,
            StateLabeling(2, {"goal": [False, True]}),
            exit_rates=[lam, 1.0],
        )
        got = check_text(model, f'P=? [ F<={t} "goal" ]', FLOAT_ENV).values[0]
        worst = max(worst, abs(got - (1.0 - math.exp(-lam * t))))
    series = Model(
        ModelKind.CTMC,
        rows_to_matrix([{1: Fraction(1)}, {2: Fraction(1)}, {2: Fraction(1)}], 3, False),
        StateLabeling(3, {"goal": [False, False, True]}),
        exit_rates=[2.0, 3.0, 1.0],
    )
    got = check_text(series, 'P=? [ F<=1 "goal" ]', FLOAT_ENV).values[0]
    series_expected = 1.0 - 3.0 * math.exp(-2.0) + 2.0 * math.exp(-3.0)
    worst = max(worst, abs(got - series_expected))
    ok = worst <= 1e-6
    report("CTMC uniformization closed forms", ok, f"worst gap {worst:.2e}")


def test_06_conditional_probability():
    third = Fraction(1, 3)
    rows = [
        {1: third, 2: third, 3: third},
        {1: Fraction(1)},
        {2: Fraction(1)},
        {3: Fraction(1)},
    ]
    labels = {"a": [False, True, False, False], "b": [False, True, True, False]}
    exact_model = Model(
        ModelKind.DTMC, rows_to_matrix(rows, 4, True), StateLabeling(4, labels)
    )
    exact = check_text(exact_model, 'P=? [ F "a" || F "b" ]', EXACT_ENV).values[0]

    model = Model(ModelKind.DTMC, rows_to_matrix(rows, 4, False), StateLabeling(4, labels))
    cond = check_text(model, 'P=? [ F "a" || F "b" ]', TIGHT_ENV).values[0]
    num = check_text(model, 'P=? [ F "a" ]', TIGHT_ENV).values[0]
    den = check_text(model, 'P=? [ F "b" ]', TIGHT_ENV).values[0]
    gap = abs(cond - num / den)
    ok = exact == Fraction(1, 2) and gap <= 1e-12
    report("conditional probability", ok, f"exact={exact}, |cond - num/den|={gap:.2e}")


CORPUS_PROPS = {
    "die.pm": ['P=? [ F "six" ]', 'P=? [ F "done" ]'],
    "coin.nm": ['Pmax=? [ F "agree" ]', 'Pmin=? [ F "disagree" ]'],
    "queue.sm": ['P=? [ F "full" ]', 'P=? [ F<=1 "full" ]'],
}


def test_07_round_trip_stability():
    worst = 0.0
    for name in CORPUS_MODELS:
        model, state_map = load_corpus(name)
        bundle_a = explicit.write_model(model)
        bundle_b = explicit.write_model(model)
        assert bundle_a.transitions_text == bundle_b.transitions_text
        assert bundle_a.labels_text == bundle_b.labels_text
        reloaded = explicit.build_model(bundle_a, fix_deadlocks=True)
        again = explicit.write_model(reloaded)
        assert again.transitions_text == bundle_a.transitions_text
        for text in CORPUS_PROPS[name]:
            direct = check_text(model, text, TIGHT_ENV, state_map).values
            redone = check_text(reloaded, text, TIGHT_ENV).values
            worst = max(worst, float(np.max(np.abs(np.asarray(direct) - np.asarray(redone)))))
    ok = worst <= 1e-12
    report("round-trip stability", ok, f"worst gap {worst:.2e} across {len(CORPUS_MODELS)} models")


def test_08_precomputation_soundness():
    rng = random.Random(31337)
    checked = 0
    for trial in range(500):
        n = rng.randint(2, 8)
        rows = random_stochastic_rows(rng, n, n)
        matrix = rows_to_matrix(rows, n, True)
        safe = np.array([rng.random() < 0.85 for _ in range(n)])
        target = np.array([rng.random() < 0.3 for _ in range(n)])
        p0 = graph.prob0(matrix, safe, target)
        p1 = graph.prob1(matrix, safe, target, p0)
        exact = oracle_reach_probability(rows, list(safe), list(target))
        for s in range(n):
            if p0[s]:
                assert exact[s] == 0
            if p1[s]:
                assert exact[s] == 1
        offsets = np.arange(n + 1, dtype=np.int64)
        p0a, p1e = graph.prob01_max(matrix, offsets, safe, target)
        p0e, p1a = graph.prob01_min(matrix, offsets, safe, target)
        assert np.array_equal(p0a, p0) and np.array_equal(p0e, p0)
        assert np.array_equal(p1e, p1) and np.array_equal(p1a, p1)
        checked += n
    report("precomputation soundness", True, f"{checked} states over 500 models")


def test_09_fox_glynn_windows():
    import mpmath

    mpmath.mp.dps = 60
    eps = 1e-10
    worst_tail = 0.0
    worst_norm = 0.0
    for lam in (0.5, 1.0, 10.0, 100.0, 1000.0):
        L, R, w, total = solvers.fox_glynn(lam, eps)
        pmf = [
            mpmath.exp(-lam) * mpmath.power(lam, k) / mpmath.factorial(k)
            for k in range(L, R + 1)
        ]
        window_mass = mpmath.fsum(pmf)
        worst_tail = max(worst_tail, float(1 - window_mass))
        normalized = sum(w) / total
        worst_norm = max(worst_norm, abs(float(normalized) - 1.0))
    ok = worst_tail <= eps and worst_norm <= eps
    report("Poisson window truncation", ok, f"max tail {worst_tail:.2e}, norm gap {worst_norm:.2e}")


# the lazy walk on 0..n, moving each way with probability 1/100: iterates of
# value iteration barely change on it long before they are near the fixed point
SLOW_CHAIN = """dtmc
module walk
  x : [0..{n}] init {init};
  [] x>0 & x<{n} -> 0.01 : (x'=x+1) + 0.01 : (x'=x-1) + 0.98 : (x'=x);
  [] x=0 | x={n} -> (x'=x);
endmodule
label "top" = x={n};
label "end" = x=0 | x={n};
rewards "steps"
  x>0 & x<{n} : 1;
endrewards
"""


@pytest.mark.parametrize("n", [40, 100, 200])
def test_10_slow_chains_meet_the_precision(n, tmp_path, capsys):
    init = n // 2 - 1
    program = tmp_path / "walk.pm"
    program.write_text(SLOW_CHAIN.format(n=n, init=init))
    code = cli.main(["--prism", str(program), "--json", "--prop", 'P=? [ F "top" ]', "--prop", 'R=? [ F "end" ]'])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # closed forms: P(top) = init/n, and the expected steps are init*(n-init)/(2/100)
    refs = [Fraction(init, n), Fraction(init * (n - init) * 50)]
    errors = [abs(Fraction(line["values"]["0"]) - ref) / ref for line, ref in zip(lines, refs)]
    bounds = [line["metadata"].get("error_bound", math.inf) for line in lines]
    ok = (
        code == 0
        and all(line["metadata"]["method"] == "elimination" for line in lines)
        and max(errors) <= 1e-6
        and max(bounds) <= 1e-6
    )
    report(f"slow chain of {n + 1} states", ok,
           f"relative errors {float(max(errors)):.1e}, error bounds {max(bounds):.1e}")


@pytest.mark.parametrize("n", [300, 1000])
def test_11_ruin_mdp_is_certified(n):
    model, state_map = explore(typecheck(parse_program(RUIN_MDP.format(n=n, init=n // 2))), ExploreOptions())
    position = state_map.columns[0]
    results = {text: check_text(model, text, FLOAT_ENV, state_map) for text in RUIN_PROPS}
    # the scheduler returned for Rmin is optimal: evaluated exactly, no choice improves on it
    scheduler = results['Rmin=? [ F "end" ]'].metadata["scheduler"]
    policy = [0] * (n + 1)
    for s, x in enumerate(position):
        policy[x] = int(scheduler[s])
    steps, better = ruin_steps(n, policy)
    assert not better
    refs = {'Pmax=? [ F "top" ]': ruin_top(n, 441), 'Pmin=? [ F "top" ]': ruin_top(n, 401),
            'Rmin=? [ F "end" ]': steps}
    worst, widest = 0.0, 0.0
    for text, result in results.items():
        meta = result.metadata
        assert meta["method"] == "policy_iteration" and meta["error_bound"] <= 1e-6, text
        widest = max(widest, meta["error_bound"])
        bp, bq = meta["error_bound"].as_integer_ratio()
        for s, x in enumerate(position):
            rp, rq = refs[text][x]
            if not rp:
                continue
            # |value - ref| <= bound * |value|, in integers
            vp, vq = result.values[s].as_integer_ratio()
            gap = abs(vp * rq - rp * vq)
            assert gap * bq <= bp * abs(vp) * rq, (text, x)
            worst = max(worst, relative_error(result.values[s], (rp, rq)))
    report(f"ruin MDP of {n + 1} states", worst <= 1e-6,
           f"relative errors {worst:.1e}, error bounds {widest:.1e}")


def test_12_tiny_pmin_by_value_iteration(tmp_path, capsys):
    # from state 20 of 0..200, the worse choice reaches 200 with probability about 3e-32; the
    # relative precision holds for every normal value, so the iteration must resolve it
    n, init = 200, 20
    program = tmp_path / "ruin.nm"
    program.write_text(RUIN_MDP.format(n=n, init=init))
    code = cli.main(["--prism", str(program), "--minmax", "vi", "--json", "--prop", 'Pmin=? [ F "top" ]'])
    line = json.loads(capsys.readouterr().out)
    value, bound = line["values"]["0"], line["metadata"].get("error_bound", math.inf)
    ref = ruin_top(n, 401)[init]
    error = relative_error(value, ref)
    report(f"Pmin {value:.3g} of the ruin MDP by value iteration", code == 0 and value < 1e-30
           and line["metadata"]["method"] == "value_iteration" and error <= bound <= 1e-6,
           f"relative error {error:.1e}, error bound {bound:.1e}")
