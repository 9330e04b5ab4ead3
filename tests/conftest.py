"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results with naive methods (dense
elimination, path enumeration, scheduler enumeration) so they stay
independent of the code paths they check.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stormlet import sparse
from stormlet.models import Model, ModelKind, StateLabeling
from stormlet.sparse import SparseMatrix

CORPUS = Path(__file__).parent / "corpus"

# state 0 may [stay] forever or [go] to the goal for reward 1; only [go] reaches it
STAY_OR_GO = """mdp
module m
  s : [0..1] init 0;
  [stay] s=0 -> (s'=0);
  [go] s=0 -> (s'=1);
  [] s=1 -> (s'=1);
endmodule
label "goal" = s=1;
rewards
  [go] true : 1;
endrewards
"""


@pytest.fixture
def die_source():
    return (CORPUS / "die.pm").read_text()


def assert_same(got, expected):
    """Assert that two models, matrices, labelings or vectors are the same:
    float values bit for bit, rational ones as equal Fractions, and rewards
    in the same order."""
    if isinstance(expected, Model):
        assert got.kind is expected.kind
        for part in ("matrix", "choice_offsets", "labeling", "initial_states", "exit_rates"):
            assert_same(getattr(got, part), getattr(expected, part))
        assert list(got.rewards) == list(expected.rewards)
        for name, rm in expected.rewards.items():
            assert_same(got.rewards[name].state_rewards, rm.state_rewards)
            assert_same(got.rewards[name].action_rewards, rm.action_rewards)
    elif isinstance(expected, SparseMatrix):
        assert (got.rows, got.cols, got.dtype) == (expected.rows, expected.cols, expected.dtype)
        for part in ("row_offsets", "col_indices", "values"):
            assert_same(getattr(got, part), getattr(expected, part))
    elif isinstance(expected, StateLabeling):
        assert got.names() == expected.names()
        for name in expected.names():
            assert_same(got.get(name), expected.get(name))
    elif expected is None:
        assert got is None
    else:
        assert got.dtype == expected.dtype and len(got) == len(expected)
        if got.dtype == object:
            assert list(got) == list(expected) and all(type(v) is Fraction for v in got)
        else:
            assert got.tobytes() == expected.tobytes()


# --- random model generation ---------------------------------------------


def random_stochastic_rows(rng, n_rows, n_cols, max_succ=3):
    """Rows of exact Fractions summing to one (as dicts col -> Fraction)."""
    rows = []
    for _ in range(n_rows):
        succ = rng.sample(range(n_cols), rng.randint(1, min(max_succ, n_cols)))
        weights = [rng.randint(1, 5) for _ in succ]
        total = sum(weights)
        rows.append({c: Fraction(w, total) for c, w in zip(succ, weights)})
    return rows


def rows_to_matrix(rows, n_cols, rational):
    triples = []
    for i, row in enumerate(rows):
        for c, v in row.items():
            triples.append((i, c, v if rational else float(v)))
    return sparse.build_sparse(triples, len(rows), n_cols, "rational" if rational else "float")


def random_dtmc(rng, n, rational=False, labels=None):
    rows = random_stochastic_rows(rng, n, n)
    matrix = rows_to_matrix(rows, n, rational)
    labeling = StateLabeling(n, labels or {})
    return Model(ModelKind.DTMC, matrix, labeling), rows


def random_mdp(rng, n, max_choices=2, rational=False, labels=None):
    counts = [rng.randint(1, max_choices) for _ in range(n)]
    rows = random_stochastic_rows(rng, sum(counts), n)
    matrix = rows_to_matrix(rows, n, rational)
    offsets = np.cumsum([0] + counts)
    labeling = StateLabeling(n, labels or {})
    return Model(ModelKind.MDP, matrix, labeling, choice_offsets=offsets), rows, offsets


# --- independent oracles --------------------------------------------------


def dense_solve_exact(a_rows, b):
    """Solve (I - A)x = b over Fractions; A given as row dicts. No pivoting
    search beyond the first nonzero (independent of the library solver)."""
    n = len(b)
    m = [[-Fraction(a_rows[i].get(j, 0)) for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] += 1
    rhs = [Fraction(v) for v in b]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= m[col][c] * f
            rhs[r] -= rhs[col] * f
    return [rhs[i] / m[i][i] for i in range(n)]


def oracle_reach_probability(rows, safe, target):
    """Exact P(safe U target) per state, via backward BFS plus dense solve."""
    n = len(safe)
    can_reach = set(i for i in range(n) if target[i])
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in can_reach or not safe[s]:
                continue
            if any(t in can_reach for t in rows[s]):
                can_reach.add(s)
                changed = True
    values = [Fraction(0)] * n
    unknown = [s for s in range(n) if s in can_reach and not target[s]]
    if unknown:
        pos = {s: i for i, s in enumerate(unknown)}
        a = []
        b = []
        for s in unknown:
            arow = {}
            acc = Fraction(0)
            for t, p in rows[s].items():
                if target[t]:
                    acc += p
                elif t in pos:
                    arow[pos[t]] = p
            a.append(arow)
            b.append(acc)
        x = dense_solve_exact(a, b)
        for s, i in pos.items():
            values[s] = x[i]
    for s in range(n):
        if target[s]:
            values[s] = Fraction(1)
    return values


def oracle_reach_reward(rows, target, reward):
    """Exact expected reward to target; None where the target is missed."""
    n = len(target)
    probs = oracle_reach_probability(rows, [True] * n, target)
    values = [None] * n
    unknown = [s for s in range(n) if probs[s] == 1 and not target[s]]
    pos = {s: i for i, s in enumerate(unknown)}
    a = []
    b = []
    for s in unknown:
        arow = {pos[t]: p for t, p in rows[s].items() if t in pos}
        a.append(arow)
        b.append(Fraction(reward[s]))
    if unknown:
        x = dense_solve_exact(a, b)
        for s, i in pos.items():
            values[s] = x[i]
    for s in range(n):
        if target[s]:
            values[s] = Fraction(0)
    return values


def enumerate_schedulers(counts):
    """All memoryless deterministic schedulers for per-state choice counts."""
    return itertools.product(*[range(c) for c in counts])


def induced_rows(rows, offsets, scheduler):
    return [rows[offsets[s] + scheduler[s]] for s in range(len(scheduler))]


def oracle_mdp_reach(rows, offsets, target, maximize):
    """Optimal reachability probabilities by exhaustive scheduler enumeration."""
    n = len(offsets) - 1
    counts = [offsets[s + 1] - offsets[s] for s in range(n)]
    best = None
    for sched in enumerate_schedulers(counts):
        vals = oracle_reach_probability(induced_rows(rows, offsets, sched), [True] * n, target)
        if best is None:
            best = vals
        else:
            best = [max(a, b) if maximize else min(a, b) for a, b in zip(best, vals)]
    return best


def oracle_mdp_reach_reward(rows, offsets, target, choice_rewards, maximize):
    """Optimal expected reward by scheduler enumeration (None = infinite)."""
    n = len(offsets) - 1
    counts = [offsets[s + 1] - offsets[s] for s in range(n)]
    best = [None] * n
    for sched in enumerate_schedulers(counts):
        ind = induced_rows(rows, offsets, sched)
        rw = [choice_rewards[offsets[s] + sched[s]] for s in range(n)]
        vals = oracle_reach_reward(ind, target, rw)
        for s in range(n):
            if vals[s] is None:
                continue
            if best[s] is None:
                best[s] = vals[s]
            else:
                best[s] = max(best[s], vals[s]) if maximize else min(best[s], vals[s])
    if maximize:
        # a single scheduler missing the target makes the supremum infinite
        for sched in enumerate_schedulers(counts):
            ind = induced_rows(rows, offsets, sched)
            probs = oracle_reach_probability(ind, [True] * n, target)
            for s in range(n):
                if probs[s] != 1 and not target[s]:
                    best[s] = None
    return best


def oracle_bounded_until(rows, left, right, k, start):
    """P(left U<=k right) from one state by explicit path enumeration."""
    if right[start]:
        return Fraction(1)
    if k == 0 or not left[start]:
        return Fraction(0)
    total = Fraction(0)
    for t, p in rows[start].items():
        total += Fraction(p) * oracle_bounded_until(rows, left, right, k - 1, t)
    return total


def oracle_cumulative_reward(rows, reward, k, start):
    """Expected reward over k steps by recursion on the step count."""
    if k == 0:
        return Fraction(0)
    acc = Fraction(reward[start])
    for t, p in rows[start].items():
        acc += Fraction(p) * oracle_cumulative_reward(rows, reward, k - 1, t)
    return acc


@pytest.fixture
def rng():
    return random.Random(20240817)
