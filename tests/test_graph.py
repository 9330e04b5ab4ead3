"""Qualitative precomputation against brute-force oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    enumerate_schedulers,
    induced_rows,
    oracle_reach_probability,
    random_dtmc,
    random_mdp,
    random_stochastic_rows,
    rows_to_matrix,
)
from stormlet import graph, sparse


def bits(n, true_at):
    out = np.zeros(n, dtype=bool)
    for i in true_at:
        out[i] = True
    return out


def test_prob0_simple_chain():
    # 0 -> 1 -> 2(absorbing), 3 absorbing and unreachable from {0,1}
    rows = [{1: Fraction(1)}, {2: Fraction(1)}, {2: Fraction(1)}, {3: Fraction(1)}]
    m = rows_to_matrix(rows, 4, False)
    safe = np.ones(4, dtype=bool)
    target = bits(4, [2])
    p0 = graph.prob0(m, safe, target)
    assert list(p0) == [False, False, False, True]
    p1 = graph.prob1(m, safe, target, p0)
    assert list(p1) == [True, True, True, False]


def test_prob0_respects_safe_set():
    rows = [{1: Fraction(1)}, {2: Fraction(1)}, {2: Fraction(1)}]
    m = rows_to_matrix(rows, 3, False)
    safe = bits(3, [0])  # state 1 is not allowed as an intermediate state
    target = bits(3, [2])
    p0 = graph.prob0(m, safe, target)
    assert list(p0) == [True, True, False]


@pytest.mark.parametrize("seed", range(30))
def test_prob0_prob1_match_exact_values(seed):
    rng = random.Random(seed)
    model, rows = random_dtmc(rng, 6)
    safe = np.array([rng.random() < 0.8 for _ in range(6)])
    target = np.array([rng.random() < 0.3 for _ in range(6)])
    p0 = graph.prob0(model.matrix, safe, target)
    p1 = graph.prob1(model.matrix, safe, target, p0)
    exact = oracle_reach_probability(rows, list(safe), list(target))
    for s in range(6):
        assert p0[s] == (exact[s] == 0)
        assert p1[s] == (exact[s] == 1)


@pytest.mark.parametrize("seed", range(25))
def test_prob01_max_min_match_scheduler_enumeration(seed):
    rng = random.Random(1000 + seed)
    model, rows, offsets = random_mdp(rng, 4, max_choices=3)
    safe = np.array([rng.random() < 0.85 for _ in range(4)])
    target = np.array([rng.random() < 0.35 for _ in range(4)])
    counts = [int(offsets[s + 1] - offsets[s]) for s in range(4)]

    per_sched = [
        oracle_reach_probability(induced_rows(rows, offsets, sched), list(safe), list(target))
        for sched in enumerate_schedulers(counts)
    ]
    vmax = [max(vals[s] for vals in per_sched) for s in range(4)]
    vmin = [min(vals[s] for vals in per_sched) for s in range(4)]

    p0a, p1e = graph.prob01_max(model.matrix, offsets, safe, target)
    p0e, p1a = graph.prob01_min(model.matrix, offsets, safe, target)
    for s in range(4):
        assert p0a[s] == (vmax[s] == 0)
        assert p1e[s] == (vmax[s] == 1)
        assert p0e[s] == (vmin[s] == 0)
        assert p1a[s] == (vmin[s] == 1)


@pytest.mark.parametrize("seed", range(20))
def test_single_choice_mdp_coincides_with_dtmc_precomputation(seed):
    rng = random.Random(2000 + seed)
    rows = random_stochastic_rows(rng, 5, 5)
    m = rows_to_matrix(rows, 5, False)
    offsets = np.arange(6, dtype=np.int64)
    safe = np.array([rng.random() < 0.9 for _ in range(5)])
    target = np.array([rng.random() < 0.3 for _ in range(5)])
    p0 = graph.prob0(m, safe, target)
    p1 = graph.prob1(m, safe, target, p0)
    p0a, p1e = graph.prob01_max(m, offsets, safe, target)
    p0e, p1a = graph.prob01_min(m, offsets, safe, target)
    assert np.array_equal(p0a, p0) and np.array_equal(p0e, p0)
    assert np.array_equal(p1e, p1) and np.array_equal(p1a, p1)


@pytest.mark.parametrize("seed", range(15))
def test_prob1e_witness_induces_almost_sure_reachability(seed):
    rng = random.Random(3000 + seed)
    model, rows, offsets = random_mdp(rng, 5, max_choices=3)
    safe = np.ones(5, dtype=bool)
    target = np.array([rng.random() < 0.3 for _ in range(5)])
    if not target.any():
        target[0] = True
    _, p1e = graph.prob01_max(model.matrix, offsets, safe, target)
    witness = graph.prob1e_witness(model.matrix, offsets, safe, target, p1e)
    induced = induced_rows(rows, offsets, witness)
    for s in np.flatnonzero(p1e & ~target):
        assert all(p1e[t] for t in induced[s])
    exact = oracle_reach_probability(induced, [True] * 5, list(target))
    for s in np.flatnonzero(p1e):
        assert exact[s] == 1


# --- brute-force fixed points ---------------------------------------------


def succ_sets(m):
    return [set(m.row(r)[0].tolist()) for r in range(m.rows)]


def naive_closure(choices, start, allowed, joins):
    """Least superset of start under: an allowed state joins when joins(its successor sets, set)."""
    reach = set(np.flatnonzero(start).tolist())
    changed = True
    while changed:
        changed = False
        for s, rows in enumerate(choices):
            if s not in reach and allowed[s] and joins(rows, reach):
                reach.add(s)
                changed = True
    return reach


def some_row_hits(rows, reach):
    return any(row & reach for row in rows)


def every_row_hits(rows, reach):
    return all(row & reach for row in rows)


def naive_prob01(choices, safe, target):
    """(prob0A, prob1E, prob0E, prob1A) as state sets, one full scan per step."""
    n = len(choices)
    everything = set(range(n))
    prob0a = everything - naive_closure(choices, target, safe, some_row_hits)
    prob0e = everything - naive_closure(choices, target, safe, every_row_hits)
    prob0e_bits = np.array([s in prob0e for s in range(n)], dtype=bool)
    prob1a = everything - naive_closure(choices, prob0e_bits, safe & ~target, some_row_hits)
    u = everything
    while True:
        staying = [[row for row in rows if row <= u] for rows in choices]
        v = naive_closure(staying, target, safe, some_row_hits)
        if v == u:
            return prob0a, u, prob0e, prob1a
        u = v


def naive_witness(choices, safe, target, prob1e):
    """Layer by layer back from target, each new state's lowest choice that stays
    inside prob1e and reaches an earlier layer."""
    witness = [0] * len(choices)
    done = set(np.flatnonzero(target).tolist())
    pending = [s for s in range(len(choices)) if prob1e[s] and safe[s] and s not in done]
    while True:
        layer = {}
        for s in pending:
            for c, row in enumerate(choices[s]):
                if all(prob1e[t] for t in row) and row & done:
                    layer[s] = c
                    break
        if not layer:
            return witness
        for s, c in layer.items():
            witness[s] = c
        done |= set(layer)
        pending = [s for s in pending if s not in layer]


def as_set(bits):
    return set(np.flatnonzero(bits).tolist())


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_graph_functions_match_naive_fixed_points(seed, rational):
    rng = random.Random(4000 + seed)
    n = rng.randint(1, 9)
    model, _, offsets = random_mdp(rng, n, max_choices=3, rational=rational)
    dtmc, _ = random_dtmc(rng, n, rational=rational)
    safe = np.array([rng.random() < 0.85 for _ in range(n)])
    target = np.array([rng.random() < 0.3 for _ in range(n)])
    everything = set(range(n))

    # deterministic: one choice per state
    det = [[row] for row in succ_sets(dtmc.matrix)]
    p0 = graph.prob0(dtmc.matrix, safe, target)
    assert as_set(p0) == everything - naive_closure(det, target, safe, some_row_hits)
    p1 = graph.prob1(dtmc.matrix, safe, target, p0)
    assert as_set(p1) == everything - naive_closure(det, p0, safe & ~target, some_row_hits)
    allowed = np.array([rng.random() < 0.7 for _ in range(n)])
    closure = graph._backward_closure(dtmc.matrix, target, allowed)
    assert as_set(closure) == naive_closure(det, target, allowed, some_row_hits)

    rows = succ_sets(model.matrix)
    choices = [rows[offsets[s]:offsets[s + 1]] for s in range(n)]
    p0a, p1e, p0e, p1a = naive_prob01(choices, safe, target)
    got_0a, got_1e = graph.prob01_max(model.matrix, offsets, safe, target)
    got_0e, got_1a = graph.prob01_min(model.matrix, offsets, safe, target)
    assert (as_set(got_0a), as_set(got_1e), as_set(got_0e), as_set(got_1a)) == (p0a, p1e, p0e, p1a)
    assert list(graph._per_row_all(model.matrix, got_1e)) == [row <= p1e for row in rows]

    witness = graph.prob1e_witness(model.matrix, offsets, safe, target, got_1e)
    assert witness.dtype == np.int64
    assert witness.tolist() == naive_witness(choices, safe, target, got_1e)
    # any other candidate set is layered the same way
    other = np.array([rng.random() < 0.7 for _ in range(n)])
    assert graph.prob1e_witness(model.matrix, offsets, safe, target, other).tolist() == naive_witness(
        choices, safe, target, other
    )


def _grouping(rng, rows, n):
    """Offsets that give each of n states at least one of the rows."""
    return np.array([0, *sorted(rng.sample(range(1, rows), n - 1)), rows], dtype=np.int64)


def _mdp_sets(matrix, offsets, safe, target):
    p0a, p1e = graph.prob01_max(matrix, offsets, safe, target)
    p0e, p1a = graph.prob01_min(matrix, offsets, safe, target)
    witness = graph.prob1e_witness(matrix, offsets, safe, target, p1e).tolist()
    return as_set(p0a), as_set(p1e), as_set(p0e), as_set(p1a), witness


def _uncached(m):
    return sparse.SparseMatrix(m.rows, m.cols, m.row_offsets, m.col_indices, m.values, m.dtype)


@pytest.mark.parametrize("seed", range(30))
def test_predecessor_index_is_cached_per_matrix_and_grouping(seed):
    rng = random.Random(9000 + seed)
    n = rng.randint(1, 8)
    rows = random_stochastic_rows(rng, n + rng.randint(0, 8), n)
    matrix = rows_to_matrix(rows, n, False)
    safe = np.array([rng.random() < 0.85 for _ in range(n)])
    target = np.array([rng.random() < 0.3 for _ in range(n)])
    succ = succ_sets(matrix)
    first, second = (_grouping(rng, len(rows), n) for _ in range(2))
    # one matrix under two groupings and back, then its exact twin
    for m, offsets in [(matrix, first), (matrix, second), (matrix, first), (matrix.to_rational(), second)]:
        got = _mdp_sets(m, offsets, safe, target)
        assert got == _mdp_sets(_uncached(m), offsets, safe, target)
        choices = [succ[offsets[s]:offsets[s + 1]] for s in range(n)]
        p1e_bits = bits(n, got[1])
        assert got == (*naive_prob01(choices, safe, target), naive_witness(choices, safe, target, p1e_bits))

    # the square matrix of one choice per state, as solvers restrict it
    chosen = np.array([rng.randrange(lo, hi) for lo, hi in zip(first, first[1:])], dtype=np.int64)
    keep = np.zeros(len(rows), dtype=bool)
    keep[chosen] = True
    sub, _ = sparse.restrict(matrix, keep, np.ones(n, dtype=bool))
    det = [[succ[r]] for r in chosen]
    allowed = np.array([rng.random() < 0.7 for _ in range(n)])
    for m in (sub, sub, _uncached(sub)):
        assert as_set(graph._backward_closure(m, target, allowed)) == naive_closure(det, target, allowed,
                                                                                     some_row_hits)
        p0 = graph.prob0(m, safe, target)
        assert as_set(p0) == set(range(n)) - naive_closure(det, target, safe, some_row_hits)
        assert as_set(graph.prob1(m, safe, target, p0)) == set(range(n)) - naive_closure(
            det, p0, safe & ~target, some_row_hits)


LONG = 20000


def long_chain(choices):
    """0..LONG: 0 reflects (up or stay), LONG absorbs, inner states step up or down.

    With two choices every state but LONG gets a first choice that stays put;
    the moving choice comes second.
    """
    half = Fraction(1, 2)
    rows = []
    for x in range(LONG):
        move = {max(x - 1, 0): half, x + 1: half}
        rows.extend([{x: Fraction(1)}, move] if choices == 2 else [move])
    rows.append({LONG: Fraction(1)})
    counts = [choices] * LONG + [1]
    return rows_to_matrix(rows, LONG + 1, False), np.cumsum([0] + counts)


def test_long_chain_precomputation_sets():
    n = LONG + 1
    everywhere = np.ones(n, dtype=bool)
    top, bottom = bits(n, [LONG]), bits(n, [0])
    dtmc, _ = long_chain(1)
    p0 = graph.prob0(dtmc, everywhere, top)
    assert not p0.any() and graph.prob1(dtmc, everywhere, top, p0).all()
    p0 = graph.prob0(dtmc, everywhere, bottom)
    assert as_set(p0) == {LONG}
    assert as_set(graph.prob1(dtmc, everywhere, bottom, p0)) == {0}

    mdp, offsets = long_chain(2)
    p0a, p1e = graph.prob01_max(mdp, offsets, everywhere, top)
    assert not p0a.any() and p1e.all()
    p0e, p1a = graph.prob01_min(mdp, offsets, everywhere, top)
    assert as_set(p0e) == set(range(LONG)) and as_set(p1a) == {LONG}
    witness = graph.prob1e_witness(mdp, offsets, everywhere, top, p1e)
    assert witness.tolist() == [1] * LONG + [0]
    p0e, p1a = graph.prob01_min(mdp, offsets, everywhere, bottom)
    assert as_set(p0e) == set(range(1, n)) and as_set(p1a) == {0}


def ruin_mdp(n):
    """0..n: 0 and n absorb, every inner state has two choices that both move."""
    rows = [{0: Fraction(1)}]
    for x in range(1, n):
        rows += [{x - 1: Fraction(3, 5), x + 1: Fraction(2, 5)}, {x - 1: Fraction(2, 5), x + 1: Fraction(3, 5)}]
    rows.append({n: Fraction(1)})
    return rows_to_matrix(rows, n + 1, False), np.cumsum([0, 1] + [2] * (n - 1) + [1])


def test_prob1e_drops_a_whole_attractor_per_round(monkeypatch):
    # toward 0 every inner state can slip to n, which never returns: prob1E
    # is {0}. Dropping one state per round took a closure per state; each
    # round now drops every state whose choices all leave the candidates.
    mdp, offsets = ruin_mdp(LONG)
    calls = []
    closure = graph._closure
    monkeypatch.setattr(graph, "_closure", lambda *args, **kw: calls.append(1) or closure(*args, **kw))
    everywhere = np.ones(LONG + 1, dtype=bool)
    p0a, p1e = graph.prob01_max(mdp, offsets, everywhere, bits(LONG + 1, [0]))
    assert as_set(p0a) == {LONG} and as_set(p1e) == {0}
    # prob0A, one attractor pass, one closure that confirms the fixed point
    assert len(calls) == 3


def test_prob1e_skips_the_closure_that_every_row_stays_in(monkeypatch):
    # toward LONG every state reaches it under some scheduler, so prob0A is
    # empty and every row stays inside the candidates: the restricted closure
    # would repeat prob0A's, and only that one runs
    mdp, offsets = long_chain(2)
    calls = []
    closure = graph._closure
    monkeypatch.setattr(graph, "_closure", lambda *args, **kw: calls.append(1) or closure(*args, **kw))
    everywhere = np.ones(LONG + 1, dtype=bool)
    p0a, p1e = graph.prob01_max(mdp, offsets, everywhere, bits(LONG + 1, [LONG]))
    assert not p0a.any() and p1e.all()
    assert len(calls) == 1


def stepping_mdp(rng, n, stay):
    """Choices that mostly step to a neighbour, so the fixed points take many
    rounds; with ``stay`` some choices loop on their state (end components)."""
    rows, counts = [], []
    for s in range(n):
        counts.append(rng.randint(1, 3))
        for _ in range(counts[-1]):
            if stay and rng.random() < 0.3:
                rows.append({s: Fraction(1)})
                continue
            succ = {max(s - 1, 0), min(s + 1, n - 1)} | ({rng.randrange(n)} if rng.random() < 0.2 else set())
            rows.append({t: Fraction(1, len(succ)) for t in succ})
    return rows_to_matrix(rows, n, False), np.cumsum([0] + counts)


@pytest.mark.parametrize("stay", [False, True])
@pytest.mark.parametrize("seed", range(30))
def test_prob01_on_deeper_mdps_matches_naive_fixed_points(seed, stay):
    rng = random.Random(7000 + seed)
    n = rng.randint(10, 40)
    mdp, offsets = stepping_mdp(rng, n, stay)
    safe = np.array([rng.random() < 0.9 for _ in range(n)])
    target = bits(n, rng.sample(range(n), rng.randint(1, 3)))
    rows = succ_sets(mdp)
    choices = [rows[offsets[s]:offsets[s + 1]] for s in range(n)]
    p0a, p1e, p0e, p1a = naive_prob01(choices, safe, target)
    got_0a, got_1e = graph.prob01_max(mdp, offsets, safe, target)
    got_0e, got_1a = graph.prob01_min(mdp, offsets, safe, target)
    assert (as_set(got_0a), as_set(got_1e), as_set(got_0e), as_set(got_1a)) == (p0a, p1e, p0e, p1a)


def test_prob1e_with_end_components_matches_naive_fixed_point():
    # long_chain(2) toward 0 on 300 states: every state may stay put, so no
    # round drops more than one state, and the rounds still agree
    n = 300
    rows = [{0: Fraction(1)}, {1: Fraction(1)}]
    for x in range(1, n - 1):
        rows += [{x: Fraction(1)}, {x - 1: Fraction(1, 2), x + 1: Fraction(1, 2)}]
    rows.append({n - 1: Fraction(1)})
    mdp, offsets = rows_to_matrix(rows, n, False), np.cumsum([0] + [2] * (n - 1) + [1])
    everywhere, bottom = np.ones(n, dtype=bool), bits(n, [0])
    succ = succ_sets(mdp)
    p0a, p1e, _, _ = naive_prob01([succ[offsets[s]:offsets[s + 1]] for s in range(n)], everywhere, bottom)
    got_0a, got_1e = graph.prob01_max(mdp, offsets, everywhere, bottom)
    assert (as_set(got_0a), as_set(got_1e)) == (p0a, p1e) == ({n - 1}, {0})
