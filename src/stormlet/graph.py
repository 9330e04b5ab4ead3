"""Graph-based qualitative precomputation for until formulas.

All functions work on the transition structure only (values ignored beyond
being positive). MDP variants take the choice_offsets grouping matrix rows
by state; deterministic models pass the identity grouping.

The first call on a matrix builds its predecessor index and caches it on
the matrix with the grouping it was built for; another grouping builds it
again. The index is made of Python tuples and lists, which the searches
walk about three times faster than memoryviews of numpy arrays: per column
a tuple of the rows with an entry there, and a list of each row's state. It lives as long
as the matrix and takes about 70 to 85 bytes per entry (at two entries per
column), against 16 for the matrix itself.

Each call grows its sets by a worklist backward search over that index,
so a least fixed point costs
O(states + transitions). The greatest fixed point behind prob1E starts from
the states that can reach target and repeats two such searches per round:
one drops every state whose choices all leave the candidate set, with all
that this forces out, and one keeps the states that reach target by choices
that stay inside it (Baier & Katoen, Principles of Model Checking, 10.1 and
10.6, Alg. 46). Each round is linear. A round can still remove a single
state when that state keeps a choice inside the set, which takes an end
component, so such models cost O(states * transitions) in the worst case.
"""

import numpy as np


def _predecessors(matrix, choice_offsets):
    """The backward index of ``matrix`` under a grouping: (rows, owner).

    rows[t] is the tuple of the matrix rows with an entry in column t,
    ascending, and owner[r] is the state whose choice row r is; the garbage
    collector stops tracking tuples of ints. The index is cached in
    ``matrix.predecessors`` with a copy of the grouping.
    """
    cached = matrix.predecessors
    if cached is None or not np.array_equal(cached[0], choice_offsets):
        # the rows of the entries in column order, each column's ascending; values are not read
        order = np.argsort(matrix.col_indices, kind="stable")
        entries = tuple(np.repeat(np.arange(matrix.rows), np.diff(matrix.row_offsets))[order].tolist())
        bounds = [0] + np.cumsum(np.bincount(matrix.col_indices, minlength=matrix.cols)).tolist()
        owner = np.repeat(np.arange(len(choice_offsets) - 1), np.diff(choice_offsets)).tolist()
        index = [entries[lo:hi] for lo, hi in zip(bounds, bounds[1:])], owner
        cached = matrix.predecessors = np.array(choice_offsets, dtype=np.int64), index
    return cached[1]


def _closure(index, start, allowed, need=None, row_ok=None):
    """Least superset of start closed under adding allowed states whose rows reach it.

    A state outside the set joins once it is allowed and ``need[s]`` of its
    rows (one when need is None) have a successor in the set; rows with
    ``row_ok`` false never count. Every predecessor entry is visited at most
    once. Without need and row_ok a state joins at its first row that
    reaches the set, which a tighter loop checks by the state alone.
    """
    rows, owner = index
    closed = (np.asarray(start, dtype=bool) | ~np.asarray(allowed, dtype=bool)).tolist()
    reached = np.flatnonzero(start).tolist()  # the set, in the order its states joined
    if need is None and row_ok is None:
        for t in reached:  # the loop also takes the states appended to reached
            for r in rows[t]:
                s = owner[r]
                if not closed[s]:
                    closed[s] = True
                    reached.append(s)
    else:
        need = [1] * len(closed) if need is None else need.tolist()
        counted = [False] * len(owner) if row_ok is None else (~row_ok).tolist()
        for t in reached:
            for r in rows[t]:
                if counted[r]:
                    continue
                counted[r] = True
                s = owner[r]
                if closed[s]:
                    continue
                need[s] -= 1
                if not need[s]:
                    closed[s] = True
                    reached.append(s)
    out = np.zeros(len(closed), dtype=bool)
    out[reached] = True
    return out


def _per_row_all(m, in_set):
    """Per matrix row: all successors inside in_set (vacuously true for empty rows)."""
    misses = np.flatnonzero(~np.asarray(in_set, dtype=bool)[m.col_indices])
    out = np.ones(m.rows, dtype=bool)
    out[np.searchsorted(m.row_offsets, misses, side="right") - 1] = False
    return out


def _backward_closure(m, start, frontier_allowed):
    """Least set containing start, closed under: s allowed and s has a successor in the set."""
    return _closure(_predecessors(m, np.arange(m.rows + 1)), start, frontier_allowed)


def prob0(matrix, safe, target):
    """States from which no path satisfies (safe U target)."""
    safe = np.asarray(safe, dtype=bool)
    target = np.asarray(target, dtype=bool)
    return ~_backward_closure(matrix, target, safe)


def prob1(matrix, safe, target, p0):
    """States satisfying (safe U target) with probability one.

    p0 must be the prob0 result for the same inputs.
    """
    safe = np.asarray(safe, dtype=bool)
    target = np.asarray(target, dtype=bool)
    bad = _backward_closure(matrix, np.asarray(p0, dtype=bool), safe & ~target)
    return ~bad


def prob01_max(matrix, choice_offsets, safe, target):
    """(prob0A, prob1E): all-scheduler probability 0 / some-scheduler probability 1."""
    safe = np.asarray(safe, dtype=bool)
    target = np.asarray(target, dtype=bool)
    choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
    index = _predecessors(matrix, choice_offsets)

    # Pmax > 0: backward reachability with existential choice.
    prob0a = ~_closure(index, target, safe)

    # Pmax = 1: greatest fixed point over a nested least fixed point, whose
    # rounds only count choices that stay inside the current candidate set.
    # A round first drops every state outside target whose choices all
    # leave the set, and all that this forces out: none of them can be in
    # the fixed point, so the result is the same and the rounds fewer.
    u = ~prob0a
    choices = np.diff(choice_offsets)
    while True:
        if not u.all():
            u = ~_closure(index, ~u, ~target, need=choices)
        row_ok = _per_row_all(matrix, u)
        # with every row counted the closure is the plain one, prob0A's complement
        v = ~prob0a if row_ok.all() else _closure(index, target, safe, row_ok=row_ok)
        if np.array_equal(v, u):
            return prob0a, u
        u = v


def prob01_min(matrix, choice_offsets, safe, target):
    """(prob0E, prob1A): some-scheduler probability 0 / all-scheduler probability 1."""
    safe = np.asarray(safe, dtype=bool)
    target = np.asarray(target, dtype=bool)
    choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
    index = _predecessors(matrix, choice_offsets)

    # Pmin > 0: backward reachability with universal choice.
    prob0e = ~_closure(index, target, safe, need=np.diff(choice_offsets))

    # Pmin < 1: some scheduler reaches prob0E while avoiding target.
    bad = _closure(index, prob0e, safe & ~target)
    return prob0e, ~bad


def prob1e_witness(matrix, choice_offsets, safe, target, prob1e):
    """A per-state choice certifying probability-1 reachability inside prob1e.

    For states outside prob1e (or in target) the entry is 0. The returned
    choices keep all successors inside prob1e and make progress toward
    target, so the induced chain reaches target almost surely.

    States join in breadth-first layers back from target. A state of a new
    layer takes its lowest choice that stays inside prob1e and reaches the
    previous layer; no choice of it reaches an earlier one, or it would have
    joined earlier.
    """
    choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
    rows, owner = _predecessors(matrix, choice_offsets)
    target = np.asarray(target, dtype=bool)
    pending = (np.asarray(prob1e, dtype=bool) & np.asarray(safe, dtype=bool) & ~target).tolist()
    seen = (~_per_row_all(matrix, prob1e)).tolist()
    chosen = {}
    layer = np.flatnonzero(target).tolist()
    while layer:
        lowest = {}
        for t in layer:
            for r in rows[t]:
                if seen[r]:
                    continue
                seen[r] = True
                s = owner[r]
                if pending[s] and r < lowest.get(s, r + 1):
                    lowest[s] = r
        for s in lowest:
            pending[s] = False
        chosen.update(lowest)
        layer = list(lowest)
    witness = np.zeros(len(choice_offsets) - 1, dtype=np.int64)
    states = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    witness[states] = np.fromiter(chosen.values(), dtype=np.int64, count=len(chosen)) - choice_offsets[states]
    return witness
