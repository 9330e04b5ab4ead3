"""A program's model built from every valuation of a small variable space.

``explore`` calls ``whole_space`` where the packed key space has at most
``explore.WHOLE_SPACE_KEYS`` keys. It expands every valuation of the space
through the same ``_Layers.expand`` that BFS uses, ``BLOCK`` rows at a time,
over a view of the space numbered by key (``_KeyView``): a block's columns are
the valuations of its keys, and a successor's index is its key, so nothing is
interned. ``bfs_order`` then numbers the reached keys from the
initial key one BFS layer at a time: the keys numbered but not yet taken are
always exactly one layer, the frontier, and a round gathers their successors
in (state, choice, branch) order and numbers each one not seen before at its
first occurrence. That is the order a FIFO pass gives, and the order BFS
interns states in: it expands a layer in index order and interns the
layer's successors in (state, choice, branch) order. The reached states'
choices and branches, gathered in that order, form one batch for
``explore``'s shared tail; since a state's rows do not depend on the rows
expanded with it, the model is the one the layers build, bit for bit. The
pass is all or nothing. If any valuation raises, reached or not, if a
reached state needs a deadlock loop without ``fix_deadlocks``, or if more
than ``max_states`` states are reached, it is dropped and the layers run as
they do past the bound, so every error still comes from them.

A round costs about a dozen numpy calls whatever the frontier's size, so
from a frontier of fewer than ``ARRAY_FRONTIER`` (32) keys a Python loop
numbers the successors instead: one FIFO run across the small layers that
follow, which looks at the frontier's size only where a layer ends and
leaves the rest to array rounds once a frontier reaches 32 keys. Measured
on a shared 2-vCPU x86-64 VM: on the c = 18 tandem of
``benchmarks/bench_explore.py`` (6 859 keys, 25 308 successor entries, 109
layers) the loop alone took 2.7-3.0 ms, array rounds alone 1.4-1.8 ms, and
the two split at 32 keys 1.3-1.4 ms; on the 61- to 81-key chains of
``perfbench``'s ``solve_iter``, about two keys a layer, array rounds alone
took 0.28-0.36 ms against 0.02-0.04 ms with the loop, and one run across
the layers about 4 us (13%) less than a loop per layer. A cut anywhere
from 8 to 32 keys gave the tandem's best figure within noise.

It is a module of its own because CPython compiles a module's source in one
piece, and what that takes stays in the process: inside ``explore.py`` the
pass left 0.2 to 0.4 MB more resident in a run of ``perfbench``'s
``solve_iter`` jobs, and as a second module about 0.1 MB.
"""

import numpy as np

from .. import sparse
from ..errors import StormletError
from ..models import ModelKind
from .explore import ExploreOptions, _joined, _Layers

# Rows expanded at once. Expanding a space in one block holds every
# temporary of ``expand`` for all its rows together: on the tandem of
# ``benchmarks/bench_explore.py`` one block raised the peak RSS of exploring
# by 1.0 MB at c = 18 (6 859 keys) and 1.6 MB at c = 24 (15 625 keys).
BLOCK = 2048

# Frontiers of fewer keys are numbered one successor at a time, larger ones
# in array rounds (see the module docstring).
ARRAY_FRONTIER = 32


class _KeyView:
    """A program's whole key space as ``_Layers`` sees its state map: state k
    is the valuation of key k, so a block's columns are the valuations of its
    keys and a successor's index is its key."""

    def __init__(self, state_map):
        self.state_map, self.slots, self.bounds = state_map, state_map.slots, state_map.bounds
        self.variable_names = state_map.variable_names

    def block(self, lo, hi):
        return self.state_map.valuations(np.arange(lo, hi))

    def intern(self, columns, n_rows):
        return self.state_map.keys(columns, n_rows)

    def forget(self, n):
        pass

    def valuation(self, key):
        return tuple(column.item() for column in self.block(key, key + 1))

    def __len__(self):
        return self.state_map.space


def bfs_order(start, starts, targets):
    """The keys reached from ``start`` in the order FIFO BFS numbers them,
    where key k's successors, in order, are ``targets[starts[k]:starts[k + 1]]``.

    The keys numbered but not yet taken are always one BFS layer, the
    frontier. A frontier of ``ARRAY_FRONTIER`` keys or more is numbered in one
    array round: its keys' successors in turn, each the first time it is
    seen. From a smaller one a FIFO run takes the keys one at a time, across
    layers, and looks at the frontier's size only where a layer ends.
    """
    space, counts = len(starts) - 1, starts[1:] - starts[:-1]
    order, first = np.empty(space, dtype=np.int64), np.empty(space, dtype=np.int64)
    seen = np.zeros(space, dtype=np.uint8)
    order[0], seen[start] = start, 1
    order_, seen_, starts_, targets_ = memoryview(order), memoryview(seen), memoryview(starts), memoryview(targets)
    lo, hi = 0, 1  # the frontier is order[lo:hi]
    while lo < hi:
        end = hi
        if hi - lo >= ARRAY_FRONTIER:
            frontier = order[lo:hi]
            succ = targets[sparse.spans(starts[frontier], counts[frontier])]
            succ = succ[seen[succ] == 0]
            rank = np.arange(len(succ))
            first[succ] = len(succ)
            np.minimum.at(first, succ, rank)  # a key's first rank: .at takes every repeat in turn
            new = succ[first[succ] == rank]
            end += len(new)
            order[hi:end], seen[new] = new, 1
            lo, hi = hi, end
            continue
        # the run reads order as it grows: key i is numbered before it is taken
        for i, key in enumerate(order_[lo:], lo):
            if i == hi:  # a layer ends, and the next one is order[hi:end]
                lo, hi = hi, end
                if not 0 < hi - lo < ARRAY_FRONTIER:
                    break
            for target in targets_[starts_[key]:starts_[key + 1]]:
                if not seen_[target]:
                    seen_[target] = 1
                    order_[end] = target
                    end += 1
        else:  # every key is numbered and taken
            lo, hi = hi, end
    return order[:hi]


def whole_space(program, bounds, state_map, initial, options):
    """The layers of a program built by expanding every valuation of its key
    space, as one batch that holds the reached states in BFS order, which it
    interns into ``state_map``; None where layered exploration must run
    instead: some valuation raises, a reached state needs a deadlock loop
    without ``fix_deadlocks``, or more states are reached than ``max_states``."""
    space = state_map.space
    whole = ExploreOptions(fix_deadlocks=True, exact=options.exact, max_states=space)
    layers = _Layers(program, _KeyView(state_map), bounds, whole)
    try:
        for lo in range(0, space, BLOCK):
            layers.expand(lo, min(lo + BLOCK, space))
    except StormletError:
        return None
    mdp = layers.kind is ModelKind.MDP
    los, firsts, covered, choice_states, totals, bits, owners, weights = map(list, zip(*layers.batches))
    layers.batches.clear()
    choice_states = _joined(choice_states, los)
    owners = _joined(owners, firsts if mdp else los)  # each branch's choice (MDP) or state
    targets = _joined(layers.cols)
    n_choices = np.bincount(choice_states, minlength=space)
    n_branches = np.bincount(choice_states[owners] if mdp else owners, minlength=space)
    starts = np.concatenate(([0], np.cumsum(n_branches)))  # each key's first branch

    keys = bfs_order(int(state_map.keys(initial, 1)[0]), starts, targets)
    covered = _joined(covered)[keys]
    if len(keys) > max(1, options.max_states) or not (options.fix_deadlocks or covered.all()):
        return None

    # the reached states' choices and branches, gathered in that order
    n = len(keys)
    number = np.zeros(space, dtype=np.int64)
    number[keys] = np.arange(n)
    choices = sparse.spans((np.cumsum(n_choices) - n_choices)[keys], n_choices[keys])
    branches = sparse.spans(starts[keys], n_branches[keys])
    if mdp:
        rank = np.zeros(len(choice_states), dtype=np.int64)
        rank[choices] = np.arange(len(choices))
        owners = rank[owners[branches]]
    else:
        owners = number[owners[branches]]
    totals = _joined(totals)[choices] if layers.ctmc else None
    layers.batches.append((0, 0, covered, np.repeat(np.arange(n), n_choices[keys]), totals,
                           _joined(bits)[choices], owners, _joined(weights)[branches]))
    layers.cols.append(number[targets[branches]])
    state_map.intern(state_map.valuations(keys), n)
    layers.state_map = state_map  # the view goes before the tail
    return layers
