"""A program's model built from every valuation of a small variable space.

``explore`` calls ``whole_space`` where the packed key space has at most
``explore.WHOLE_SPACE_KEYS`` keys. It expands every valuation of the space
through the same ``_Layers.expand`` that BFS uses, ``BLOCK`` rows at a time,
over a throwaway ``StateMap`` filled in key order, so that a valuation's
index is its key. One FIFO pass from the initial key then numbers the
reached keys, taking states in the order they were numbered and each
state's successors in (choice, branch) order. That is the order BFS interns
them in: it expands a layer in index order and interns the layer's
successors in (state, choice, branch) order. The reached states' choices
and branches, gathered in that order, form one batch for ``explore``'s
shared tail; since a state's rows do not depend on the rows expanded with
it, the model is the one the layers build, bit for bit. The pass is all or
nothing. If any valuation raises, reached or not, if a reached state needs
a deadlock loop without ``fix_deadlocks``, or if more than ``max_states``
states are reached, it is dropped and the layers run as they do past the
bound, so every error still comes from them.

It is a module of its own because CPython compiles a module's source in one
piece, and what that takes stays in the process: inside ``explore.py`` the
pass left 0.2 to 0.4 MB more resident in a run of ``perfbench``'s
``solve_iter`` jobs, and as a second module about 0.1 MB.
"""

import numpy as np

from ..errors import StormletError
from ..models import ModelKind
from .explore import ExploreOptions, _joined, _Layers
from .states import StateMap

# Rows expanded at once. Expanding a space in one block holds every
# temporary of ``expand`` for all its rows together: on the tandem of
# ``benchmarks/bench_explore.py`` one block raised the peak RSS of exploring
# by 1.0 MB at c = 18 (6 859 keys) and 1.6 MB at c = 24 (15 625 keys).
BLOCK = 2048


def _spans(starts, counts):
    """Each range starts[i] .. starts[i] + counts[i] - 1 (at least one), in turn, as one index array."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)


def whole_space(program, decls, bounds, state_map, initial, options):
    """The layers of a program built by expanding every valuation of its key
    space, as one batch that holds the reached states in BFS order, which it
    interns into ``state_map``; None where layered exploration must run
    instead: some valuation raises, a reached state needs a deadlock loop
    without ``fix_deadlocks``, or more states are reached than ``max_states``."""
    space = state_map.space
    every = StateMap(decls, bounds)  # a state's index is its key
    every.intern(every.valuations(np.arange(space)), space)
    whole = ExploreOptions(fix_deadlocks=True, exact=options.exact, max_states=space)
    layers = _Layers(program, every, bounds, whole)
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

    # number the reached keys first come, first numbered, taking each state in
    # turn and its successors in (choice, branch) order, as BFS numbers them
    start = int(every.keys(initial, 1)[0])
    order, seen, starts_, targets_ = [start], bytearray(space), memoryview(starts), memoryview(targets)
    seen[start] = 1
    for key in order:  # the loop also takes the keys appended to order
        for target in targets_[starts_[key]:starts_[key + 1]]:
            if not seen[target]:
                seen[target] = 1
                order.append(target)
    keys = np.array(order)
    covered = _joined(covered)[keys]
    if len(keys) > max(1, options.max_states) or not (options.fix_deadlocks or covered.all()):
        return None

    # the reached states' choices and branches, gathered in that order
    n = len(keys)
    number = np.zeros(space, dtype=np.int64)
    number[keys] = np.arange(n)
    choices = _spans((np.cumsum(n_choices) - n_choices)[keys], n_choices[keys])
    branches = _spans(starts[keys], n_branches[keys])
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
    layers.state_map = state_map  # the throwaway map goes before the tail
    return layers
