"""Explicit-state exploration of a typechecked program.

BFS from the initial valuation with state indices in discovery order.
Unlabeled commands interleave; commands sharing an action label synchronize
across every module that mentions the action (branch weights multiply,
assignments merge). DTMCs take the uniform mixture over enabled commands,
CTMCs race (rates add), MDPs keep one choice per combined command.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import sparse
from ..errors import DeadlockError, ModelError, StormletError
from ..models import Model, ModelKind, RewardModel, StateLabeling
from .semantics import eval_expr

WEIGHT_SUM_TOLERANCE = 1e-10


@dataclass
class ExploreOptions:
    fix_deadlocks: bool = False
    exact: bool = False
    max_states: int = 10_000_000


class StateMap:
    """Bijection between state indices and variable valuations."""

    def __init__(self, variable_names):
        self.variable_names = list(variable_names)
        self.index_of = {}
        self.valuations = []

    def intern(self, valuation):
        if valuation in self.index_of:
            return self.index_of[valuation], False
        idx = len(self.valuations)
        self.index_of[valuation] = idx
        self.valuations.append(valuation)
        return idx, True

    def valuation_dict(self, index):
        return dict(zip(self.variable_names, self.valuations[index]))

    def __len__(self):
        return len(self.valuations)


def _initial_valuation(decls, exact):
    values = []
    for decl in decls:
        v = eval_expr(decl.init, {}, exact)
        _check_bounds(decl, v, "initial value")
        values.append(v)
    return tuple(values)


def _check_bounds(decl, value, what):
    if decl.is_bool:
        if not isinstance(value, bool):
            raise ModelError(f"{what} of {decl.name!r} is not boolean")
        return
    low = decl.low.value
    high = decl.high.value
    if not low <= value <= high:
        raise StormletError(
            f"{what} of {decl.name!r} is {value}, outside [{low}..{high}]"
        )
    if low > high:
        raise ModelError(f"variable {decl.name!r} has empty range [{low}..{high}]")


def _command_branches(command, valuation, exact, kind):
    """Evaluate one enabled command into [(weight, {var: value})].

    For DTMC/MDP the weights must sum to 1 (within 1e-10 in float mode).
    """
    one = Fraction(1) if exact else 1.0
    branches = []
    total = Fraction(0) if exact else 0.0
    for upd in command.updates:
        if upd.weight is None:
            w = one
        else:
            w = eval_expr(upd.weight, valuation, exact)
            w = Fraction(w) if exact else float(w)
        if w < 0:
            raise ModelError(f"negative update weight at line {command.span[0]}")
        total += w
        assigns = {var: eval_expr(rhs, valuation, exact) for var, rhs in upd.assignments}
        branches.append((w, assigns))
    if kind is not ModelKind.CTMC:
        if exact:
            if total != 1:
                raise ModelError(
                    f"update weights of command at line {command.span[0]} sum to {total}, expected 1"
                )
        elif abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ModelError(
                f"update weights of command at line {command.span[0]} sum to {total!r}, expected 1"
            )
    elif total <= 0:
        raise ModelError(f"command at line {command.span[0]} has non-positive total rate")
    return branches, total


def _combine(parts):
    """Cartesian product of per-module branch lists: weights multiply, assignments merge."""
    combined = []
    for combo in itertools.product(*parts):
        weight = combo[0][0]
        assigns = dict(combo[0][1])
        for w, a in combo[1:]:
            weight = weight * w
            assigns.update(a)
        combined.append((weight, assigns))
    return combined


def explore(program, options=None):
    """Build (Model, StateMap) from a typechecked program."""
    options = options or ExploreOptions()
    kind = program.model_type
    exact = options.exact
    decls = list(program.all_variables())
    names = [d.name for d in decls]

    # modules participating in each synchronizing action, in module order
    action_modules = {}
    for mi, module in enumerate(program.modules):
        for cmd in module.commands:
            if cmd.action is not None:
                action_modules.setdefault(cmd.action, [])
                if mi not in action_modules[cmd.action]:
                    action_modules[cmd.action].append(mi)
    action_order = list(action_modules)

    state_map = StateMap(names)
    init, _ = state_map.intern(_initial_valuation(decls, exact))
    queue = deque([init])
    triples = []
    choice_offsets = [0]
    exit_rates = [] if kind is ModelKind.CTMC else None
    patched = []
    # row -> action labels (None: unlabeled) of the commands that produced it,
    # interned so that rows with the same labels share one frozenset
    row_actions = []
    interned = {}

    def actions_of(labels):
        key = frozenset(labels)
        return interned.setdefault(key, key)

    row_index = 0
    one = Fraction(1) if exact else 1.0

    while queue:
        s = queue.popleft()
        valuation = dict(zip(names, state_map.valuations[s]))

        # one (action, branches, total) per enabled unlabeled command, then per action
        choices = []
        enabled_by_module = [
            [cmd for cmd in module.commands if eval_expr(cmd.guard, valuation, exact)]
            for module in program.modules
        ]
        for mi, cmds in enumerate(enabled_by_module):
            for cmd in cmds:
                if cmd.action is None:
                    branches, total = _command_branches(cmd, valuation, exact, kind)
                    choices.append((None, branches, total))
        for action in action_order:
            participants = action_modules[action]
            per_module = []
            for mi in participants:
                enabled = [c for c in enabled_by_module[mi] if c.action == action]
                if not enabled:
                    per_module = None
                    break
                per_module.append(enabled)
            if per_module is None:
                continue
            for combo in itertools.product(*per_module):
                parts = []
                total = one
                for cmd in combo:
                    branches, t = _command_branches(cmd, valuation, exact, kind)
                    parts.append(branches)
                    total = total * t
                choices.append((action, _combine(parts), total))

        def successor(assigns):
            new_values = []
            for d in decls:
                if d.name in assigns:
                    v = assigns[d.name]
                    _check_bounds(d, v, f"assignment in state {state_map.valuations[s]}")
                else:
                    v = valuation[d.name]
                new_values.append(v)
            idx, fresh = state_map.intern(tuple(new_values))
            if fresh:
                if len(state_map) > options.max_states:
                    raise StormletError(f"state limit of {options.max_states} states exceeded")
                queue.append(idx)
            return idx

        if not choices:
            if not options.fix_deadlocks:
                raise DeadlockError(s, f"valuation {state_map.valuation_dict(s)}")
            patched.append(s)
            triples.append((row_index, s, one))
            row_actions.append(actions_of(()))
            if kind is ModelKind.CTMC:
                exit_rates.append(one)  # absorbing convention: rate-1 self-loop
            row_index += 1
            choice_offsets.append(row_index)
            continue

        if kind is ModelKind.MDP:
            for action, branches, _ in choices:
                for w, assigns in branches:
                    if w == 0:
                        continue
                    triples.append((row_index, successor(assigns), w))
                row_actions.append(actions_of((action,)))
                row_index += 1
        else:
            # DTMC: uniform mixture over combined commands; CTMC: rates add
            mass = {}
            total_rate = Fraction(0) if exact else 0.0
            for _, branches, total in choices:
                for w, assigns in branches:
                    if w == 0:
                        continue
                    t = successor(assigns)
                    mass[t] = mass.get(t, Fraction(0) if exact else 0.0) + w
                total_rate += total
            if kind is ModelKind.DTMC:
                count = len(choices)
                for t, w in mass.items():
                    triples.append((row_index, t, w / count))
            else:
                for t, w in mass.items():
                    triples.append((row_index, t, w / total_rate))
                exit_rates.append(total_rate)
            row_actions.append(actions_of(action for action, _, _ in choices))
            row_index += 1
        choice_offsets.append(row_index)

    n = len(state_map)
    matrix = sparse.build_sparse(triples, row_index, n, "rational" if exact else "float")
    initial_states = np.zeros(n, dtype=bool)
    initial_states[init] = True
    deadlock_fixed = np.zeros(n, dtype=bool)
    deadlock_fixed[patched] = True
    if kind is ModelKind.MDP:
        offsets = np.asarray(choice_offsets, dtype=np.int64)
    else:
        offsets = np.arange(n + 1, dtype=np.int64)

    labeling = StateLabeling(n, {"init": initial_states, "deadlock": deadlock_fixed})
    model = Model(
        kind,
        matrix,
        labeling,
        choice_offsets=offsets,
        initial_states=initial_states,
        exit_rates=exit_rates,
        deadlock_fixed=deadlock_fixed,
    )
    for name, bits in build_label_bitsets(program, state_map).items():
        labeling.add(name, bits)
    model.rewards.update(build_reward_models(program, model, state_map, row_actions, exact=exact))
    return model, state_map


def build_label_bitsets(program, state_map):
    """Evaluate the declared labels per state."""
    n = len(state_map)
    out = {}
    for lab in program.labels:
        bits = np.zeros(n, dtype=bool)
        for s in range(n):
            bits[s] = bool(eval_expr(lab.expr, state_map.valuation_dict(s)))
        out[lab.name] = bits
    return out


def build_reward_models(program, model, state_map, row_actions, exact=False):
    """Sum reward items per state (state items) and per choice (action items).

    An action item ``[a] g : r`` adds r to every row of a state satisfying g
    whose ``row_actions`` entry (the labels of the commands that produced the
    row) contains a; ``[]`` matches unlabeled commands.
    """
    zero = Fraction(0) if exact else 0.0
    domain = "rational" if exact else "float"
    rewards = {}
    for block in program.reward_blocks:
        state_rw = [zero] * model.n_states
        action_rw = [zero] * model.n_choices
        has_state = has_action = False
        for item in block.items:
            for s in range(model.n_states):
                valuation = state_map.valuation_dict(s)
                if not eval_expr(item.guard, valuation, exact):
                    continue
                value = eval_expr(item.expr, valuation, exact)
                if value < 0:
                    raise ModelError(
                        f"reward block {block.name!r} evaluates to {value} at state {s}"
                    )
                if item.is_action_item:
                    has_action = True
                    action = item.action or None
                    for c in model.choices_of(s):
                        if action in row_actions[c]:
                            action_rw[c] = action_rw[c] + value
                else:
                    has_state = True
                    state_rw[s] = state_rw[s] + value
        rewards[block.name] = RewardModel(
            block.name,
            sparse.as_vector(state_rw, domain) if has_state else None,
            sparse.as_vector(action_rw, domain) if has_action else None,
        )
    return rewards

