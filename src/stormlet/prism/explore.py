"""Explicit-state exploration of a typechecked program.

Every guard, update weight, assignment, label and reward expression is
compiled once per call into a closure over the valuation tuple
(``semantics.compile_expr``); states are valuation tuples, and a successor
copies its source tuple and overwrites the assigned slots. Variable ranges
are checked once before exploring, and every assigned value against them.
BFS from the initial valuation with state indices in discovery order.
Unlabeled commands interleave; commands sharing an action label synchronize
across every module that mentions the action (branch weights multiply,
assignments merge). DTMCs take the uniform mixture over enabled commands,
CTMCs race (rates add), MDPs keep one choice per combined command.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import sparse
from ..errors import DeadlockError, ModelError, StormletError
from ..models import Model, ModelKind, RewardModel, StateLabeling
from .semantics import compile_expr, eval_expr

WEIGHT_SUM_TOLERANCE = 1e-10
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass
class ExploreOptions:
    fix_deadlocks: bool = False
    exact: bool = False
    max_states: int = 10_000_000


class StateMap:
    """Bijection between state indices and variable valuations."""

    def __init__(self, variable_names):
        self.variable_names = list(variable_names)
        # variable name -> position in a valuation tuple
        self.slots = {name: i for i, name in enumerate(self.variable_names)}
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


class _Command:
    """A command with its guard, weights and assignments compiled.

    ``updates`` holds one (weight or None, weight span, [(slot, value)])
    per update.
    """

    __slots__ = ("action", "span", "guard", "updates")

    def __init__(self, command, slots, exact):
        self.action = command.action
        self.span = command.span
        self.guard = compile_expr(command.guard, slots, exact)
        self.updates = [
            (
                None if upd.weight is None else compile_expr(upd.weight, slots, exact),
                None if upd.weight is None else upd.weight.span,
                [(slots[var], compile_expr(rhs, slots, exact)) for var, rhs in upd.assignments],
            )
            for upd in command.updates
        ]


def _ranges(decls):
    """Per variable, None for a boolean or its (low, high); empty ranges are errors."""
    bounds = []
    for decl in decls:
        if decl.is_bool:
            bounds.append(None)
            continue
        low, high = eval_expr(decl.low), eval_expr(decl.high)
        if low > high:
            raise ModelError(f"variable {decl.name!r} has empty range [{low}..{high}]")
        bounds.append((low, high))
    return bounds


def _check_bounds(decl, bound, value, what):
    if bound is None:
        if not isinstance(value, bool):
            raise ModelError(f"{what} of {decl.name!r} is not boolean")
    elif not bound[0] <= value <= bound[1]:
        raise StormletError(f"{what} of {decl.name!r} is {value}, outside [{bound[0]}..{bound[1]}]")


def _to_float(value, what, span):
    """float(value); an integer too large for a float is a ModelError at its expression."""
    try:
        return float(value)
    except OverflowError:
        where = f" (line {span[0]}, column {span[1]})" if span else ""
        raise ModelError(f"{what} is an integer too large for a float{where}") from None


def _command_branches(command, valuation, exact, kind):
    """Evaluate one enabled command into [(weight, {slot: value})].

    For DTMC/MDP the weights must sum to 1 (within 1e-10 in float mode).
    """
    one = _ONE if exact else 1.0
    branches = []
    total = _ZERO if exact else 0.0
    for weight, span, assignments in command.updates:
        if weight is None:
            w = one
        else:
            w = weight(valuation)
            w = Fraction(w) if exact else _to_float(w, "update weight", span)
        if w < 0:
            raise ModelError(f"negative update weight at line {command.span[0]}")
        total += w
        branches.append((w, {slot: value(valuation) for slot, value in assignments}))
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
    if len(parts) == 1:
        return parts[0]
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
    state_map = StateMap(d.name for d in decls)
    bounds = _ranges(decls)
    modules = [[_Command(cmd, state_map.slots, exact) for cmd in module.commands] for module in program.modules]

    # modules participating in each synchronizing action, in module order
    action_modules = {}
    for mi, module in enumerate(program.modules):
        for cmd in module.commands:
            if cmd.action is not None:
                action_modules.setdefault(cmd.action, [])
                if mi not in action_modules[cmd.action]:
                    action_modules[cmd.action].append(mi)

    initial = tuple(eval_expr(decl.init, exact=exact) for decl in decls)
    for decl, bound, value in zip(decls, bounds, initial):
        _check_bounds(decl, bound, value, "initial value")
    init, _ = state_map.intern(initial)
    valuations, index_of = state_map.valuations, state_map.index_of
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

    def successor(assigns):
        values = list(valuation)
        for slot, value in assigns.items():
            bound = bounds[slot]
            if not (isinstance(value, bool) if bound is None else bound[0] <= value <= bound[1]):
                # report the first bad variable in declaration order
                for i in sorted(assigns):
                    _check_bounds(decls[i], bounds[i], assigns[i], f"assignment in state {valuation}")
            values[slot] = value
        values = tuple(values)
        idx = index_of.get(values)
        if idx is None:
            idx, _ = state_map.intern(values)
            if len(valuations) > options.max_states:
                raise StormletError(f"state limit of {options.max_states} states exceeded")
        return idx

    row_index = 0
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0

    # BFS: states are numbered in discovery order, so the queue is the index range
    s = 0
    while s < len(valuations):
        valuation = valuations[s]

        # enabled commands of each module by action (None: unlabeled), all guards in module order
        enabled_by_module = []
        for commands in modules:
            enabled = {}
            for cmd in commands:
                if cmd.guard(valuation):
                    enabled.setdefault(cmd.action, []).append(cmd)
            enabled_by_module.append(enabled)

        # one (action, branches, total) per enabled unlabeled command, then per action
        choices = []
        for enabled in enabled_by_module:
            for cmd in enabled.get(None, ()):
                branches, total = _command_branches(cmd, valuation, exact, kind)
                choices.append((None, branches, total))
        for action, participants in action_modules.items():
            per_module = [enabled_by_module[mi].get(action) for mi in participants]
            if not all(per_module):
                continue
            for combo in itertools.product(*per_module):
                parts = []
                total = one
                for cmd in combo:
                    branches, t = _command_branches(cmd, valuation, exact, kind)
                    parts.append(branches)
                    total = total * t
                choices.append((action, _combine(parts), total))

        if not choices:
            if not options.fix_deadlocks:
                raise DeadlockError(s, f"valuation {state_map.valuation_dict(s)}")
            patched.append(s)
            triples.append((row_index, s, one))
            row_actions.append(actions_of(()))
            if kind is ModelKind.CTMC:
                exit_rates.append(one)  # absorbing convention: rate-1 self-loop
            row_index += 1
        elif kind is ModelKind.MDP:
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
            total_rate = zero
            for _, branches, total in choices:
                for w, assigns in branches:
                    if w == 0:
                        continue
                    t = successor(assigns)
                    mass[t] = mass.get(t, zero) + w
                total_rate += total
            scale = len(choices) if kind is ModelKind.DTMC else total_rate
            for t, w in mass.items():
                triples.append((row_index, t, w / scale))
            if kind is ModelKind.CTMC:
                exit_rates.append(total_rate)
            row_actions.append(actions_of(action for action, _, _ in choices))
            row_index += 1
        choice_offsets.append(row_index)
        s += 1

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
    out = {}
    for lab in program.labels:
        holds = compile_expr(lab.expr, state_map.slots)
        out[lab.name] = np.fromiter(map(holds, state_map.valuations), dtype=bool, count=len(state_map))
    return out


def build_reward_models(program, model, state_map, row_actions, exact=False):
    """Sum reward items per state (state items) and per choice (action items).

    An action item ``[a] g : r`` adds r to every row of a state satisfying g
    whose ``row_actions`` entry (the labels of the commands that produced the
    row) contains a; ``[]`` matches unlabeled commands.
    """
    zero = Fraction(0) if exact else 0.0
    domain = "rational" if exact else "float"
    offsets = model.choice_offsets.tolist()
    rewards = {}
    for block in program.reward_blocks:
        state_rw = [zero] * model.n_states
        action_rw = [zero] * model.n_choices
        has_state = has_action = False
        for item in block.items:
            guard = compile_expr(item.guard, state_map.slots, exact)
            reward = compile_expr(item.expr, state_map.slots, exact)
            action = item.action or None
            for s, valuation in enumerate(state_map.valuations):
                if not guard(valuation):
                    continue
                value = reward(valuation)
                if value < 0:
                    raise ModelError(
                        f"reward block {block.name!r} evaluates to {value} at state {s}"
                    )
                if not exact:
                    value = _to_float(value, "reward", item.expr.span)
                if item.is_action_item:
                    has_action = True
                    for c in range(offsets[s], offsets[s + 1]):
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
