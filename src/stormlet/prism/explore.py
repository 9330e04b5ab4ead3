"""Explicit-state exploration of a typechecked program, one BFS layer at a time.

Every guard, update weight, assignment, label and reward expression is
compiled once per call into a column closure (``semantics.compile_expr``).
Exploration expands a layer at a time: the frontier is every state found
but not yet expanded, and each guard, weight and assignment is evaluated
once per layer over the frontier's variable columns. States are numbered in
discovery order and interned by a packed integer key; ``StateMap`` holds one
column per variable. Variable ranges are checked once before exploring, and
every assigned value against them.

Unlabeled commands interleave. Commands sharing an action label
synchronize across every module that mentions the action: per layer, each
participating module's enabled (state, command) pairs are joined on the
state, branch weights multiply and assignments merge, and weights and
assignments are evaluated only on the rows where the combined choice fires.
DTMCs take the uniform mixture over enabled commands, CTMCs race (rates
add), MDPs keep one choice per combined command.

A layer gives the model that expanding its states one at a time in index
order gives: successors are interned in (state, choice, branch) order, and
duplicate targets add left to right through ``sparse.coalesce``. A layer
that raises is expanded again one state at a time, so a faulty program
reports the error of its first faulty state, raised in the order the checks
of one state run: guards; then each command, unlabeled ones before actions,
its weights and their sum before its assignments; then range checks in
branch order.
"""

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .. import sparse
from ..errors import DeadlockError, ModelError, StormletError
from ..models import ROW_SUM_TOLERANCE, Model, ModelKind, RewardModel, StateLabeling
from . import syntax
from .semantics import EXACT_INT, compile_expr, eval_expr, evaluate_rows


@dataclass
class ExploreOptions:
    fix_deadlocks: bool = False
    exact: bool = False
    max_states: int = 10_000_000


class StateMap:
    """Bijection between state indices and variable valuations, one column per variable.

    A valuation is interned by its packed key: each variable's offset from
    its lower bound (a boolean's 0 or 1), in mixed radix. Keys are int64
    while the product of the ranges fits, Python ints otherwise.
    """

    def __init__(self, decls, bounds):
        self.variable_names = [decl.name for decl in decls]
        # variable name -> position of its column
        self.slots = {name: i for i, name in enumerate(self.variable_names)}
        self.types = {decl.name: "bool" if decl.is_bool else "int" for decl in decls}
        self.bounds = {decl.name: bound for decl, bound in zip(decls, bounds) if bound is not None}
        self._low = [0 if bound is None else bound[0] for bound in bounds]
        self._sizes = [2 if bound is None else bound[1] - bound[0] + 1 for bound in bounds]
        self._strides = [1] * len(bounds)
        for i in reversed(range(len(bounds) - 1)):
            self._strides[i] = self._strides[i + 1] * self._sizes[i + 1]
        space = self._strides[0] * self._sizes[0] if bounds else 1
        self._key_dtype = np.int64 if space <= np.iinfo(np.int64).max else object
        self._data = [
            np.zeros(16, dtype=bool if bound is None
                     else np.int64 if -EXACT_INT <= bound[0] and bound[1] <= EXACT_INT else object)
            for bound in bounds
        ]
        self._n = 0
        self._index_of = {}

    @property
    def columns(self):
        return [data[: self._n] for data in self._data]

    def keys(self, columns, n_rows):
        """The packed key of each row of ``columns``."""
        key = np.zeros(n_rows, dtype=self._key_dtype)
        for column, low, stride in zip(columns, self._low, self._strides):
            key += (column.astype(self._key_dtype) - low) * stride
        return key

    def find(self, keys):
        """The state index of each key (a list), None for a key not interned."""
        return list(map(self._index_of.get, keys))

    def add(self, keys):
        """Intern the valuations of new keys (a list), in order."""
        n, k = self._n, len(keys)
        self._index_of.update(zip(keys, range(n, n + k)))
        packed = np.array(keys, dtype=self._key_dtype)
        if self._data and n + k > len(self._data[0]):
            size = max(2 * len(self._data[0]), n + k)
            for i, data in enumerate(self._data):
                grown = np.zeros(size, dtype=data.dtype)
                grown[:n] = data[:n]
                self._data[i] = grown
        for data, low, size, stride in zip(self._data, self._low, self._sizes, self._strides):
            data[n: n + k] = packed // stride % size + low
        self._n = n + k

    def index(self, keys):
        """The state index of each interned key (a list), as an array."""
        return np.fromiter(map(self._index_of.__getitem__, keys), np.int64, len(keys))

    def valuation(self, index):
        """The valuation of a state, as a tuple of Python values."""
        return tuple(data.item(index) for data in self._data)

    def __len__(self):
        return self._n


class _Command:
    """A command with its guard, weights and assignments compiled.

    ``updates`` holds one (weight or None, weight span, constant weight or
    None, [(slot, value)]) per update. A weight that is a literal (or absent,
    1) is converted to the domain once, here, as its constant (``constants``
    holds them, None for the others); when every weight is one, ``total`` is
    their sum, else None.
    """

    __slots__ = ("action", "span", "guard", "updates", "constants", "total")

    def __init__(self, command, state_map, exact):
        slots, bounds = state_map.slots, state_map.bounds
        self.action = command.action
        self.span = command.span
        self.guard = compile_expr(command.guard, slots, exact, bounds)
        self.updates = []
        for upd in command.updates:
            weight, constant = upd.weight, None
            if weight is None:
                constant = Fraction(1) if exact else 1.0
            elif isinstance(weight, syntax.Lit) and (exact or abs(weight.value) <= EXACT_INT):
                constant = Fraction(weight.value) if exact else float(weight.value)
            self.updates.append((
                None if weight is None else compile_expr(weight, slots, exact, bounds),
                None if weight is None else weight.span,
                constant,
                [(slots[var], compile_expr(rhs, slots, exact, bounds)) for var, rhs in upd.assignments],
            ))
        self.constants = [constant for _, _, constant, _ in self.updates]
        self.total = None if None in self.constants else sum(self.constants, Fraction(0) if exact else 0.0)


def _shape(expr):
    """A hashable form of an expression that leaves out its source positions."""
    if isinstance(expr, syntax.Lit):
        return type(expr.value), expr.value
    if isinstance(expr, syntax.Var):
        return expr.name
    if isinstance(expr, syntax.Unary):
        return expr.op, _shape(expr.operand)
    if isinstance(expr, syntax.Binary):
        return expr.op, _shape(expr.left), _shape(expr.right)
    return expr.func, tuple(_shape(arg) for arg in expr.args)


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


def _domain(values, exact, what, span):
    """A numeric column as the domain's values: Fractions in exact mode, else
    float64; an integer too large for a float is a ModelError at its expression."""
    if exact:
        out = np.empty(len(values), dtype=object)
        out[:] = [Fraction(v) for v in values.tolist()]
        return out
    if values.dtype != object:
        return values.astype(np.float64)
    try:
        return np.array([float(v) for v in values.tolist()], dtype=np.float64)
    except OverflowError:
        where = f" (line {span[0]}, column {span[1]})" if span else ""
        raise ModelError(f"{what} is an integer too large for a float{where}") from None


def _row_major(per_update, n, dtype):
    """Items i*U + u from U per-update columns (or values) over n rows."""
    out = np.empty((n, len(per_update)), dtype=dtype)
    for u, values in enumerate(per_update):
        out[:, u] = values
    return out.ravel()


def _runs(counts):
    """For runs of the given lengths laid end to end: each item's run and its place in the run."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _combinations(firsts, counts, group, place):
    """Per group, every combination of one item from each list, in product
    order: list j of group g holds items firsts[j][g] ..
    firsts[j][g] + counts[j][g] - 1, and ``group``/``place`` (from ``_runs``)
    give each combination's group and its place in the group. Returns the
    item chosen from each list, per combination."""
    chosen = [None] * len(firsts)
    radix = 1
    for j in reversed(range(len(firsts))):
        count = counts[j][group]
        chosen[j] = firsts[j][group] + place // radix % count
        radix = radix * count
    return chosen


class _Pairs:
    """One module's enabled (row, command) pairs of a group, sorted by row
    then command, with each pair's updates as consecutive items.

    With one command, every pair has its ``n_updates`` updates and pair p's
    items start at p * n_updates; with several, ``n_updates`` is None and
    ``first`` and ``updates`` give each pair's first item and its number.
    """

    __slots__ = ("rows", "n_updates", "first", "updates", "totals", "weights", "slots")

    def __init__(self, evaluated):
        self.n_updates = self.first = self.updates = None
        if len(evaluated) == 1:
            self.rows, self.n_updates, self.weights, self.slots, self.totals = evaluated[0]
            return
        rows, first, updates, totals, weights, slots = [], [], [], [], [], []
        n_items = 0
        for r, n_updates, item_weights, item_slots, total in evaluated:
            rows.append(r)
            first.append(n_items + n_updates * np.arange(len(r)))
            updates.append(np.full(len(r), n_updates))
            totals.append(total)
            weights.append(item_weights)
            slots.append((len(item_weights), item_slots))
            n_items += len(item_weights)
        order = np.argsort(np.concatenate(rows), kind="stable")
        self.rows, self.first, self.updates, self.totals = (
            np.concatenate(parts)[order] for parts in (rows, first, updates, totals))
        self.weights = np.concatenate(weights)
        self.slots = {}
        for slot in {slot for _, item_slots in slots for slot in item_slots}:
            some = next(item_slots[slot][1] for _, item_slots in slots if slot in item_slots)
            has, values = [], []
            for n, item_slots in slots:
                if slot in item_slots:
                    h, v = item_slots[slot]
                    has.append(np.ones(n, dtype=bool) if h is None else h)
                    values.append(v)
                else:
                    has.append(np.zeros(n, dtype=bool))
                    values.append(np.zeros(n, dtype=some.dtype))
            self.slots[slot] = np.concatenate(has), np.concatenate(values)


def _take(values, index):
    """values[index], where an index of None stands for every position in order."""
    return values if index is None else values[index]


class _Layers:
    """The compiled program and the model built so far, one expanded batch of states at a time."""

    def __init__(self, program, state_map, bounds, options):
        self.kind = program.model_type
        self.exact = options.exact
        self.options = options
        self.state_map = state_map
        self.bounds = bounds
        commands = [cmd for module in program.modules for cmd in module.commands]
        self.commands = [_Command(cmd, state_map, self.exact) for cmd in commands]
        # a guard that repeats an earlier command's is evaluated once per layer
        first_of = {}
        self.guard_of = [first_of.setdefault(_shape(cmd.guard), k) for k, cmd in enumerate(commands)]
        # the groups of commands whose combinations form choices, in the order
        # of a state's choices: each unlabeled command alone, in module order,
        # then each action; a group is its action's bit and, per participating
        # module in module order, the indices of its commands with the action
        self.actions = [None]
        self.groups = [(0, [[k]]) for k, cmd in enumerate(self.commands) if cmd.action is None]
        for cmd in self.commands:
            if cmd.action not in self.actions:
                self.actions.append(cmd.action)
                group, start = [], 0
                for module in program.modules:
                    ks = [start + i for i, c in enumerate(module.commands) if c.action == cmd.action]
                    if ks:
                        group.append(ks)
                    start += len(module.commands)
                self.groups.append((len(self.actions) - 1, group))
        # one bit per action (bit 0: unlabeled) in each row's action mask
        self.mask_dtype = np.int64 if len(self.actions) < 63 else object
        self.one = Fraction(1) if self.exact else 1.0
        # per expanded batch: its deadlock flags; its choices' states, totals
        # and action bits; its branches' matrix rows, targets and weights
        self.patched, self.choice_states, self.totals, self.bits, self.rows, self.cols, self.values = (
            [] for _ in range(7))
        self.n_choices = 0

    def _full(self, n, value):
        out = np.empty(n, dtype=object if self.exact else np.float64)
        out.fill(value)
        return out

    def _evaluate(self, cmd, table, rows):
        """An enabled command on the given rows, with its updates as items,
        row-major (item i*U + u is update u on row i): the rows, U, the item
        weights, per assigned slot (which items assign it, or None for all;
        the values), and the total of each row.

        For DTMC/MDP the weights must sum to 1 (within 1e-10 in float mode).
        """
        n = len(rows)
        weights, assigns = [], []
        for weight, span, constant, assignments in cmd.updates:
            if constant is None:
                w = _domain(weight(table, rows), self.exact, "update weight", span)
                negative = (w < 0).any()
            else:
                w, negative = None, constant < 0
            if negative:
                raise ModelError(f"negative update weight at line {cmd.span[0]}")
            weights.append(w)
            assigns.append({slot: value(table, rows) for slot, value in assignments})
        if cmd.total is None:
            weights = [self._full(n, constant) if w is None else w
                       for w, (_, _, constant, _) in zip(weights, cmd.updates)]
            total = weights[0]  # 0 + w equals w, up to the sign of a zero
            for w in weights[1:]:
                total = total + w
            bad = self._bad_sum(total)
            if bad.any():
                self._sum_error(cmd, total.item(int(np.argmax(bad))))
        else:
            if self._bad_sum(cmd.total):
                self._sum_error(cmd, cmd.total)
            total = self._full(n, cmd.total)
        n_updates = len(assigns)
        if n_updates == 1:
            item_weights = total if weights[0] is None else weights[0]
            return rows, 1, item_weights, {slot: (None, values) for slot, values in assigns[0].items()}, total
        if cmd.total is None:
            item_weights = _row_major(weights, n, weights[0].dtype)
        else:
            item_weights = _row_major(cmd.constants, n, object if self.exact else np.float64)
        slots = {}
        for slot in {slot for assign in assigns for slot in assign}:
            present = [slot in assign for assign in assigns]
            values = [assign.get(slot, 0) for assign in assigns]
            dtype = np.result_type(*(v for v in values if isinstance(v, np.ndarray)))
            slots[slot] = None if all(present) else _row_major(present, n, bool), _row_major(values, n, dtype)
        return rows, n_updates, item_weights, slots, total

    def _bad_sum(self, total):
        """Whether a command's total weight (a value or a column) is invalid."""
        if self.kind is ModelKind.CTMC:
            return total <= 0
        return total != 1 if self.exact else abs(total - 1.0) > ROW_SUM_TOLERANCE

    def _sum_error(self, cmd, total):
        if self.kind is ModelKind.CTMC:
            raise ModelError(f"command at line {cmd.span[0]} has non-positive total rate")
        total = total + 0  # a zero sum prints unsigned
        raise ModelError(f"update weights of command at line {cmd.span[0]} sum to "
                         f"{total if self.exact else repr(total)}, expected 1")

    def _fire(self, group, enabled, table):
        """The combined choices of one group on the frontier, or None if none fires.

        Returns the frontier row and total of each choice, in row order, and
        per branch its choice, weight and successor columns.
        """
        fire = None
        for ks in group:
            any_enabled = enabled[ks[0]]
            for k in ks[1:]:
                any_enabled = any_enabled | enabled[k]
            fire = any_enabled if fire is None else fire & any_enabled
        fire_rows = fire.nonzero()[0]
        if not len(fire_rows):
            return None
        live = [ks if len(ks) == 1 else [k for k in ks if (enabled[k] & fire).any()] for ks in group]
        # with one command per module, every module's pairs are the firing rows
        single = all(len(ks) == 1 for ks in live)
        # each command is evaluated once, in the order a single state's
        # combinations first use it: every module's first command, then the
        # other commands of the last module, of the one before, and so on
        order = [ks[0] for ks in live] + [k for ks in reversed(live) for k in ks[1:]]
        evaluated = {}
        for k in order:
            rows = fire_rows if single else (enabled[k] & fire).nonzero()[0]
            evaluated[k] = self._evaluate(self.commands[k], table, rows)
        modules = [_Pairs([evaluated[k] for k in ks]) for ks in live]

        # a row's choices are the combinations of its pairs, one per module, in product order
        if single:
            selected = [None] * len(modules)
        else:
            firsts = [np.searchsorted(m.rows, fire_rows) for m in modules]
            counts = [np.searchsorted(m.rows, fire_rows, "right") - first for m, first in zip(modules, firsts)]
            selected = _combinations(firsts, counts, *_runs(np.prod(counts, axis=0)))
        choice_rows = _take(modules[0].rows, selected[0])
        totals = _take(modules[0].totals, selected[0])
        for m, sel in zip(modules[1:], selected[1:]):
            totals = totals * _take(m.totals, sel)

        # a choice's branches are the combinations of its pairs' updates
        if len(modules) == 1 and selected[0] is None:
            # one command on its rows: its items are the branches, in order
            n_updates = modules[0].n_updates
            branch_choice = None if n_updates == 1 else np.arange(len(choice_rows)).repeat(n_updates)
            items = [None]
        elif all(m.n_updates == 1 for m in modules):
            branch_choice, items = None, selected
        else:
            pairs = [np.arange(len(choice_rows)) if sel is None else sel for sel in selected]
            firsts = [sel * m.n_updates if m.first is None else m.first[sel] for m, sel in zip(modules, pairs)]
            counts = [np.full(len(sel), m.n_updates) if m.updates is None else m.updates[sel]
                      for m, sel in zip(modules, pairs)]
            branch_choice, place = _runs(np.prod(counts, axis=0))
            items = _combinations(firsts, counts, branch_choice, place)
        weights = _take(modules[0].weights, items[0])
        for m, item in zip(modules[1:], items[1:]):
            weights = weights * _take(m.weights, item)
        source = _take(choice_rows, branch_choice)
        successors = [column[source] for column in table]
        for m, item in zip(modules, items):
            for slot, (has, values) in m.slots.items():
                values = _take(values, item)
                successors[slot] = values if has is None else np.where(_take(has, item), values, successors[slot])
        if branch_choice is None:
            branch_choice = np.arange(len(choice_rows))
        return choice_rows, totals, branch_choice, weights, successors

    def expand(self, lo, hi):
        """Expand states lo..hi-1: append their rows and intern their successors.

        Nothing is kept when it raises.
        """
        state_map = self.state_map
        table = [column[lo:hi] for column in state_map.columns]
        n = hi - lo
        frontier = np.arange(n)
        enabled = []
        for cmd, k in zip(self.commands, self.guard_of):
            enabled.append(cmd.guard(table, frontier) if k == len(enabled) else enabled[k])

        # per fired group: its choices' rows, totals and action bits; its
        # branches' choices (numbered across groups), weights and successor columns
        rows_, totals_, bits_, branches_, weights_, successors_ = [], [], [], [], [], []
        n_choices = 0
        for bit, group in self.groups:
            fired = self._fire(group, enabled, table)
            if fired is not None:
                choice_rows, totals, branch_choice, weights, successors = fired
                rows_.append(choice_rows)
                totals_.append(totals)
                bits = np.empty(len(choice_rows), dtype=self.mask_dtype)
                bits.fill(1 << bit)
                bits_.append(bits)
                branches_.append(n_choices + branch_choice)
                weights_.append(weights)
                successors_.append(successors)
                n_choices += len(choice_rows)

        stuck = np.ones(n, dtype=bool)
        for choice_rows in rows_:
            stuck[choice_rows] = False
        if stuck.any():
            if not self.options.fix_deadlocks:
                s = lo + int(np.argmax(stuck))
                raise DeadlockError(s, f"valuation {dict(zip(state_map.slots, state_map.valuation(s)))}")
            # a deadlock gets one choice: a self-loop of weight (and rate) 1, with no action
            rows = np.flatnonzero(stuck)
            ones = self._full(len(rows), self.one)
            rows_.append(rows)
            totals_.append(ones)
            bits_.append(np.zeros(len(rows), dtype=self.mask_dtype))
            branches_.append(n_choices + np.arange(len(rows)))
            weights_.append(ones)
            successors_.append([column[rows] for column in table])

        if len(rows_) == 1:
            # one group's choices come in row order, and its branches in choice order
            choice_rows, totals, bits, branch_rank, weights = rows_[0], totals_[0], bits_[0], branches_[0], weights_[0]
            successors = successors_[0]
        else:
            choice_rows = np.concatenate(rows_)
            choice_order = choice_rows.argsort(kind="stable")
            choice_rows = choice_rows[choice_order]
            totals = np.concatenate(totals_)[choice_order]
            bits = np.concatenate(bits_)[choice_order]
            rank = np.empty(len(choice_order), dtype=np.int64)
            rank[choice_order] = np.arange(len(choice_order))
            # branches in (state, choice, branch) order
            branch_rank = rank[np.concatenate(branches_)]
            order = branch_rank.argsort(kind="stable")
            branch_rank = branch_rank[order]
            weights = np.concatenate(weights_)[order]
            successors = [np.concatenate(column)[order] for column in zip(*successors_)]
        nonzero = weights != 0  # a zero weight gives no transition
        if not nonzero.all():
            branch_rank, weights = branch_rank[nonzero], weights[nonzero]
            successors = [column[nonzero] for column in successors]

        # cut before the first branch with an assigned value outside its range
        bad = None
        for column, bound in zip(successors, self.bounds):
            if bound is not None:
                outside = (column < bound[0]) | (column > bound[1])
                bad = outside if bad is None else bad | outside
        cut = int(np.argmax(bad)) if bad is not None and bad.any() else len(weights)
        bad_branch = None
        if cut < len(weights):
            bad_branch = lo + int(choice_rows[branch_rank[cut]]), [column[cut] for column in successors]
            branch_rank, weights = branch_rank[:cut], weights[:cut]
            successors = [column[:cut] for column in successors]

        keys = state_map.keys(successors, len(weights)).tolist()
        found = state_map.find(keys)
        # the keys not interned yet, in the order they first appear
        new = list(dict.fromkeys([key for key, i in zip(keys, found) if i is None])) if None in found else []
        if new and len(state_map) + len(new) > self.options.max_states:
            raise StormletError(f"state limit of {self.options.max_states} states exceeded")
        if bad_branch is not None:
            self._range_error(*bad_branch)

        state_map.add(new)
        self.patched.append(stuck)
        self.choice_states.append(lo + choice_rows)
        self.totals.append(totals)
        self.bits.append(bits)
        if self.kind is ModelKind.MDP:
            self.rows.append(self.n_choices + branch_rank)
        else:
            self.rows.append(lo + choice_rows[branch_rank])
        self.cols.append(state_map.index(keys))
        self.values.append(weights)
        self.n_choices += len(choice_rows)

    def _range_error(self, state, values):
        """The error of a branch from ``state`` that assigns ``values``: its
        first variable, in declaration order, outside its range."""
        valuation = self.state_map.valuation(state)
        for name, value, bound in zip(self.state_map.variable_names, values, self.bounds):
            value = value.item() if isinstance(value, np.generic) else value
            if bound is not None and not bound[0] <= value <= bound[1]:
                raise StormletError(f"assignment in state {valuation} of {name!r} is {value}, "
                                    f"outside [{bound[0]}..{bound[1]}]")


def _joined(parts):
    """The concatenation of a list of arrays, which is emptied."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def _entries(layers, n, scales, exact):
    """The (row, col, value) records of the explored branches.

    Without ``scales`` (an MDP) they are the branches themselves. Else a
    target's weights add left to right, and each row is scaled once, by its
    number of choices (DTMC) or its exit rate (CTMC); with a value that is
    not finite the entries go in the order their targets first appear, so
    that build_sparse reports the first one.
    """
    rows, cols, values = (_joined(parts) for parts in (layers.rows, layers.cols, layers.values))
    if scales is not None:
        position, summed, first = sparse.coalesce(rows * n + cols, values)
        rows, cols = np.divmod(position, n)
        values = summed / scales[rows]
        if not exact and not np.isfinite(values).all():
            order = np.argsort(first)
            rows, cols, values = rows[order], cols[order], values[order]
    return np.rec.fromarrays([rows, cols, values], names="row,col,value")


def explore(program, options=None):
    """Build (Model, StateMap) from a typechecked program."""
    options = options or ExploreOptions()
    kind = program.model_type
    exact = options.exact
    decls = list(program.all_variables())
    bounds = _ranges(decls)
    state_map = StateMap(decls, bounds)
    layers = _Layers(program, state_map, bounds, options)
    initial = [eval_expr(decl.init, exact=exact) for decl in decls]
    for decl, bound, value in zip(decls, bounds, initial):
        if bound is not None and not bound[0] <= value <= bound[1]:
            raise StormletError(f"initial value of {decl.name!r} is {value}, outside [{bound[0]}..{bound[1]}]")
    state_map.add(state_map.keys([np.array([value]) for value in initial], 1).tolist())

    # BFS: states are numbered in discovery order, so a layer is an index range
    done = 0
    with np.errstate(all="ignore"):
        while done < len(state_map):
            end = len(state_map)
            try:
                layers.expand(done, end)
            except StormletError:
                if end - done == 1:
                    raise
                # again one state at a time: the first faulty state raises its own error
                for s in range(done, end):
                    layers.expand(s, s + 1)
            done = end

    n = len(state_map)
    choice_states, totals, bits = (_joined(parts) for parts in (layers.choice_states, layers.totals, layers.bits))
    counts = np.bincount(choice_states, minlength=n)
    scales = exit_rates = None
    if kind is ModelKind.MDP:
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        masks = bits
    else:
        offsets = np.arange(n + 1, dtype=np.int64)
        masks = np.bitwise_or.reduceat(bits, np.cumsum(counts) - counts)
        # a state's rate is its choices' totals added left to right
        scales = counts if kind is ModelKind.DTMC else sparse.coalesce(choice_states, totals)[1]
        exit_rates = scales if kind is ModelKind.CTMC else None
    del choice_states, totals, bits
    domain = "rational" if exact else "float"
    with np.errstate(all="ignore"):
        entries = _entries(layers, n, scales, exact)
    matrix = sparse.build_sparse(entries, int(offsets[-1]), n, domain)
    del entries
    initial_states = np.zeros(n, dtype=bool)
    initial_states[0] = True
    deadlock_fixed = np.concatenate(layers.patched)

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
    # per matrix row, the action labels (None: unlabeled) of the commands that
    # produced it: one frozenset per distinct set, and each row's set
    masks, row_set = np.unique(masks, return_inverse=True)
    sets = [frozenset(a for i, a in enumerate(layers.actions) if mask >> i & 1) for mask in masks.tolist()]
    row_actions = (sets, row_set.ravel())
    model.rewards.update(build_reward_models(program, model, state_map, row_actions, exact=exact))
    return model, state_map


def build_label_bitsets(program, state_map):
    """Evaluate the declared labels over the state columns."""
    table, states = state_map.columns, np.arange(len(state_map))
    out = {}
    with np.errstate(all="ignore"):
        for lab in program.labels:
            holds = compile_expr(lab.expr, state_map.slots, bounds=state_map.bounds)
            out[lab.name] = evaluate_rows(lambda rows: holds(table, rows), states)
    return out


def build_reward_models(program, model, state_map, row_actions, exact=False):
    """Sum reward items per state (state items) and per choice (action items).

    An action item ``[a] g : r`` adds r to every row of a state satisfying g
    whose action labels (``row_actions``: the distinct label sets and each
    row's set, for the commands that produced the row) contain a; ``[]``
    matches unlabeled commands.
    """
    domain = "rational" if exact else "float"
    offsets = model.choice_offsets
    sets, row_set = row_actions
    table, states = state_map.columns, np.arange(model.n_states)
    rewards = {}
    for block in program.reward_blocks:
        state_rw = sparse.as_vector(np.zeros(model.n_states), domain)
        action_rw = sparse.as_vector(np.zeros(model.n_choices), domain)
        has_state = has_action = False
        for item in block.items:
            guard = compile_expr(item.guard, state_map.slots, exact, state_map.bounds)
            reward = compile_expr(item.expr, state_map.slots, exact, state_map.bounds)

            def values(rows):
                rows = rows[guard(table, rows)]
                value = reward(table, rows)
                negative = value < 0
                if negative.any():
                    k = int(np.argmax(negative))
                    raise ModelError(
                        f"reward block {block.name!r} evaluates to {value.item(k)} at state {rows[k]}"
                    )
                return rows, value if exact else _domain(value, exact, "reward", item.expr.span)

            with np.errstate(all="ignore"):
                rows, value = evaluate_rows(values, states)
            if not len(rows):
                continue
            if item.is_action_item:
                has_action = True
                matches = np.array([(item.action or None) in s for s in sets], dtype=bool)[row_set]
                state, place = _runs(offsets[rows + 1] - offsets[rows])
                choice = offsets[rows][state] + place
                hit = matches[choice]
                choice = choice[hit]
                action_rw[choice] = action_rw[choice] + value[state[hit]]
            else:
                has_state = True
                state_rw[rows] = state_rw[rows] + value
        rewards[block.name] = RewardModel(
            block.name,
            state_rw if has_state else None,
            action_rw if has_action else None,
        )
    return rewards
