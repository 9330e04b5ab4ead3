"""Explicit-state exploration of a typechecked program: one BFS layer at a
time, or every valuation of a small variable space at once.

Every guard, update weight, assignment, label and reward expression is
compiled once per call into a column closure (``semantics.compile_expr``).
A layer is every state found but not yet expanded; each guard is evaluated
once per layer, and each weight and assignment on the rows it fires on.
States are numbered in discovery order and interned by a packed integer
key in a ``states.StateMap``, which holds one column per variable and
interns a layer's successors at once: through a dense index over the key
space where the ranges span at most ``states.DENSE_KEYS`` (2^24) keys, from
8 bytes a state where reached keys lie close together up to a 4 KiB page a
state where each lies alone, and through a dict of about 100 bytes a state
otherwise. Variable ranges are checked once before exploring, and every
assigned value against them.

Unlabeled commands interleave. Commands sharing an action label
synchronize across every module that mentions the action: each combination
of one such command per module is a choice, whose weights multiply and
whose assignments merge (a later module's wins). DTMCs take the uniform
mixture over enabled commands, CTMCs race (rates add), MDPs keep one choice
per combination. An action with one command per module is one choice
(``_Folded``) under the conjunction of their guards; one-command choices
that share a guard form a group (``_Group``), whose branches fill a grid
with one line per row, so that an update costs one array operation whatever
the layer's size. An action on which a module has several commands is a
``_Sync``, which evaluates each command once and gathers its lines into the
combinations that use it. One stable sort merges the parts of a layer.

A layer gives the model that expanding its states one at a time in index
order gives: successors are interned in (state, choice, branch) order, and
duplicate targets add left to right through ``sparse.coalesce``. A layer
that raises is expanded again one state at a time, so a faulty program
reports the error of its first faulty state, raised in the order the checks
of one state run: guards; then each command, unlabeled ones before actions,
its weights and their sum before its assignments; then range checks in
branch order.

Each layer costs a fixed amount on top of its states, which on a deep, thin
space is most of the work. So where the packed key space has at most
``WHOLE_SPACE_KEYS`` (2^14) keys, ``whole.whole_space`` first expands every
valuation of the space at once and numbers the reached ones as BFS does, so
that the model is the same bit for bit; on any fault it gives way to the
layers, so every error still comes from them.

Either way the explored branches become the transition matrix in one step,
``sparse.assemble``, which coalesces them once, divides each DTMC or CTMC row
by its number of choices or its exit rate and builds the CSR arrays from the
row counts.
"""

from fractions import Fraction
from functools import reduce
from itertools import accumulate, groupby, product
from math import prod
from operator import and_, mul, or_
import numpy as np

from .. import sparse
from ..errors import DeadlockError, ModelError, StormletError
from ..models import ROW_SUM_TOLERANCE, Model, ModelKind, RewardModel, StateLabeling
from . import syntax
from .semantics import EXACT_INT, compile_expr, eval_expr, evaluate_rows
from .states import StateMap

# A program whose key space has at most this many keys is built by expanding
# every valuation of the space (``whole.whole_space``).
WHOLE_SPACE_KEYS = 1 << 14


class ExploreOptions:
    __slots__ = ("fix_deadlocks", "exact", "max_states")

    def __init__(self, fix_deadlocks=False, exact=False, max_states=10_000_000):
        self.fix_deadlocks, self.exact, self.max_states = fix_deadlocks, exact, max_states


class _Command:
    """A command with its guard, weights and assignments compiled.

    ``updates`` holds one (weight or None, weight span, constant weight or
    None, [(slot, value)]) per update. A literal (or absent, 1) weight is
    converted to the domain once, here. When all are, ``total`` is their sum
    and ``pattern`` their array, and ``plain`` says that no check can fail.
    ``slots`` maps each assigned slot to whether every update assigns it.
    """

    __slots__ = ("action", "span", "guard", "updates", "total", "pattern", "plain", "slots")
    parts = None  # the commands of a ``_Folded``

    def __init__(self, command, state_map, exact, kind):
        slots, bounds = state_map.slots, state_map.bounds
        self.action, self.span = command.action, command.span
        self.guard = compile_expr(command.guard, slots, exact, bounds)
        self.updates = []
        for upd in command.updates:
            weight, constant = upd.weight, None
            if weight is None:
                constant = Fraction(1) if exact else 1.0
            elif isinstance(weight, syntax.Lit) and (exact or abs(weight.value) <= EXACT_INT):
                constant = Fraction(weight.value) if exact else float(weight.value)
            assignments = [(slots[var], compile_expr(rhs, slots, exact, bounds)) for var, rhs in upd.assignments]
            self.updates.append((None if weight is None else compile_expr(weight, slots, exact, bounds),
                                 None if weight is None else weight.span, constant, assignments))
        constants = [constant for _, _, constant, _ in self.updates]
        self.total, self.pattern, self.plain = None, None, False
        if None not in constants:
            self.total = sum(constants, Fraction(0) if exact else 0.0)
            self.pattern = np.array(constants, dtype=object if exact else np.float64)
            self.plain = min(constants) >= 0 and not _bad_sum(self.total, kind, exact)
        assigned = [{slot for slot, _ in assignments} for _, _, _, assignments in self.updates]
        self.slots = {slot: all(slot in a for a in assigned) for slot in set().union(*assigned)}


class _Folded:
    """An action on which each module that mentions it has one command, as one
    choice: its branches are the product of the commands' updates, in module
    order, whose weights and totals multiply left to right, as they do on each
    row. ``updates`` only counts them; the rest is as for a ``_Command``."""

    __slots__ = ("parts", "updates", "total", "pattern", "plain", "slots")

    def __init__(self, parts):
        self.parts, self.plain = parts, all(cmd.plain for cmd in parts)
        self.updates, self.slots = range(prod(len(cmd.updates) for cmd in parts)), set().union(*(c.slots for c in parts))
        self.total = prod(cmd.total for cmd in parts) if self.plain else None
        self.pattern = reduce(np.multiply.outer, [cmd.pattern for cmd in parts]).ravel() if self.plain else None


def _bad_sum(total, kind, exact):
    """Whether a command's total weight (a value or a column) is invalid."""
    if kind is ModelKind.CTMC:
        return total <= 0
    return total != 1 if exact else abs(total - 1.0) > ROW_SUM_TOLERANCE


def _ranges(decls):
    """Per variable, None for a boolean or its (low, high); empty ranges are errors."""
    bounds = []
    for decl in decls:
        low, high = (0, 1) if decl.is_bool else (eval_expr(decl.low), eval_expr(decl.high))
        if low > high:
            raise ModelError(f"variable {decl.name!r} has empty range [{low}..{high}]")
        bounds.append(None if decl.is_bool else (low, high))
    return bounds


def _domain(values, exact, what, span):
    """A numeric column as the domain's values; an integer too large for a
    float is a ModelError at its expression."""
    try:
        return sparse.as_vector(values, "rational" if exact else "float")
    except OverflowError:
        where = f" (line {span[0]}, column {span[1]})" if span else ""
        raise ModelError(f"{what} is an integer too large for a float{where}") from None


def _grid(columns):
    """Columns of one length side by side, laid out flat row by row."""
    return columns[0] if len(columns) == 1 else np.array(columns).T.ravel()


def _flat(values, shape=None):
    """A list of arrays concatenated, or one array broadcast to ``shape``, laid out flat."""
    if shape is None:
        return values[0] if len(values) == 1 else np.concatenate(values)
    if values.shape == shape:
        return values.reshape(-1)
    out = np.empty(shape, dtype=values.dtype)
    out[...] = values
    return out.reshape(-1)


class _Group:
    """One-command choices that follow each other in a state's choice order
    and share a guard, so that they fire on the same rows: unlabeled
    commands, folded actions, or the commands of an action that one module has.

    ``choices`` holds each choice's action mask and command. A row's
    branches are one line of a grid, each choice's updates in turn; ``slots``
    lists the slots that some branch assigns; ``weights`` and ``totals`` hold
    a line's weights and its choices' totals, if every weight is a constant.
    """

    __slots__ = ("choices", "guard", "width", "slots", "line", "masks", "weights", "totals")

    def __init__(self, choices, commands, guard, mask_dtype):
        cmds = [commands[k] for _, k in choices]
        widths = [len(cmd.updates) for cmd in cmds]
        self.choices, self.guard, self.width = choices, guard, sum(widths)
        self.slots = sorted(set().union(*(cmd.slots for cmd in cmds)))
        # each branch's choice within a line; None when the choices have one width
        self.line = None if len(set(widths)) == 1 else np.repeat(np.arange(len(choices)), widths)
        self.masks = np.array([mask for mask, _ in choices], dtype=mask_dtype)
        self.weights = self.totals = None
        if all(cmd.plain for cmd in cmds):
            self.weights = np.concatenate([cmd.pattern for cmd in cmds])
            self.totals = np.array([cmd.total for cmd in cmds], dtype=self.weights.dtype)


class _Sync:
    """An action that several modules mention. Per module, in module order: its
    commands with the action, their guards, each slot they assign with whether all
    their updates do, and the shape that puts a (row, update) array on the module's
    axis of a choice's branch grid, as wide as the module's widest command."""

    __slots__ = ("mask", "modules", "guards", "slots", "widths", "views")

    def __init__(self, mask, modules, commands, guard_at):
        self.mask, self.modules, self.guards = mask, modules, [sorted({guard_at[k] for k in ks}) for ks in modules]
        self.slots = [[(slot, all(commands[k].slots.get(slot) for k in ks))
                       for slot in sorted(set().union(*(commands[k].slots for k in ks)))] for ks in modules]
        self.widths = [max(len(commands[k].updates) for k in ks) for ks in modules]
        self.views = [(-1,) + (1,) * j + (w,) + (1,) * (len(modules) - 1 - j) for j, w in enumerate(self.widths)]


class _Layers:
    """The compiled program and the model built so far, one expanded batch of states at a time."""

    def __init__(self, program, state_map, bounds, options):
        self.kind, self.exact, self.options, self.state_map, self.bounds = (
            program.model_type, options.exact, options, state_map, bounds)
        self.ctmc = self.kind is ModelKind.CTMC
        commands = [cmd for module in program.modules for cmd in module.commands]
        starts = list(accumulate([0] + [len(module.commands) for module in program.modules]))
        self.commands = [_Command(cmd, state_map, self.exact, self.kind) for cmd in commands]
        # a guard that repeats an earlier command's is evaluated once per layer
        first_of = {}
        guard_at = self.guard_at = [first_of.setdefault(syntax.key(cmd.guard), len(first_of)) for cmd in commands]
        self.guards = [self.commands[guard_at.index(g)].guard for g in range(len(first_of))]
        self.actions = [None] + list(dict.fromkeys(cmd.action for cmd in commands if cmd.action is not None))
        self.mask_dtype = np.int64 if len(self.actions) < 63 else object
        # a state's choices, in order: each unlabeled command, in module order,
        # then per action (bit i of a row's action mask; bit 0: unlabeled) each
        # combination of one command of every module that mentions it, in product
        # order, folded when each module has one; one-command choices that follow
        # each other and share a guard form a group. A fold is guarded by the
        # conjunction of its commands' guards, whose id follows the guards' ids
        self.groups, self.conjunctions = [], {}
        singles = [(1, k) for k, cmd in enumerate(self.commands) if cmd.action is None]
        runs = lambda: [_Group(list(run), self.commands, g, self.mask_dtype)  # noqa: E731
                        for g, run in groupby(singles, lambda choice: guard_at[choice[1]])]
        for bit, action in enumerate(self.actions[1:], 1):
            per_module = [ks for lo, hi in zip(starts, starts[1:])
                          if (ks := [k for k in range(lo, hi) if commands[k].action == action])]
            if len(per_module) == 1:
                singles += [(1 << bit, k) for k in per_module[0]]
            elif not any(ks[1:] for ks in per_module):
                guards = tuple(guard_at[ks[0]] for ks in per_module)
                guard_at.append(self.conjunctions.setdefault(guards, len(first_of) + len(self.conjunctions)))
                self.commands.append(_Folded([self.commands[ks[0]] for ks in per_module]))
                singles.append((1 << bit, len(self.commands) - 1))
            else:
                self.groups += runs() + [_Sync(1 << bit, per_module, self.commands, guard_at)]
                singles = []
        self.groups += runs()
        # per expanded batch: its first state and choice; which states have a
        # choice; its choices' states (from its first), totals (CTMC) and action
        # masks; its branches' rows (from its first state or choice), weights;
        # and every branch's target
        self.batches, self.cols = [], []
        self.n_choices = 0

    def _full(self, n, value):
        return np.full(n, value, dtype=object if self.exact else np.float64)

    def _evaluate(self, cmd, table, rows):
        """An enabled command on the given rows: its weight columns, per update
        {slot: value column}, and the total of each row (CTMC only); both None
        when plain. For DTMC/MDP the weights must sum to 1 (within 1e-10 in
        float mode). A fold evaluates its commands in module order, then
        multiplies weights and totals and merges assignments per branch."""
        if cmd.parts:
            done = [self._evaluate(part, table, rows) for part in cmd.parts]
            assigns = [{k: v for a in combo for k, v in a.items()} for combo in product(*(a for _, a, _ in done))]
            if cmd.plain:
                return None, assigns, None
            grids = [np.array(w or [self._full(len(rows), v) for v in part.pattern])
                     for part, (w, _, _) in zip(cmd.parts, done)]
            columns = reduce(lambda x, y: (x[:, None] * y).reshape(-1, len(rows)), grids)
            totals = [part.total if t is None else t for part, (_, _, t) in zip(cmd.parts, done)]
            return list(columns), assigns, reduce(mul, totals) if self.ctmc else None
        if cmd.plain:
            return None, [{slot: value(table, rows) for slot, value in assignments}
                          for _, _, _, assignments in cmd.updates], None
        columns, assigns = [], []
        for weight, span, constant, assignments in cmd.updates:
            columns.append(_domain(weight(table, rows), self.exact, "update weight", span) if constant is None
                           else self._full(len(rows), constant))
            if (columns[-1] < 0).any():
                raise ModelError(f"negative update weight at line {cmd.span[0]}")
            assigns.append({slot: value(table, rows) for slot, value in assignments})
        if cmd.total is not None:
            self._sum_error(cmd, cmd.total)  # a plain command's total would have passed
        total = reduce(np.add, columns)  # added left to right; 0 + w equals w, up to the sign of a zero
        bad = _bad_sum(total, self.kind, self.exact)
        if bad.any():
            self._sum_error(cmd, total.item(int(np.argmax(bad))))
        return columns, assigns, total if self.ctmc else None

    def _sum_error(self, cmd, total):
        if self.ctmc:
            raise ModelError(f"command at line {cmd.span[0]} has non-positive total rate")
        total = total + 0  # a zero sum prints unsigned
        raise ModelError(f"update weights of command at line {cmd.span[0]} sum to "
                         f"{total if self.exact else repr(total)}, expected 1")

    def _fire(self, group, holds, table):
        """A group's choices on the frontier, or None if it does not fire.

        Returns the frontier row, action mask and total (CTMC only) of each
        choice, in row order; per branch its choice, weight and successor
        columns; and the slots that some branch assigns.
        """
        rows = holds[group.guard].nonzero()[0]
        n, k, width = len(rows), len(group.choices), group.width
        if not n:
            return None
        # a column per branch of a line: per assigned slot the assigned value or
        # the row's own, and (unless constant) the weight; per choice its total
        values, weights, rates = {slot: [] for slot in group.slots}, [], []
        for _, c in group.choices:
            columns, assigns, total = self._evaluate(self.commands[c], table, rows)
            for assign in assigns:
                for slot, line in values.items():
                    line.append(assign[slot] if slot in assign else table[slot][rows])
            if group.weights is None:
                weights += columns or [self._full(n, w) for w in self.commands[c].pattern]
                rates.append(total if columns else self._full(n, self.commands[c].total))
        values = {slot: _grid(line) for slot, line in values.items()}
        if group.weights is None:
            weights, totals = _grid(weights), _grid(rates) if self.ctmc else None
        else:
            weights, totals = _flat(group.weights, (n, width)), _flat(group.totals, (n, k)) if self.ctmc else None
        if width == k:  # one branch per choice
            choice = np.arange(n * k)
        elif group.line is None:
            choice = np.arange(n * k).repeat(width // k)
        else:
            choice = (np.arange(0, n * k, k)[:, None] + group.line).ravel()
        if len(values) < len(table):  # some slot keeps each row's value
            source = rows if width == 1 else rows.repeat(width)
        successors = [values[slot] if slot in values else column[source] for slot, column in enumerate(table)]
        choice_rows = rows if k == 1 else rows.repeat(k)
        return choice_rows, _flat(group.masks, (n, k)), totals, choice, weights, successors, values

    def _join(self, sync, holds, table):
        """A synchronised action's choices on the frontier, as ``_fire`` gives
        them: a row's choices are the combinations of one enabled command per
        module, in product order, and a choice's branches a grid with an axis
        per module, one cell per update of its command (cells past them are
        dropped). Each command is evaluated once, on the rows where it is
        enabled, and each choice takes its line of the command's columns in
        every module, so that the cost follows commands and branches, not
        combinations."""
        rows = reduce(and_, [reduce(or_, [holds[g] for g in guards]) for guards in sync.guards]).nonzero()[0]
        if not len(rows):
            return None
        # per module, its commands enabled on some firing row and where (None: on
        # all); per choice its place in ``rows`` (None: one choice per row) and,
        # for a module with several such commands, its command and its line
        mods, part, picked = [], None, []
        for ks in sync.modules:
            at = [(k, w) for k in ks for w in (holds[self.guard_at[k]][rows],) if w.any()] if ks[1:] else ()
            mods.append(at if len(at) > 1 else [(at[0][0] if at else ks[0], None)])
            picked.append(None)
            if len(at) > 1:
                enabled = np.array([where for _, where in at])
                p, c = np.nonzero(enabled.T if part is None else enabled.T[part])
                part, picked = p if part is None else part[p], [x and (x[0][p], x[1]) for x in picked[:-1]]
                picked.append((c, np.cumsum(enabled).reshape(enabled.shape) - 1))
        # each command once, in the order one state's choices first use it: every
        # module's first, then the others of the last module, of the one before, and so on
        done = {}
        for j, i in [(j, 0) for j in range(len(mods))] + [(j, i) for j in reversed(range(len(mods)))
                                                          for i in range(1, len(mods[j]))]:
            cmd, at = self.commands[mods[j][i][0]], rows if mods[j][i][1] is None else rows[mods[j][i][1]]
            done[j, i] = (cmd, at) + self._evaluate(cmd, table, at)
        choice_rows = rows if part is None else rows[part]
        n, weights, totals, keep, values = len(choice_rows), None, None, None, {}
        for j, (at, x, width, view) in enumerate(zip(mods, picked, sync.widths, sync.views)):
            line, cmds = part if x is None else x[1][x[0], part], [done[j, i] for i in range(len(at))]
            sizes = [len(cmd.updates) for cmd, *_ in cmds]
            if min(sizes) < width:
                ok = (np.arange(width) < np.array(sizes)[[0] if x is None else x[0]][:, None]).reshape(view)
                keep = ok if keep is None else keep & ok

            def lines(grids):  # each command's columns, padded to ``width``, at each choice's line
                grid = _flat([_grid(g + g[:1] * (width - len(g))) for g in grids]).reshape(-1, width)
                return (grid if line is None else grid[line]).reshape(view)

            if len(cmds) == 1 and sizes[0] == width and cmds[0][2] is None:  # constant weights
                w, t = cmds[0][0].pattern.reshape(view), cmds[0][0].total if self.ctmc else None
            else:
                w = lines([[self._full(len(r), v) for v in cmd.pattern] if columns is None else columns
                           for cmd, r, columns, _, _ in cmds])
                t = _flat([self._full(len(r), cmd.total) if columns is None else total
                           for cmd, r, columns, _, total in cmds]) if self.ctmc else None
                t = t if t is None or line is None else t[line]
            weights, totals = (w, t) if weights is None else (weights * w, t if t is None else totals * t)
            for slot, every in sync.slots[j]:
                value = lines([[a[slot] if slot in a else table[slot][r] for a in assigns]
                               for _, r, _, assigns, _ in cmds])
                if not every:
                    has = lines([[np.full(len(r), slot in a) for a in assigns] for _, r, _, assigns, _ in cmds])
                    value = np.where(has, value, values[slot] if slot in values else
                                     table[slot][choice_rows].reshape((-1,) + (1,) * len(mods)))
                values[slot] = value
        shape, per, branch, source = (n, *sync.widths), prod(sync.widths), np.arange(n), choice_rows
        if per > 1:
            branch, source = branch.repeat(per), source.repeat(per)
        successors = [_flat(values[slot], shape) if slot in values else column[source]
                      for slot, column in enumerate(table)]
        weights = _flat(weights, shape)
        if keep is not None:
            keep = _flat(keep, shape).nonzero()[0]
            branch, weights, successors = branch[keep], weights[keep], [column[keep] for column in successors]
        totals = totals if totals is None or isinstance(totals, np.ndarray) else self._full(n, totals)
        return choice_rows, np.full(n, sync.mask, dtype=self.mask_dtype), totals, branch, weights, successors, values

    def expand(self, lo, hi):
        """Expand states lo..hi-1: append their rows and intern their successors.

        Nothing is kept when it raises.
        """
        state_map, n = self.state_map, hi - lo
        table, frontier = state_map.block(lo, hi), np.arange(n)
        holds = [guard(table, frontier) for guard in self.guards]
        for guards in self.conjunctions:
            holds.append(reduce(and_, [holds[g] for g in guards]))

        # per fired group: its choices' rows, action masks and totals; per
        # branch its choice, weight and successor columns; its assigned slots
        parts = []
        covered = np.zeros(n, dtype=bool)
        for group in self.groups:
            fired = (self._join if isinstance(group, _Sync) else self._fire)(group, holds, table)
            if fired is not None:
                covered[fired[0]] = True
                parts.append(fired)
        if np.count_nonzero(covered) < n:
            if not self.options.fix_deadlocks:
                s = lo + int(np.argmin(covered))
                raise DeadlockError(s, f"valuation {dict(zip(state_map.slots, state_map.valuation(s)))}")
            # a deadlock gets one choice: a self-loop of weight (and rate) 1, with no action
            rows = np.flatnonzero(~covered)
            ones = self._full(len(rows), Fraction(1))  # 1.0 in a float array
            parts.append((rows, np.zeros(len(rows), dtype=self.mask_dtype), ones, np.arange(len(rows)), ones,
                          [column[rows] for column in table], ()))

        if len(parts) == 1:
            # one group's choices come in row order, and its branches in choice order
            choice_rows, bits, totals, branch_rank, weights, successors, assigned = parts[0]
        else:
            # one stable sort by (row, choice), the layer's choices numbered in part
            # order, puts the branches in (state, choice, branch) order
            rows_, bits_, totals_, branches_, weights_, successors_, slots_ = zip(*parts)
            rows, firsts = np.concatenate(rows_), accumulate([0] + [len(part) for part in rows_[:-1]])
            choice = np.concatenate([branches + first for branches, first in zip(branches_, firsts)])
            order = (rows[choice] * len(rows) + choice).argsort(kind="stable")
            choice, branch_rank = choice[order], np.arange(len(order))
            if len(order) > len(rows):  # some choice has several branches
                new = np.concatenate(([True], choice[1:] != choice[:-1]))
                branch_rank, choice = np.cumsum(new) - 1, choice[new]
            choice_rows, bits = rows[choice], np.concatenate(bits_)[choice]
            totals = np.concatenate(totals_)[choice] if self.ctmc else None
            weights = np.concatenate(weights_)[order]
            successors = [np.concatenate(column)[order] for column in zip(*successors_)]
            assigned = set().union(*slots_)
        if np.count_nonzero(weights) < len(weights):
            nonzero = weights != 0  # a zero weight gives no transition
            branch_rank, weights, successors = branch_rank[nonzero], weights[nonzero], [c[nonzero] for c in successors]
        # cut before the first branch with an assigned value outside its range
        cut, bad_branch = len(weights), None
        for slot in assigned:
            bound, column = self.bounds[slot], successors[slot]
            if bound is not None:
                # an int64 column is within +-2^53, so its offset from the low bound is exact
                outside = ((column - bound[0] if bound[0] else column).view(np.uint64) > bound[1] - bound[0]
                           if column.dtype == np.int64 else (column < bound[0]) | (column > bound[1]))
                cut = int(outside.argmax()) if np.count_nonzero(outside[:cut]) else cut
        if cut < len(weights):
            bad_branch = lo + int(choice_rows[branch_rank[cut]]), [column[cut] for column in successors]
            branch_rank, weights, successors = branch_rank[:cut], weights[:cut], [c[:cut] for c in successors]

        n_states = len(state_map)
        found = state_map.intern(successors, len(weights))
        over = len(state_map) > max(n_states, self.options.max_states)
        if over or bad_branch is not None:
            state_map.forget(n_states)
            if over:
                raise StormletError(f"state limit of {self.options.max_states} states exceeded")
            self._range_error(*bad_branch)

        rows = branch_rank if self.kind is ModelKind.MDP else choice_rows[branch_rank]
        self.batches.append((lo, self.n_choices, covered, choice_rows, totals, bits, rows, weights))
        self.cols.append(found)
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


def _joined(parts, offsets=None):
    """A list of arrays concatenated and emptied, each raised by its offset if
    given; a lone array that no offset raises is returned as it is."""
    if len(parts) == 1 and not (offsets and offsets[0]):
        out = parts[0]
    else:
        out = np.concatenate(parts)
        if offsets is not None:
            out += np.repeat(offsets, [len(part) for part in parts])
    parts.clear()
    return out


def explore(program, options=None):
    """Build (Model, StateMap) from a typechecked program."""
    options = options or ExploreOptions()
    kind, exact = program.model_type, options.exact
    decls = list(program.all_variables())
    bounds = _ranges(decls)
    state_map = StateMap(decls, bounds)
    initial = [eval_expr(decl.init, exact=exact) for decl in decls]
    for decl, bound, value in zip(decls, bounds, initial):
        if bound is not None and not bound[0] <= value <= bound[1]:
            raise StormletError(f"initial value of {decl.name!r} is {value}, outside [{bound[0]}..{bound[1]}]")
    initial = [np.array([value]) for value in initial]

    with np.errstate(all="ignore"):
        layers = None
        if state_map.space <= WHOLE_SPACE_KEYS:
            from .whole import whole_space  # loaded here: it imports this module

            layers = whole_space(program, bounds, state_map, initial, options)
        if layers is None:
            layers = _Layers(program, state_map, bounds, options)
            state_map.intern(initial, 1)
            # BFS: states are numbered in discovery order, so a layer is an index range
            done = 0
            while done < (end := len(state_map)):
                evaluate_rows(lambda states: layers.expand(states[0], states[-1] + 1), range(done, end))
                done = end

    n = len(state_map)
    los, firsts, covered, choice_states, totals, bits, rows, values = map(list, zip(*layers.batches))
    layers.batches.clear()
    deadlock_fixed = ~_joined(covered)
    choice_states, bits = _joined(choice_states, los), _joined(bits)
    counts = np.bincount(choice_states, minlength=n)
    scales = exit_rates = None
    if kind is ModelKind.MDP:
        offsets, masks = np.concatenate(([0], np.cumsum(counts))), bits
    else:
        offsets = np.arange(n + 1, dtype=np.int64)
        masks = np.bitwise_or.reduceat(bits, np.cumsum(counts) - counts)
        # a state's rate is its choices' totals added left to right; rates
        # that add past the float range are reported by the model
        with np.errstate(all="ignore"):
            scales = counts if kind is ModelKind.DTMC else sparse.coalesce(choice_states, _joined(totals))[1]
        exit_rates = scales if kind is ModelKind.CTMC else None
    del choice_states, totals, bits
    with np.errstate(all="ignore"):
        matrix = sparse.assemble(_joined(rows, firsts if kind is ModelKind.MDP else los), _joined(layers.cols),
                                 _joined(values), int(offsets[-1]), n, "rational" if exact else "float", scales)
    initial_states = np.arange(n) == 0

    labeling = StateLabeling(n, {"init": initial_states, "deadlock": deadlock_fixed})
    model = Model(kind, matrix, labeling, choice_offsets=offsets, initial_states=initial_states,
                  exit_rates=exit_rates)
    for name, bits in build_label_bitsets(program, state_map).items():
        labeling.add(name, bits)
    # per matrix row, the action labels (None: unlabeled) of the commands that
    # produced it: one frozenset per distinct set, and each row's set
    masks, row_set = np.unique(masks, return_inverse=True)
    sets = [frozenset(a for i, a in enumerate(layers.actions) if mask >> i & 1) for mask in masks.tolist()]
    model.rewards.update(build_reward_models(program, model, state_map, (sets, row_set.ravel()), exact=exact))
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
                    raise ModelError(f"reward block {block.name!r} evaluates to {value.item(k)} at state {rows[k]}")
                return rows, value if exact else _domain(value, exact, "reward", item.expr.span)

            with np.errstate(all="ignore"):
                rows, value = evaluate_rows(values, states)
            if not len(rows):
                continue
            if item.is_action_item:
                has_action = True
                matches = np.array([(item.action or None) in s for s in sets], dtype=bool)[row_set]
                # each choice of the matched states, from its state's first
                counts = offsets[rows + 1] - offsets[rows]
                choice = sparse.spans(offsets[rows], counts)
                hit = matches[choice]
                action_rw[choice[hit]] = action_rw[choice[hit]] + value.repeat(counts)[hit]
            else:
                has_state = True
                state_rw[rows] = state_rw[rows] + value
        rewards[block.name] = RewardModel(block.name, state_rw if has_state else None,
                                          action_rw if has_action else None)
    return rewards
