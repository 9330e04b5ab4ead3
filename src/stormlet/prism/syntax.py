"""AST nodes for programs and expressions.

Expression nodes are shared with the property language: variable predicates
reuse the same grammar, and state formulas are built from ``Lit``, ``Unary``
and ``Binary``. Spans are (line, column) pairs for diagnostics.

Nodes are plain ``__slots__`` classes. ``_fields`` lists every field of a
node class in ``__init__`` order, ``span`` and ``type`` included; ``replace``,
``key`` and the checkers' formula walks read it.
"""


def replace(node, **changes):
    """A copy of node with the given fields changed."""
    values = {name: getattr(node, name) for name in node._fields}
    values.update(changes)
    return type(node)(**values)


def key(node):
    """A hashable image of an expression or formula without its source spans:
    lists become tuples, a bitset its bytes, a value a pair with its type (``1`` is not ``true``)."""
    if hasattr(node, "_fields"):
        return type(node).__name__, *(key(getattr(node, f)) for f in node._fields if f != "span")
    if isinstance(node, (list, tuple)):
        return tuple(map(key, node))
    if hasattr(node, "tobytes"):
        return node.tobytes()
    return type(node), node


class Expr:
    __slots__ = _fields = ("span", "type")  # type: bool | int | double, set by typecheck


class Lit(Expr):
    __slots__ = ("value",)  # bool, int, or Fraction (doubles are kept exact)
    _fields = __slots__ + Expr._fields

    def __init__(self, value=None, *, span=None, type=None):
        self.value, self.span, self.type = value, span, type


class Var(Expr):
    __slots__ = ("name",)
    _fields = __slots__ + Expr._fields

    def __init__(self, name=None, *, span=None, type=None):
        self.name, self.span, self.type = name, span, type


class Unary(Expr):
    __slots__ = ("op", "operand")  # op: ! or -
    _fields = __slots__ + Expr._fields

    def __init__(self, op=None, operand=None, *, span=None, type=None):
        self.op, self.operand, self.span, self.type = op, operand, span, type


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: | & = != < <= > >= + - * /
    _fields = __slots__ + Expr._fields

    def __init__(self, op=None, left=None, right=None, *, span=None, type=None):
        self.op, self.left, self.right, self.span, self.type = op, left, right, span, type


class Call(Expr):
    __slots__ = ("func", "args")  # func: min max floor ceil pow mod
    _fields = __slots__ + Expr._fields

    def __init__(self, func=None, args=None, *, span=None, type=None):
        self.func, self.args, self.span, self.type = func, args, span, type


class Constant:
    __slots__ = _fields = ("name", "type", "value", "span")  # type: int | double | bool

    def __init__(self, name, type, value, span=None):  # value is None for undefined constants
        self.name, self.type, self.value, self.span = name, type, value, span


class Formula:
    __slots__ = _fields = ("name", "expr", "span")

    def __init__(self, name, expr, span=None):
        self.name, self.expr, self.span = name, expr, span


class VarDecl:
    __slots__ = _fields = ("name", "is_bool", "low", "high", "init", "span")

    def __init__(self, name, is_bool, low, high, init, span=None):  # low, high: None for booleans
        self.name, self.is_bool, self.low, self.high, self.init, self.span = name, is_bool, low, high, init, span


class Update:
    # weight None means weight 1; assignments [(var name, Expr)], an empty list encodes `true`
    __slots__ = _fields = ("weight", "assignments", "span")

    def __init__(self, weight, assignments, span=None):
        self.weight, self.assignments, self.span = weight, assignments, span


class Command:
    __slots__ = _fields = ("action", "guard", "updates", "span")  # action: None for unlabeled commands

    def __init__(self, action, guard, updates, span=None):
        self.action, self.guard, self.updates, self.span = action, guard, updates, span


class Module:
    __slots__ = _fields = ("name", "variables", "commands", "span")

    def __init__(self, name, variables, commands, span=None):
        self.name, self.variables, self.commands, self.span = name, variables, commands, span


class LabelDef:
    __slots__ = _fields = ("name", "expr", "span")

    def __init__(self, name, expr, span=None):
        self.name, self.expr, self.span = name, expr, span


class RewardItem:
    # action: None for state items, "" for unlabeled action items
    __slots__ = _fields = ("action", "is_action_item", "guard", "expr", "span")

    def __init__(self, action, is_action_item, guard, expr, span=None):
        self.action, self.is_action_item, self.guard, self.expr, self.span = action, is_action_item, guard, expr, span


class RewardBlock:
    __slots__ = _fields = ("name", "items", "span")

    def __init__(self, name, items, span=None):
        self.name, self.items, self.span = name, items, span


class PrismProgram:
    __slots__ = _fields = ("model_type", "constants", "formulas", "modules", "labels", "reward_blocks")

    def __init__(self, model_type, constants, formulas, modules, labels, reward_blocks):  # model_type: ModelKind
        self.model_type, self.constants, self.formulas = model_type, constants, formulas
        self.modules, self.labels, self.reward_blocks = modules, labels, reward_blocks

    def all_variables(self):
        for module in self.modules:
            yield from module.variables
