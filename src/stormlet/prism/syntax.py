"""AST nodes for programs and expressions.

Expression nodes are shared with the property language: variable predicates
reuse the same grammar, and state formulas are built from ``Lit``, ``Unary``
and ``Binary``. Spans are (line, column) pairs for diagnostics.
"""

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Expr:
    span: tuple = field(default=None, kw_only=True)
    type: str = field(default=None, kw_only=True)  # bool | int | double, set by typecheck


@dataclass
class Lit(Expr):
    value: object = None  # bool, int, or Fraction (doubles are kept exact)


@dataclass
class Var(Expr):
    name: str = None


@dataclass
class Unary(Expr):
    op: str = None  # ! or -
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = None  # | & = != < <= > >= + - * /
    left: Expr = None
    right: Expr = None


@dataclass
class Call(Expr):
    func: str = None  # min max floor ceil pow mod
    args: list = None


@dataclass
class Constant:
    name: str
    type: str  # int | double | bool
    value: Expr  # may be None for undefined constants
    span: tuple = None


@dataclass
class Formula:
    name: str
    expr: Expr
    span: tuple = None


@dataclass
class VarDecl:
    name: str
    is_bool: bool
    low: Expr  # None for booleans
    high: Expr
    init: Expr
    span: tuple = None


@dataclass
class Update:
    weight: Expr  # None means weight 1
    assignments: list  # [(var name, Expr)]; empty list encodes `true`
    span: tuple = None


@dataclass
class Command:
    action: str  # None for unlabeled commands
    guard: Expr
    updates: list
    span: tuple = None


@dataclass
class Module:
    name: str
    variables: list
    commands: list
    span: tuple = None


@dataclass
class LabelDef:
    name: str
    expr: Expr
    span: tuple = None


@dataclass
class RewardItem:
    action: str  # None for state items; "" for unlabeled action items
    is_action_item: bool
    guard: Expr
    expr: Expr
    span: tuple = None


@dataclass
class RewardBlock:
    name: str
    items: list
    span: tuple = None


@dataclass
class PrismProgram:
    model_type: object  # ModelKind
    constants: list
    formulas: list
    modules: list
    labels: list
    reward_blocks: list

    def all_variables(self):
        for module in self.modules:
            yield from module.variables
