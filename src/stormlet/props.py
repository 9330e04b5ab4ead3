"""Property language: parsing and atom resolution.

Grammar (informal):
    prop    := probop | rewop
    probop  := ("P"|"Pmin"|"Pmax") (relop num | "=?") "[" path ["||" path] "]"
    rewop   := ("R"|"Rmin"|"Rmax") ["{" name "}"] (relop num | "=?")
               "[" ("F" state | "C<=" num) "]"
    path    := "X" state | ("F"|"G") ["<=" num] state | state "U" ["<=" num] state
    state   := '"label"' | "(" expr ")" | "true" | "false"
             | "!" state | state "&" state | state "|" state | probop-with-bound

State formulas parse with the program grammar's operator loop, into its
``Binary``, ``Unary`` and ``Lit`` nodes.

``<=k`` with an integer bound counts transitions on discrete-time models;
on CTMCs the bound is the time interval [0, t]. The two paths of a
conditional are objective and condition.
"""

from fractions import Fraction

import numpy as np

from .errors import ParseError, PropertyError
from .models import ModelKind
from .prism import syntax
from .prism.parser import Precedence, TokenCursor, parse_expression
from .prism.semantics import DivisionByZero, TypecheckError, compile_expr, evaluate_rows, typecheck_expr
from .prism.syntax import replace

RELOPS = ("<", "<=", ">", ">=")
OPERATORS = ("P", "Pmin", "Pmax", "R", "Rmin", "Rmax")


# --- AST ------------------------------------------------------------------


class Label:
    __slots__ = _fields = ("name",)

    def __init__(self, name):
        self.name = name


class Predicate:
    __slots__ = _fields = ("expr", "text")  # text: the source between the parentheses

    def __init__(self, expr, text):
        self.expr, self.text = expr, text


class Next:
    __slots__ = _fields = ("target",)

    def __init__(self, target):
        self.target = target


class Until:
    __slots__ = _fields = ("left", "right", "bound")

    def __init__(self, left, right, bound=None):  # bound: None | Fraction, steps or time by the model
        self.left, self.right, self.bound = left, right, bound


class Globally:
    __slots__ = _fields = ("target", "bound")

    def __init__(self, target, bound=None):
        self.target, self.bound = target, bound


class ProbOperator:
    # optimum: None | "min" | "max"; bound: None (query) | (relop, Fraction);
    # condition: of a conditional, P[ objective || condition ]
    __slots__ = _fields = ("optimum", "bound", "path", "condition")

    def __init__(self, optimum, bound, path, condition=None):
        self.optimum, self.bound, self.path, self.condition = optimum, bound, path, condition


class RewardOperator:
    # reward_name: None for the model's only reward model;
    # target: ("reach", state) | ("cumulative", Fraction)
    __slots__ = _fields = ("optimum", "bound", "reward_name", "target")

    def __init__(self, optimum, bound, reward_name, target):
        self.optimum, self.bound, self.reward_name, self.target = optimum, bound, reward_name, target


# --- parsing --------------------------------------------------------------


def parse_property(text):
    cur = TokenCursor(text)
    prop = _parse_operator(cur, top=True)
    if cur.peek().kind != "EOF":
        cur.error(f"unexpected trailing {cur.peek().kind!r}")
    return prop


def _parse_operator(cur, top=False):
    tok = cur.expect("IDENT")
    head = tok.value
    if head not in OPERATORS:
        raise ParseError(
            f"expected a P or R operator, found {head!r}", line=tok.line, column=tok.column
        )
    optimum = {"min": "min", "max": "max"}.get(head[1:]) if len(head) > 1 else None
    is_reward = head[0] == "R"

    reward_name = None
    if is_reward and cur.accept("{"):
        reward_name = cur.expect("STRING").value
        cur.expect("}")

    if cur.accept("="):
        cur.expect("?")
        bound = None
    else:
        rel = cur.expect(*RELOPS)
        bound = (rel.kind, _parse_number(cur))

    cur.expect("[")
    if is_reward:
        op_tok = cur.peek()
        if op_tok.kind == "IDENT" and op_tok.value == "F":
            cur.advance()
            target = ("reach", STATE.parse(cur))
        elif op_tok.kind == "IDENT" and op_tok.value == "C":
            cur.advance()
            cur.expect("<=")
            target = ("cumulative", _parse_number(cur))
        else:
            cur.error("reward operator needs 'F state' or 'C<=bound'")
        cur.expect("]")
        return RewardOperator(optimum, bound, reward_name, target)

    path = _parse_path(cur)
    condition = None
    if top and cur.accept("||"):
        condition = _parse_path(cur)
    cur.expect("]")
    return ProbOperator(optimum, bound, path, condition)


def _parse_number(cur):
    neg = cur.accept("-")
    tok = cur.expect("INT", "DOUBLE")
    value = Fraction(tok.value)
    if tok.kind == "INT" and cur.accept("/"):
        den = cur.expect("INT")
        if den.value == 0:
            raise ParseError("zero denominator", line=den.line, column=den.column)
        value /= den.value
    return -value if neg else value


def _parse_bound_suffix(cur):
    if cur.accept("<="):
        return _parse_number(cur)
    return None


def _parse_path(cur):
    tok = cur.peek()
    if tok.kind == "IDENT" and tok.value == "X":
        cur.advance()
        return Next(STATE.parse(cur))
    if tok.kind == "IDENT" and tok.value in ("F", "G"):
        cur.advance()
        bound = _parse_bound_suffix(cur)
        state = STATE.parse(cur)
        if tok.value == "F":
            return Until(syntax.Lit(value=True), state, bound)
        return Globally(state, bound)
    left = STATE.parse(cur)
    u = cur.expect("IDENT")
    if u.value != "U":
        raise ParseError(f"expected 'U', found {u.value!r}", line=u.line, column=u.column)
    bound = _parse_bound_suffix(cur)
    right = STATE.parse(cur)
    return Until(left, right, bound)


def _parse_state_atom(cur):
    tok = cur.peek()
    if tok.kind == "STRING":
        cur.advance()
        return Label(tok.value)
    if tok.kind in ("true", "false"):
        cur.advance()
        return syntax.Lit(value=tok.kind == "true", span=(tok.line, tok.column))
    if tok.kind == "(":
        cur.advance()
        expr = parse_expression(cur)
        close = cur.expect(")")
        return Predicate(expr, cur.text[tok.offset + 1 : close.offset])
    if tok.kind == "IDENT" and tok.value in OPERATORS:
        nested = _parse_operator(cur)
        if nested.bound is None:
            raise ParseError(
                "a nested operator used as a state formula needs a probability bound",
                line=tok.line,
                column=tok.column,
            )
        return nested
    cur.error(f"expected a state formula, found {tok.kind!r}")


STATE = Precedence(_parse_state_atom, ("left", "|"), ("left", "&"), ("prefix", "!"))


# --- resolution -----------------------------------------------------------


def resolve_atoms(prop, model, state_map=None):
    """Replace label, true/false and predicate atoms by state bitsets.

    Boolean structure and nested P/R operators are kept, resolved, for the
    checker to evaluate. Also validates optimum direction against the model.
    """
    nondet = model.kind is ModelKind.MDP

    def resolve_state(sf):
        if isinstance(sf, Label):
            if sf.name not in model.labeling:
                raise PropertyError(f"unknown label {sf.name!r}")
            return model.labeling.get(sf.name).copy()
        if isinstance(sf, syntax.Lit):
            return np.full(model.n_states, sf.value, dtype=bool)
        if isinstance(sf, Predicate):
            if state_map is None:
                raise PropertyError(
                    "variable predicates need a program state map (explicit-format models have none)"
                )
            try:
                typed = typecheck_expr(sf.expr, state_map.types)
                if typed.type != "bool":
                    raise PropertyError(f"predicate ({sf.text}) is not boolean")
                holds = compile_expr(typed, state_map.slots, bounds=state_map.bounds)
                table = state_map.columns
                with np.errstate(all="ignore"):
                    bits = evaluate_rows(lambda rows: holds(table, rows), np.arange(model.n_states))
            except (TypecheckError, DivisionByZero) as exc:
                raise PropertyError(f"predicate ({sf.text}): {exc}") from exc
            return bits
        if isinstance(sf, syntax.Unary):
            return replace(sf, operand=resolve_state(sf.operand))
        if isinstance(sf, syntax.Binary):
            return replace(sf, left=resolve_state(sf.left), right=resolve_state(sf.right))
        if isinstance(sf, (ProbOperator, RewardOperator)):
            return resolve_operator(sf)
        raise PropertyError(f"cannot resolve {type(sf).__name__}")

    def resolve_path(path):
        if isinstance(path, Next):
            return Next(resolve_state(path.target))
        if isinstance(path, Until):
            return Until(resolve_state(path.left), resolve_state(path.right), path.bound)
        if isinstance(path, Globally):
            return Globally(resolve_state(path.target), path.bound)
        raise PropertyError(f"cannot resolve path {type(path).__name__}")

    def resolve_operator(op):
        if nondet and op.optimum is None:
            raise PropertyError(
                "nondeterministic model: use Pmin/Pmax (Rmin/Rmax) instead of plain P/R"
            )
        if not nondet and op.optimum is not None:
            raise PropertyError("min/max operators are only meaningful on MDPs")
        if isinstance(op, ProbOperator):
            condition = resolve_path(op.condition) if op.condition is not None else None
            return ProbOperator(op.optimum, op.bound, resolve_path(op.path), condition)
        kind, arg = op.target
        target = ("reach", resolve_state(arg)) if kind == "reach" else op.target
        return RewardOperator(op.optimum, op.bound, op.reward_name, target)

    return resolve_operator(prop)
