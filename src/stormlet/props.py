"""Property language: parsing and atom resolution.

Grammar (informal):
    prop    := probop | rewop
    probop  := ("P"|"Pmin"|"Pmax") (relop num | "=?") "[" path ["||" path] "]"
    rewop   := ("R"|"Rmin"|"Rmax") ["{" name "}"] (relop num | "=?")
               "[" ("F" state | "C<=" num) "]"
    path    := "X" state | ("F"|"G") ["<=" num] state | state "U" ["<=" num] state
    state   := '"label"' | "(" expr ")" | "true" | "false"
             | "!" state | state "&" state | state "|" state | probop-with-bound

``<=k`` with an integer bound counts transitions on discrete-time models;
on CTMCs the bound is the time interval [0, t]. The two paths of a
conditional are objective and condition.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError, PropertyError
from .models import ModelKind
from .prism import syntax
from .prism.lexer import tokenize
from .prism.parser import TokenCursor, parse_expression
from .prism.semantics import DivisionByZero, TypecheckError, compile_expr, evaluate_rows, typecheck_expr

RELOPS = ("<", "<=", ">", ">=")


# --- AST ------------------------------------------------------------------


@dataclass
class Label:
    name: str


@dataclass
class Predicate:
    expr: object
    text: str


@dataclass
class BoolLit:
    value: bool


@dataclass
class Not:
    operand: object


@dataclass
class And:
    left: object
    right: object


@dataclass
class Or:
    left: object
    right: object


@dataclass
class Next:
    target: object


@dataclass
class Until:
    left: object
    right: object
    bound: object = None  # None | ("steps", int) | ("time", Fraction)


@dataclass
class Globally:
    target: object
    bound: object = None


@dataclass
class ProbOperator:
    optimum: str  # None | "min" | "max"
    bound: object  # None (query) | (relop, Fraction)
    path: object
    condition: object = None  # conditional: P[ objective || condition ]


@dataclass
class RewardOperator:
    optimum: str
    bound: object
    reward_name: str  # None = the model's only reward model
    target: object  # ("reach", state) | ("cumulative", Fraction)


# --- parsing --------------------------------------------------------------


def parse_property(text):
    cur = TokenCursor(tokenize(text))
    prop = _parse_operator(cur, top=True)
    tok = cur.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing {tok.kind!r}", line=tok.line, column=tok.column)
    return prop


def _parse_operator(cur, top=False):
    tok = cur.expect("IDENT")
    head = tok.value
    if head not in ("P", "Pmin", "Pmax", "R", "Rmin", "Rmax"):
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
            target = ("reach", _parse_state(cur))
        elif op_tok.kind == "IDENT" and op_tok.value == "C":
            cur.advance()
            cur.expect("<=")
            target = ("cumulative", _parse_number(cur))
        else:
            raise ParseError(
                "reward operator needs 'F state' or 'C<=bound'",
                line=op_tok.line,
                column=op_tok.column,
            )
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
        return ("steps-or-time", _parse_number(cur))
    return None


def _parse_path(cur):
    tok = cur.peek()
    if tok.kind == "IDENT" and tok.value == "X":
        cur.advance()
        return Next(_parse_state(cur))
    if tok.kind == "IDENT" and tok.value in ("F", "G"):
        cur.advance()
        bound = _parse_bound_suffix(cur)
        state = _parse_state(cur)
        if tok.value == "F":
            return Until(BoolLit(True), state, bound)
        return Globally(state, bound)
    left = _parse_state(cur)
    u = cur.expect("IDENT")
    if u.value != "U":
        raise ParseError(f"expected 'U', found {u.value!r}", line=u.line, column=u.column)
    bound = _parse_bound_suffix(cur)
    right = _parse_state(cur)
    return Until(left, right, bound)


def _parse_state(cur):
    return _parse_state_or(cur)


def _parse_state_or(cur):
    left = _parse_state_and(cur)
    while cur.accept("|"):
        left = Or(left, _parse_state_and(cur))
    return left


def _parse_state_and(cur):
    left = _parse_state_not(cur)
    while cur.accept("&"):
        left = And(left, _parse_state_not(cur))
    return left


def _parse_state_not(cur):
    if cur.accept("!"):
        return Not(_parse_state_not(cur))
    return _parse_state_atom(cur)


def _parse_state_atom(cur):
    tok = cur.peek()
    if tok.kind == "STRING":
        cur.advance()
        return Label(tok.value)
    if tok.kind in ("true", "false"):
        cur.advance()
        return BoolLit(tok.kind == "true")
    if tok.kind == "(":
        cur.advance()
        expr = parse_expression(cur)
        cur.expect(")")
        return Predicate(expr, _pretty_expr(expr))
    if tok.kind == "IDENT" and tok.value in ("P", "Pmin", "Pmax", "R", "Rmin", "Rmax"):
        nested = _parse_operator(cur)
        if nested.bound is None:
            raise ParseError(
                "a nested operator used as a state formula needs a probability bound",
                line=tok.line,
                column=tok.column,
            )
        return nested
    raise ParseError(
        f"expected a state formula, found {tok.kind!r}", line=tok.line, column=tok.column
    )


# --- predicate texts ------------------------------------------------------


def _fmt_number(q):
    if q.denominator == 1:
        return str(q.numerator)
    f = float(q)
    if Fraction(str(f)) == q:
        return str(f)
    return f"{q.numerator}/{q.denominator}"


def _pretty_expr(expr):
    if isinstance(expr, syntax.Lit):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, Fraction):
            return _fmt_number(expr.value)
        return str(expr.value)
    if isinstance(expr, syntax.Var):
        return expr.name
    if isinstance(expr, syntax.Unary):
        return f"{expr.op}({_pretty_expr(expr.operand)})"
    if isinstance(expr, syntax.Binary):
        return f"({_pretty_expr(expr.left)}{expr.op}{_pretty_expr(expr.right)})"
    return f"{expr.func}({', '.join(_pretty_expr(a) for a in expr.args)})"


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
        if isinstance(sf, BoolLit):
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
        if isinstance(sf, Not):
            return Not(resolve_state(sf.operand))
        if isinstance(sf, (And, Or)):
            return type(sf)(resolve_state(sf.left), resolve_state(sf.right))
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
