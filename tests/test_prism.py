"""Program language frontend: lexing, parsing, typing, exploration."""

import importlib
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same
from stormlet import sparse
from stormlet.errors import DeadlockError, ModelError, ParseError, StormletError
from stormlet.models import Model, ModelKind, RewardModel, StateLabeling
from stormlet.prism import (
    ExploreOptions,
    explore,
    parse_program,
    syntax,
    tokenize,
    typecheck,
)
from stormlet.prism.semantics import DivisionByZero, TypecheckError


def build(source, constants=None, **opts):
    program = typecheck(parse_program(source), constants)
    return explore(program, ExploreOptions(**opts))


TWO_STATE = """
dtmc
module m
  x : [0..1] init 0;
  [] x=0 -> 0.5 : (x'=0) + 0.5 : (x'=1);
  [] x=1 -> (x'=1);
endmodule
label "goal" = x=1;
"""


# --- lexer ----------------------------------------------------------------


def test_tokenize_basic_stream():
    kinds = [t.kind for t in tokenize("module m x : [0..5] init 0; endmodule")]
    assert kinds == [
        "module", "IDENT", "IDENT", ":", "[", "INT", "..", "INT", "]",
        "init", "INT", ";", "endmodule", "EOF",
    ]


def test_tokenize_numbers():
    toks = tokenize("0.5 3 1e-3 0..5")
    assert toks[0].kind == "DOUBLE" and Fraction(toks[0].value) == Fraction(1, 2)
    assert toks[1].kind == "INT" and toks[1].value == 3
    assert toks[2].kind == "DOUBLE" and Fraction(toks[2].value) == Fraction(1, 1000)
    assert [t.kind for t in toks[3:6]] == ["INT", "..", "INT"]


def test_tokenize_comments_and_strings():
    toks = tokenize('label "six" = true; // trailing comment')
    assert toks[1].kind == "STRING" and toks[1].value == "six"
    assert toks[-1].kind == "EOF"


def test_tokenize_reports_position():
    with pytest.raises(ParseError) as exc:
        tokenize("x = @")
    assert exc.value.line == 1


# --- parser ---------------------------------------------------------------


def test_parse_minimal_program():
    program = parse_program(TWO_STATE)
    assert program.model_type is ModelKind.DTMC
    assert len(program.modules) == 1
    assert len(program.modules[0].commands) == 2
    assert program.labels[0].name == "goal"


def test_parse_missing_endmodule():
    with pytest.raises(ParseError):
        parse_program("dtmc\nmodule m\n x : [0..1] init 0;\n [] x=0 -> (x'=0);")


def test_parse_duplicate_module_names():
    src = "dtmc\nmodule m\nx : [0..0] init 0;\n[] true -> (x'=0);\nendmodule\nmodule m\ny : [0..0] init 0;\nendmodule"
    with pytest.raises(ParseError):
        parse_program(src)


def test_parse_action_labels():
    src = """mdp
module m
  x : [0..1] init 0;
  [go] x=0 -> (x'=1);
  [] x=1 -> (x'=1);
endmodule
"""
    program = parse_program(src)
    actions = [c.action for c in program.modules[0].commands]
    assert actions == ["go", None]


def test_die_program_has_expected_shape(die_source):
    program = parse_program(die_source)
    assert program.model_type is ModelKind.DTMC
    assert len(program.modules[0].commands) == 8
    assert [lab.name for lab in program.labels] == [
        "one", "two", "three", "four", "five", "six", "done",
    ]


# --- typechecking and evaluation ------------------------------------------


def test_typecheck_folds_constants_exactly():
    src = "dtmc\nconst double p = 1/3;\nmodule m\nx : [0..0] init 0;\n[] true -> p : (x'=0) + (1-p) : (x'=0);\nendmodule"
    program = typecheck(parse_program(src))
    assert program.constants[0].value.value == Fraction(1, 3)


def test_typecheck_undefined_constant_needs_binding():
    src = "dtmc\nconst int N;\nmodule m\nx : [0..10] init N;\n[] true -> (x'=x);\nendmodule"
    with pytest.raises(TypecheckError):
        typecheck(parse_program(src))
    program = typecheck(parse_program(src), {"N": 4})
    assert program.constants[0].value.value == 4
    with pytest.raises(TypecheckError):
        typecheck(parse_program(src), {"N": 4, "bogus": 1})


def test_typecheck_formula_inlining_and_cycles():
    src = """dtmc
formula a = x + 1;
formula b = a * 2;
module m
  x : [0..9] init 0;
  [] b < 9 -> (x'=x+1);
  [] b >= 9 -> (x'=x);
endmodule
"""
    model, _ = build(src)
    assert model.n_states > 1
    cyc = "dtmc\nformula a = b;\nformula b = a;\nmodule m\nx : [0..0] init 0;\n[] a > 0 -> (x'=0);\nendmodule"
    with pytest.raises(TypecheckError):
        typecheck(parse_program(cyc))


def test_typecheck_type_errors():
    bad_guard = "dtmc\nmodule m\nx : [0..1] init 0;\n[] x+1 -> (x'=0);\nendmodule"
    with pytest.raises(TypecheckError):
        typecheck(parse_program(bad_guard))
    bad_assign = "dtmc\nmodule m\nx : [0..1] init 0;\n[] true -> (x'=0.5);\nendmodule"
    with pytest.raises(TypecheckError):
        typecheck(parse_program(bad_assign))
    bad_and = "dtmc\nmodule m\nx : [0..1] init 0;\n[] x & true -> (x'=0);\nendmodule"
    with pytest.raises(TypecheckError):
        typecheck(parse_program(bad_and))


@pytest.mark.parametrize("name", ["init", "deadlock"])
def test_typecheck_rejects_reserved_label_names(name):
    src = TWO_STATE + f'label "{name}" = x=1;\n'
    with pytest.raises(TypecheckError, match=f'label "{name}" is reserved'):
        typecheck(parse_program(src))


def test_eval_expr_arithmetic():
    src = "dtmc\nconst int c = 1 + 2 * 3;\nconst double d = min(0.5, 2);\nconst int e = mod(7, 3);\nmodule m\nx : [0..0] init 0;\n[] true -> (x'=0);\nendmodule"
    program = typecheck(parse_program(src))
    values = {c.name: c.value.value for c in program.constants}
    assert values["c"] == 7
    assert values["d"] == Fraction(1, 2)
    assert values["e"] == 1


def test_eval_division_by_zero():
    src = "dtmc\nconst double d = 1/0;\nmodule m\nx : [0..0] init 0;\n[] true -> (x'=0);\nendmodule"
    with pytest.raises(DivisionByZero):
        typecheck(parse_program(src))


# --- exploration ----------------------------------------------------------


def test_explore_two_state_chain():
    model, state_map = build(TWO_STATE)
    assert model.kind is ModelKind.DTMC
    assert model.n_states == 2
    assert dict(zip(state_map.slots, state_map.valuation(0))) == {"x": 0}
    assert list(model.labeling.get("goal")) == [False, True]
    assert list(model.initial_states) == [True, False]
    cols, vals = model.matrix.row(0)
    assert list(vals) == [0.5, 0.5]


def test_explore_deadlock_detection_and_patch():
    src = "dtmc\nmodule m\nx : [0..1] init 0;\n[] x=0 -> (x'=1);\nendmodule"
    with pytest.raises(DeadlockError):
        build(src)
    model, _ = build(src, fix_deadlocks=True)
    assert list(model.labeling.get("deadlock")) == [False, True]


def test_explore_die(die_source):
    model, state_map = build(die_source)
    assert model.n_states == 13
    assert model.matrix.nnz == 20
    outcome_labels = ["one", "two", "three", "four", "five", "six"]
    assert sum(len(model.labeling.states_with(l)) for l in outcome_labels) == 6
    assert len(model.labeling.states_with("done")) == 6


def test_explore_dtmc_multiple_commands_mix_uniformly():
    # two enabled commands: their distributions average
    src = """dtmc
module m
  x : [0..2] init 0;
  [] x=0 -> (x'=1);
  [] x=0 -> (x'=2);
  [] x>0 -> (x'=x);
endmodule
"""
    model, _ = build(src)
    cols, vals = model.matrix.row(0)
    assert list(cols) == [1, 2] and list(vals) == [0.5, 0.5]


def test_explore_mdp_keeps_choices_separate():
    src = """mdp
module m
  x : [0..2] init 0;
  [] x=0 -> (x'=1);
  [] x=0 -> (x'=2);
  [] x>0 -> (x'=x);
endmodule
"""
    model, _ = build(src)
    assert list(model.choice_offsets) == [0, 2, 3, 4]


def test_explore_ctmc_rates_add():
    src = """ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 2 : (x'=1);
  [] x=0 -> 3 : (x'=1);
  [] x=1 -> 1 : (x'=1);
endmodule
"""
    model, _ = build(src)
    assert list(model.exit_rates) == [5.0, 1.0]
    cols, vals = model.matrix.row(0)
    assert list(cols) == [1] and vals[0] == 1.0


def test_explore_synchronization_product():
    src = """mdp
module a
  x : [0..1] init 0;
  [go] x=0 -> 0.5 : (x'=0) + 0.5 : (x'=1);
endmodule
module b
  y : [0..1] init 0;
  [go] y=0 -> 0.5 : (y'=0) + 0.5 : (y'=1);
  [] y=1 -> (y'=1);
endmodule
"""
    model, state_map = build(src, fix_deadlocks=True)
    # the synchronized choice from (0,0) has four branches of weight 1/4
    cols, vals = model.matrix.row(0)
    assert len(cols) == 4 and all(v == 0.25 for v in vals)


def test_explore_weight_sum_checked():
    src = "dtmc\nmodule m\nx : [0..1] init 0;\n[] x=0 -> 0.5 : (x'=0) + 0.4 : (x'=1);\n[] x=1 -> (x'=1);\nendmodule"
    with pytest.raises(ModelError):
        build(src)


def test_explore_exact_mode_builds_rational_matrix():
    model, _ = build(TWO_STATE, exact=True)
    assert model.dtype == "rational"
    assert model.matrix.values[0] == Fraction(1, 2)


def test_explore_empty_range_is_reported_before_the_initial_value():
    src = "dtmc\nmodule m\nx : [5..3] init 4;\n[] true -> (x'=x);\nendmodule"
    with pytest.raises(ModelError, match=r"variable 'x' has empty range \[5..3\]"):
        build(src)


def test_explore_range_bounds_may_be_constant_expressions():
    src = "dtmc\nconst int N = 4;\nmodule m\nx : [1..N-1] init N-2;\n[] x<N-1 -> (x'=x+1);\n[] x=N-1 -> (x'=x);\nendmodule"
    model, state_map = build(src)
    assert list(zip(*state_map.columns)) == [(2,), (3,)]
    with pytest.raises(StormletError, match=r"initial value of 'x' is 0, outside \[1..3\]"):
        build(src.replace("init N-2", "init N-4"))


def test_explore_assignment_out_of_bounds():
    src = "dtmc\nmodule m\nx : [0..1] init 0;\n[] true -> (x'=x+1);\nendmodule"
    with pytest.raises(StormletError):
        build(src)


def test_explore_out_of_bounds_reports_the_first_variable_in_declaration_order():
    src = "dtmc\nmodule m\nx : [0..2] init 0;\ny : [0..2] init 0;\n[] true -> (y'=y+3) & (x'=x+3);\nendmodule"
    with pytest.raises(StormletError, match=r"assignment in state \(0, 0\) of 'x' is 3, outside \[0..2\]"):
        build(src)


def test_explore_state_limit():
    src = "dtmc\nmodule m\nx : [0..999] init 0;\n[] x<999 -> (x'=x+1);\n[] x=999 -> (x'=x);\nendmodule"
    with pytest.raises(StormletError):
        build(src, max_states=10)


def test_explore_reward_blocks():
    src = """dtmc
module m
  x : [0..1] init 0;
  [step] x=0 -> (x'=1);
  [] x=1 -> (x'=1);
endmodule
rewards "visits"
  x=0 : 2;
  [step] x=0 : 3;
endrewards
"""
    model, _ = build(src)
    rm = model.reward_model("visits")
    assert list(rm.state_rewards) == [2.0, 0.0]
    assert list(rm.action_rewards) == [3.0, 0.0]


SYNC_ACTION_REWARDS = """{kind}
module a
  x : [0..1] init 0;
  [go] x=0 -> (x'=1);
  [go] x=0 -> (x'=0);
  [] x=1 -> (x'=0);
endmodule
module b
  y : [0..1] init 0;
  [go] true -> (y'=1-y);
endmodule
rewards "r"
  [go] true : 1;
  [] x=1 : 5;
  [stop] true : 7;
endrewards
"""

DEADLOCK_ACTION_REWARDS = """{kind}
module m
  x : [0..2] init 0;
  [a] x<2 -> (x'=x+1);
  [] x=0 -> (x'=2);
endmodule
rewards "r"
  [a] true : 1;
  [] true : 2;
endrewards
"""


@pytest.mark.parametrize(
    "source, kind, expected",
    [
        # MDP: one value per choice row, unlabeled rows before synchronised ones
        (SYNC_ACTION_REWARDS, "mdp", [1, 1, 5, 1, 1, 5]),
        # DTMC/CTMC: an item adds once to the single row if any enabled command matches
        (SYNC_ACTION_REWARDS, "dtmc", [1, 5, 1, 5]),
        (SYNC_ACTION_REWARDS, "ctmc", [1, 5, 1, 5]),
        # the row patched in by fix_deadlocks matches no action item
        (DEADLOCK_ACTION_REWARDS, "mdp", [2, 1, 0, 1]),
        (DEADLOCK_ACTION_REWARDS, "dtmc", [3, 0, 1]),
    ],
)
@pytest.mark.parametrize("exact", [False, True])
def test_explore_action_reward_placement(source, kind, expected, exact):
    model, _ = build(source.format(kind=kind), fix_deadlocks=True, exact=exact)
    rm = model.reward_model("r")
    assert rm.state_rewards is None
    assert list(rm.action_rewards) == expected


def test_explore_negative_reward_rejected():
    src = "dtmc\nmodule m\nx : [0..0] init 0;\n[] true -> (x'=0);\nendmodule\nrewards \"r\"\n true : -1;\nendrewards"
    with pytest.raises(ModelError):
        build(src)


def test_explore_is_deterministic(die_source):
    a_model, a_map = build(die_source)
    b_model, b_map = build(die_source)
    assert_same(a_model, b_model)
    assert list(zip(*a_map.columns)) == list(zip(*b_map.columns))


# --- every operator in a state-dependent position -------------------------

# One enabled command per state. Discovery order: x = 0, 8, 2, 3, 1, 5, 9.
OPERATORS = """dtmc
module m
  x : [0..9] init 0;
  [] x=0 -> (x'=pow(2,3));
  [] mod(x,4)=0 & x>0 -> 0.25 : (x'=floor(x/3)) + 0.75 : (x'=ceil(x/3));
  [] x=2 -> pow(2.0,-2) : (x'=min(x,1)) + 1-pow(0.5,2) : (x'=max(x,5));
  [] x=3 -> pow(x,2)/12 : (x'=mod(x+4,5)) + floor(x/2)/4 : (x'=9);
  [] min(x,4)=1 | (max(x,5)=5 & x>4) | (floor(x/3)=ceil(x/3) & x>8) -> (x'=x);
endmodule
label "square" = pow(x,2) > 20;
label "third" = mod(x,3)=0;
rewards "ops"
  x=9 | x=0 : pow(x,0.5);
  mod(x,3)=2 : max(x/4,1);
  x>2 : floor(x/2) + ceil(x/4);
  [] mod(x,2)=0 : pow(2,x)/pow(2,x+1);
endrewards
"""


@pytest.mark.parametrize("exact", [False, True])
def test_explore_evaluates_every_operator_per_state(exact):
    model, state_map = build(OPERATORS, exact=exact)
    assert list(zip(*state_map.columns)) == [(0,), (8,), (2,), (3,), (1,), (5,), (9,)]
    q = Fraction(1, 4)
    rows = {
        0: {1: 1},
        1: {2: q, 3: 3 * q},  # floor(8/3), ceil(8/3)
        2: {4: q, 5: 3 * q},  # pow(2.0,-2), 1-pow(0.5,2)
        3: {2: 3 * q, 6: q},  # pow(3,2)/12 to mod(7,5); floor(3/2)/4
        4: {4: 1}, 5: {5: 1}, 6: {6: 1},
    }
    m = model.matrix
    assert m.row_offsets.tolist() == [0, *itertools.accumulate(len(rows[r]) for r in rows)]
    assert m.col_indices.tolist() == [c for r in rows for c in rows[r]]
    assert m.values.tolist() == [v for r in rows for v in rows[r].values()]
    assert all(type(v) is (Fraction if exact else float) for v in m.values.tolist())
    assert model.labeling.states_with("square").tolist() == [1, 5, 6]
    assert model.labeling.states_with("third").tolist() == [0, 3, 6]
    rm = model.reward_model("ops")
    assert list(rm.state_rewards) == [0, 8, 1, 2, 0, Fraction(21, 4), 10]
    assert list(rm.action_rewards) == [q * 2, q * 2, q * 2, 0, 0, 0, 0]
    assert rm.state_rewards.dtype == (object if exact else np.float64)


ZERO_DIVISOR = """ctmc
module m
  x : [0..3] init 3;
  [] x>0 & {guard} -> {rate} : (x'={assignment});
  [] x=0 -> (x'=0);
endmodule
label "l" = {label};
rewards "r"
  true : {reward};
endrewards
"""
DEFAULTS = {"guard": "true", "rate": "1", "assignment": "x-1", "label": "true", "reward": "1"}


@pytest.mark.parametrize("divisor, message", [("x/(x-1)", "division by zero"), ("mod(x, x-1)", "mod by zero")])
@pytest.mark.parametrize("position, template", [
    ("guard", "{} >= 0"),
    ("rate", "1 + {}"),
    ("assignment", "floor({})"),
    ("label", "{} >= 0"),
    ("reward", "1 + {}"),
])
@pytest.mark.parametrize("exact", [False, True])
def test_state_dependent_zero_divisor_raises(divisor, message, position, template, exact):
    # every state 3, 2, 1, 0 is reached, and x=1 makes the divisor zero
    source = ZERO_DIVISOR.format(**{**DEFAULTS, position: template.format(divisor)})
    with pytest.raises(DivisionByZero, match=message):
        build(source, exact=exact)


@pytest.mark.parametrize("position, what", [("rate", "update weight"), ("reward", "reward")])
def test_integer_too_large_for_a_float_raises(position, what):
    source = ZERO_DIVISOR.format(**{**DEFAULTS, position: "pow(10, 400)"})
    with pytest.raises(ModelError, match=rf"^{what} is an integer too large for a float \(line \d+, column \d+\)$"):
        build(source)
    model, _ = build(source, exact=True)
    exact = model.exit_rates[0] if position == "rate" else model.rewards["r"].state_rewards[0]  # state 0 is x=3
    assert exact == 10**400


def test_negative_integer_exponent_raises():
    src = "dtmc\nmodule m\nx : [0..3] init 3;\n[] x>0 -> (x'=pow(2, x-3)+x-2);\n[] x=0 -> (x'=0);\nendmodule"
    with pytest.raises(DivisionByZero, match="negative integer exponent"):
        build(src)


# x = 1 gives a complex number, x >= 1 overflows (in exact mode too, as the exponent is
# not whole), and x < 3 raises 0.0 to a negative power
@pytest.mark.parametrize("power", ["pow(x-2, 0.5)", "pow(10.0, 400*x+0.5)", "pow(0.0, x-3)"])
@pytest.mark.parametrize("position, template", [("reward", "{}"), ("label", "{} >= 0"), ("guard", "{} >= 0")])
@pytest.mark.parametrize("exact", [False, True])
def test_double_pow_that_is_not_a_finite_real_raises(power, position, template, exact):
    source = ZERO_DIVISOR.format(**{**DEFAULTS, position: template.format(power)})
    with pytest.raises(ModelError, match=r"^pow\(.+\) is not a finite real \(line \d+, column \d+\)$"):
        build(source, exact=exact)


# --- the layered explorer against the per-state loop it replaced ----------
#
# The reference below is the per-state exploration loop, with the scalar
# expression compiler it used, kept as the oracle: on every program the
# explorer must build the same model, bit for bit, with the same valuations,
# labels, rewards and row action labels, or raise the same exception class
# with the same message.

_REF_PLAIN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def ref_compile(expr, slots, exact=False):
    """A closure over a valuation tuple: Python's operators on the state's values."""
    if isinstance(expr, syntax.Lit):
        value = expr.value
        if isinstance(value, Fraction) and not exact:
            value = float(value)
        return lambda v: value
    if isinstance(expr, syntax.Var):
        return operator.itemgetter(slots[expr.name])
    if isinstance(expr, syntax.Unary):
        operand = ref_compile(expr.operand, slots, exact)
        if expr.op == "!":
            return lambda v: not operand(v)
        return lambda v: -operand(v)
    if isinstance(expr, syntax.Binary):
        op = expr.op
        left = ref_compile(expr.left, slots, exact)
        right = ref_compile(expr.right, slots, exact)
        if op == "&":
            return lambda v: bool(left(v)) and bool(right(v))
        if op == "|":
            return lambda v: bool(left(v)) or bool(right(v))
        where = f" (line {expr.span[0]}, column {expr.span[1]})"

        def guarded(fn):
            def value(v):
                try:
                    return fn(v)
                except OverflowError:
                    raise ModelError(f"an operand of {op!r} is an integer too large for a float{where}") from None
            return value
        if op == "/":
            def divide(v):
                a, b = left(v), right(v)
                if b == 0:
                    raise DivisionByZero("division by zero")
                return Fraction(a) / Fraction(b) if exact else a / b
            return guarded(divide)
        fn = _REF_PLAIN[op]
        return guarded(lambda v: fn(left(v), right(v)))
    args = [ref_compile(a, slots, exact) for a in expr.args]
    fn = expr.func
    if fn in ("min", "max"):
        pick = min if fn == "min" else max
        return lambda v: pick([a(v) for a in args])
    if fn in ("floor", "ceil"):
        rounding = math.floor if fn == "floor" else math.ceil
        return lambda v: rounding(args[0](v))
    if fn == "mod":
        def modulo(v):
            a, b = args[0](v), args[1](v)
            if b == 0:
                raise DivisionByZero("mod by zero")
            return a % b
        return modulo
    integer = expr.type == "int"
    where = f" (line {expr.span[0]}, column {expr.span[1]})"

    def power(v):
        base, exp = args[0](v), args[1](v)
        if integer:
            if exp < 0:
                raise DivisionByZero("negative integer exponent")
            return base ** exp
        try:
            if exact and (isinstance(exp, int) or (isinstance(exp, Fraction) and exp.denominator == 1)):
                return Fraction(base) ** int(exp)
            value = float(base) ** float(exp)
        except (OverflowError, ZeroDivisionError):
            value = None
        if type(value) is not float or not math.isfinite(value):
            raise ModelError(f"pow({base}, {exp}) is not a finite real{where}")
        return Fraction(value) if exact else value
    return power


def _ref_to_float(value, what, span):
    try:
        return float(value)
    except OverflowError:
        raise ModelError(f"{what} is an integer too large for a float (line {span[0]}, column {span[1]})") from None


def _ref_check_bounds(decl, bound, value, what):
    if bound is not None and not bound[0] <= value <= bound[1]:
        raise StormletError(f"{what} of {decl.name!r} is {value}, outside [{bound[0]}..{bound[1]}]")


def _ref_branches(cmd, valuation, exact, kind):
    """[(weight, {slot: value})] and the total of one enabled command."""
    branches = []
    total = Fraction(0) if exact else 0.0
    for weight, span, assignments in cmd["updates"]:
        if weight is None:
            w = Fraction(1) if exact else 1.0
        else:
            w = weight(valuation)
            w = Fraction(w) if exact else _ref_to_float(w, "update weight", span)
        if w < 0:
            raise ModelError(f"negative update weight at line {cmd['line']}")
        total += w
        branches.append((w, {slot: value(valuation) for slot, value in assignments}))
    if kind is not ModelKind.CTMC:
        if exact:
            if total != 1:
                raise ModelError(f"update weights of command at line {cmd['line']} sum to {total}, expected 1")
        elif abs(total - 1.0) > 1e-10:
            raise ModelError(f"update weights of command at line {cmd['line']} sum to {total!r}, expected 1")
    elif total <= 0:
        raise ModelError(f"command at line {cmd['line']} has non-positive total rate")
    return branches, total


def _ref_combine(parts):
    combined = []
    for combo in itertools.product(*parts):
        weight, assigns = combo[0][0], dict(combo[0][1])
        for w, a in combo[1:]:
            weight = weight * w
            assigns.update(a)
        combined.append((weight, assigns))
    return combined


def ref_explore(program, options):
    """(model, valuations, row action labels) by expanding one state at a time."""
    kind, exact = program.model_type, options.exact
    decls = list(program.all_variables())
    slots = {d.name: i for i, d in enumerate(decls)}

    def closed(expr, exact_=False):
        return ref_compile(expr, {}, exact_)(())

    bounds = []
    for decl in decls:
        if decl.is_bool:
            bounds.append(None)
            continue
        low, high = closed(decl.low), closed(decl.high)
        if low > high:
            raise ModelError(f"variable {decl.name!r} has empty range [{low}..{high}]")
        bounds.append((low, high))
    modules = [[{
        "action": c.action, "line": c.span[0], "guard": ref_compile(c.guard, slots, exact),
        "updates": [(None if u.weight is None else ref_compile(u.weight, slots, exact),
                     None if u.weight is None else u.weight.span,
                     [(slots[var], ref_compile(rhs, slots, exact)) for var, rhs in u.assignments])
                    for u in c.updates],
    } for c in module.commands] for module in program.modules]
    action_modules = {}
    for mi, module in enumerate(program.modules):
        for c in module.commands:
            if c.action is not None and mi not in action_modules.setdefault(c.action, []):
                action_modules[c.action].append(mi)
    initial = tuple(closed(decl.init, exact) for decl in decls)
    for decl, bound, value in zip(decls, bounds, initial):
        _ref_check_bounds(decl, bound, value, "initial value")
    valuations, index_of = [initial], {initial: 0}
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    triples, offsets, exit_rates, patched, row_actions = [], [0], [], [], []

    def successor(valuation, assigns):
        values = list(valuation)
        for slot, value in assigns.items():
            bound = bounds[slot]
            if bound is not None and not bound[0] <= value <= bound[1]:
                for i in sorted(assigns):
                    _ref_check_bounds(decls[i], bounds[i], assigns[i], f"assignment in state {valuation}")
            values[slot] = value
        values = tuple(values)
        if values not in index_of:
            index_of[values] = len(valuations)
            valuations.append(values)
            if len(valuations) > options.max_states:
                raise StormletError(f"state limit of {options.max_states} states exceeded")
        return index_of[values]

    row, s = 0, 0
    while s < len(valuations):
        valuation = valuations[s]
        enabled = []
        for commands in modules:
            by_action = {}
            for c in commands:
                if c["guard"](valuation):
                    by_action.setdefault(c["action"], []).append(c)
            enabled.append(by_action)
        choices = []
        for by_action in enabled:
            for c in by_action.get(None, ()):
                choices.append((None, *_ref_branches(c, valuation, exact, kind)))
        for action, participants in action_modules.items():
            per_module = [enabled[mi].get(action) for mi in participants]
            if not all(per_module):
                continue
            for combo in itertools.product(*per_module):
                parts, total = [], one
                for c in combo:
                    branches, t = _ref_branches(c, valuation, exact, kind)
                    parts.append(branches)
                    total = total * t
                choices.append((action, _ref_combine(parts), total))
        if not choices:
            if not options.fix_deadlocks:
                raise DeadlockError(s, f"valuation {dict(zip(slots, valuation))}")
            patched.append(s)
            triples.append((row, s, one))
            row_actions.append(frozenset())
            exit_rates.append(one)
            row += 1
        elif kind is ModelKind.MDP:
            for action, branches, _ in choices:
                for w, assigns in branches:
                    if w != 0:
                        triples.append((row, successor(valuation, assigns), w))
                row_actions.append(frozenset((action,)))
                row += 1
        else:
            mass, rate = {}, zero
            for _, branches, total in choices:
                for w, assigns in branches:
                    if w != 0:
                        t = successor(valuation, assigns)
                        mass[t] = mass.get(t, zero) + w
                rate += total
            scale = len(choices) if kind is ModelKind.DTMC else rate
            triples.extend((row, t, w / scale) for t, w in mass.items())
            exit_rates.append(rate)
            row_actions.append(frozenset(action for action, _, _ in choices))
            row += 1
        offsets.append(row)
        s += 1

    n = len(valuations)
    domain = "rational" if exact else "float"
    matrix = sparse.build_sparse(triples, row, n, domain)
    initial_states = np.arange(n) == 0
    deadlock_fixed = np.zeros(n, dtype=bool)
    deadlock_fixed[patched] = True
    labeling = StateLabeling(n, {"init": initial_states, "deadlock": deadlock_fixed})
    model = Model(kind, matrix, labeling,
                  choice_offsets=offsets if kind is ModelKind.MDP else np.arange(n + 1),
                  initial_states=initial_states,
                  exit_rates=exit_rates if kind is ModelKind.CTMC else None)
    for lab in program.labels:
        holds = ref_compile(lab.expr, slots)
        labeling.add(lab.name, [holds(v) for v in valuations])
    for block in program.reward_blocks:
        state_rw, action_rw = [zero] * n, [zero] * row
        has_state = has_action = False
        for item in block.items:
            guard, reward = ref_compile(item.guard, slots, exact), ref_compile(item.expr, slots, exact)
            for s, valuation in enumerate(valuations):
                if not guard(valuation):
                    continue
                value = reward(valuation)
                if value < 0:
                    raise ModelError(f"reward block {block.name!r} evaluates to {value} at state {s}")
                if not exact:
                    value = _ref_to_float(value, "reward", item.expr.span)
                if item.is_action_item:
                    has_action = True
                    for c in range(model.choice_offsets[s], model.choice_offsets[s + 1]):
                        if (item.action or None) in row_actions[c]:
                            action_rw[c] = action_rw[c] + value
                else:
                    has_state = True
                    state_rw[s] = state_rw[s] + value
        model.rewards[block.name] = RewardModel(
            block.name, sparse.as_vector(state_rw, domain) if has_state else None,
            sparse.as_vector(action_rw, domain) if has_action else None)
    return model, valuations, row_actions


# ``explore`` builds a model from its whole key space where that has at most
# WHOLE_SPACE_KEYS keys, else layer by layer; the suites below run each path,
# the whole space with a bound past every small space they explore (the
# largest is a random program's 5^6 keys; the others past it are 10^10 or more)
PATHS = {"layered": 0, "whole_space": 1 << 16}
# The whole space numbers a BFS frontier of fewer than ARRAY_FRONTIER keys one
# successor at a time, a larger one in array rounds. The reference suites run
# it twice, with a cut that sends every frontier one way: 1 for the rounds,
# 2^14 + 1 for the loop, past every key space they expand (at most 5^6). The
# layered path numbers no frontier, so its cut is None.
NUMBERINGS = [pytest.param("layered", None, id="layered"), pytest.param("whole_space", 1, id="whole_space"),
              pytest.param("whole_space", (1 << 14) + 1, id="whole_space-loop")]


@pytest.fixture
def built_whole(monkeypatch):
    """Per ``whole_space`` call, whether it built the model (else the layers do)."""
    module = importlib.import_module("stormlet.prism.whole")
    original, built = module.whole_space, []

    def recording(*args):
        layers = original(*args)
        built.append(layers is not None)
        return layers

    monkeypatch.setattr(module, "whole_space", recording)
    return built


def explore_matches_reference(program, path, **opts):
    """Explore with both explorers, ``explore`` taking the path named in
    ``PATHS``; assert the same model or the same error."""
    options = ExploreOptions(**opts)
    try:
        expected, error = ref_explore(program, options), None
    except StormletError as exc:
        expected, error = None, exc
    module = importlib.import_module("stormlet.prism.explore")
    original, seen = module.build_reward_models, []

    def capture(program_, model, state_map, row_actions, exact=False):
        seen.append(row_actions)
        return original(program_, model, state_map, row_actions, exact=exact)

    module.build_reward_models = capture
    bound, module.WHOLE_SPACE_KEYS = module.WHOLE_SPACE_KEYS, PATHS[path]
    try:
        if error is not None:
            with pytest.raises(StormletError) as got:
                explore(program, options)
            assert type(got.value) is type(error) and str(got.value) == str(error)
            return error
        model, state_map = explore(program, options)
    finally:
        module.build_reward_models, module.WHOLE_SPACE_KEYS = original, bound
    e_model, e_valuations, e_row_actions = expected
    assert_same(model, e_model)
    assert [state_map.valuation(s) for s in range(len(state_map))] == e_valuations
    assert [tuple(map(type, state_map.valuation(s))) for s in range(len(state_map))] == [
        tuple(map(type, v)) for v in e_valuations]
    sets, row_set = seen[0]
    assert [sets[i] for i in row_set] == e_row_actions
    return model


CORPUS_PROGRAMS = [path.name for path in sorted((Path(__file__).parent / "corpus").iterdir())]


@pytest.mark.parametrize("path, frontier", NUMBERINGS)
@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
@pytest.mark.parametrize("exact", [False, True])
def test_explorer_matches_reference_on_the_corpus(name, exact, path, frontier, built_whole, monkeypatch):
    monkeypatch.setattr(importlib.import_module("stormlet.prism.whole"), "ARRAY_FRONTIER", frontier)
    source = (Path(__file__).parent / "corpus" / name).read_text()
    explore_matches_reference(typecheck(parse_program(source)), path, exact=exact)
    assert built_whole == ([True] if path == "whole_space" else [])


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("exact", [False, True])
def test_explorer_matches_reference_on_every_operator(exact, path):
    explore_matches_reference(typecheck(parse_program(OPERATORS)), path, exact=exact)


def _bench_tandem():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_explore.py"
    return re.search(r'TANDEM = """(.*?)"""', path.read_text(), re.S).group(1)


@pytest.mark.parametrize("path, frontier", NUMBERINGS)
@pytest.mark.parametrize("cap", [3, 10, 18])
def test_explorer_matches_reference_on_the_tandem(cap, path, frontier, built_whole, monkeypatch):
    monkeypatch.setattr(importlib.import_module("stormlet.prism.whole"), "ARRAY_FRONTIER", frontier)
    explore_matches_reference(typecheck(parse_program(_bench_tandem()), {"c": cap}), path)
    assert built_whole == ([True] if path == "whole_space" else [])


def test_only_an_action_with_several_commands_in_a_module_is_joined(monkeypatch):
    # the tandem's hand-overs have one command per module, so each is one folded choice
    module = importlib.import_module("stormlet.prism.explore")
    original, joined = module._Layers._join, []

    def counting(self, sync, holds, table):
        joined.append(sync.mask)
        return original(self, sync, holds, table)

    monkeypatch.setattr(module._Layers, "_join", counting)
    explore_matches_reference(typecheck(parse_program(_bench_tandem()), {"c": 3}), "layered")
    assert joined == []
    explore_matches_reference(typecheck(parse_program(SYNC_PROGRAMS["exclusive_guards"])), "layered")
    assert joined


@pytest.mark.parametrize("block", [1, 5])
@pytest.mark.parametrize("name", ["tandem", "overlapping_ctmc", "overlapping_mdp", "ruin_mdp"])
def test_the_whole_space_expanded_in_small_blocks_gives_the_same_model(name, block, built_whole, monkeypatch):
    sources = {"tandem": (_bench_tandem(), {"c": 3}), "ruin_mdp": (DEEP_PROGRAMS["ruin_mdp"], None)}
    for kind in ("ctmc", "mdp"):
        sources[f"overlapping_{kind}"] = (SYNC_PROGRAMS["overlapping"].format(kind=kind, **SYNC_WEIGHTS[kind]), None)
    monkeypatch.setattr(importlib.import_module("stormlet.prism.whole"), "BLOCK", block)
    source, constants = sources[name]
    explore_matches_reference(typecheck(parse_program(source), constants), "whole_space", fix_deadlocks=True)
    assert built_whole == [True]


# Two faults in one BFS layer: from x=2 the layer is x=1 (state 1) and x=3
# (state 2); each explorer must report the fault of state 1.
TWO_FAULTS = """dtmc
module m
  x : [0..5] init 2;
  [] x=2 -> 0.5 : (x'=1) + 0.5 : (x'=3);
  [] x=3 -> {fault3};
  [] x=1 -> {fault1};
  [] x=0 | x>3 -> (x'=x);
endmodule
"""


@pytest.mark.parametrize("fault1, fault3, message", [
    ("1/(x-1) : (x'=0)", "(x'=x+3)", "division by zero"),
    ("(x'=x-2)", "1/(x-3) : (x'=0)", r"assignment in state \(1,\) of 'x' is -1"),
    ("0.5 : (x'=0) + 0.4 : (x'=2)", "-1 : (x'=0)", "sum to (0.9|9/10), expected 1"),
    ("(x'=mod(x, x-1))", "(x'=6)", "mod by zero"),
])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("path", PATHS)
def test_the_first_faulty_state_of_a_layer_reports_its_fault(fault1, fault3, message, exact, path):
    program = typecheck(parse_program(TWO_FAULTS.format(fault1=fault1, fault3=fault3)))
    error = explore_matches_reference(program, path, exact=exact)
    assert re.search(message, str(error))


# From x=0 only x=0 and x=1 are reached, so the valuations x=2..4, where each
# fault below lies, are never expanded layer by layer; from x=3 they are.
UNREACHED_FAULTS = """dtmc
module m
  x : [0..4] init {init};
  [] x<2 -> 0.5 : (x'=1-x) + 0.5 : (x'=x);
  {fault}
endmodule
"""


@pytest.mark.parametrize("fault, message", [
    pytest.param("", r"deadlock state 0: valuation \{'x': 3\}", id="deadlock"),
    pytest.param("[] x>=2 -> (x'=x+3);", r"assignment in state \(3,\) of 'x' is 6", id="out_of_range"),
    pytest.param("[] x>=2 & 1/(x-3)>0 -> (x'=x);", "division by zero", id="guard_divides_by_zero"),
    pytest.param("[] x>=2 -> 1/(x-3) : (x'=x);", "division by zero", id="weight_divides_by_zero"),
    pytest.param("[] x>=2 -> 0.5 : (x'=x) + 0.4 : (x'=2);", "sum to (0.9|9/10), expected 1", id="bad_sum"),
    pytest.param("[] x>=2 -> -1 : (x'=x) + 2 : (x'=2);", "negative update weight at line 5", id="negative_weight"),
])
@pytest.mark.parametrize("exact", [False, True])
def test_a_fault_in_an_unreached_valuation_changes_nothing(fault, message, exact, built_whole):
    unreached = typecheck(parse_program(UNREACHED_FAULTS.format(init=0, fault=fault)))
    models = [explore_matches_reference(unreached, path, exact=exact) for path in PATHS]
    assert_same(models[1], models[0])
    assert models[0].n_states == 2
    reached = typecheck(parse_program(UNREACHED_FAULTS.format(init=3, fault=fault)))
    errors = [explore_matches_reference(reached, path, exact=exact) for path in PATHS]
    assert str(errors[1]) == str(errors[0]) and re.search(message, str(errors[0]))
    # an unreached deadlock gets a loop the model never sees; every other fault
    # sends the whole-space pass back to the layers
    assert built_whole == [fault == "", False]


def _atom(rng, ints, bools):
    if bools and rng.random() < 0.25:
        b = rng.choice(bools)
        return b if rng.random() < 0.5 else f"!{b}"
    (x, k) = rng.choice(ints)
    return f"{x}{rng.choice(['<', '<=', '=', '!=', '>', '>='])}{rng.randint(0, k)}"


def _guard(rng, ints, bools):
    guard = _atom(rng, ints, bools)
    for _ in range(rng.randint(0, 2)):
        guard = f"({guard}) {rng.choice(['&', '|'])} {_atom(rng, ints, bools)}"
    return rng.choice([guard, guard, guard, "true"])


def _assignment(rng, var, k, ints, bools, risk=0.06):
    if k is None:
        return f"({var}'={rng.choice(['!' + var, 'true', 'false', _atom(rng, ints, bools)])})"
    other = rng.choice(ints)[0]
    if rng.random() < risk:  # may leave the range
        rhs = rng.choice([f"{var}+1", f"{var}-1", other, f"floor(({var}+{other})/2)+1"])
    else:
        rhs = rng.choice([f"min({var}+1,{k})", f"max({var}-1,0)", f"{k}-{var}", "0", f"{var}",
                          f"mod({var}+{other},{k + 1})", f"min({other},{k})", f"floor({var}/2)"])
    return f"({var}'={rhs})"


def _weights(rng, kind, ints):
    x = rng.choice(ints)[0]
    if rng.random() < 0.04:  # weights that may be invalid
        return rng.choice([[f"1/({x}-1)", "0.5"], ["0.7", "0.4"], [f"{x}-1"], ["0"], [f"mod(2, {x})"]])
    if kind == "ctmc":
        return [rng.choice(["1", "2.5", "0.5", f"{x}+1", f"{x}*0.5+0.25", "1/3", f"pow({x}+1,0.5)", "0"])
                for _ in range(rng.randint(1, 3))] + [rng.choice(["1", "0.75"])]
    return rng.choice([
        [None], [None], ["0.5", "0.5"], ["0.2", "0.3", "0.5"], ["1/3", "2/3"], ["0", "1"], ["0.25", "0.25", "0.5"],
        [f"{x}/({x}+2)", f"1-{x}/({x}+2)"], ["1/3", "1/3", "1/3"], ["0.1", "0.2", "0.3", "0.4"],
    ])


def random_program(rng, kind):
    """A small program over one to three modules, with labels and rewards.

    Some programs give every module exactly one command on action c, which
    exploration folds into one choice; its assignments leave their range
    more often.
    """
    shared = rng.random() < 0.3
    modules, ints, bools = [], [], []
    for m in range(rng.randint(1, 3)):
        own = []
        for v in range(rng.randint(1, 2)):
            name = f"v{m}{v}"
            if rng.random() < 0.25:
                bools.append(name)
                own.append((name, None, f"{name} : bool init {rng.choice(['true', 'false'])};"))
            else:
                k = rng.randint(1, 4)
                ints.append((name, k))
                own.append((name, k, f"{name} : [0..{k}] init {rng.randint(0, k + (rng.random() < 0.03))};"))
        modules.append(own)
    if not ints:
        ints.append(("w", 1))
        modules[0].append(("w", 1, "w : [0..1] init 0;"))
    lines = [kind]
    for m, own in enumerate(modules):
        lines += [f"module m{m}"] + [decl for _, _, decl in own]
        count = rng.randint(1, 4)
        for i in range(count + shared):
            action = "c" if i == count else rng.choice(["", "", "a", "b"])
            updates = []
            for weight in _weights(rng, kind, ints):
                assigned = rng.sample(own, rng.randint(0, len(own)))
                body = " & ".join(_assignment(rng, var, k, ints, bools, 0.2 if action == "c" else 0.06)
                                  for var, k, _ in assigned) or "true"
                updates.append(body if weight is None else f"{weight} : {body}")
            lines.append(f"  [{action}] {_guard(rng, ints, bools)} -> {' + '.join(updates)};")
        lines.append("endmodule")
    x = rng.choice(ints)[0]
    lines.append(f'label "l0" = {_guard(rng, ints, bools)};')
    lines.append(f'label "l1" = {rng.choice([_guard(rng, ints, bools), f"{x}/2 > 0.5", f"pow({x}, 2) >= 1"])};')
    lines.append('rewards "r"')
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(["", "[] ", "[a] ", "[b] ", "[c] "])
        lines.append(f"  {action}{_guard(rng, ints, bools)} : {rng.choice(['1', '0.5', f'{x}+1', f'{x}/3', '2'])};")
    lines.append("endrewards")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path, frontier", NUMBERINGS)
@settings(deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dtmc", "ctmc", "mdp"]),
       exact=st.booleans(), fix=st.booleans(), limit=st.sampled_from([0, 1, 3, 10_000_000, 10_000_000]))
def test_explorer_matches_reference_on_random_programs(path, frontier, seed, kind, exact, fix, limit):
    source = random_program(random.Random(seed), kind)
    program = typecheck(parse_program(source))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("stormlet.prism.whole"), "ARRAY_FRONTIER", frontier)
        explore_matches_reference(program, path, exact=exact, fix_deadlocks=fix, max_states=limit)


MANY_ACTIONS = "mdp\nmodule m\n  x : [0..70] init 0;\n" + "".join(
    f"  [a{i}] x={i} -> (x'={i + 1});\n  [b{i}] x={i} -> 0.5 : (x'={i + 1}) + 0.5 : (x'=0);\n" for i in range(70)
) + "  [] x=70 -> true;\nendmodule\nrewards \"r\"\n  [a3] true : 1;\n  [b69] true : 2;\n  [] true : 3;\nendrewards\n"

FOLDED = """ctmc
module a
  x : [0..2] init 0;
  y : [0..3] init 0;
  [go] x<2 -> x+0.3 : (x'=x+1) & (y'=1) + 0.7 : (y'=2);
  [] x=2 -> (x'=0);
endmodule
module b
  z : bool init false;
  [go] true -> 0.1 : (y'=3) & (z'=!z) + 0.9*(y+1) : (z'=true);
endmodule
module c
  w : [0..1] init 0;
  [go] y<3 -> 1/3 : (y'=y+1) & (w'=1-w) + 2.2/(w+1) : (w'=0);
endmodule
rewards "r"
  [go] true : y;
endrewards
"""

EDGE_PROGRAMS = {
    # both modules assign y on [go]: the later module's value wins
    "shared_assignment": """mdp
module a
  x : [0..2] init 0;
  y : [0..3] init 0;
  [go] x<2 -> 0.5 : (x'=x+1) & (y'=1) + 0.5 : (y'=2);
  [] x=2 -> true;
endmodule
module b
  z : bool init false;
  [go] true -> 0.25 : (y'=3) & (z'=!z) + 0.75 : (z'=true);
  [go] !z -> (z'=true);
endmodule
rewards "r"
  [go] true : y;
endrewards
""",
    # one [go] command per module, so one folded choice: all three assign y
    # (the last module's value wins) and their state-dependent rates multiply
    # in module order
    "shared_assignment_folded": FOLDED,
    # the same, but c's y+1 leaves the range from y=3
    "range_fault_in_a_folded_choice": FOLDED.replace("[go] y<3 ->", "[go] true ->"),
    # values beyond 2^53 and min/max that mix ints and doubles
    "big_values": """ctmc
const int B = pow(2, 60);
module m
  x : [0..3] init 0;
  [] x<3 -> pow(2, 60 + x) / B : (x'=x+1) + max(x, 0.5) * pow(10, 20) / pow(10, 20) : (x'=0);
  [] x=3 -> (x'=floor(pow(10, 20) / pow(10, 20)) - 1 + x - 2);
endmodule
label "big" = pow(3, 40) * x > B + x & min(x, 0.5) < 1;
rewards "r"
  true : max(x, 1.5) + min(pow(2, 70) * x, x + 0.5);
  x>0 : mod(pow(2, 61) + x, 3);
endrewards
""",
    # a range too wide for int64 packing and a state with no choice but a zero weight
    "wide_range": """dtmc
module m
  x : [0..pow(10, 30)] init pow(10, 29);
  b : bool init false;
  [] x<pow(10, 29) + 3 -> 0.5 : (x'=x+1) + 0.5 : (b'=!b) & (x'=x+2);
  [] x>=pow(10, 29) + 3 -> 0 : (x'=0) + 1 : true;
endmodule
label "far" = x > pow(10, 29) + 2;
""",
    # two int64 variables whose key space, about 10^12 keys, is past the dense
    # index's bound, so states are interned through the dict: (1, 10^6) is
    # reached twice in the first layer, and y falls by a different step in each
    "wide_int64": """mdp
module m
  x : [0..pow(10, 6)] init 0;
  y : [0..pow(10, 6)] init pow(10, 6);
  [] x<4 -> 0.5 : (x'=x+1) + 0.5 : (x'=x+1) & (y'=y-1000*x-1);
  [a] x<4 -> (x'=x+1);
  [] x=4 -> (y'=y);
endmodule
label "low" = y < pow(10, 6) - 2;
rewards "r"
  [a] true : x;
endrewards
""",
    # a small range whose bounds are past int64: int64 keys over object columns
    "far_range": """dtmc
module m
  x : [pow(10, 30)..pow(10, 30) + 3] init pow(10, 30);
  [] x<pow(10, 30) + 2 -> 0.5 : (x'=x+1) + 0.5 : (x'=x+2);
  [] x>=pow(10, 30) + 2 -> (x'=x-1);
endmodule
label "top" = x = pow(10, 30) + 3;
""",
    # state 1's rates add past the float range, so its entries are not finite;
    # the first reported is the first discovered, (1,3), not the first in its row
    "overflowing_rates": """ctmc
module m
  x : [0..3] init 0;
  [] x=0 -> 1 : (x'=1) + 1 : (x'=2);
  [] x=1 -> 1e308*10 : (x'=3) + 1e308*10 : (x'=2);
  [] x>=2 -> 1 : (x'=0);
endmodule
""",
    # x*x past 2^53 is multiplied as Python ints; in int64 it would wrap
    "int64_product": """dtmc
module m
  x : [0..pow(10, 10)] init pow(10, 10);
  [] x*x > pow(10, 19) -> 0.5 : (x'=x-pow(10, 9)) + 0.5 : (x'=0);
  [] x*x <= pow(10, 19) -> (x'=x);
endmodule
label "big" = x*x > pow(10, 19);
""",
    "many_actions": MANY_ACTIONS,
    "many_actions_dtmc": MANY_ACTIONS.replace("mdp", "dtmc", 1),
    # no variables: one state, whose choices loop
    "no_variables": """mdp
module m
  [a] true -> true;
  [] true -> 0.5 : true + 0.5 : true;
endmodule
module n
  [a] true -> true;
endmodule
rewards "r"
  [a] true : 1;
  true : 2;
endrewards
""",
}


@pytest.mark.parametrize("name", EDGE_PROGRAMS)
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("limit", [1, 10_000_000])
@pytest.mark.parametrize("path", PATHS)
def test_explorer_matches_reference_on_edge_programs(name, exact, limit, path):
    program = typecheck(parse_program(EDGE_PROGRAMS[name]))
    explore_matches_reference(program, path, exact=exact, fix_deadlocks=True, max_states=limit)


@pytest.mark.parametrize("name, dense", [("shared_assignment", True), ("no_variables", True), ("far_range", True),
                                         ("wide_int64", False), ("wide_range", False)])
def test_only_a_key_space_past_the_bound_is_interned_through_a_dict(name, dense):
    _, state_map = explore(typecheck(parse_program(EDGE_PROGRAMS[name])), ExploreOptions(fix_deadlocks=True))
    assert isinstance(state_map._index, dict) is not dense


# Deep, thin chains of about 200 states, started in the middle, so that each
# BFS layer holds one or two states: the three program shapes of perfbench's
# solve_iter, a chain two modules drive together on an action, and a CTMC
# whose rate depends on the state.
DEEP_PROGRAMS = {
    "ruin_dtmc": """dtmc
module walk
  x : [0..200] init 100;
  [] x>0 & x<200 -> 0.431 : (x'=x+1) + 0.569 : (x'=x-1);
  [] x=0 | x=200 -> (x'=x);
endmodule
label "top" = x=200;
rewards "steps"
  x>0 & x<200 : 1;
endrewards
""",
    "ruin_mdp": """mdp
module walk
  x : [0..200] init 100;
  [] x>0 & x<200 -> 0.401 : (x'=x+1) + 0.599 : (x'=x-1);
  [] x>0 & x<200 -> 0.441 : (x'=x+1) + 0.559 : (x'=x-1);
  [] x=0 | x=200 -> (x'=x);
endmodule
label "end" = x=0 | x=200;
rewards "steps"
  x>0 & x<200 : 1;
endrewards
""",
    "lazy_walk": """dtmc
module walk
  x : [0..200] init 100;
  [] x>0 & x<200 -> 0.01 : (x'=x+1) + 0.01 : (x'=x-1) + 0.98 : (x'=x);
  [] x=0 | x=200 -> (x'=x);
endmodule
""",
    "synchronised": """mdp
module walker
  x : [0..200] init 100;
  [step] x>0 & x<200 -> 0.5 : (x'=x+1) + 0.5 : (x'=x-1);
  [] x=0 | x=200 -> true;
endmodule
module clock
  t : [0..1] init 0;
  [step] t=0 -> (t'=1);
  [step] t=1 -> 0.25 : (t'=0) + 0.75 : (t'=0);
endmodule
rewards "steps"
  [step] true : 1;
  t=1 : 2;
endrewards
""",
    "thin_ctmc": """ctmc
module queue
  q : [0..200] init 100;
  [arrive] q<200 -> 2.5 : (q'=q+1);
  [serve] q>0 -> 3 + q/100 : (q'=q-1);
endmodule
label "full" = q=200;
rewards "waiting"
  true : q;
  [serve] true : 1;
endrewards
""",
}


@pytest.mark.parametrize("name", DEEP_PROGRAMS)
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("path", PATHS)
def test_explorer_matches_reference_on_deep_thin_chains(name, exact, path):
    model = explore_matches_reference(typecheck(parse_program(DEEP_PROGRAMS[name])), path, exact=exact)
    assert model.n_states >= 200


# Each fault first fires at x=160, 60 layers below the initial state.
DEEP_FAULTS = [
    ("ruin_dtmc", "(x'=x+1)", "(x'=x+1+100*floor(x/160))", r"assignment in state \(160,\) of 'x' is 261"),
    ("ruin_dtmc", "0.431 :", "0.431+floor(x/160)/10 :", "sum to (1.1|11/10), expected 1"),
    ("ruin_mdp", "0.441 :", "0.441*(x-160)/(x-160) :", "division by zero"),
    ("synchronised", "(t'=1)", "(t'=floor(x/160)+1)", r"assignment in state \(160, 0\) of 't' is 2"),
]


@pytest.mark.parametrize("name, old, new, message", DEEP_FAULTS)
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("path", PATHS)
def test_a_fault_deep_in_a_thin_chain_is_reported_as_the_reference_does(name, old, new, message, exact, path):
    source = DEEP_PROGRAMS[name]
    assert old in source
    error = explore_matches_reference(typecheck(parse_program(source.replace(old, new, 1))), path, exact=exact)
    assert re.search(message, str(error))


@pytest.mark.parametrize("source", [
    pytest.param(DEEP_PROGRAMS["ruin_dtmc"], id="ruin_dtmc"),
    pytest.param(DEEP_PROGRAMS["synchronised"], id="synchronised"),
    # a range past the dense index's bound: the states a cut layer interned leave the dict
    pytest.param(DEEP_PROGRAMS["ruin_dtmc"].replace("x : [0..200]", "x : [0..pow(10, 8)]"), id="ruin_dtmc_dict"),
])
@pytest.mark.parametrize("path", PATHS)
def test_state_limit_cuts_a_thin_chain_as_the_reference_does(source, path):
    error = explore_matches_reference(typecheck(parse_program(source)), path, max_states=120)
    assert "state limit of 120 states exceeded" in str(error)


# Synchronised actions whose modules have several commands: a row may enable
# several in each module, commands differ in their number of updates, and
# both modules assign y (the later module's value wins where it assigns y).
SYNC_PROGRAMS = {
    "exclusive_guards": "mdp\nmodule a\n  x : [0..24] init 0;\n" + "".join(
        f"  [go] mod(x, 6)={j} -> 0.5 : (x'=min(x+1, 24)) + 0.5 : (x'=max(x-1, 0));\n" for j in range(6)
    ) + "endmodule\nmodule b\n  y : [0..24] init 0;\n" + "".join(
        f"  [go] mod(y, 6)={j} -> (y'=mod(y+{j + 1}, 25));\n" for j in range(6)
    ) + "endmodule\n",
    "overlapping": """{kind}
module a
  x : [0..12] init 6;
  y : [0..4] init 2;
  [go] x<12 -> {w1} : (x'=x+1) + {w2} : (x'=x) & (y'=1);
  [go] x>0 -> (x'=x-1);
  [go] mod(x, 3)=0 -> {w3} : (x'=0) + {w4} : (y'=3) + {w5} : true;
  [] x=12 -> (x'=0);
endmodule
module b
  z : [0..3] init 1;
  [go] z<3 -> {w6} : (z'=z+1) & (y'=0) + {w7} : (z'=z);
  [go] true -> (z'=0);
  [go] y=2 -> {w1} : (y'=4) + {w2} : (z'=3);
endmodule
rewards "r"
  [go] true : 1;
  x=0 : 2;
endrewards
""",
}
SYNC_WEIGHTS = {"mdp": dict(w1=0.5, w2=0.5, w3=0.2, w4=0.3, w5=0.5, w6=0.25, w7=0.75),
                "ctmc": dict(w1=2, w2=0.5, w3=1, w4="x+1", w5=3, w6=0.25, w7="1/(z+1)")}


@pytest.mark.parametrize("name, kind", [("exclusive_guards", "mdp"), ("overlapping", "mdp"), ("overlapping", "ctmc")])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("path", PATHS)
def test_synchronised_commands_in_every_combination_match_the_reference(name, kind, exact, path):
    source = SYNC_PROGRAMS[name].format(kind=kind, **SYNC_WEIGHTS[kind])
    model = explore_matches_reference(typecheck(parse_program(source)), path, exact=exact, fix_deadlocks=True)
    assert model.n_states >= 20
    if name == "overlapping" and kind == "mdp":
        # the initial state x=6, y=2, z=1 enables every [go] command of both modules: nine choices
        assert model.choice_offsets[1] - model.choice_offsets[0] == 9


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("path", PATHS)
def test_a_fault_deep_in_a_chain_of_synchronised_combinations_is_reported_as_the_reference_does(exact, path):
    # both modules have two [step] commands; the walker's second is enabled where x is a multiple of 3
    source = DEEP_PROGRAMS["synchronised"].replace(
        "  [] x=0 | x=200 -> true;", "  [step] x>0 & x<200 & mod(x, 3)=0 -> (x'=x+1);\n  [] x=0 | x=200 -> true;")
    explore_matches_reference(typecheck(parse_program(source)), path, exact=exact)
    error = explore_matches_reference(typecheck(parse_program(source.replace("(t'=1)", "(t'=floor(x/160)+1)"))),
                                      path, exact=exact)
    assert re.search(r"assignment in state \(160, 0\) of 't' is 2", str(error))


@pytest.mark.parametrize("path", PATHS)
def test_synchronised_commands_are_checked_in_the_order_one_state_uses_them(path):
    # one state's combinations (a1,b1), (a1,b2), (a2,b1), (a2,b2) first use a1, b1, b2, then a2: b2's
    # weights are checked before a2's division by zero
    source = """dtmc
module a
  x : [0..2] init 0;
  [go] true -> (x'=1);
  [go] true -> 1/x : (x'=2);
endmodule
module b
  y : [0..2] init 0;
  [go] true -> (y'=1);
  [go] true -> 0.6 : (y'=1) + 0.5 : (y'=2);
endmodule
"""
    for exact in (False, True):
        error = explore_matches_reference(typecheck(parse_program(source)), path, exact=exact)
        assert "expected 1" in str(error)
