"""Program language frontend: lexing, parsing, typing, exploration."""

from fractions import Fraction

import numpy as np
import pytest

from stormlet.errors import DeadlockError, ModelError, ParseError, StormletError
from stormlet.models import ModelKind
from stormlet.prism import (
    ExploreOptions,
    explore,
    parse_program,
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
    assert state_map.valuation_dict(0) == {"x": 0}
    assert list(model.labeling.get("goal")) == [False, True]
    assert list(model.initial_states) == [True, False]
    cols, vals = model.matrix.row(0)
    assert list(vals) == [0.5, 0.5]


def test_explore_deadlock_detection_and_patch():
    src = "dtmc\nmodule m\nx : [0..1] init 0;\n[] x=0 -> (x'=1);\nendmodule"
    with pytest.raises(DeadlockError):
        build(src)
    model, _ = build(src, fix_deadlocks=True)
    assert list(model.deadlock_fixed) == [False, True]
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
    assert state_map.valuations == [(2,), (3,)]
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
    assert a_model == b_model
    assert a_map.valuations == b_map.valuations


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
    assert state_map.valuations == [(0,), (8,), (2,), (3,), (1,), (5,), (9,)]
    q = Fraction(1, 4)
    rows = {
        0: {1: 1},
        1: {2: q, 3: 3 * q},  # floor(8/3), ceil(8/3)
        2: {4: q, 5: 3 * q},  # pow(2.0,-2), 1-pow(0.5,2)
        3: {2: 3 * q, 6: q},  # pow(3,2)/12 to mod(7,5); floor(3/2)/4
        4: {4: 1}, 5: {5: 1}, 6: {6: 1},
    }
    assert list(model.matrix.entries()) == [(r, c, v) for r in rows for c, v in rows[r].items()]
    assert all(type(v) is (Fraction if exact else float) for _, _, v in model.matrix.entries())
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
