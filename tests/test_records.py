"""The plain record classes: ``replace`` copies every field, and the
constructors validate with their documented messages."""

import re

import pytest

from stormlet import props, sparse
from stormlet.errors import ModelError, SolverError
from stormlet.models import RewardModel
from stormlet.prism import parse_program, syntax, typecheck
from stormlet.prism.syntax import replace
from stormlet.solvers import BellmanSystem, LinearSystem, SolverEnvironment

NODE_CLASSES = [cls for module in (syntax, props) for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__ and "__init__" in vars(cls)]


def test_every_node_class_is_covered():
    names = {cls.__name__ for cls in NODE_CLASSES}
    assert {"Lit", "Var", "Unary", "Binary", "Call", "PrismProgram", "ProbOperator", "RewardOperator"} <= names
    assert len(NODE_CLASSES) == 15 + 7  # the five expression classes, ten program parts, seven property parts


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_replace_keeps_every_field(cls):
    values = {name: object() for name in cls._fields}  # span and type are keyword-only on expressions
    node = cls(**values)
    copy = replace(node)
    assert type(copy) is cls and copy is not node
    assert all(getattr(copy, name) is value for name, value in values.items())
    for name in cls._fields:
        changed = replace(node, **{name: "new"})
        assert all(getattr(changed, f) is ("new" if f == name else values[f]) for f in cls._fields)
    with pytest.raises(TypeError):
        replace(node, no_such_field=1)


def test_expression_span_and_type_are_keyword_only():
    lit = syntax.Lit(3, span=(1, 2), type="int")
    assert (lit.value, lit.span, lit.type) == (3, (1, 2), "int")
    with pytest.raises(TypeError):
        syntax.Lit(3, (1, 2))
    binary = syntax.Binary("+", lit, lit)
    assert (binary.op, binary.left, binary.right, binary.span, binary.type) == ("+", lit, lit, None, None)


def _expr(text):
    """``text``, typed, as the guard of a one-command program over ``x``."""
    source = f"dtmc\nmodule m\n  x : [0..3] init 0;\n  [] {text} -> (x'=x);\nendmodule\n"
    return typecheck(parse_program(source)).modules[0].commands[0].guard


def test_key_leaves_out_spans():
    assert _expr("x<1 & max(x, 2)=2").span != _expr("  x<1 & max(x, 2)=2").span
    assert syntax.key(_expr("x<1 & max(x, 2)=2")) == syntax.key(_expr("  x<1 & max(x, 2)=2"))


@pytest.mark.parametrize("one, other", [("x<1", "x<=1"), ("1=1", "true=true")])
def test_key_tells_apart(one, other):
    assert syntax.key(_expr(one)) != syntax.key(_expr(other))


def test_key_of_literals_keeps_their_type():
    assert syntax.key(syntax.Lit(1)) != syntax.key(syntax.Lit(True))


def test_key_of_a_call_is_hashable():
    call = _expr("max(x, 1, 2)=2").left
    assert isinstance(call, syntax.Call) and isinstance(call.args, list)
    assert hash(syntax.key(call)) == hash(syntax.key(_expr("max(x,1,2) = 2").left))


@pytest.mark.parametrize("kwargs, message", [
    ({"minmax_method": "simplex"}, "unknown min-max method 'simplex'"),
    ({"criterion": "mixed"}, "unknown convergence criterion 'mixed'"),
    ({"precision": 0}, "precision must be positive"),
    ({"precision": float("nan")}, "precision must be positive"),
    ({"max_iterations": 0}, "max_iterations must be at least 1"),
])
def test_environment_messages(kwargs, message):
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        SolverEnvironment(**kwargs)


def test_environment_defaults_and_ignored_keywords():
    env = SolverEnvironment(linear_method="exact", exact=True)
    assert (env.minmax_method, env.precision, env.criterion, env.max_iterations) == (
        "policy_iteration", 1e-6, "relative", 1_000_000)
    assert not hasattr(env, "linear_method") and not hasattr(env, "exact")


def test_system_messages():
    m = sparse.build_sparse([(0, 0, 0.5)], 1, 1)
    wide = sparse.build_sparse([(0, 0, 0.5)], 1, 2)
    for build in (lambda: LinearSystem(m, [1.0, 2.0]), lambda: LinearSystem(wide, [1.0])):
        with pytest.raises(SolverError, match="^linear system dimensions are inconsistent$"):
            build()
    with pytest.raises(SolverError, match="^every state needs at least one choice$"):
        BellmanSystem(m, [0, 0], [1.0], "maximize")
    with pytest.raises(SolverError, match="^Bellman system dimensions are inconsistent$"):
        BellmanSystem(m, [0, 1], [1.0, 2.0], "maximize")
    with pytest.raises(SolverError, match="^unknown direction 'sideways'$"):
        BellmanSystem(m, [0, 1], [1.0], "sideways")
    system = BellmanSystem(m, [0, 1], [1], "minimize")
    assert system.b.dtype == float and system.choice_offsets.dtype == "int64" and system.n_states == 1


def test_reward_model_message():
    with pytest.raises(ModelError, match="^reward model 'r' contains negative rewards$"):
        RewardModel("r", action_rewards=[0.0, -1.0])
    assert RewardModel("r", [1.0]).action_rewards is None
