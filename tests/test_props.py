"""Property grammar and atom resolution."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stormlet import checkers, props
from stormlet.errors import ParseError, PropertyError
from stormlet.models import Model, ModelKind, StateLabeling
from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
from stormlet.prism.syntax import Binary, Lit, Unary
from stormlet.props import (
    Globally,
    Label,
    Next,
    Predicate,
    ProbOperator,
    RewardOperator,
    Until,
    parse_property,
    resolve_atoms,
)
from stormlet.solvers import SolverEnvironment


def test_parse_query_reachability():
    p = parse_property('P=? [ F "goal" ]')
    assert isinstance(p, ProbOperator)
    assert p.optimum is None and p.bound is None and p.condition is None
    assert isinstance(p.path, Until)
    assert isinstance(p.path.left, Lit) and p.path.left.value is True
    assert isinstance(p.path.right, Label) and p.path.right.name == "goal"


def test_parse_bounded_operator():
    p = parse_property('Pmax>=0.9 [ "a" U<=5 "b" ]')
    assert p.optimum == "max"
    assert p.bound == (">=", Fraction(9, 10))
    assert p.path.bound == Fraction(5)


def test_parse_next_and_globally():
    p = parse_property('P<0.5 [ X "a" ]')
    assert isinstance(p.path, Next)
    g = parse_property('P=? [ G<=3 "a" ]')
    assert isinstance(g.path, Globally) and g.path.bound == 3


def test_parse_conditional():
    p = parse_property('P=? [ F "a" || F "b" ]')
    assert p.condition is not None
    assert isinstance(p.condition, Until)


def test_parse_reward_operators():
    r = parse_property('R{"energy"}=? [ F "done" ]')
    assert isinstance(r, RewardOperator)
    assert r.reward_name == "energy"
    assert r.target[0] == "reach"
    c = parse_property("Rmax<=10 [ C<=4 ]")
    assert c.optimum == "max" and c.target == ("cumulative", Fraction(4))


def test_parse_boolean_state_structure():
    p = parse_property('P=? [ !"a" & "b" | "c" U true ]')
    left = p.path.left
    assert isinstance(left, Binary) and left.op == "|"  # & binds tighter than |
    assert isinstance(left.left, Binary) and left.left.op == "&"
    assert isinstance(left.left.left, Unary) and left.left.left.op == "!"


def test_parse_predicate_atoms():
    p = parse_property("P=? [ F (x>2 & y=0) ]")
    assert isinstance(p.path.right, Predicate)


def test_parse_nested_operator_needs_bound():
    p = parse_property('P=? [ F P>=1 [ F "a" ] ]')
    assert isinstance(p.path.right, ProbOperator)
    with pytest.raises(ParseError):
        parse_property('P=? [ F P=? [ F "a" ] ]')


def test_parse_errors():
    for text in [
        "",
        "Q=? [ F \"a\" ]",
        "P=? [ \"a\" ]",
        "P=? [ F \"a\"",
        "P=? [ F \"a\" ] trailing",
        "P=?? [ F \"a\" ]",
        "R=? [ C<= ]",
        "P=? [ \"a\" V \"b\" ]",
    ]:
        with pytest.raises(ParseError):
            parse_property(text)


# --- resolution -----------------------------------------------------------


def simple_dtmc(labels):
    from stormlet import sparse

    m = sparse.build_sparse([(0, 1, 1.0), (1, 1, 1.0)], 2, 2)
    return Model(ModelKind.DTMC, m, StateLabeling(2, labels))


def simple_mdp():
    from stormlet import sparse

    m = sparse.build_sparse([(0, 1, 1.0), (1, 1, 1.0)], 2, 2)
    return Model(
        ModelKind.MDP, m, StateLabeling(2, {"goal": [False, True]}), choice_offsets=[0, 1, 2]
    )


def test_resolve_label_atoms_and_boolean_collapse():
    model = simple_dtmc({"a": [True, False], "b": [False, True]})
    resolved = resolve_atoms(parse_property('P=? [ !"a" & "b" U "a" | "b" ]'), model)
    # resolution replaces the atoms only; the checker collapses the connectives
    left, right = resolved.path.left, resolved.path.right
    assert isinstance(left, Binary) and left.op == "&" and isinstance(left.left, Unary)
    assert list(left.left.operand) == [True, False] and list(left.right) == [False, True]
    assert isinstance(right, Binary) and right.op == "|"
    assert list(right.left) == [True, False] and list(right.right) == [False, True]
    env = SolverEnvironment()
    assert list(checkers._bits(model, left, env)) == [False, True]
    assert list(checkers._bits(model, right, env)) == [True, True]


def test_resolve_unknown_label():
    model = simple_dtmc({})
    with pytest.raises(PropertyError):
        resolve_atoms(parse_property('P=? [ F "missing" ]'), model)


def test_resolve_predicate_needs_state_map():
    model = simple_dtmc({})
    with pytest.raises(PropertyError):
        resolve_atoms(parse_property("P=? [ F (x>0) ]"), model)


def test_resolve_predicate_with_state_map():
    src = "dtmc\nmodule m\nx : [0..1] init 0;\n[] x=0 -> (x'=1);\n[] x=1 -> (x'=1);\nendmodule"
    model, state_map = explore(typecheck(parse_program(src)), ExploreOptions())
    resolved = resolve_atoms(parse_property("P=? [ F (x=1) ]"), model, state_map)
    assert list(resolved.path.right) == [False, True]
    with pytest.raises(PropertyError):
        resolve_atoms(parse_property("P=? [ F (x+1) ]"), model, state_map)
    with pytest.raises(PropertyError, match="division by zero"):
        resolve_atoms(parse_property("P=? [ F (1/(x-1)>0) ]"), model, state_map)
    with pytest.raises(PropertyError, match="unknown identifier 'N'"):
        resolve_atoms(parse_property("P=? [ F (x=N) ]"), model, state_map)


def test_resolve_optimum_direction_validation():
    dtmc = simple_dtmc({"goal": [False, True]})
    mdp = simple_mdp()
    with pytest.raises(PropertyError):
        resolve_atoms(parse_property('Pmax=? [ F "goal" ]'), dtmc)
    with pytest.raises(PropertyError):
        resolve_atoms(parse_property('P=? [ F "goal" ]'), mdp)
    resolved = resolve_atoms(parse_property('Pmax=? [ F "goal" ]'), mdp)
    assert resolved.optimum == "max"


def test_resolve_keeps_nested_operators():
    model = simple_dtmc({"a": [True, False]})
    resolved = resolve_atoms(parse_property('P=? [ F P>=1 [ F "a" ] ]'), model)
    nested = resolved.path.right
    assert isinstance(nested, ProbOperator) and nested.bound == (">=", 1)
    assert list(nested.path.right) == [True, False]
    assert list(checkers.check(model, nested, SolverEnvironment()).values) == [True, False]


# --- README examples ------------------------------------------------------


def _readme_property_section():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Property language\n", 1)[1].split("\n## ", 1)[0]


def test_readme_property_examples_parse():
    block = _readme_property_section().split("```", 2)[1]
    examples = [line for line in block.splitlines() if line.strip()]
    assert len(examples) >= 8
    for line in examples:
        # each line is a property followed by its description
        parse_property(line[: line.rindex("]") + 1])


def test_readme_connectives_parse():
    listed = re.search(r"boolean connectives\s*\(([^)]*)\)", _readme_property_section()).group(1)
    connectives = re.findall(r"`([^`]+)`", listed)
    assert connectives
    for op in connectives:
        parse_property(f'P=? [ F {op} "a" ]' if op == "!" else f'P=? [ F "a" {op} "b" ]')
