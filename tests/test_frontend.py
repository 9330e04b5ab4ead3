"""The front end: the lexer's token classes, and every error message the
lexer, parser, type checker and property parser give, in full, with its
position."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlet import cli
from stormlet.errors import ParseError, PropertyError, StormletError
from stormlet.prism import ExploreOptions, explore, parse_program, tokenize, typecheck
from stormlet.prism.semantics import TypecheckError
from stormlet.props import parse_property, resolve_atoms

PROGRAM = """dtmc
module m
  x : [0..2] init 0;
  b : bool init false;
  [] x<2 -> (x'=x+1);
endmodule
"""


def _module(body):
    return "dtmc\nmodule m\n  x : [0..2] init 0;\n  b : bool init false;\n" + body + "endmodule\n"


def _update(update):
    return _module(f"  [] true -> {update};\n")


def _guard(expr):
    return _module(f"  [] {expr} -> (x'=0);\n")


def _after_header(lines):
    return "dtmc\n" + lines + PROGRAM[len("dtmc\n"):]


PROGRAM_ERRORS = [
    # the parser
    (_module("  [] -> (x'=0);\n"), ParseError, "expected an expression, found '->' at line 5, column 6"),
    ("dtmc\ninit\n", ParseError,
     "expected 'const', 'formula', 'label', 'module' or 'rewards' at top level, found 'init' at line 2, column 1"),
    ("dtmc\nmodule m\n  x = 1;\nendmodule\n", ParseError,
     "expected a variable declaration or a command at line 3, column 3"),
    (_update("(x'=0) & (x'=1)"), ParseError,
     "variable 'x' assigned twice in one update branch at line 5, column 14"),
    (PROGRAM + 'rewards "r"\n  true : 1;\n', ParseError,
     "expected 'endrewards' to close the rewards block at line 9, column 1"),
    (_after_header("const int x = 1;\n"), ParseError,
     "variable 'x' clashes with an earlier constant at line 4, column 3"),
    (PROGRAM + 'label "a" = true;\nlabel "a" = x=0;\n', ParseError, "label 'a' declared twice at line 8"),
    (PROGRAM + 'rewards "r"\n  true : 1;\nendrewards\nrewards "r"\n  true : 2;\nendrewards\n', ParseError,
     "rewards block 'r' declared twice"),
    # declarations
    ("dtmc\nmodule m\n  x : [true..2] init 0;\nendmodule\n", TypecheckError,
     "lower variable bound must be an integer (line 3, column 3)"),
    ("dtmc\nmodule m\n  x : [0..2.5] init 0;\nendmodule\n", TypecheckError,
     "upper variable bound must be an integer (line 3, column 3)"),
    ("dtmc\nmodule m\n  x : [0..2] init true;\nendmodule\n", TypecheckError,
     "init of variable 'x' has type bool, expected int (line 3, column 3)"),
    ("dtmc\nmodule m\n  b : bool init 1;\nendmodule\n", TypecheckError,
     "init of variable 'b' has type int, expected bool (line 3, column 3)"),
    (_after_header("const bool c = 1;\n"), TypecheckError, "constant 'c' must be boolean (line 2, column 1)"),
    (_after_header("const int c = 1.5;\n"), TypecheckError, "constant 'c' must be an integer (line 2, column 1)"),
    (_after_header("const double c = true;\n"), TypecheckError, "constant 'c' must be numeric (line 2, column 1)"),
    (_after_header("const int N;\n"), TypecheckError, "undefined constant 'N' needs a binding (line 2, column 1)"),
    (_after_header("formula f = g + 1;\nformula g = f;\n").replace("x<2", "f<2"), TypecheckError,
     "cyclic formula definition involving 'f' (line 3, column 13)"),
    # commands
    (_update("true : (x'=0)"), TypecheckError, "update weight must be numeric (line 5, column 14)"),
    (_update("(y'=0)"), TypecheckError, "assignment to unknown variable 'y' (line 5, column 14)"),
    (_update("(b'=1)"), TypecheckError, "boolean variable 'b' assigned int (line 5, column 14)"),
    (_update("(x'=1.5)"), TypecheckError, "integer variable 'x' assigned double (line 5, column 14)"),
    (_update("(x'=true)"), TypecheckError, "integer variable 'x' assigned bool (line 5, column 14)"),
    (_guard("x+1"), TypecheckError, "command guard must be boolean (line 5, column 3)"),
    # labels and rewards
    (PROGRAM + 'label "a" = x;\n', TypecheckError, "label 'a' must be boolean (line 7, column 1)"),
    (PROGRAM + 'label "init" = true;\n', TypecheckError, 'label "init" is reserved (line 7, column 1)'),
    (PROGRAM + "rewards\n  x : 1;\nendrewards\n", TypecheckError, "reward guard must be boolean (line 8, column 3)"),
    (PROGRAM + "rewards\n  true : b;\nendrewards\n", TypecheckError,
     "reward expression must be numeric (line 8, column 3)"),
    # operators
    (_guard("!x"), TypecheckError, "'!' needs a boolean operand (line 5, column 6)"),
    (_guard("-b"), TypecheckError, "unary '-' needs a numeric operand (line 5, column 6)"),
    (_guard("b & x"), TypecheckError, "'&' needs boolean operands (line 5, column 8)"),
    (_guard("x | b"), TypecheckError, "'|' needs boolean operands (line 5, column 8)"),
    (_guard("b < x"), TypecheckError, "'<' needs numeric operands (line 5, column 8)"),
    (_guard("b = x"), TypecheckError, "cannot combine types bool and int (line 5, column 8)"),
    (_guard("b / 2 > 0"), TypecheckError, "'/' needs numeric operands (line 5, column 8)"),
    (_guard("b + 1 > 0"), TypecheckError, "'+' needs numeric operands (line 5, column 8)"),
    (_guard("x * b > 0"), TypecheckError, "'*' needs numeric operands (line 5, column 8)"),
    (_guard("y > 0"), TypecheckError, "unknown identifier 'y' (line 5, column 6)"),
    # functions
    (_guard("min(x) > 0"), TypecheckError, "min needs at least two arguments (line 5, column 6)"),
    (_guard("max(x) > 0"), TypecheckError, "max needs at least two arguments (line 5, column 6)"),
    (_guard("min(b, b)"), TypecheckError, "min needs numeric arguments (line 5, column 6)"),
    (_guard("floor(x, 1) > 0"), TypecheckError, "floor needs one numeric argument (line 5, column 6)"),
    (_guard("ceil(b) > 0"), TypecheckError, "ceil needs one numeric argument (line 5, column 6)"),
    (_guard("pow(x) > 0"), TypecheckError, "pow needs two numeric arguments (line 5, column 6)"),
    (_guard("mod(x, 1.5) > 0"), TypecheckError, "mod needs two integer arguments (line 5, column 6)"),
    (_guard("mod(x) > 0"), TypecheckError, "mod needs two integer arguments (line 5, column 6)"),
]


@pytest.mark.parametrize("source, error, message", PROGRAM_ERRORS)
def test_program_errors_give_their_message_and_position(source, error, message):
    with pytest.raises(error) as exc:
        typecheck(parse_program(source))
    assert str(exc.value) == message


CONSTANT_PROGRAM = _after_header("const int N;\n")


@pytest.mark.parametrize("bindings, message", [
    ("N=4.5", "constant 'N' must be an integer (line 2, column 1)"),
    ("N=true", "constant 'N' must be an integer (line 2, column 1)"),
    ("N=1,M=2", "bindings given for unknown constants: M"),
])
def test_constant_bindings_are_coerced_or_refused(bindings, message):
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse_program(CONSTANT_PROGRAM), cli._parse_constants(bindings))
    assert str(exc.value) == message


def test_a_whole_double_binding_closes_an_int_constant():
    typed = typecheck(parse_program(CONSTANT_PROGRAM), cli._parse_constants("N=4.0"))
    value = typed.constants[0].value.value
    assert value == 4 and type(value) is int


PROPERTY_ERRORS = [
    ('P=? [ F<=1/0 "a" ]', "zero denominator at line 1, column 12"),
    ('R=? [ G "a" ]', "reward operator needs 'F state' or 'C<=bound' at line 1, column 7"),
    ('P=? [ F "a" ] "b"', "unexpected trailing 'STRING' at line 1, column 15"),
    ('P=? [ F P=? [ F "a" ] ]',
     "a nested operator used as a state formula needs a probability bound at line 1, column 9"),
    ('P=? [ "a" V "b" ]', "expected 'U', found 'V' at line 1, column 11"),
    ("P=? [ F ]", "expected a state formula, found ']' at line 1, column 9"),
    ('Q=? [ F "a" ]', "expected a P or R operator, found 'Q' at line 1, column 1"),
]


@pytest.mark.parametrize("text, message", PROPERTY_ERRORS)
def test_property_errors_give_their_message_and_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse_property(text)
    assert str(exc.value) == message


def test_a_bound_may_be_a_fraction():
    assert parse_property('P=? [ F<=1/2 "a" ]').path.bound == Fraction(1, 2)
    assert parse_property('P>=-3/4 [ F "a" ]').bound == (">=", Fraction(-3, 4))


# --- the lexer -------------------------------------------------------------


def test_tokens_carry_their_offset_and_position():
    text = "x : [0..2]\n  init 1.5; // done"
    tokens = tokenize(text)
    assert [(t.kind, t.line, t.column) for t in tokens] == [
        ("IDENT", 1, 1), (":", 1, 3), ("[", 1, 5), ("INT", 1, 6), ("..", 1, 7), ("INT", 1, 9), ("]", 1, 10),
        ("init", 2, 3), ("DOUBLE", 2, 8), (";", 2, 11), ("EOF", 2, 13),
    ]
    assert [text[t.offset:t.offset + len(str(t.value))] for t in tokens[:-1]] == [
        "x", ":", "[", "0", "..", "2", "]", "init", "1.5", ";"]
    # end of file is at the end of the text, but a comment that ends the
    # text leaves its column (13 above) at the comment's start
    assert tokens[-1].offset == len(text)


@pytest.mark.parametrize("text, kinds", [
    ("1.e5 .5 5. 2e 3e-1 1..2", ["DOUBLE", "DOUBLE", "DOUBLE", "INT", "IDENT", "DOUBLE", "INT", "..", "INT"]),
    ("x_1 _y Z9", ["IDENT", "IDENT", "IDENT"]),
])
def test_number_and_identifier_classes(text, kinds):
    assert [t.kind for t in tokenize(text)][:-1] == kinds


@pytest.mark.parametrize("text, message", [
    ("x=²", "unknown character '²' at line 1, column 3"),
    ("été", "unknown character 'é' at line 1, column 1"),
    ("x\n  ٣", "unknown character '٣' at line 2, column 3"),
    ('label "a', "unterminated string literal at line 1, column 7"),
    ('"a\n"', "unterminated string literal at line 1, column 1"),
])
def test_identifiers_and_digits_are_ascii(text, message):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert str(exc.value) == message


# --- predicate texts -------------------------------------------------------


@pytest.mark.parametrize("atom, message", [
    ("( x+1 )", "predicate ( x+1 ) is not boolean"),
    ("(y>0.50)", "predicate (y>0.50): unknown identifier 'y' (line 1, column 10)"),
    ("(x/(x-x)>0)", "predicate (x/(x-x)>0): division by zero"),
])
def test_predicate_errors_quote_the_source(atom, message):
    model, state_map = explore(typecheck(parse_program(PROGRAM)), ExploreOptions(fix_deadlocks=True))
    with pytest.raises(PropertyError) as exc:
        resolve_atoms(parse_property(f"P=? [ F {atom} ]"), model, state_map)
    assert str(exc.value) == message


# --- any text --------------------------------------------------------------

FRAGMENTS = [
    "dtmc", "ctmc", "mdp", "module m", "endmodule", "x", "b", ":", "[0..2]", "bool", "init", "0", "1", "0.5",
    ";", "[]", "[a]", "->", "(x'=1)", "+", "&", "|", "!", "=", "<", "(", ")", "const", "int", "double", "N",
    "formula", "f", "label", '"l"', "rewards", "endrewards", "true", "false", "min(", "floor(", ",", "//",
    "\n", "²", "é", "@", '"', "P=?", "Rmax=?", ">=0.9", "F", "G", "X", "U", "<=", "C<=", "3", "||",
]
TEXTS = st.one_of(st.text(), st.lists(st.sampled_from(FRAGMENTS), max_size=30).map(" ".join))


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_any_text_is_accepted_or_refused_with_a_stormlet_error(text):
    for front_end in (tokenize, lambda t: typecheck(parse_program(t)), parse_property):
        try:
            front_end(text)
        except StormletError:
            pass
