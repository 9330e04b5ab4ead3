"""Parser for the supported program subset: recursive descent for the program
structure, one operator-precedence loop for expressions and state formulas."""

from ..errors import ParseError
from ..models import ModelKind
from . import syntax
from .lexer import tokenize

FUNCTIONS = {"min", "max", "floor", "ceil", "pow", "mod"}


class TokenCursor:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        # the last token is EOF, which advance never passes; look ahead only past other tokens
        return self.tokens[self.pos + ahead]

    def advance(self):
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, *kinds):
        if self.peek().kind in kinds:
            return self.advance()
        return None

    def expect(self, *kinds):
        tok = self.peek()
        if tok.kind not in kinds:
            expected = " or ".join(repr(k) for k in kinds)
            raise ParseError(
                f"expected {expected}, found {tok.kind!r}", line=tok.line, column=tok.column
            )
        return self.advance()

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, line=tok.line, column=tok.column)


# --- expressions (also used by the property language) ---------------------


def _span(tok):
    return (tok.line, tok.column)


class Precedence:
    """An operator table over the operands that ``primary(cur)`` parses.

    ``levels`` run loosest first; each is a fixity and its operators. A
    ``prefix`` operator takes an operand of its own level, ``left`` ones
    associate to the left and ``once`` ones (the comparisons) do not chain.
    """

    def __init__(self, primary, *levels):
        self.primary = primary
        self.prefix = {}
        self.infix = {}  # operator -> (its level, the ceiling that follows it)
        for level, (fixity, *ops) in enumerate(levels):
            for op in ops:
                if fixity == "prefix":
                    self.prefix[op] = level
                else:
                    self.infix[op] = (level, level if fixity == "once" else level + 1)
        self.depth = len(levels)

    def parse(self, cur, floor=0):
        """Parse operators of level ``floor`` or tighter (precedence climbing).

        ``ceiling`` bounds the levels that may still follow: after an operator
        of level L, L and looser ones (looser only after a prefix or ``once``
        operator), as in a parser with one function per level.
        """
        tok = cur.peek()
        level = self.prefix.get(tok.kind)
        if level is not None and level >= floor:
            cur.advance()
            left = syntax.Unary(op=tok.kind, operand=self.parse(cur, level), span=_span(tok))
            ceiling = level
        else:
            left = self.primary(cur)
            ceiling = self.depth
        while True:
            tok = cur.peek()
            entry = self.infix.get(tok.kind)
            if entry is None or not floor <= entry[0] < ceiling:
                return left
            cur.advance()
            level, ceiling = entry
            left = syntax.Binary(op=tok.kind, left=left, right=self.parse(cur, level + 1), span=_span(tok))


def _parse_primary(cur):
    tok = cur.peek()
    if tok.kind in ("INT", "DOUBLE"):
        cur.advance()
        return syntax.Lit(value=tok.value, span=_span(tok))
    if tok.kind in ("true", "false"):
        cur.advance()
        return syntax.Lit(value=tok.kind == "true", span=_span(tok))
    if tok.kind in FUNCTIONS:
        cur.advance()
        cur.expect("(")
        args = [parse_expression(cur)]
        while cur.accept(","):
            args.append(parse_expression(cur))
        cur.expect(")")
        return syntax.Call(func=tok.kind, args=args, span=_span(tok))
    if tok.kind == "IDENT":
        cur.advance()
        return syntax.Var(name=tok.value, span=_span(tok))
    if tok.kind == "(":
        cur.advance()
        inner = parse_expression(cur)
        cur.expect(")")
        return inner
    cur.error(f"expected an expression, found {tok.kind!r}")


EXPRESSION = Precedence(
    _parse_primary,
    ("left", "|"),
    ("left", "&"),
    ("prefix", "!"),
    ("once", "=", "!=", "<", "<=", ">", ">="),
    ("left", "+", "-"),
    ("left", "*", "/"),
    ("prefix", "-"),
)
parse_expression = EXPRESSION.parse


# --- program structure ----------------------------------------------------


def parse_program(source):
    """Parse a program from source text."""
    cur = TokenCursor(source)

    tok = cur.expect("dtmc", "ctmc", "mdp")
    model_type = ModelKind(tok.kind)

    constants, formulas, modules, labels, reward_blocks = [], [], [], [], []
    while cur.peek().kind != "EOF":
        kind = cur.peek().kind
        if kind == "const":
            constants.append(_parse_constant(cur))
        elif kind == "formula":
            formulas.append(_parse_formula(cur))
        elif kind == "label":
            labels.append(_parse_label(cur))
        elif kind == "module":
            modules.append(_parse_module(cur))
        elif kind == "rewards":
            reward_blocks.append(_parse_rewards(cur))
        else:
            cur.error(
                "expected 'const', 'formula', 'label', 'module' or 'rewards' "
                f"at top level, found {kind!r}"
            )

    program = syntax.PrismProgram(model_type, constants, formulas, modules, labels, reward_blocks)
    _check_unique_names(program)
    return program


def _parse_constant(cur):
    start = cur.expect("const")
    type_tok = cur.accept("int", "double", "bool")
    ctype = type_tok.kind if type_tok else "int"
    name = cur.expect("IDENT").value
    value = None
    if cur.accept("="):
        value = parse_expression(cur)
    cur.expect(";")
    return syntax.Constant(name, ctype, value, span=_span(start))


def _parse_formula(cur):
    start = cur.expect("formula")
    name = cur.expect("IDENT").value
    cur.expect("=")
    expr = parse_expression(cur)
    cur.expect(";")
    return syntax.Formula(name, expr, span=_span(start))


def _parse_label(cur):
    start = cur.expect("label")
    name = cur.expect("STRING").value
    cur.expect("=")
    expr = parse_expression(cur)
    cur.expect(";")
    return syntax.LabelDef(name, expr, span=_span(start))


def _parse_module(cur):
    start = cur.expect("module")
    name = cur.expect("IDENT").value
    variables = []
    commands = []
    while not cur.accept("endmodule"):
        if cur.peek().kind == "EOF":
            cur.error(f"expected 'endmodule' to close module {name!r}")
        if cur.peek().kind == "IDENT" and cur.peek(1).kind == ":":
            variables.append(_parse_vardecl(cur))
        elif cur.peek().kind == "[":
            commands.append(_parse_command(cur))
        else:
            cur.error("expected a variable declaration or a command")
    return syntax.Module(name, variables, commands, span=_span(start))


def _parse_vardecl(cur):
    name_tok = cur.expect("IDENT")
    cur.expect(":")
    if cur.accept("bool"):
        is_bool, low, high = True, None, None
    else:
        cur.expect("[")
        low = parse_expression(cur)
        cur.expect("..")
        high = parse_expression(cur)
        cur.expect("]")
        is_bool = False
    cur.expect("init")
    init = parse_expression(cur)
    cur.expect(";")
    return syntax.VarDecl(name_tok.value, is_bool, low, high, init, span=_span(name_tok))


def _parse_command(cur):
    start = cur.expect("[")
    action = None
    tok = cur.accept("IDENT")
    if tok:
        action = tok.value
    cur.expect("]")
    guard = parse_expression(cur)
    cur.expect("->")
    updates = [_parse_update(cur)]
    while cur.accept("+"):
        updates.append(_parse_update(cur))
    cur.expect(";")
    return syntax.Command(action, guard, updates, span=_span(start))


def _parse_update(cur):
    start = cur.peek()
    weight = None
    # an update is optionally `expr :` followed by an assignment list
    mark = cur.pos
    try:
        candidate = parse_expression(cur)
        if cur.accept(":"):
            weight = candidate
        else:
            cur.pos = mark
    except ParseError:
        cur.pos = mark

    if cur.accept("true"):
        return syntax.Update(weight, [], span=_span(start))
    assignments = [_parse_assignment(cur)]
    while cur.accept("&"):
        assignments.append(_parse_assignment(cur))
    seen = set()
    for var, _ in assignments:
        if var in seen:
            raise ParseError(
                f"variable {var!r} assigned twice in one update branch",
                line=start.line,
                column=start.column,
            )
        seen.add(var)
    return syntax.Update(weight, assignments, span=_span(start))


def _parse_assignment(cur):
    cur.expect("(")
    name = cur.expect("IDENT").value
    cur.expect("'")
    cur.expect("=")
    expr = parse_expression(cur)
    cur.expect(")")
    return (name, expr)


def _parse_rewards(cur):
    start = cur.expect("rewards")
    name_tok = cur.accept("STRING")
    name = name_tok.value if name_tok else ""
    items = []
    while not cur.accept("endrewards"):
        if cur.peek().kind == "EOF":
            cur.error("expected 'endrewards' to close the rewards block")
        if cur.peek().kind == "[":
            item_start = cur.advance()
            action_tok = cur.accept("IDENT")
            cur.expect("]")
            guard = parse_expression(cur)
            cur.expect(":")
            expr = parse_expression(cur)
            cur.expect(";")
            items.append(
                syntax.RewardItem(
                    action_tok.value if action_tok else "",
                    True,
                    guard,
                    expr,
                    span=_span(item_start),
                )
            )
        else:
            item_start = cur.peek()
            guard = parse_expression(cur)
            cur.expect(":")
            expr = parse_expression(cur)
            cur.expect(";")
            items.append(syntax.RewardItem(None, False, guard, expr, span=_span(item_start)))
    return syntax.RewardBlock(name, items, span=_span(start))


def _check_unique_names(program):
    seen = {}
    def claim(name, what, span):
        if name in seen:
            raise ParseError(
                f"{what} {name!r} clashes with an earlier {seen[name]}",
                line=span[0] if span else None,
                column=span[1] if span else None,
            )
        seen[name] = what

    for c in program.constants:
        claim(c.name, "constant", c.span)
    for f in program.formulas:
        claim(f.name, "formula", f.span)
    module_names = set()
    for module in program.modules:
        if module.name in module_names:
            raise ParseError(
                f"module {module.name!r} declared twice",
                line=module.span[0] if module.span else None,
            )
        module_names.add(module.name)
        for v in module.variables:
            claim(v.name, "variable", v.span)
    label_names = set()
    for lab in program.labels:
        if lab.name in label_names:
            raise ParseError(
                f"label {lab.name!r} declared twice",
                line=lab.span[0] if lab.span else None,
            )
        label_names.add(lab.name)
    reward_names = set()
    for block in program.reward_blocks:
        if block.name in reward_names:
            raise ParseError(f"rewards block {block.name!r} declared twice")
        reward_names.add(block.name)
