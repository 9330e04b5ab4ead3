"""Type checking, constant folding and expression evaluation.

typecheck() closes all constants (using caller-supplied bindings for the
undefined ones), inlines formulas, and annotates every expression with its
type. Evaluation is exact for booleans and integers; doubles evaluate to
float64 normally and to Fraction in exact mode.
"""

from dataclasses import replace
from fractions import Fraction

from ..errors import ParseError, StormletError
from . import syntax

NUMERIC = ("int", "double")
# labels every explored model defines itself
RESERVED_LABELS = ("init", "deadlock")


class TypecheckError(StormletError):
    def __init__(self, message, span=None):
        if span:
            message += f" (line {span[0]}, column {span[1]})"
        super().__init__(message)


class DivisionByZero(StormletError):
    pass


def _join(a, b, span):
    if a == b:
        return a
    if {a, b} == {"int", "double"}:
        return "double"
    raise TypecheckError(f"cannot combine types {a} and {b}", span)


def typecheck(program, constant_bindings=None):
    """Return a copy of the program with closed constants and typed expressions."""
    bindings = dict(constant_bindings or {})
    const_values = {}
    const_types = {}
    for const in program.constants:
        if const.name in bindings:
            value = bindings.pop(const.name)
            value = _coerce_constant(const, value)
        elif const.value is not None:
            expr = _type_expr(const.value, {}, const_values, const_types, {})
            value = eval_expr(expr, {}, exact=True)
            value = _coerce_constant(const, value)
        else:
            raise TypecheckError(f"undefined constant {const.name!r} needs a binding", const.span)
        const_values[const.name] = value
        const_types[const.name] = const.type
    if bindings:
        unknown = ", ".join(sorted(bindings))
        raise TypecheckError(f"bindings given for unknown constants: {unknown}")

    var_types = {}
    for decl in program.all_variables():
        var_types[decl.name] = "bool" if decl.is_bool else "int"

    formulas = {}
    formula_exprs = {f.name: f.expr for f in program.formulas}
    resolving = []

    def resolve_formula(name, span):
        if name in formulas:
            return formulas[name]
        if name in resolving:
            raise TypecheckError(f"cyclic formula definition involving {name!r}", span)
        resolving.append(name)
        typed = _type_expr(
            formula_exprs[name], var_types, const_values, const_types, formula_exprs, resolve_formula
        )
        resolving.pop()
        formulas[name] = typed
        return typed

    def tc(expr):
        return _type_expr(expr, var_types, const_values, const_types, formula_exprs, resolve_formula)

    typed_modules = []
    for module in program.modules:
        typed_vars = []
        for decl in module.variables:
            low = high = None
            if not decl.is_bool:
                low = tc(decl.low)
                high = tc(decl.high)
                for e, what in ((low, "lower"), (high, "upper")):
                    if e.type != "int":
                        raise TypecheckError(f"{what} variable bound must be an integer", decl.span)
            init = tc(decl.init)
            want = "bool" if decl.is_bool else "int"
            if init.type != want:
                raise TypecheckError(
                    f"init of variable {decl.name!r} has type {init.type}, expected {want}", decl.span
                )
            typed_vars.append(replace(decl, low=low, high=high, init=init))
        typed_cmds = []
        for cmd in module.commands:
            guard = tc(cmd.guard)
            if guard.type != "bool":
                raise TypecheckError("command guard must be boolean", cmd.span)
            typed_updates = []
            for upd in cmd.updates:
                weight = tc(upd.weight) if upd.weight is not None else None
                if weight is not None and weight.type not in NUMERIC:
                    raise TypecheckError("update weight must be numeric", upd.span)
                assignments = []
                for var, rhs in upd.assignments:
                    if var not in var_types:
                        raise TypecheckError(f"assignment to unknown variable {var!r}", upd.span)
                    typed_rhs = tc(rhs)
                    if var_types[var] == "bool" and typed_rhs.type != "bool":
                        raise TypecheckError(f"boolean variable {var!r} assigned {typed_rhs.type}", upd.span)
                    if var_types[var] == "int" and typed_rhs.type != "int":
                        raise TypecheckError(f"integer variable {var!r} assigned {typed_rhs.type}", upd.span)
                    assignments.append((var, typed_rhs))
                typed_updates.append(replace(upd, weight=weight, assignments=assignments))
            typed_cmds.append(replace(cmd, guard=guard, updates=typed_updates))
        typed_modules.append(replace(module, variables=typed_vars, commands=typed_cmds))

    typed_labels = []
    for lab in program.labels:
        if lab.name in RESERVED_LABELS:
            raise TypecheckError(f'label "{lab.name}" is reserved', lab.span)
        expr = tc(lab.expr)
        if expr.type != "bool":
            raise TypecheckError(f"label {lab.name!r} must be boolean", lab.span)
        typed_labels.append(replace(lab, expr=expr))

    typed_rewards = []
    for block in program.reward_blocks:
        items = []
        for item in block.items:
            guard = tc(item.guard)
            if guard.type != "bool":
                raise TypecheckError("reward guard must be boolean", item.span)
            expr = tc(item.expr)
            if expr.type not in NUMERIC:
                raise TypecheckError("reward expression must be numeric", item.span)
            items.append(replace(item, guard=guard, expr=expr))
        typed_rewards.append(replace(block, items=items))

    return syntax.PrismProgram(
        program.model_type,
        [replace(c, value=syntax.Lit(value=const_values[c.name], type=c.type)) for c in program.constants],
        [],  # formulas are fully inlined
        typed_modules,
        typed_labels,
        typed_rewards,
    )


def _coerce_constant(const, value):
    if const.type == "bool":
        if not isinstance(value, bool):
            raise TypecheckError(f"constant {const.name!r} must be boolean", const.span)
        return value
    if const.type == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, Fraction) and value.denominator == 1:
                return int(value)
            raise TypecheckError(f"constant {const.name!r} must be an integer", const.span)
        return value
    if isinstance(value, bool):
        raise TypecheckError(f"constant {const.name!r} must be numeric", const.span)
    return Fraction(value)


def _type_expr(expr, var_types, const_values, const_types, formula_exprs, resolve_formula=None):
    if isinstance(expr, syntax.Lit):
        if isinstance(expr.value, bool):
            t = "bool"
        elif isinstance(expr.value, int):
            t = "int"
        else:
            t = "double"
        return replace(expr, type=t)
    if isinstance(expr, syntax.Var):
        name = expr.name
        if name in const_values:
            return syntax.Lit(value=const_values[name], type=const_types[name], span=expr.span)
        if name in var_types:
            return replace(expr, type=var_types[name])
        if formula_exprs is not None and name in formula_exprs and resolve_formula is not None:
            return resolve_formula(name, expr.span)
        raise TypecheckError(f"unknown identifier {name!r}", expr.span)
    if isinstance(expr, syntax.Unary):
        operand = _type_expr(expr.operand, var_types, const_values, const_types, formula_exprs, resolve_formula)
        if expr.op == "!":
            if operand.type != "bool":
                raise TypecheckError("'!' needs a boolean operand", expr.span)
            return replace(expr, operand=operand, type="bool")
        if operand.type not in NUMERIC:
            raise TypecheckError("unary '-' needs a numeric operand", expr.span)
        return replace(expr, operand=operand, type=operand.type)
    if isinstance(expr, syntax.Binary):
        left = _type_expr(expr.left, var_types, const_values, const_types, formula_exprs, resolve_formula)
        right = _type_expr(expr.right, var_types, const_values, const_types, formula_exprs, resolve_formula)
        op = expr.op
        if op in ("&", "|"):
            if left.type != "bool" or right.type != "bool":
                raise TypecheckError(f"{op!r} needs boolean operands", expr.span)
            t = "bool"
        elif op in ("=", "!="):
            _join(left.type, right.type, expr.span)
            t = "bool"
        elif op in ("<", "<=", ">", ">="):
            if left.type not in NUMERIC or right.type not in NUMERIC:
                raise TypecheckError(f"{op!r} needs numeric operands", expr.span)
            t = "bool"
        elif op == "/":
            if left.type not in NUMERIC or right.type not in NUMERIC:
                raise TypecheckError("'/' needs numeric operands", expr.span)
            t = "double"
        else:
            if left.type not in NUMERIC or right.type not in NUMERIC:
                raise TypecheckError(f"{op!r} needs numeric operands", expr.span)
            t = _join(left.type, right.type, expr.span)
        return replace(expr, left=left, right=right, type=t)
    if isinstance(expr, syntax.Call):
        args = [
            _type_expr(a, var_types, const_values, const_types, formula_exprs, resolve_formula)
            for a in expr.args
        ]
        fn = expr.func
        if fn in ("min", "max"):
            if len(args) < 2:
                raise TypecheckError(f"{fn} needs at least two arguments", expr.span)
            t = args[0].type
            for a in args[1:]:
                t = _join(t, a.type, expr.span)
            if t not in NUMERIC:
                raise TypecheckError(f"{fn} needs numeric arguments", expr.span)
        elif fn in ("floor", "ceil"):
            if len(args) != 1 or args[0].type not in NUMERIC:
                raise TypecheckError(f"{fn} needs one numeric argument", expr.span)
            t = "int"
        elif fn == "pow":
            if len(args) != 2 or any(a.type not in NUMERIC for a in args):
                raise TypecheckError("pow needs two numeric arguments", expr.span)
            t = "int" if args[0].type == args[1].type == "int" else "double"
        elif fn == "mod":
            if len(args) != 2 or any(a.type != "int" for a in args):
                raise TypecheckError("mod needs two integer arguments", expr.span)
            t = "int"
        else:
            raise TypecheckError(f"unknown function {fn!r}", expr.span)
        return replace(expr, args=args, type=t)
    raise TypecheckError(f"cannot type {type(expr).__name__}")


def eval_expr(expr, valuation, exact=False):
    """Evaluate a typechecked expression under a variable valuation."""
    if isinstance(expr, syntax.Lit):
        v = expr.value
        if isinstance(v, Fraction) and not exact:
            return float(v)
        return v
    if isinstance(expr, syntax.Var):
        return valuation[expr.name]
    if isinstance(expr, syntax.Unary):
        v = eval_expr(expr.operand, valuation, exact)
        return (not v) if expr.op == "!" else -v
    if isinstance(expr, syntax.Binary):
        op = expr.op
        left = eval_expr(expr.left, valuation, exact)
        if op == "&":
            return bool(left) and bool(eval_expr(expr.right, valuation, exact))
        if op == "|":
            return bool(left) or bool(eval_expr(expr.right, valuation, exact))
        right = eval_expr(expr.right, valuation, exact)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise DivisionByZero("division by zero")
            if exact:
                return Fraction(left) / Fraction(right)
            return left / right
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if isinstance(expr, syntax.Call):
        args = [eval_expr(a, valuation, exact) for a in expr.args]
        fn = expr.func
        if fn == "min":
            return min(args)
        if fn == "max":
            return max(args)
        if fn == "floor":
            import math

            return math.floor(args[0])
        if fn == "ceil":
            import math

            return math.ceil(args[0])
        if fn == "mod":
            if args[1] == 0:
                raise DivisionByZero("mod by zero")
            return args[0] % args[1]
        # pow
        base, exp = args
        if expr.type == "int":
            if exp < 0:
                raise DivisionByZero("negative integer exponent")
            return base ** exp
        if exact:
            if isinstance(exp, int) or (isinstance(exp, Fraction) and exp.denominator == 1):
                return Fraction(base) ** int(exp)
            return Fraction(float(base) ** float(exp))
        return float(base) ** float(exp)
    raise StormletError(f"cannot evaluate {type(expr).__name__}")
