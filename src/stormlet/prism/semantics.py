"""Type checking, constant folding and expression compilation.

typecheck() closes all constants (using caller-supplied bindings for the
undefined ones), inlines formulas, and annotates every expression with its
type. compile_expr() turns an expression into a closure over a valuation
tuple once, before any state is visited; no expression tree is walked per
state. Evaluation is exact for booleans and integers; doubles evaluate to
float64 normally and to Fraction in exact mode.
"""

import math
import operator
from dataclasses import replace
from fractions import Fraction

from ..errors import ModelError, ParseError, StormletError
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
            value = eval_expr(expr, exact=True)
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


# operators whose closure is just the Python operator on the two operand values
_PLAIN = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def compile_expr(expr, slots, exact=False):
    """Compile an expression into a closure over a valuation tuple.

    ``slots`` maps each variable name to its position in the tuple. Literals
    are converted once, here: a double literal becomes a float, or stays a
    Fraction in exact mode. ``&`` and ``|`` short-circuit; ``/`` and ``mod``
    by zero raise DivisionByZero; a double ``pow`` whose value is not a
    finite real raises ModelError. This is the only statement of the
    operator semantics.
    """
    if isinstance(expr, syntax.Lit):
        value = expr.value
        if isinstance(value, Fraction) and not exact:
            value = float(value)
        return lambda v: value
    if isinstance(expr, syntax.Var):
        if expr.name not in slots:
            raise TypecheckError(f"unknown identifier {expr.name!r}", expr.span)
        return operator.itemgetter(slots[expr.name])
    if isinstance(expr, syntax.Unary):
        operand = compile_expr(expr.operand, slots, exact)
        if expr.op == "!":
            return lambda v: not operand(v)
        return lambda v: -operand(v)
    if isinstance(expr, syntax.Binary):
        op = expr.op
        left = compile_expr(expr.left, slots, exact)
        right = compile_expr(expr.right, slots, exact)
        if op == "&":
            return lambda v: bool(left(v)) and bool(right(v))
        if op == "|":
            return lambda v: bool(left(v)) or bool(right(v))
        if op == "/":
            def divide(v):
                a, b = left(v), right(v)
                if b == 0:
                    raise DivisionByZero("division by zero")
                return Fraction(a) / Fraction(b) if exact else a / b
            return divide
        fn = _PLAIN[op]
        if isinstance(expr.right, syntax.Lit):
            constant = right(())
            return lambda v: fn(left(v), constant)
        return lambda v: fn(left(v), right(v))
    if isinstance(expr, syntax.Call):
        args = [compile_expr(a, slots, exact) for a in expr.args]
        fn = expr.func
        if fn in ("min", "max"):
            pick = min if fn == "min" else max
            return lambda v: pick([a(v) for a in args])
        if fn in ("floor", "ceil"):
            rounding = math.floor if fn == "floor" else math.ceil
            arg = args[0]
            return lambda v: rounding(arg(v))
        if fn == "mod":
            def modulo(v):
                a, b = args[0](v), args[1](v)
                if b == 0:
                    raise DivisionByZero("mod by zero")
                return a % b
            return modulo
        integer = expr.type == "int"
        where = f" (line {expr.span[0]}, column {expr.span[1]})" if expr.span else ""

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
            # a negative base with a fractional exponent gives a complex number
            if type(value) is not float or not math.isfinite(value):
                raise ModelError(f"pow({base}, {exp}) is not a finite real{where}")
            return Fraction(value) if exact else value
        return power
    raise StormletError(f"cannot evaluate {type(expr).__name__}")


def eval_expr(expr, *, exact=False):
    """Value of a closed expression (constants, bounds, initial values)."""
    return compile_expr(expr, {}, exact)(())
