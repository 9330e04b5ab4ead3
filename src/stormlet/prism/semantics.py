"""Type checking, constant folding and expression compilation.

typecheck() closes all constants (using caller-supplied bindings for the
undefined ones), inlines formulas, and annotates every expression with its
type. compile_expr() turns an expression, once, into a closure over a table
of per-variable columns that evaluates it on a subset of the table's rows,
one numpy operation per operator for all of them. The same closures drive
exploration (over a BFS layer), labels, rewards and property predicates
(over all states) and eval_expr (over a one-row table), so the operator
semantics is stated once. Every value is the one Python's operators give on
the row's values: evaluation is exact for booleans and integers, and doubles
evaluate to float64 normally and to Fraction in exact mode.
"""

import math
from fractions import Fraction

import numpy as np

from ..errors import ModelError, StormletError
from . import syntax
from .syntax import replace

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
    constants = {}  # name -> its value as a typed literal
    var_types = {}
    formula_exprs = {}
    formulas = {}  # name -> typed expression, or None while it is being typed

    def lookup(var):
        """The typed node a name stands for: a constant's value, a variable
        or a formula's typed expression. While constants are closed, only
        the constants before them are defined."""
        name = var.name
        if name in constants:
            return replace(constants[name], span=var.span)
        if name not in formula_exprs:
            return _variable(var, var_types)
        if name not in formulas:
            formulas[name] = None
            formulas[name] = _type_expr(formula_exprs[name], lookup)
        elif formulas[name] is None:
            raise TypecheckError(f"cyclic formula definition involving {name!r}", var.span)
        return formulas[name]

    def tc(expr):
        return _type_expr(expr, lookup)

    for const in program.constants:
        if const.name in bindings:
            value = bindings.pop(const.name)
        elif const.value is not None:
            value = eval_expr(tc(const.value), exact=True)
        else:
            raise TypecheckError(f"undefined constant {const.name!r} needs a binding", const.span)
        constants[const.name] = syntax.Lit(value=_coerce_constant(const, value), type=const.type)
    if bindings:
        unknown = ", ".join(sorted(bindings))
        raise TypecheckError(f"bindings given for unknown constants: {unknown}")

    for decl in program.all_variables():
        var_types[decl.name] = "bool" if decl.is_bool else "int"
    formula_exprs.update((f.name, f.expr) for f in program.formulas)

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
        [replace(c, value=constants[c.name]) for c in program.constants],
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


def _type_expr(expr, lookup):
    """A typed copy of an expression; ``lookup(var)`` gives the typed node
    that an identifier stands for, or raises."""
    if isinstance(expr, syntax.Lit):
        if isinstance(expr.value, bool):
            t = "bool"
        elif isinstance(expr.value, int):
            t = "int"
        else:
            t = "double"
        return replace(expr, type=t)
    if isinstance(expr, syntax.Var):
        return lookup(expr)
    if isinstance(expr, syntax.Unary):
        operand = _type_expr(expr.operand, lookup)
        if expr.op == "!":
            if operand.type != "bool":
                raise TypecheckError("'!' needs a boolean operand", expr.span)
            return replace(expr, operand=operand, type="bool")
        if operand.type not in NUMERIC:
            raise TypecheckError("unary '-' needs a numeric operand", expr.span)
        return replace(expr, operand=operand, type=operand.type)
    if isinstance(expr, syntax.Binary):
        left = _type_expr(expr.left, lookup)
        right = _type_expr(expr.right, lookup)
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
        args = [_type_expr(a, lookup) for a in expr.args]
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


def typecheck_expr(expr, var_types):
    """Type an expression over variables of the given types (a property
    predicate); it may name no constant or formula."""
    return _type_expr(expr, lambda var: _variable(var, var_types))


def _variable(var, var_types):
    if var.name not in var_types:
        raise TypecheckError(f"unknown identifier {var.name!r}", var.span)
    return replace(var, type=var_types[var.name])


# --- the column compiler ---------------------------------------------------
#
# A column is a 1-D numpy array. bool columns are numpy bools. An int column is
# int64 while every value is within +-2^53, where int64 arithmetic cannot wrap
# and the conversion to float64 is exact, and an object array of Python ints
# otherwise. A double column is float64, or in exact mode an object array of
# Fractions. An object column in float mode (a big int, or a min/max that
# mixes ints and doubles and keeps the winner's type) evaluates element by
# element with Python's operators, so every value is the one Python gives.

EXACT_INT = 2**53

_UFUNC = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "=": np.equal, "!=": np.not_equal,
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def _where(span):
    return f" (line {span[0]}, column {span[1]})" if span else ""


def _fits(values):
    """Whether an int64 column stays within +-2^53."""
    return not len(values) or (-EXACT_INT <= values.min() and values.max() <= EXACT_INT)


def _int_column(values):
    """An int column from a list of Python ints."""
    fits = all(-EXACT_INT <= v <= EXACT_INT for v in values)
    return np.array(values, dtype=np.int64 if fits else object)


def _each(fn, *columns):
    """An object column of fn applied to the Python values of each row."""
    out = np.empty(len(columns[0]), dtype=object)
    out[:] = [fn(*values) for values in zip(*(c.tolist() for c in columns))]
    return out


def _constant(value, n):
    if isinstance(value, bool):
        dtype = bool
    elif isinstance(value, int) and -EXACT_INT <= value <= EXACT_INT:
        dtype = np.int64
    else:
        dtype = np.float64 if isinstance(value, float) else object
    out = np.empty(n, dtype=dtype)
    out.fill(value)
    return out


def compile_expr(expr, slots, exact=False, bounds=None):
    """Compile a typed expression into a closure ``f(table, rows)``.

    ``table`` holds one column per variable, at the position ``slots`` gives
    its name; ``rows`` is an int array of the table rows to evaluate, and the
    closure returns one value per row, as a column. ``bounds`` may give the
    (low, high) range of int variables: integer arithmetic whose result
    provably stays within +-2^53 then skips its range check. Literals are converted
    once, here: a double literal becomes a float, or stays a Fraction in
    exact mode. ``&`` and ``|`` evaluate a right operand that may raise only
    on the rows that need it; ``/`` and ``mod`` by zero raise DivisionByZero; a double
    ``pow`` whose value is not a finite real, and an integer too large for a
    float met in float arithmetic, raise ModelError. This is the only
    statement of the operator semantics: every value is the one Python's
    operators give on the row's values.
    """
    if isinstance(expr, syntax.Lit):
        value = expr.value
        if isinstance(value, Fraction) and not exact:
            value = float(value)
        return lambda table, rows: _constant(value, len(rows))
    if isinstance(expr, syntax.Var):
        if expr.name not in slots:
            raise TypecheckError(f"unknown identifier {expr.name!r}", expr.span)
        slot = slots[expr.name]
        return lambda table, rows: table[slot][rows]
    if isinstance(expr, syntax.Unary):
        operand = compile_expr(expr.operand, slots, exact, bounds)
        if expr.op == "!":
            return lambda table, rows: ~operand(table, rows)
        return lambda table, rows: -operand(table, rows)
    if isinstance(expr, syntax.Binary):
        left, right = (compile_expr(e, slots, exact, bounds) for e in (expr.left, expr.right))
        return _binary(expr, left, right, exact, bounds or {})
    if isinstance(expr, syntax.Call):
        return _call(expr, [compile_expr(a, slots, exact, bounds) for a in expr.args], exact)
    raise StormletError(f"cannot evaluate {type(expr).__name__}")


def _interval(expr, bounds):
    """A (low, high) that holds every value of an int expression, or None."""
    if expr.type != "int":
        return None
    if isinstance(expr, syntax.Lit):
        return expr.value, expr.value
    if isinstance(expr, syntax.Var):
        return bounds.get(expr.name)
    if isinstance(expr, syntax.Unary):
        inner = _interval(expr.operand, bounds)
        return inner and (-inner[1], -inner[0])
    if isinstance(expr, syntax.Binary):
        a, b = _interval(expr.left, bounds), _interval(expr.right, bounds)
        if a is None or b is None:
            return None
        if expr.op == "+":
            return a[0] + b[0], a[1] + b[1]
        if expr.op == "-":
            return a[0] - b[1], a[1] - b[0]
        corners = [x * y for x in a for y in b]
        return min(corners), max(corners)
    if expr.func in ("min", "max"):
        intervals = [_interval(arg, bounds) for arg in expr.args]
        if None in intervals:
            return None
        pick = min if expr.func == "min" else max
        return pick(low for low, _ in intervals), pick(high for _, high in intervals)
    return None


def _may_raise(expr, bounds):
    """Whether evaluating an expression may raise: it divides, calls a
    function, or does arithmetic not proven to stay within +-2^53."""
    if isinstance(expr, syntax.Unary):
        return _may_raise(expr.operand, bounds)
    if isinstance(expr, syntax.Binary):
        if expr.op == "/" or expr.op in "+-*" and not _within_exact_int(_interval(expr, bounds)):
            return True
        return _may_raise(expr.left, bounds) or _may_raise(expr.right, bounds)
    return isinstance(expr, syntax.Call)


def _within_exact_int(interval):
    return interval is not None and -EXACT_INT <= interval[0] and interval[1] <= EXACT_INT


def _binary(expr, left, right, exact, bounds):
    op = expr.op
    if op in ("&", "|"):
        conjunction = op == "&"
        if not _may_raise(expr.right, bounds):
            # on the rows the left operand decides, the right one changes nothing
            both = np.logical_and if conjunction else np.logical_or
            return lambda table, rows: both(left(table, rows), right(table, rows))

        # the right operand decides only the rows that the left one does not

        def logical(table, rows):
            holds = left(table, rows)
            open_ = (holds if conjunction else ~holds).nonzero()[0]
            if len(open_) == len(rows):
                return right(table, rows)
            if len(open_):
                holds = holds.copy()
                holds[open_] = right(table, rows[open_])
            return holds
        return logical
    too_large = f"an operand of {op!r} is an integer too large for a float{_where(expr.span)}"
    if op == "/":
        def divide(table, rows):
            a, b = left(table, rows), right(table, rows)
            if (b == 0).any():
                raise DivisionByZero("division by zero")
            if exact:
                return _each(lambda x, y: Fraction(x) / Fraction(y), a, b)
            try:
                return np.true_divide(a, b)
            except OverflowError:
                raise ModelError(too_large) from None
        return divide
    fn = _UFUNC[op]
    integer = expr.type == "int"
    # a literal met with a non-literal operand enters the ufunc as a Python scalar
    is_scalar, value = _scalar(expr.left, expr.right, exact)
    if is_scalar:
        left = lambda table, rows, value=value: value  # noqa: E731
    is_scalar, value = _scalar(expr.right, expr.left, exact)
    if is_scalar:
        right = lambda table, rows, value=value: value  # noqa: E731

    if op not in "+-*" or _within_exact_int(_interval(expr, bounds)):
        # a comparison never raises, and int arithmetic whose result provably
        # stays within +-2^53 has int64 operands (or small literals) and result
        return lambda table, rows: fn(left(table, rows), right(table, rows))

    def apply(table, rows):
        a, b = left(table, rows), right(table, rows)
        if integer and _int64(a) and _int64(b):
            if op != "*" or _magnitude(a) * _magnitude(b) <= EXACT_INT:
                out = fn(a, b)
                return out if _fits(out) else out.astype(object)
            if isinstance(a, np.ndarray):
                a = a.astype(object)
            else:
                b = b.astype(object)
        try:
            return fn(a, b)
        except OverflowError:
            raise ModelError(too_large) from None
    return apply


def _scalar(node, other, exact):
    """(True, value) for a literal that may enter a ufunc as a Python scalar
    beside the column of a non-literal ``other``; else (False, None)."""
    if not isinstance(node, syntax.Lit) or isinstance(other, syntax.Lit):
        return False, None
    value = node.value
    if isinstance(value, Fraction) and not exact:
        value = float(value)
    if isinstance(value, (bool, float)) or (isinstance(value, int) and -EXACT_INT <= value <= EXACT_INT):
        return True, value
    return False, None


def _int64(operand):
    """Whether an int operand is an int64 column or a small Python int."""
    return isinstance(operand, int) or operand.dtype == np.int64


def _magnitude(operand):
    if isinstance(operand, int):
        return abs(operand)
    return max(-int(operand.min()), int(operand.max()), 0) if len(operand) else 0


def _call(expr, args, exact):
    fn = expr.func
    if fn in ("min", "max"):
        better = np.less if fn == "min" else np.greater
        # Python's min and max return an argument itself: with ints and doubles
        # mixed, the columns go to objects so that each row keeps its winner's type
        mixed = len({a.type for a in expr.args}) > 1

        def pick(table, rows):
            out = None
            for arg in args:
                value = arg(table, rows)
                if mixed:
                    value = value.astype(object)
                # a later argument replaces the current one only when strictly better
                out = value if out is None else np.where(better(value, out), value, out)
            return out
        return pick
    if fn in ("floor", "ceil"):
        arg = args[0]
        if expr.args[0].type == "int":
            return arg
        rounding = math.floor if fn == "floor" else math.ceil
        ufunc = np.floor if fn == "floor" else np.ceil

        def round_(table, rows):
            value = arg(table, rows)
            if value.dtype == np.float64:
                out = ufunc(value)
                if np.isfinite(out).all() and _fits(out):
                    return out.astype(np.int64)
            try:
                return _int_column([rounding(v) for v in value.tolist()])
            except (OverflowError, ValueError):
                raise ModelError(f"{fn} of a value that is not finite{_where(expr.span)}") from None
        return round_
    if fn == "mod":
        def modulo(table, rows):
            a, b = args[0](table, rows), args[1](table, rows)
            if (b == 0).any():
                raise DivisionByZero("mod by zero")
            return np.mod(a, b)
        return modulo
    where = _where(expr.span)
    if expr.type == "int":
        def integer_power(table, rows):
            base, exp = args[0](table, rows), args[1](table, rows)
            if (exp < 0).any():
                raise DivisionByZero("negative integer exponent")
            return _int_column([b**e for b, e in zip(base.tolist(), exp.tolist())])
        return integer_power

    def power(base, exp):
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

    def double_power(table, rows):
        # Python's float ** per row: numpy's vectorised power may differ in the last ulp
        out = _each(power, args[0](table, rows), args[1](table, rows))
        return out if exact else out.astype(np.float64)
    return double_power


def evaluate_rows(step, rows):
    """``step(rows)``; if it raises, ``step`` runs again on one row at a time,
    so that the error raised is that of the first row that fails alone."""
    try:
        return step(rows)
    except StormletError:
        for k in range(len(rows)):
            step(rows[k: k + 1])
        raise


_ONE_ROW = np.zeros(1, dtype=np.int64)


def eval_expr(expr, *, exact=False):
    """Value of a closed expression (constants, bounds, initial values), as a Python value."""
    with np.errstate(all="ignore"):
        return compile_expr(expr, {}, exact)([], _ONE_ROW).tolist()[0]
