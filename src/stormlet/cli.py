"""Command-line interface: load a model, check properties, report results.

Exit codes: 0 all checks completed; 1 usage or parse error, or a model file
that cannot be read or written; 2 some bounded property is false at an
initial state (only with --fail-on-false); 3 numerical non-convergence;
4 semantic model, property or solver error.
"""

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, checkers, props
from .errors import (
    ModelError,
    NotConverged,
    ParseError,
    PropertyError,
    SolverError,
    StormletError,
)
from .prism import parse_program, typecheck
from .prism.lexer import check_size
from .prism.semantics import TypecheckError
from .solvers import SolverEnvironment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY_FALSE = 2
EXIT_NOT_CONVERGED = 3
EXIT_MODEL_ERROR = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# built once per process: parse_args leaves the parser as it was (an append
# action copies its default list before appending), so every call can share it
@functools.cache
def _build_argparser():
    p = _Parser(prog="stormlet", description="Probabilistic model checker for DTMCs, CTMCs and MDPs.")
    src = p.add_argument_group("model input")
    src.add_argument("--explicit", nargs=2, metavar=("TRA", "LAB"),
                     help="explicit transitions file and labels file")
    src.add_argument("--srew", metavar="FILE", help="state rewards file (with --explicit)")
    src.add_argument("--trew", metavar="FILE", help="action rewards file (with --explicit)")
    src.add_argument("--prism", metavar="FILE", help="program file in the supported language subset")
    src.add_argument("--constants", metavar="K=V,...", default="",
                     help="comma-separated bindings for undefined program constants")
    prop = p.add_argument_group("properties")
    prop.add_argument("--prop", action="append", default=[], metavar="PROPERTY",
                      help="property string (repeatable)")
    prop.add_argument("--prop-file", metavar="FILE", help="property file, one property per line")
    solver = p.add_argument_group("solver")
    solver.add_argument("--minmax", choices=["vi", "pi"], default="pi",
                        help="Bellman equation method (value/policy iteration)")
    solver.add_argument("--precision", type=float, default=1e-6)
    solver.add_argument("--absolute", action="store_true",
                        help="absolute instead of relative convergence criterion")
    solver.add_argument("--max-iter", type=int, default=1_000_000)
    solver.add_argument("--exact", action="store_true",
                        help="exact rational arithmetic end to end")
    p.add_argument("--fix-deadlocks", action="store_true",
                   help="patch deadlock states with a self-loop instead of failing")
    p.add_argument("--fail-on-false", action="store_true",
                   help="exit with code 2 if a bounded property is false at an initial state")
    p.add_argument("--export-model", metavar="DIR",
                   help="write the built model in explicit format to this directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--version", action="version", version=f"stormlet {__version__}")
    return p


def _parse_constants(text):
    constants = {}
    if not text:
        return constants
    for part in text.split(","):
        if "=" not in part:
            raise ParseError(f"constant binding {part!r} is not of the form name=value")
        name, value = part.split("=", 1)
        name = name.strip()
        value = value.strip()
        if not name:
            raise ParseError(f"empty constant name in {part!r}")
        if value in ("true", "false"):
            constants[name] = value == "true"
        else:
            try:
                constants[name] = int(value)
            except ValueError:
                try:
                    check_size(value)
                    constants[name] = Fraction(value)
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"cannot parse constant value {value!r}")
    return constants


def parse_args(argv):
    """The options, with ``properties`` (from --prop and --prop-file) and
    ``constants`` (a dict) filled in, and the solver environment."""
    ns = _build_argparser().parse_args(argv)
    if (ns.explicit is None) == (ns.prism is None):
        _fail_usage("exactly one of --explicit and --prism is required")
    if ns.prism is None and ns.constants:
        _fail_usage("--constants needs --prism")
    if (ns.srew or ns.trew) and ns.explicit is None:
        _fail_usage("--srew/--trew need --explicit")

    properties = list(ns.prop)
    if ns.prop_file:
        try:
            text = Path(ns.prop_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            _fail_usage(f"cannot read property file: {exc}")
        for line in text.splitlines():
            if "//" in line:
                line = line[: line.index("//")]
            line = line.strip()
            if line:
                properties.append(line)
    if not properties:
        _fail_usage("at least one property is required (--prop or --prop-file)")

    # with --exact the matrices are rational, and the solvers then pick
    # exact elimination and policy iteration whatever --minmax says
    env = SolverEnvironment(
        minmax_method="policy_iteration" if ns.minmax == "pi" else "value_iteration",
        precision=ns.precision,
        criterion="absolute" if ns.absolute else "relative",
        max_iterations=ns.max_iter,
    )
    ns.properties = properties
    ns.constants = _parse_constants(ns.constants)
    return ns, env


def _fail_usage(message):
    print(f"stormlet: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def explore(program, options=None):
    """``prism.explore.explore``, loading the explorer on the first call."""
    from .prism.explore import explore

    return explore(program, options)


def _load_model(ns):
    if ns.explicit is not None:
        from . import explicit

        tra, lab = ns.explicit
        bundle = explicit.ExplicitBundle(
            Path(tra).read_text(encoding="utf-8"),
            Path(lab).read_text(encoding="utf-8"),
            Path(ns.srew).read_text(encoding="utf-8") if ns.srew else None,
            Path(ns.trew).read_text(encoding="utf-8") if ns.trew else None,
        )
        model = explicit.build_model(bundle, rational=ns.exact, fix_deadlocks=ns.fix_deadlocks)
        return model, None
    source = Path(ns.prism).read_text(encoding="utf-8")
    program = parse_program(source)
    typed = typecheck(program, ns.constants)
    from .prism.explore import ExploreOptions

    options = ExploreOptions(fix_deadlocks=ns.fix_deadlocks, exact=ns.exact)
    return explore(typed, options)


def _fraction_text(v):
    """v written out in full.

    Python refuses to turn an int of more than 4300 digits into a string;
    that limit guards the parsing of model and property input, so it is
    lifted only while a result is written.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def _value(v, human):
    """A result value as printed, or as a JSON value."""
    if isinstance(v, (bool, np.bool_)):
        return ("true" if v else "false") if human else bool(v)
    if isinstance(v, Fraction):
        return _fraction_text(v)
    v = float(v)
    if math.isinf(v) or math.isnan(v):
        return "inf" if math.isinf(v) else "NaN"
    return f"{v:.6g}" if human else v


def format_result(result, fmt, property_text, initial_states):
    """Render a check result for the given initial states."""
    if fmt == "human":
        lines = [f"Property: {property_text}"]
        for s in initial_states:
            lines.append(f"Result (state {s}): {_value(result.values[s], True)}")
        return "\n".join(lines) + "\n"
    meta = {
        k: v
        for k, v in result.metadata.items()
        if k in ("iterations", "method", "error_bound", "prob0", "prob1", "direction", "poisson_window")
    }
    payload = {
        "property": property_text,
        "values": {str(s): _value(result.values[s], False) for s in initial_states},
        "metadata": meta,
    }
    import json  # only --json output needs it

    return json.dumps(payload, sort_keys=True) + "\n"


def _export(model, directory):
    from . import explicit

    bundle = explicit.write_model(model)
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.tra").write_text(bundle.transitions_text, encoding="utf-8")
    (out / "model.lab").write_text(bundle.labels_text, encoding="utf-8")
    if bundle.state_rewards_text is not None:
        (out / "model.srew").write_text(bundle.state_rewards_text, encoding="utf-8")
    if bundle.action_rewards_text is not None:
        (out / "model.trew").write_text(bundle.action_rewards_text, encoding="utf-8")
    names = list(model.rewards)
    if len(names) > 1:  # the explicit format holds one reward structure; write_model writes the first
        print(f"stormlet: --export-model wrote reward structure {names[0]!r} only; not written: "
              f"{', '.join(map(repr, names[1:]))}", file=sys.stderr)


def run(ns, env):
    """Load the model, check every property and print the results; returns the exit code."""
    try:
        model, state_map = _load_model(ns)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"stormlet: cannot read model file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, TypecheckError) as exc:
        print(f"stormlet: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, StormletError) as exc:
        print(f"stormlet: model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR

    if ns.export_model:
        try:
            _export(model, ns.export_model)
        except OSError as exc:
            print(f"stormlet: cannot write model: {exc}", file=sys.stderr)
            return EXIT_USAGE

    initial = [int(s) for s in np.flatnonzero(model.initial_states)]
    if not initial:
        initial = [0]

    outputs = []
    some_false = False
    for text in ns.properties:
        try:
            ast = props.parse_property(text)
            resolved = props.resolve_atoms(ast, model, state_map)
            result = checkers.check(model, resolved, env)
        except ParseError as exc:
            print(f"stormlet: property parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except NotConverged as exc:
            print(f"stormlet: {exc}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        except (PropertyError, SolverError, ModelError) as exc:
            print(f"stormlet: {exc}", file=sys.stderr)
            return EXIT_MODEL_ERROR
        outputs.append(format_result(result, "json" if ns.json else "human", text, initial))
        values = result.values
        if isinstance(values, np.ndarray) and values.dtype == bool:
            if not all(bool(values[s]) for s in initial):
                some_false = True

    sys.stdout.write("".join(outputs))
    if ns.fail_on_false and some_false:
        return EXIT_PROPERTY_FALSE
    return EXIT_OK


def main(argv=None):
    try:
        ns, env = parse_args(sys.argv[1:] if argv is None else argv)
    except (ParseError, SolverError) as exc:  # SolverError: invalid --precision or --max-iter
        print(f"stormlet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(ns, env)


if __name__ == "__main__":
    sys.exit(main())
