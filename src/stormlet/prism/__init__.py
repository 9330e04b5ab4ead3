"""Frontend for a subset of the PRISM modelling language."""

from .explore import ExploreOptions, build_label_bitsets, build_reward_models, explore
from .lexer import tokenize
from .parser import parse_program
from .semantics import compile_expr, eval_expr, typecheck

__all__ = [
    "ExploreOptions",
    "build_label_bitsets",
    "build_reward_models",
    "compile_expr",
    "eval_expr",
    "explore",
    "parse_program",
    "tokenize",
    "typecheck",
]
