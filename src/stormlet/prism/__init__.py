"""Frontend for a subset of the PRISM modelling language.

The explorer (``ExploreOptions``, ``explore``, ``build_label_bitsets``,
``build_reward_models``) loads on first use, so the property language and an
``--explicit`` run need only the lexer, parser, syntax and semantics.
"""

import importlib
import sys
import types

from .lexer import tokenize
from .parser import parse_program
from .semantics import compile_expr, eval_expr, typecheck

_EXPLORER = ("ExploreOptions", "build_label_bitsets", "build_reward_models", "explore")

__all__ = sorted(_EXPLORER + ("compile_expr", "eval_expr", "parse_program", "tokenize", "typecheck"))


def __getattr__(name):
    if name not in _EXPLORER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".explore", __name__), name)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # loading the submodule binds it here; ``explore`` keeps naming its function
        if name == "explore" and isinstance(value, types.ModuleType):
            value = value.explore
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
