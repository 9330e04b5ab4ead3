"""Lexer shared by the program and property parsers: one regular expression
with one alternative per token class."""

import re
import sys
from fractions import Fraction

from ..errors import ParseError

KEYWORDS = {
    "dtmc", "ctmc", "mdp",
    "const", "int", "double", "bool",
    "module", "endmodule", "init",
    "label", "formula",
    "rewards", "endrewards",
    "true", "false",
    "min", "max", "floor", "ceil", "pow", "mod",
}

# Identifiers and digits are ASCII, as in the PRISM grammar. A number with a
# point (not the `..` of a range) or an exponent is a double. Alternatives are
# tried in order, so multi-character symbols come before their prefixes.
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r]+|//[^\n]*)
  | (?P<newline>\n)
  | (?P<DOUBLE>(?:[0-9]+\.(?!\.)[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)
  | (?P<INT>[0-9]+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<symbol>->|\.\.|\|\||!=|<=|>=|[][(){};:'=<>+\-*/&|!,?])
  | (?P<error>.)
""", re.VERBOSE)


class Token:
    # kind: keyword/symbol text, or IDENT / INT / DOUBLE / STRING / EOF
    # value: an int for INT, a Fraction for DOUBLE, the text otherwise
    # offset: of the token's first character in the source
    __slots__ = ("kind", "value", "line", "column", "offset")

    def __init__(self, kind, value, line, column, offset):
        self.kind, self.value, self.line, self.column, self.offset = kind, value, line, column, offset


def check_size(literal, line=None, column=None):
    """Raise a ParseError for a numeric literal past Python's limit on integer
    string conversion (0 for none): beyond it int() fails, and Fraction builds
    a power of ten with as many digits as the exponent. A literal whose
    exponent is no integer raises ValueError."""
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = literal.lower().partition("e")
    exponent = exponent.lstrip("+-")
    digits = len(mantissa.replace(".", ""))
    if limit and (digits > limit or len(exponent) > limit or int(exponent or 0) > limit):
        raise ParseError(f"numeric literal has more than {limit} digits or an exponent above {limit}",
                         line=line, column=column)


def tokenize(text):
    """Tokenize source text; `//` comments run to end of line."""
    tokens = []
    line, line_start = 1, 0
    end = len(text)
    eof_column = None
    for m in _TOKEN.finditer(text):
        kind, start = m.lastgroup, m.start()
        column = start - line_start + 1
        if kind == "skip":
            # a comment that ends the text leaves the end-of-file column at its start
            if text.startswith("//", start) and m.end() == end:
                eof_column = column
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        word = value = m.group()
        if kind == "word":
            kind = word if word in KEYWORDS else "IDENT"
        elif kind == "symbol":
            kind = word
        elif kind in ("INT", "DOUBLE"):
            check_size(word, line, column)
            value = int(word) if kind == "INT" else Fraction(word)
        elif kind == "STRING":
            value = word[1:-1]
        elif kind == "error":
            message = "unterminated string literal" if word == '"' else f"unknown character {word!r}"
            raise ParseError(message, line=line, column=column)
        tokens.append(Token(kind, value, line, column, start))
    tokens.append(Token("EOF", None, line, eof_column or end - line_start + 1, end))
    return tokens
