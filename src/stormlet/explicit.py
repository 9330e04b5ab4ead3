"""Reader/writer for the explicit transition-enumeration format.

Files are UTF-8 with ``\\n`` or ``\\r\\n`` line endings; ``#`` starts a
comment anywhere except inside the label declaration block. The transitions
file starts with a header token (``dtmc``, ``ctmc`` or ``mdp``) followed by
``src dst value`` lines (``src choice dst prob`` for MDPs). States are
0-based; each (state, choice) must first appear in ascending order, and its
later lines may come anywhere after that.

The transitions, reward and label files are read a piece of lines at a
time, by one of two readers, and every check is an array operation over a
piece. Of several bad lines, the first in file order is reported, with its
number.

The fast reader, ``_table``, reads an ASCII piece without NUL by one
``np.loadtxt`` call, which drops blank and comment lines and parses the
tokens in C: int64 index columns, and a float64 value column, or a column of
tokens in exact mode. A labels piece (``_label_table``) has lines of any
number of names, and numpy reads lines of one width only: each line gets
pads up to the most fields a line of the piece can have, and the names are
read as bytes and looked up by one ``np.searchsorted`` in the sorted
declared names. The fast reader keeps no line numbers: a row it read knows
only where its piece starts in the text. When a check fails on such a row,
the lines of that one piece that have a field are found again by a pass
over its bytes (``_blanks``), and the bad line is reported with its number
in the same pass.

The line reader, ``_fields``, splits the lines with ``str.split`` and reads
each index token with ``int()``. It reads, in place, what the fast reader
leaves: non-ASCII pieces (numpy reads some other scripts' digits unlike
``int()``), pieces numpy rejects or warns about, float pieces it reads to a
value that is not finite or has its sign bit set, and labels pieces with a
line that lists no label or an undeclared one. Every piece, whichever
reader reads it, has about ``_PIECE_CHARS`` characters (``_read``). The
line reader reads each distinct value token once, as ``Fraction(token)``,
rounded by ``float()`` in float mode, so ``-0`` is ``+0.0``.

The transitions are assembled into the CSR matrix in one pass of array
work: duplicates add up in file order, which ``sparse.coalesce`` does
without a sort when the positions come in order, as they do in a file
sorted by state, choice and destination; each entry finds its (state,
choice) key by its row, and each row's total adds its entries in the order
their destinations first appear.
"""

import itertools
import re
import warnings
from fractions import Fraction

import numpy as np

from . import sparse
from .errors import DeadlockError, ModelError, ParseError, StormletError
from .models import ROW_SUM_TOLERANCE, Model, ModelKind, RewardModel, StateLabeling

ROW_TOLERANCE = 1e-6


class ExplicitBundle:
    __slots__ = ("transitions_text", "labels_text", "state_rewards_text", "action_rewards_text")

    def __init__(self, transitions_text, labels_text, state_rewards_text=None, action_rewards_text=None):
        self.transitions_text, self.labels_text = transitions_text, labels_text
        self.state_rewards_text, self.action_rewards_text = state_rewards_text, action_rewards_text


# a file is read in pieces of whole lines of about _PIECE_CHARS characters,
# so the strings held at once (one per line, or per token in the line reader)
# stay few however long the file is; at 2^14, numpy's calls cost about a
# tenth more time on a clean file
_PIECE_CHARS = 1 << 16
# the bits of +inf: a float is finite without its sign bit set exactly when
# its bits, read as an unsigned integer, are below these
_INF_BITS = np.float64(np.inf).view(np.uint64)
# fills out the short lines of a labels piece for the fast reader
_PAD = "\x01"
# each byte of an ASCII piece as 2 for "\n", 1 for the other whitespace of
# str.split, 0 for the rest
_KINDS = bytes(2 if c == 10 else int(c < 128 and chr(c).isspace()) for c in range(256))
_COMMENT = re.compile("#[^\n]*")


def _first(bad):
    """Index of the first true entry of ``bad``, or its length if there is none."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def _error(message):
    return lambda k, no: ParseError(message, line=no)


def _integers(tokens):
    """The integers of ``tokens`` up to the first token that is none, and its index.

    A value beyond int64 makes the array one of Python ints, which every
    check before the state-index checks handles alike.
    """
    values = []
    try:
        for token in tokens:
            values.append(int(token))
    except ValueError:
        pass
    try:
        return np.array(values, dtype=np.int64), len(values)
    except OverflowError:
        return np.array(values, dtype=object), len(values)


class _Rows:
    """The rows of one piece of lines that come before its first bad line.

    Each check is applied to the rows still kept, in the order a line is
    checked in, so ``error`` ends up as the error of the first bad line in
    file order, for the first check that line fails.

    ``numbers`` holds each row's line number, or, for a row the fast reader
    read, ``-1 - start``, where ``start`` is the offset in ``text`` of its
    piece. Such a row is numbered only when a check fails on it.
    """

    def __init__(self, text, numbers):
        self.text, self.numbers = text, numbers
        self.end = len(numbers)
        self.error = None

    def number(self, k):
        """The line number of row k. A row the fast reader read is numbered
        on its piece, whose rows are its lines that have a field once comments
        are removed, and the run of entries of ``numbers`` equal to row k's
        that ends at row k."""
        no = int(self.numbers[k])
        if no > 0:
            return no
        _, first, piece = next(_pieces(self.text, _PIECE_CHARS, -1 - no, self.text.count("\n", 0, -1 - no) + 1))
        kept = np.flatnonzero(_blanks(_COMMENT.sub("", piece))[1])
        return first + int(kept[_first(self.numbers[k::-1] != no) - 1])

    def cut(self, k, error):
        """Keep the rows before row k, which fails with ``error(k, line number)``."""
        if k < self.end:
            self.end, self.error = k, error(k, self.number(k))

    def check(self, bad, error):
        """Keep the rows before the first true entry of ``bad``."""
        self.cut(_first(bad[: self.end]), error)

    def values(self, tokens, rational, parsed):
        """The values of the kept rows' tokens, up to the first that is not a
        finite number. ``parsed`` holds the value of each distinct token read
        so far, so each is read once. ``tokens`` that are an array are floats
        already read by ``_table``, all finite."""
        tokens = tokens[: self.end]
        if isinstance(tokens, np.ndarray):
            return tokens
        k = len(tokens)
        for token in dict.fromkeys(tokens):
            if token not in parsed:
                try:
                    value = Fraction(token)
                    parsed[token] = value if rational else float(value)
                except (ValueError, ZeroDivisionError, OverflowError):
                    k = tokens.index(token)
                    break
        self.cut(k, lambda k, no: ParseError(f"invalid number {tokens[k]!r}", line=no))
        return np.fromiter(map(parsed.__getitem__, tokens[:k]), object if rational else np.float64, k)


def _pieces(text, size, start=0, no=1):
    """Per piece of the lines of ``text[start:]`` of about ``size``
    characters: its offset in ``text``, the number of its first line (the
    first of all is line ``no``) and the piece."""
    while True:
        end = text.find("\n", start + size)
        piece = text[start:] if end < 0 else text[start:end]
        yield start, no, piece
        if end < 0:
            return
        start, no = end + 1, no + piece.count("\n") + 1


def _fields(piece, no):
    """The line reader: the numbers and field counts of the lines of
    ``piece``, the first of them line ``no``, that have any field once
    comments are removed, and all their fields in order."""
    lines = piece.split("\n")
    if "#" in piece:
        lines = [line.partition("#")[0] for line in lines]
    fields = list(map(str.split, lines))
    counts = np.fromiter(map(len, fields), np.int64, len(fields))
    kept = np.flatnonzero(counts)
    return no + kept, counts[kept], list(itertools.chain.from_iterable(fields))


def _blanks(piece):
    """Per line of ``piece``, ASCII and without comments: its blanks (the
    whitespace of ``str.split`` other than "\\n"), and whether it has a field,
    that is more characters than blanks."""
    kinds = np.frombuffer(piece.encode().translate(_KINDS), np.uint8)
    spaces = np.flatnonzero(kinds != 0)  # numpy finds a bool array's true entries faster
    breaks = np.flatnonzero(kinds[spaces] == 2)
    # a line's blanks are the whitespace between its end and the one before
    blanks = np.diff(breaks, prepend=-1, append=len(spaces)) - 1
    return blanks, blanks < np.diff(spaces[breaks], prepend=-1, append=len(kinds)) - 1


def _readable(piece):
    """Whether the fast reader may read ``piece``: ASCII without NUL only, as
    numpy reads a lone Devanagari two as 2360, where ``int()`` reads 2."""
    return piece.isascii() and "\0" not in piece


def _table(text, start, lines, dtype, usecols=None):
    """The fast reader: the rows and the table of ``lines``, the lines of a
    piece at offset ``start`` of ``text``, but for blank and comment lines,
    read into ``dtype`` by one ``np.loadtxt`` call; or None, when numpy
    rejects the lines or warns about them, and the line reader reads the
    piece."""
    try:
        # numpy warns on a piece of no data, and numpy 1.23 reads a float
        # token in an int64 column, truncated, with a DeprecationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, comments="#", usecols=usecols, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    return _Rows(text, np.full(len(table), -1 - start)), table


def _read(text, start, no, fast, slow):
    """Per piece of the lines of ``text[start:]`` of about ``_PIECE_CHARS``
    characters, the first of them line ``no``: what ``fast(start, piece)``,
    the fast reader, reads of the piece at offset ``start``, or where it
    reads None, what ``slow(no, piece)``, the line reader, reads."""
    for start, no, piece in _pieces(text, _PIECE_CHARS, start, no):
        yield fast(start, piece) or slow(no, piece)


def _records(text, want, count_message, index_message, rational, start=0, no=1):
    """Per piece of the lines of ``text[start:]``, the first of them line
    ``no``: its rows, cut before the first line that has other than ``want``
    fields or a non-integer index field; the index columns; the value tokens,
    or in float mode their floats when the fast reader has read the piece.

    The fast reader leaves a float piece with a value that is not finite or
    has its sign bit set to the line reader, which reads ``-0`` as ``+0.0``.
    ``count_message(found)`` is the message for a line of ``found`` fields.
    """
    dtype = np.dtype(",".join(["i8"] * (want - 1) + ["O" if rational else "f8"]))
    *index_names, value_name = dtype.names

    def fast(start, piece):
        read = _readable(piece) and _table(text, start, piece.split("\n"), dtype)
        if read:
            rows, table = read
            values = table[value_name]
            if rational or (values.view(np.uint64) < _INF_BITS).all():
                return rows, [table[name] for name in index_names], values.tolist() if rational else values
        return None

    def slow(no, piece):
        numbers, counts, tokens = _fields(piece, no)
        rows = _Rows(text, numbers)
        rows.check(counts != want, lambda k, no: ParseError(count_message(counts[k]), line=no))
        tokens = tokens[: want * rows.end]
        index = [_integers(tokens[j::want]) for j in range(want - 1)]
        rows.cut(min(k for _, k in index), _error(index_message))
        return rows, [column[: rows.end] for column, _ in index], tokens[want - 1 :: want]

    return _read(text, start, no, fast, slow)


def _header(text):
    """The kind, the header's line number and where the line after it starts."""
    start, no = 0, 1
    while True:
        end = text.find("\n", start)
        header = (text[start:] if end < 0 else text[start:end]).partition("#")[0].strip()
        if header:
            try:
                return ModelKind(header), no, len(text) if end < 0 else end + 1
            except ValueError:
                raise ParseError(f"expected header dtmc|ctmc|mdp, found {header!r}", line=no) from None
        if end < 0:
            raise ParseError("empty transitions file", line=1)
        start, no = end + 1, no + 1


def _new_keys(src, choice, rows):
    """The rows that bring a new (state, choice) key, in file order.

    The keys must come in ascending order, each state's choices numbered
    from 0 without gaps; the first of ``rows`` that breaks this raises its
    error. Keys that never go down in file order need no lexsort to find
    them.
    """
    step, choice_step = np.diff(src), np.diff(choice)
    new = np.ones(len(src), dtype=bool)
    if np.all((step > 0) | (step == 0) & (choice_step >= 0)):
        new[1:] = (step != 0) | (choice_step != 0)
        new = np.flatnonzero(new)
    else:
        order = np.lexsort((choice, src))
        s, c = src[order], choice[order]
        new[1:] = (s[1:] != s[:-1]) | (c[1:] != c[:-1])
        new = np.sort(order[new])
    s, c = src[new], choice[new]
    same = np.concatenate(([False], s[1:] == s[:-1]))
    back = np.concatenate(([False], (s[1:] < s[:-1]) | same[1:] & (c[1:] < c[:-1])))
    gap = np.concatenate(([False], same[1:] & (c[1:] - 1 != c[:-1])))
    start = ~same & (c != 0)
    j = _first(back | gap | start)
    if j < len(new):
        state = s[j]
        if back[j]:
            message = f"state {state} choice {c[j]} out of ascending order"
        elif gap[j]:
            message = f"gap in choice indices of state {state}"
        else:
            message = f"choices of state {state} must start at 0"
        rows.cut(new[j], _error(message))
        raise rows.error
    return new


def _least_missing(*columns):
    """The least nonnegative integer in none of ``columns``, arrays of
    nonnegative integers.

    It is at most their total length, so nothing of the size of a huge value
    is allocated.
    """
    bound = sum(map(len, columns))
    present = np.zeros(bound + 1, dtype=bool)
    for values in columns:
        present[np.minimum(values, bound).astype(np.int64)] = True
    return int(np.argmin(present))


def parse_transitions(text, rational=False, fix_deadlocks=False):
    """Parse a transitions file.

    Returns (kind, matrix, choice_offsets, exit_rates or None); a state
    without transitions gets a self-loop under ``fix_deadlocks``. The lines of
    one (state, choice) need not be adjacent. Duplicate transitions add up in
    file order; then DTMC/MDP rows within 1e-6 of a distribution are
    renormalized. The first bad line in file order is reported by number.
    """
    kind, header_no, start = _header(text)
    want = 4 if kind is ModelKind.MDP else 3
    parsed = {}
    blocks = []  # per piece: (src, choice, dst, value, line number) of its rows before the first bad line
    for rows, index, value_tokens in _records(text, want, lambda found: f"expected {want} fields, found {found}",
                                              "state indices must be integers", rational, start, header_no + 1):
        src, dst = index[0], index[-1]
        choice = index[1] if kind is ModelKind.MDP else np.zeros(rows.end, dtype=np.int64)
        rows.check((src < 0) | (choice < 0) | (dst < 0), _error("indices must be nonnegative"))
        values = rows.values(value_tokens, rational, parsed)
        rows.check(values <= 0, _error("transition values must be positive"))
        e = rows.end
        blocks.append((src[:e], choice[:e], dst[:e], values[:e], rows.numbers[:e]))
        if rows.error is not None:
            break
    src, choice, dst, values, numbers = (np.concatenate(column) for column in zip(*blocks))
    del blocks
    new = _new_keys(src, choice, _Rows(text, numbers))
    if rows.error is not None:
        raise rows.error
    if not len(src):
        raise ParseError("transitions file declares no transitions", line=header_no)

    # the first unused and the first source-less state
    n = _least_missing(src, dst)
    sourceless = _least_missing(src)
    if not fix_deadlocks and sourceless < n:
        raise DeadlockError(sourceless, "no outgoing transitions in transitions file")
    if max(src.max(), dst.max()) > n:
        raise ParseError(f"gap in state indices: state {n} is never used")
    src, choice, dst = (np.asarray(a, dtype=np.int64) for a in (src, choice, dst))
    s, c = src[new], choice[new]  # the keys, ascending

    deadlocked = np.ones(n, dtype=bool)
    deadlocked[s] = False
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(np.bincount(s, minlength=n), 1), out=offsets[1:])
    key_of_row = np.zeros(int(offsets[-1]), dtype=np.int64)  # a deadlocked state's row has no key and no entry
    key_of_row[offsets[s] + c] = np.arange(len(s))
    # duplicates add up in file order, and the entries come out in column order
    # within each row. A row's total adds its entries in the order their
    # destinations first appear, so that order is sorted for only when it is
    # not the column order. Sums past the float range are reported below or by
    # the model.
    with np.errstate(all="ignore"):
        position, summed, first = sparse.coalesce((offsets[src] + choice) * n + dst, values)
        entry_row, entry_col = np.divmod(position, n)
        of_entry = key_of_row[entry_row]
        if np.all((first[1:] > first[:-1]) | (entry_row[1:] != entry_row[:-1])):
            totals = sparse.coalesce(of_entry, summed)[1]
        else:
            order = np.lexsort((first, entry_row))
            totals = sparse.coalesce(of_entry[order], summed[order])[1]
    domain = "rational" if rational else "float"
    exit_rates = None
    if kind is ModelKind.CTMC:
        rates = sparse.as_vector(np.ones(n), domain)
        rates[s] = totals  # absorbing convention: a deadlocked state has a self-loop at rate 1
        exit_rates = rates.tolist()
        with np.errstate(all="ignore"):
            scaled = summed / totals[of_entry]
    elif rational:
        k = _first(totals != 1)
        if k < len(totals):
            raise ModelError(f"row of state {s[k]} sums to {totals[k]}, expected exactly 1")
        scaled = summed
    else:
        deviation = np.abs(totals - 1.0)
        k = _first(deviation > ROW_TOLERANCE)
        if k < len(totals):
            raise ModelError(
                f"row of state {s[k]} sums to {float(totals[k])!r}, outside 1 +- {ROW_TOLERANCE}"
            )
        # renormalize only when the deviation is above rounding noise, so
        # written models parse back value-identical
        scaled = summed / np.where(deviation <= ROW_SUM_TOLERANCE, 1.0, totals)[of_entry]
    if not rational:  # exact entries are sums and quotients of positive values: finite and nonzero
        bad = np.flatnonzero(~np.isfinite(scaled))
        if len(bad):  # the first in the order the row totals add up
            bad = bad[entry_row[bad] == entry_row[bad[0]]]
            k = bad[np.argmin(first[bad])]
            raise StormletError(f"non-finite value at ({entry_row[k]},{entry_col[k]})")
        kept = scaled != 0
        if not kept.all():
            entry_row, entry_col, scaled = entry_row[kept], entry_col[kept], scaled[kept]
    counts = np.bincount(entry_row, minlength=len(key_of_row))
    loops = np.flatnonzero(deadlocked)
    if len(loops):  # each a row of its own with no other entry
        at = np.searchsorted(entry_row, offsets[loops])
        entry_col = np.insert(entry_col, at, loops)
        scaled = np.insert(scaled, at, sparse.as_vector([1], domain))
        counts[offsets[loops]] = 1
    row_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    matrix = sparse.SparseMatrix(len(counts), n, row_offsets, entry_col, scaled, domain)
    if kind is not ModelKind.MDP:
        offsets = np.arange(n + 1, dtype=np.int64)
    return kind, matrix, offsets, exit_rates


def _declarations(text):
    """The declared label names, and the offset and number of the line after ``#END``."""
    declared = first = last = None
    start, no = 0, 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line, start, no = text[start:end].strip(), end + 1, no + 1
        if not line:
            continue
        last = no
        if declared is None:
            if line == "#DECLARATION":
                declared = []
            elif not line.startswith("#"):  # comment lines may come before the block
                break
            continue
        first = first or no
        if line == "#END":
            if len(set(declared)) != len(declared):
                raise ParseError("duplicate label declaration", line=first)
            return declared, start, no + 1
        declared.extend(line.split())
    if declared is None:
        raise ParseError("labels file must start with #DECLARATION", line=1)
    raise ParseError("missing #END after label declarations", line=last)


def _name_index(declared):
    """What the fast reader looks names up in: the pad and the declared names
    it can meet, those ``_readable`` and without the pad, sorted, as bytes in
    whole 8-byte words and at least one byte longer than the longest of them;
    and the index of each among the declared names, the pad's -1."""
    names, labels = zip(*sorted([(name, i) for i, name in enumerate(declared) if _readable(name) and _PAD not in name]
                                + [(_PAD, -1)]))
    return np.array(names, dtype=f"S{max(map(len, names)) // 8 * 8 + 8}"), np.array(labels)


def _label_table(text, start, piece, index):
    """The fast reader on a labels piece: its rows, their states, and per row
    the indices of its labels among the declared names, then -1s; or None,
    and the line reader reads the piece. ``index`` is ``_name_index``'s.

    numpy reads lines of one width only. A line has at most one field more
    than it has blanks, so each line that has a field once comments are
    removed gets pads to make it as wide as the most blanks on a line allow,
    and numpy reads that many fields of each. Names are read as bytes at
    least one longer than the longest declared name, so a longer name that
    numpy cuts short matches none. None also stands for a line that lists no
    labels or an undeclared one: the line reader reports it.
    """
    if not _readable(piece) or _PAD in piece:
        return None
    # "\r" is a blank to str.split and a line end to numpy; the last line
    # ending in "\n" is not followed by one
    piece = _COMMENT.sub("", piece).replace("\r", " ").removesuffix("\n")
    blanks, kept = _blanks(piece)
    width = int(blanks[kept].max(initial=0)) + 1
    if width < 2:  # no line, or none with a label
        return None
    pads = f" {_PAD}" * (width - 1)
    if kept.all():
        piece = piece.replace("\n", pads + "\n") + pads
    else:
        piece = (pads + "\n").join(itertools.compress(piece.split("\n"), kept.tolist())) + pads
    names, labels = index
    dtype = np.dtype([("state", np.int64), ("names", names.dtype, (width - 1,))])
    read = _table(text, start, piece.split("\n"), dtype, range(width))
    if not read:
        return None
    rows, table = read
    found = table["names"]
    at = np.minimum(np.searchsorted(names, found), len(names) - 1)
    label = labels[at]
    # names of whole 8-byte words compare faster as integers than as bytes
    if not (names[at].view(np.uint64) == found.view(np.uint64)).all() or (label[:, 0] < 0).any():
        return None
    return rows, table["state"], label


def parse_labels(text, n_states):
    """Parse a labels file into a StateLabeling (declared labels only).

    The state lines after the declaration block are read column by column;
    of several bad lines, the first in file order is reported.
    """
    declared, start, no = _declarations(text)
    ids = {name: i for i, name in enumerate(declared)}
    index = _name_index(declared)
    bits = np.zeros((len(declared) + 1, n_states), dtype=bool)  # the last row takes the fast reader's pads

    def check_states(rows, state):
        rows.check((state < 0) | (state >= n_states), lambda k, no: ParseError(
            f"state {state[k]} out of range (model has {n_states} states)", line=no))

    def fast(start, piece):
        read = _label_table(text, start, piece, index)
        if not read:
            return None
        rows, state, label = read
        check_states(rows, state)
        if rows.error is not None:
            raise rows.error
        return label, state[:, None]

    def slow(no, piece):
        numbers, counts, tokens = _fields(piece, no)
        rows = _Rows(text, numbers)
        tokens = np.array(tokens, dtype=object)
        firsts = np.cumsum(counts) - counts
        state, k = _integers(tokens[firsts].tolist())
        rows.cut(k, _error("label line must start with a state index"))
        check_states(rows, state)
        rows.check(counts < 2, _error("label line lists no labels"))
        names = np.delete(tokens, firsts).tolist()
        label = np.fromiter(map(ids.get, names, itertools.repeat(-1)), np.int64, len(names))
        line_of = np.repeat(np.arange(len(counts)), counts - 1)
        j = _first(label < 0)
        if j < len(names):
            rows.cut(int(line_of[j]), lambda k, no: ParseError(f"label {names[j]!r} was not declared", line=no))
        if rows.error is not None:
            raise rows.error
        return label, state[line_of].astype(np.int64)

    for label, state in _read(text, start, no, fast, slow):
        bits[label, state] = True
    return StateLabeling(n_states, dict(zip(declared, bits)))


def _repeated(keys, seen):
    """Which keys were seen before, in earlier pieces or earlier in this one."""
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    return seen[keys] | ~first


def parse_state_rewards(text, n_states, rational=False):
    """Parse `state reward` lines into a dense vector (unlisted states are 0)."""
    vec = sparse.as_vector(np.zeros(n_states), "rational" if rational else "float")
    seen = np.zeros(n_states, dtype=bool)
    parsed = {}
    for rows, (state,), value_tokens in _records(text, 2, lambda found: "expected `state reward`",
                                                 "state index must be an integer", rational):
        rows.check((state < 0) | (state >= n_states),
                   lambda k, no: ParseError(f"state {state[k]} out of range", line=no))
        state = state[: rows.end].astype(np.int64)
        rows.check(_repeated(state, seen),
                   lambda k, no: ParseError(f"duplicate reward assignment for state {state[k]}", line=no))
        values = rows.values(value_tokens, rational, parsed)
        rows.check(values < 0, lambda k, no: ModelError(f"negative reward for state {state[k]} (line {no})"))
        if rows.error is not None:
            raise rows.error
        vec[state] = values
        seen[state] = True
    return vec


def parse_action_rewards(text, kind, choice_offsets, rational=False):
    """Parse action rewards keyed by (state, choice) for MDPs, by state otherwise."""
    offsets = np.asarray(choice_offsets, dtype=np.int64)
    n_states = len(offsets) - 1
    vec = sparse.as_vector(np.zeros(int(offsets[-1])), "rational" if rational else "float")
    seen = np.zeros(len(vec), dtype=bool)
    parsed = {}
    want = 3 if kind is ModelKind.MDP else 2
    for rows, index, value_tokens in _records(text, want, lambda found: f"expected {want} fields",
                                              "indices must be integers", rational):
        state = index[0]
        choice = index[1] if kind is ModelKind.MDP else np.zeros(rows.end, dtype=np.int64)
        rows.check((state < 0) | (state >= n_states),
                   lambda k, no: ParseError(f"state {state[k]} out of range", line=no))
        # a choice beyond int64 stays a Python int until its range check
        state, choice = state[: rows.end].astype(np.int64), choice[: rows.end]
        first_row = offsets[state]
        n_state_choices = offsets[state + 1] - first_row
        rows.check((choice < 0) | (choice >= n_state_choices), lambda k, no: ParseError(
            f"choice {choice[k]} out of range for state {state[k]} ({n_state_choices[k]} choices)", line=no))
        state, choice = state[: rows.end], choice[: rows.end].astype(np.int64)
        row = first_row[: rows.end] + choice
        rows.check(_repeated(row, seen), lambda k, no: ParseError(
            f"duplicate reward assignment for state {state[k]} choice {choice[k]}", line=no))
        values = rows.values(value_tokens, rational, parsed)
        rows.check(values < 0, lambda k, no: ModelError(f"negative reward at state {state[k]} (line {no})"))
        if rows.error is not None:
            raise rows.error
        vec[row] = values
        seen[row] = True
    return vec


def build_model(bundle, rational=False, fix_deadlocks=False):
    """Assemble a Model from an ExplicitBundle."""
    kind, matrix, offsets, exit_rates = parse_transitions(
        bundle.transitions_text, rational=rational, fix_deadlocks=fix_deadlocks
    )
    n = len(offsets) - 1
    labeling = parse_labels(bundle.labels_text, n)
    rewards = {}
    state_rw = action_rw = None
    if bundle.state_rewards_text is not None:
        state_rw = parse_state_rewards(bundle.state_rewards_text, n, rational)
    if bundle.action_rewards_text is not None:
        action_rw = parse_action_rewards(bundle.action_rewards_text, kind, offsets, rational)
    if state_rw is not None or action_rw is not None:
        rewards["default"] = RewardModel("default", state_rw, action_rw)
    initial = labeling.get("init") if "init" in labeling else np.zeros(n, dtype=bool)
    return Model(
        kind,
        matrix,
        labeling,
        choice_offsets=offsets,
        rewards=rewards,
        initial_states=initial,
        exit_rates=exit_rates,
    )


def _fmt(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    r = repr(float(value))
    return r[:-2] if r.endswith(".0") else r


def write_model(model):
    """Serialize a model to canonical explicit-format text (round-trip safe)."""
    out = [model.kind.value]
    mdp = model.kind is ModelKind.MDP
    ctmc = model.kind is ModelKind.CTMC
    for s in range(model.n_states):
        for c in model.choices_of(s):
            cols, vals = model.matrix.row(c)
            for j, v in zip(cols, vals):
                if ctmc:
                    v = v * model.exit_rates[s]
                if mdp:
                    out.append(f"{s} {c - model.choice_offsets[s]} {j} {_fmt(v)}")
                else:
                    out.append(f"{s} {j} {_fmt(v)}")
    tra = "\n".join(out) + "\n"

    lab_lines = ["#DECLARATION", " ".join(model.labeling.names()), "#END"]
    per_state = {}
    for name in model.labeling.names():
        for s in model.labeling.states_with(name):
            per_state.setdefault(int(s), []).append(name)
    for s in sorted(per_state):
        lab_lines.append(f"{s} {' '.join(per_state[s])}")
    lab = "\n".join(lab_lines) + "\n"

    srew = trew = None
    if model.rewards:
        rm = next(iter(model.rewards.values()))
        if rm.state_rewards is not None:
            srew = "".join(
                f"{s} {_fmt(v)}\n" for s, v in enumerate(rm.state_rewards) if v != 0
            )
        if rm.action_rewards is not None:
            lines = []
            for s in range(model.n_states):
                for c in model.choices_of(s):
                    v = rm.action_rewards[c]
                    if v != 0:
                        if mdp:
                            lines.append(f"{s} {c - model.choice_offsets[s]} {_fmt(v)}")
                        else:
                            lines.append(f"{s} {_fmt(v)}")
            trew = "\n".join(lines) + "\n" if lines else ""
    return ExplicitBundle(tra, lab, srew, trew)
