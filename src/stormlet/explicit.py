"""Reader/writer for the explicit transition-enumeration format.

Files are UTF-8 with ``\\n`` or ``\\r\\n`` line endings; ``#`` starts a
comment anywhere except inside the label declaration block. The transitions
file starts with a header token (``dtmc``, ``ctmc`` or ``mdp``) followed by
``src dst value`` lines (``src choice dst prob`` for MDPs). States are
0-based and sources must appear in ascending order.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sparse
from .errors import DeadlockError, ModelError, ParseError
from .models import Model, ModelKind, RewardModel, StateLabeling

ROW_TOLERANCE = 1e-6


@dataclass
class ExplicitBundle:
    transitions_text: str
    labels_text: str
    state_rewards_text: str = None
    action_rewards_text: str = None


def _content_lines(text, strip_comments=True):
    """Yield (1-based line number, stripped content) for non-empty lines."""
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if strip_comments and "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if line:
            yield no, line


def _parse_value(token, rational, line):
    """A decimal or fraction token; float mode rounds the exact value once."""
    try:
        value = Fraction(token)
        return value if rational else float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"invalid number {token!r}", line=line)


def _domain(rational):
    return "rational" if rational else "float"


def parse_transitions(text, rational=False, fix_deadlocks=False):
    """Parse a transitions file.

    Returns (kind, matrix, choice_offsets, exit_rates or None, patched bitset).
    DTMC/MDP rows within 1e-6 of a distribution are renormalized; duplicate
    transitions coalesce additively.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty transitions file", line=1)
    header_no, header = lines[0]
    try:
        kind = ModelKind(header)
    except ValueError:
        raise ParseError(f"expected header dtmc|ctmc|mdp, found {header!r}", line=header_no)

    # rows keyed by (src, choice); choice is always 0 for deterministic kinds
    rows = {}
    order = []
    dsts = set()
    max_state = -1
    for no, line in lines[1:]:
        parts = line.split()
        want = 4 if kind is ModelKind.MDP else 3
        if len(parts) != want:
            raise ParseError(f"expected {want} fields, found {len(parts)}", line=no)
        try:
            src = int(parts[0])
            choice = int(parts[1]) if kind is ModelKind.MDP else 0
            dst = int(parts[-2])
        except ValueError:
            raise ParseError("state indices must be integers", line=no)
        if src < 0 or dst < 0 or choice < 0:
            raise ParseError("indices must be nonnegative", line=no)
        value = _parse_value(parts[-1], rational, no)
        if value <= 0:
            raise ParseError("transition values must be positive", line=no)
        key = (src, choice)
        if key not in rows:
            prev = order[-1] if order else None
            if prev is not None and key < prev:
                raise ParseError(f"state {src} choice {choice} out of ascending order", line=no)
            if prev is not None and src == prev[0] and choice != prev[1] + 1:
                raise ParseError(f"gap in choice indices of state {src}", line=no)
            if (prev is None or src != prev[0]) and choice != 0:
                raise ParseError(f"choices of state {src} must start at 0", line=no)
            rows[key] = {}
            order.append(key)
        if dst in rows[key]:
            rows[key][dst] += value  # duplicate transition: additive coalescing
        else:
            rows[key][dst] = value
        dsts.add(dst)
        max_state = max(max_state, src, dst)

    n = max_state + 1
    if n == 0:
        raise ParseError("transitions file declares no transitions", line=header_no)

    keys_by_src = {}  # source state -> its (src, choice) keys, in choice order
    for key in order:
        keys_by_src.setdefault(key[0], []).append(key)
    patched = np.zeros(n, dtype=bool)
    for s in range(n):
        if s in keys_by_src:
            continue
        if s not in dsts:
            raise ParseError(f"gap in state indices: state {s} is never used")
        if not fix_deadlocks:
            raise DeadlockError(s, "no outgoing transitions in transitions file")
        patched[s] = True

    zero = Fraction(0) if rational else 0.0
    one = Fraction(1) if rational else 1.0
    triples = []
    choice_offsets = [0]
    exit_rates = [] if kind is ModelKind.CTMC else None
    row_index = 0
    for s in range(n):
        state_choices = keys_by_src.get(s, [])
        if not state_choices:
            triples.append((row_index, s, one))
            if kind is ModelKind.CTMC:
                exit_rates.append(one)  # absorbing convention: self-loop at rate 1
            row_index += 1
        else:
            for key in state_choices:
                entries = rows[key]
                total = sum(entries.values(), zero)
                if kind is ModelKind.CTMC:
                    exit_rates.append(total)
                    for dst, v in entries.items():
                        triples.append((row_index, dst, v / total))
                else:
                    if rational:
                        if total != 1:
                            raise ModelError(
                                f"row of state {s} sums to {total}, expected exactly 1"
                            )
                        scale = one
                    else:
                        if abs(total - 1.0) > ROW_TOLERANCE:
                            raise ModelError(
                                f"row of state {s} sums to {total!r}, outside 1 +- {ROW_TOLERANCE}"
                            )
                        # renormalize only when the deviation is above rounding
                        # noise, so written models parse back value-identical
                        scale = one if abs(total - 1.0) <= 1e-10 else total
                    for dst, v in entries.items():
                        triples.append((row_index, dst, v / scale))
                row_index += 1
        choice_offsets.append(row_index)

    matrix = sparse.build_sparse(triples, row_index, n, _domain(rational))
    if kind is not ModelKind.MDP:
        choice_offsets = np.arange(n + 1, dtype=np.int64)
    return kind, matrix, np.asarray(choice_offsets, dtype=np.int64), exit_rates, patched


def parse_labels(text, n_states):
    """Parse a labels file into a StateLabeling (declared labels only)."""
    lines = list(_content_lines(text, strip_comments=False))
    # comment lines are allowed before the declaration block
    while lines and lines[0][1].startswith("#") and lines[0][1] != "#DECLARATION":
        lines.pop(0)
    if not lines or lines[0][1] != "#DECLARATION":
        raise ParseError("labels file must start with #DECLARATION", line=1)
    declared = []
    i = 1
    while i < len(lines) and lines[i][1] != "#END":
        declared.extend(lines[i][1].split())
        i += 1
    if i == len(lines):
        raise ParseError("missing #END after label declarations", line=lines[-1][0])
    if len(set(declared)) != len(declared):
        raise ParseError("duplicate label declaration", line=lines[1][0])

    labeling = StateLabeling(n_states, {name: np.zeros(n_states, dtype=bool) for name in declared})
    for no, line in lines[i + 1 :]:
        if "#" in line:
            line = line[: line.index("#")].strip()
            if not line:
                continue
        parts = line.split()
        try:
            state = int(parts[0])
        except ValueError:
            raise ParseError("label line must start with a state index", line=no)
        if not 0 <= state < n_states:
            raise ParseError(f"state {state} out of range (model has {n_states} states)", line=no)
        if len(parts) < 2:
            raise ParseError("label line lists no labels", line=no)
        for name in parts[1:]:
            if name not in labeling:
                raise ParseError(f"label {name!r} was not declared", line=no)
            labeling.get(name)[state] = True
    return labeling


def parse_state_rewards(text, n_states, rational=False):
    """Parse `state reward` lines into a dense vector (unlisted states are 0)."""
    vec = sparse.as_vector(np.zeros(n_states), _domain(rational))
    seen = set()
    for no, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected `state reward`", line=no)
        try:
            state = int(parts[0])
        except ValueError:
            raise ParseError("state index must be an integer", line=no)
        if not 0 <= state < n_states:
            raise ParseError(f"state {state} out of range", line=no)
        if state in seen:
            raise ParseError(f"duplicate reward assignment for state {state}", line=no)
        seen.add(state)
        value = _parse_value(parts[1], rational, no)
        if value < 0:
            raise ModelError(f"negative reward for state {state} (line {no})")
        vec[state] = value
    return vec


def parse_action_rewards(text, kind, choice_offsets, rational=False):
    """Parse action rewards keyed by (state, choice) for MDPs, by state otherwise."""
    n_choices = int(choice_offsets[-1])
    n_states = len(choice_offsets) - 1
    vec = sparse.as_vector(np.zeros(n_choices), _domain(rational))
    seen = set()
    for no, line in _content_lines(text):
        parts = line.split()
        want = 3 if kind is ModelKind.MDP else 2
        if len(parts) != want:
            raise ParseError(f"expected {want} fields", line=no)
        try:
            state = int(parts[0])
            choice = int(parts[1]) if kind is ModelKind.MDP else 0
        except ValueError:
            raise ParseError("indices must be integers", line=no)
        if not 0 <= state < n_states:
            raise ParseError(f"state {state} out of range", line=no)
        n_state_choices = int(choice_offsets[state + 1] - choice_offsets[state])
        if not 0 <= choice < n_state_choices:
            raise ParseError(
                f"choice {choice} out of range for state {state} ({n_state_choices} choices)", line=no
            )
        if (state, choice) in seen:
            raise ParseError(f"duplicate reward assignment for state {state} choice {choice}", line=no)
        seen.add((state, choice))
        value = _parse_value(parts[-1], rational, no)
        if value < 0:
            raise ModelError(f"negative reward at state {state} (line {no})")
        vec[int(choice_offsets[state]) + choice] = value
    return vec


def build_model(bundle, rational=False, fix_deadlocks=False, reward_name="default"):
    """Assemble a Model from an ExplicitBundle."""
    kind, matrix, offsets, exit_rates, patched = parse_transitions(
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
        rewards[reward_name] = RewardModel(reward_name, state_rw, action_rw)
    initial = labeling.get("init") if "init" in labeling else np.zeros(n, dtype=bool)
    return Model(
        kind,
        matrix,
        labeling,
        choice_offsets=offsets,
        rewards=rewards,
        initial_states=initial,
        exit_rates=exit_rates,
        deadlock_fixed=patched,
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
