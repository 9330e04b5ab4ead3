"""Explicit transition/label/reward file parsing and serialization."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same
from stormlet import explicit, sparse
from stormlet.errors import DeadlockError, ModelError, ParseError, StormletError
from stormlet.explicit import ExplicitBundle
from stormlet.models import ModelKind, StateLabeling

LABELS_EMPTY = "#DECLARATION\n\n#END\n"


def test_parse_minimal_dtmc():
    kind, m, offsets, rates = explicit.parse_transitions("dtmc\n0 0 1.0\n")
    assert kind is ModelKind.DTMC
    # the file's own self-loop, and no second one patched in
    assert m.rows == 1 and m.nnz == 1 and m.values[0] == 1.0
    assert rates is None


def test_parse_two_state_chain():
    text = "dtmc\n0 0 0.5\n0 1 0.5\n1 1 1\n"
    kind, m, offsets, _ = explicit.parse_transitions(text)
    assert m.rows == 2
    assert list(offsets) == [0, 1, 2]
    cols, vals = m.row(0)
    assert list(cols) == [0, 1] and list(vals) == [0.5, 0.5]


def test_parse_mdp_choice_offsets():
    text = "mdp\n0 0 0 1.0\n0 1 1 1.0\n1 0 1 1.0\n"
    kind, m, offsets, _ = explicit.parse_transitions(text)
    assert kind is ModelKind.MDP
    assert list(offsets) == [0, 2, 3]


def test_parse_ctmc_builds_embedded_chain():
    text = "ctmc\n0 1 2.0\n0 0 2.0\n1 1 3.0\n"
    kind, m, offsets, rates = explicit.parse_transitions(text)
    assert kind is ModelKind.CTMC
    assert rates == [4.0, 3.0]
    cols, vals = m.row(0)
    assert list(vals) == [0.5, 0.5]


def test_comments_and_blank_lines_ignored():
    text = "dtmc\n\n# a comment\n0 0 1.0  # trailing\n\n"
    kind, m, _, _ = explicit.parse_transitions(text)
    assert m.rows == 1


def test_crlf_line_endings():
    kind, m, _, _ = explicit.parse_transitions("dtmc\r\n0 1 1\r\n1 1 1\r\n")
    assert m.rows == 2


def test_header_required():
    with pytest.raises(ParseError):
        explicit.parse_transitions("markov\n0 0 1.0\n")
    with pytest.raises(ParseError):
        explicit.parse_transitions("")


def test_sources_must_ascend():
    with pytest.raises(ParseError):
        explicit.parse_transitions("dtmc\n1 1 1.0\n0 0 1.0\n")


def test_choice_indices_contiguous_from_zero():
    with pytest.raises(ParseError):
        explicit.parse_transitions("mdp\n0 1 0 1.0\n")
    with pytest.raises(ParseError):
        explicit.parse_transitions("mdp\n0 0 0 1.0\n0 2 1 1.0\n")


def test_gap_state_is_an_error_even_with_fix():
    # state 1 appears neither as source nor destination
    with pytest.raises(ParseError):
        explicit.parse_transitions("dtmc\n0 0 1.0\n2 2 1.0\n", fix_deadlocks=True)


def test_deadlock_patch_vs_error():
    text = "dtmc\n0 1 1.0\n"  # state 1 has no outgoing transitions
    with pytest.raises(DeadlockError):
        explicit.parse_transitions(text)
    kind, m, _, _ = explicit.parse_transitions(text, fix_deadlocks=True)
    # state 0 keeps its row; the deadlocked state 1 gets a self-loop
    assert [list(m.row(0)[0]), list(m.row(1)[0])] == [[1], [1]]
    assert list(m.values) == [1.0, 1.0]


def test_row_renormalization_within_tolerance():
    kind, m, _, _ = explicit.parse_transitions("dtmc\n0 0 0.3333334\n0 1 0.6666667\n1 1 1\n")
    _, vals = m.row(0)
    assert sum(vals) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModelError):
        explicit.parse_transitions("dtmc\n0 0 0.4\n0 1 0.5\n1 1 1\n")


def test_rational_mode_requires_exact_distribution():
    text = "dtmc\n0 0 1/3\n0 1 2/3\n1 1 1\n"
    kind, m, _, _ = explicit.parse_transitions(text, rational=True)
    assert m.values[0] == Fraction(1, 3)
    with pytest.raises(ModelError):
        explicit.parse_transitions("dtmc\n0 0 1/3\n0 1 1/3\n1 1 1\n", rational=True)


def test_float_mode_parses_fraction_tokens_exactly_once():
    text = "dtmc\n0 0 1/3\n0 1 2/3\n1 1 1\n"
    _, m, _, _ = explicit.parse_transitions(text)
    assert m.dtype == "float"
    assert list(m.values) == [float(Fraction(1, 3)), float(Fraction(2, 3)), 1.0]
    assert list(explicit.parse_state_rewards("0 1/4\n", 1)) == [0.25]
    for rational in (False, True):
        for token in ("inf", "nan"):
            with pytest.raises(ParseError):
                explicit.parse_transitions(f"dtmc\n0 0 {token}\n", rational=rational)


def test_duplicate_transitions_coalesce():
    kind, m, _, _ = explicit.parse_transitions("dtmc\n0 1 0.5\n0 1 0.5\n1 1 1\n")
    cols, vals = m.row(0)
    assert list(cols) == [1] and vals[0] == 1.0


def test_lines_of_one_state_need_not_be_adjacent():
    text = "mdp\n0 0 1 0.25\n0 1 0 1\n1 0 1 1\n0 0 0 0.5\n0 0 1 0.25\n"
    _, m, offsets, _ = explicit.parse_transitions(text)
    assert offsets.tolist() == [0, 2, 3]
    assert m.row(0)[0].tolist() == [0, 1] and m.row(0)[1].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("text, error, message, line", [
    # the value is checked before the order of the keys, within one line
    ("dtmc\n# c\n\n1 1 1\n0 0 x\n", ParseError, "invalid number 'x'", 5),
    # an order error ends the file before a later bad line
    ("dtmc\n1 1 1\n0 0 1\n0 0 x\n", ParseError, "state 0 choice 0 out of ascending order", 3),
    ("mdp\n0 0 0 1\n0 2 0 1\n1 0\n", ParseError, "gap in choice indices of state 0", 3),
    ("mdp\n0 0 0 1\n1 1 1 1\n", ParseError, "choices of state 1 must start at 0", 3),
    ("dtmc\r\n0 0 1\r\n1 1 -1\r\n0 0\r\n", ParseError, "transition values must be positive", 3),
    ("ctmc\n0 1 1 # rate\n1 0 2 3\n", ParseError, "expected 3 fields, found 4", 3),
    ("\n# kind\n dtmc x \n0 0 1\n", ParseError, "expected header dtmc|ctmc|mdp, found 'dtmc x'", 3),
])
def test_first_bad_line_is_reported_with_its_number(text, error, message, line):
    with pytest.raises(error) as exc:
        explicit.parse_transitions(text)
    assert str(exc.value) == f"{message} at line {line}" and exc.value.line == line


@pytest.mark.parametrize("text, state", [
    ("dtmc\n0 100000000000000 1\n", 1),
    ("dtmc\n0 99999999999999999999999 1\n", 1),
    ("dtmc\n0 1 1\n1 0 1\n99999999999999999999999 0 1\n", 2),
    ("mdp\n0 0 0 1\n1 0 100000000000000000000 1\n", 2),
])
@pytest.mark.parametrize("fix", [False, True])
def test_huge_state_index_is_a_gap(text, state, fix):
    """Found from the indices that occur, before anything of that size is allocated."""
    with pytest.raises(ParseError, match=f"^gap in state indices: state {state} is never used$"):
        explicit.parse_transitions(text, fix_deadlocks=fix)


def test_huge_state_index_in_the_other_checks():
    with pytest.raises(DeadlockError, match="^deadlock state 1: "):
        explicit.parse_transitions("dtmc\n0 1 0.5\n0 100000000000000 0.5\n")
    with pytest.raises(ParseError, match="^state 0 choice 0 out of ascending order at line 3$"):
        explicit.parse_transitions("dtmc\n99999999999999999999 0 1\n0 0 1\n")
    with pytest.raises(ParseError, match="^gap in choice indices of state 0 at line 3$"):
        explicit.parse_transitions("mdp\n0 0 0 1\n0 99999999999999999999 0 1\n")
    with pytest.raises(ParseError, match="^indices must be nonnegative at line 2$"):
        explicit.parse_transitions("dtmc\n0 -99999999999999999999 1\n")
    with pytest.raises(ParseError, match="^state 99999999999999999999 out of range at line 1$"):
        explicit.parse_state_rewards("99999999999999999999 1\n", 3)
    with pytest.raises(ParseError, match=r"^choice 99999999999999999999 out of range for state 0 \(2 choices\)"):
        explicit.parse_action_rewards("0 99999999999999999999 1\n", ModelKind.MDP, [0, 2])


def test_nonpositive_values_rejected():
    with pytest.raises(ParseError):
        explicit.parse_transitions("dtmc\n0 0 0\n")
    with pytest.raises(ParseError):
        explicit.parse_transitions("dtmc\n0 0 -1\n")


def test_parse_labels():
    text = "#DECLARATION\ninit goal\n#END\n0 init\n2 goal\n"
    lab = explicit.parse_labels(text, 3)
    assert list(lab.states_with("init")) == [0]
    assert list(lab.states_with("goal")) == [2]


def test_parse_labels_errors():
    with pytest.raises(ParseError):
        explicit.parse_labels("init\n#END\n", 1)
    with pytest.raises(ParseError):
        explicit.parse_labels("#DECLARATION\na a\n#END\n", 1)
    with pytest.raises(ParseError):
        explicit.parse_labels("#DECLARATION\na\n#END\n0 b\n", 1)
    with pytest.raises(ParseError):
        explicit.parse_labels("#DECLARATION\na\n#END\n5 a\n", 1)
    with pytest.raises(ParseError):
        explicit.parse_labels("#DECLARATION\na\n", 1)


def test_parse_state_rewards():
    vec = explicit.parse_state_rewards("0 1.5\n2 3\n", 3)
    assert list(vec) == [1.5, 0.0, 3.0]
    with pytest.raises(ParseError):
        explicit.parse_state_rewards("0 1\n0 2\n", 3)
    with pytest.raises(ModelError):
        explicit.parse_state_rewards("0 -1\n", 3)


def test_parse_action_rewards_mdp():
    offsets = np.array([0, 2, 3])
    vec = explicit.parse_action_rewards("0 1 2.5\n1 0 1\n", ModelKind.MDP, offsets)
    assert list(vec) == [0.0, 2.5, 1.0]
    with pytest.raises(ParseError):
        explicit.parse_action_rewards("0 5 1\n", ModelKind.MDP, offsets)


def test_build_model_with_all_files():
    bundle = ExplicitBundle(
        "dtmc\n0 1 1.0\n1 1 1.0\n",
        "#DECLARATION\ninit goal\n#END\n0 init\n1 goal\n",
        "0 2.0\n",
        "1 0.5\n",
    )
    model = explicit.build_model(bundle)
    assert model.kind is ModelKind.DTMC
    assert list(model.initial_states) == [True, False]
    rm = model.reward_model()
    assert list(rm.state_rewards) == [2.0, 0.0]
    assert list(rm.action_rewards) == [0.0, 0.5]


def round_trip(model):
    bundle = explicit.write_model(model)
    return explicit.build_model(bundle, rational=model.dtype == "rational")


@pytest.mark.parametrize("seed", range(10))
def test_write_then_parse_is_identity(seed):
    from conftest import random_dtmc, random_mdp

    rng = random.Random(4000 + seed)
    model, _ = random_dtmc(rng, 6, labels={"init": [True] + [False] * 5})
    model.initial_states = model.labeling.get("init")
    assert_same(round_trip(model), model)

    mdp, _, _ = random_mdp(rng, 5, labels={"init": [True] + [False] * 4})
    mdp.initial_states = mdp.labeling.get("init")
    assert_same(round_trip(mdp), mdp)


def test_write_then_parse_rational_identity(rng):
    from conftest import random_stochastic_rows, rows_to_matrix
    from stormlet.models import Model, StateLabeling

    rows = random_stochastic_rows(rng, 6, 6)
    model = Model(
        ModelKind.DTMC,
        rows_to_matrix(rows, 6, rational=True),
        StateLabeling(6, {"init": [True] + [False] * 5}),
        initial_states=[True] + [False] * 5,
    )
    assert_same(round_trip(model), model)


def test_write_is_deterministic(rng):
    from conftest import random_dtmc

    model, _ = random_dtmc(rng, 8, labels={"init": [True] + [False] * 7})
    a = explicit.write_model(model)
    b = explicit.write_model(model)
    assert a.transitions_text == b.transitions_text
    assert a.labels_text == b.labels_text


def test_ctmc_round_trip_preserves_rates():
    bundle = ExplicitBundle("ctmc\n0 1 2.5\n1 0 0.5\n1 1 1.5\n", LABELS_EMPTY)
    model = explicit.build_model(bundle)
    again = explicit.build_model(explicit.write_model(model))
    assert_same(again, model)
    assert list(again.exit_rates) == [2.5, 2.0]


@settings(deadline=None, max_examples=150)
@given(st.text(alphabet="dtmcp 0123456789.\n#-/e", max_size=80))
def test_parser_totality_on_fuzzed_input(text):
    """Any input either parses or raises a structured error, never crashes."""
    try:
        explicit.parse_transitions(text)
    except StormletError:
        pass


# --- the columnar loader against the scalar loop it replaced --------------
#
# The reference below is the per-line parser the loader replaced, kept as the
# oracle: on every generated file the loader must return the same model, bit
# for bit, or raise the same exception class with the same message and line.


def ref_content_lines(text, strip_comments=True):
    """Yield (1-based line number, stripped content) for non-empty lines."""
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if strip_comments and "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if line:
            yield no, line


def ref_parse_value(token, rational, line):
    """A decimal or fraction token; float mode rounds the exact value once."""
    try:
        value = Fraction(token)
        return value if rational else float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"invalid number {token!r}", line=line)


def ref_domain(rational):
    return "rational" if rational else "float"


def ref_parse_transitions(text, rational=False, fix_deadlocks=False):
    """Parse a transitions file.

    Returns (kind, matrix, choice_offsets, exit_rates or None).
    DTMC/MDP rows within 1e-6 of a distribution are renormalized; duplicate
    transitions coalesce additively.
    """
    lines = list(ref_content_lines(text))
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
        value = ref_parse_value(parts[-1], rational, no)
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
    for s in range(n):
        if s in keys_by_src:
            continue
        if s not in dsts:
            raise ParseError(f"gap in state indices: state {s} is never used")
        if not fix_deadlocks:
            raise DeadlockError(s, "no outgoing transitions in transitions file")

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
                        if abs(total - 1.0) > explicit.ROW_TOLERANCE:
                            raise ModelError(
                                f"row of state {s} sums to {total!r}, outside 1 +- {explicit.ROW_TOLERANCE}"
                            )
                        # renormalize only when the deviation is above rounding
                        # noise, so written models parse back value-identical
                        scale = one if abs(total - 1.0) <= 1e-10 else total
                    for dst, v in entries.items():
                        triples.append((row_index, dst, v / scale))
                row_index += 1
        choice_offsets.append(row_index)

    matrix = sparse.build_sparse(triples, row_index, n, ref_domain(rational))
    if kind is not ModelKind.MDP:
        choice_offsets = np.arange(n + 1, dtype=np.int64)
    return kind, matrix, np.asarray(choice_offsets, dtype=np.int64), exit_rates


def ref_parse_state_rewards(text, n_states, rational=False):
    """Parse `state reward` lines into a dense vector (unlisted states are 0)."""
    vec = sparse.as_vector(np.zeros(n_states), ref_domain(rational))
    seen = set()
    for no, line in ref_content_lines(text):
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
        value = ref_parse_value(parts[1], rational, no)
        if value < 0:
            raise ModelError(f"negative reward for state {state} (line {no})")
        vec[state] = value
    return vec


def ref_parse_action_rewards(text, kind, choice_offsets, rational=False):
    """Parse action rewards keyed by (state, choice) for MDPs, by state otherwise."""
    n_choices = int(choice_offsets[-1])
    n_states = len(choice_offsets) - 1
    vec = sparse.as_vector(np.zeros(n_choices), ref_domain(rational))
    seen = set()
    for no, line in ref_content_lines(text):
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
        value = ref_parse_value(parts[-1], rational, no)
        if value < 0:
            raise ModelError(f"negative reward at state {state} (line {no})")
        vec[int(choice_offsets[state]) + choice] = value
    return vec


GARBAGE = ["x", "-1", "0", "-0", "0.0", "-0.0", "1.2.3", "1/0", "1/-3", "inf", "-inf", "nan", "-nan", "1e400",
           "1e-400", "-1e-400", "٣", "1_0", "_1", "1__0", "0x1", "2.5", "9", "1/3", "3_0/4", "1e1_0", "+.5", "1.e1",
           "²", "9223372036854775807", "9223372036854775808", "-9223372036854775809", "99999999999999999999"]
# digits that int() and float() read like ASCII ones
OTHER_DIGITS = [str.maketrans("0123456789", digits) for digits in ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")]


def _spelled(rng, token):
    """token, sometimes with a plus sign or in another script's digits."""
    if rng.random() < 0.1:
        token = "+" + token
    if rng.random() < 0.1:
        token = token.translate(rng.choice(OTHER_DIGITS))
    return token


def _index(rng, i):
    """A token for the index i: plain, signed, underscore-grouped or non-ASCII."""
    return _spelled(rng, f"0_{i}" if rng.random() < 0.05 else str(i))


def _digits(q):
    """Exact decimal digits of q when its denominator divides 10**6, else None."""
    scaled = q * 10**6
    if scaled.denominator != 1:
        return None
    whole, frac = divmod(int(scaled), 10**6)
    return whole, f"{frac:06d}".rstrip("0")


def _token(rng, q, rough=False):
    """A token for the positive Fraction q: decimal, exponent or underscore
    form, sometimes signed or in other digits; a fraction now and then among
    decimals, and always for q without a short decimal.

    ``rough`` gives a decimal that misses q by about 10^-k, for rows near 1.
    """
    if rough:
        return _spelled(rng, f"{float(q):.{rng.choice([5, 8, 12, 17])}f}")
    digits = _digits(q)
    if digits is None or rng.random() < 0.1:
        return f"{q.numerator}/{q.denominator}"
    whole, frac = digits
    micros = int(q * 10**6)
    forms = [
        f"{whole}.{frac}" if frac else str(whole),
        f"{micros}e-6",
        f"{micros // 1000}.{micros % 1000:03d}e-3",
        f"{micros // 10**8}.{micros % 10**8:08d}E+2",
        f"{q.numerator * 10}e-1" if q.denominator == 1 else f"{float(q) * 10:g}E-1",
    ]
    if len(frac) >= 2:
        forms.append(f"{whole}.{frac[0]}_{frac[1:]}")
    return _spelled(rng, rng.choice(forms))


def _split(rng, q):
    """q, or two positive parts that add up to it (duplicate lines)."""
    if rng.random() < 0.25:
        part = q * rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(3, 5)])
        return [part, q - part]
    return [q]


def _transition_lines(rng, kind):
    """The data lines of a random model; sometimes with deadlocks, gaps or rough rows."""
    n = rng.randint(1, 6)
    keys = []
    for s in range(n):
        if rng.random() < 0.15:
            continue
        for c in range(rng.randint(1, 3) if kind == "mdp" else 1):
            dsts = rng.sample(range(n), rng.randint(1, min(4, n)))
            denominator = rng.choice([1, 3, 4, 7, 8, 10, 1000])
            if kind == "ctmc":
                weights = [Fraction(rng.randint(1, 3 * denominator), denominator) for _ in dsts]
            else:
                whole = len(dsts) * denominator
                cuts = sorted(rng.sample(range(1, whole), len(dsts) - 1))
                weights = [Fraction(b - a, whole) for a, b in zip([0, *cuts], [*cuts, whole])]
            rough = rng.random() < 0.2
            head = f"{_index(rng, s)} {_index(rng, c)}" if kind == "mdp" else _index(rng, s)
            row = [f"{head} {_index(rng, d)} {_token(rng, part, rough)}"
                   for d, w in zip(dsts, weights) for part in _split(rng, w)]
            rng.shuffle(row)  # destinations out of order
            keys.append(row)
    lines = [line for row in keys for line in row]
    firsts = {sum(map(len, keys[:i])) for i in range(len(keys))}
    for _ in range(rng.randint(0, 3)):  # move a line that is not its key's first to a later place
        movable = [i for i in range(len(lines)) if i not in firsts]
        if movable:
            i = rng.choice(movable)
            line = lines.pop(i)
            lines.insert(rng.randint(i, len(lines)), line)
            firsts = {f - 1 if f > i else f for f in firsts}
    return lines


def _mutate(rng, lines):
    """One to three changes that may make a valid file invalid."""
    for _ in range(rng.randint(1, 3)):
        if lines:
            lines = _change(rng, lines)
    return lines


def _change(rng, lines):
    what = rng.randrange(9)
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    if not fields:
        return lines[:i] + lines[i + 1:]
    if what in (0, 7, 8):
        fields[rng.randrange(len(fields))] = rng.choice(GARBAGE)
    elif what == 1:
        fields.pop(rng.randrange(len(fields)))
    elif what == 2:
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(["7", "0", "x"]))
    elif what == 3:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    elif what == 4:
        return lines[:i] + lines[i + 1:]
    elif what == 5:
        return lines[:i] + [lines[i]] + lines[i:]
    else:
        fields[rng.randrange(max(1, len(fields) - 1))] = str(rng.randint(0, 9))
    lines[i] = " ".join(fields)
    return lines


def _decorate(rng, lines):
    """Text of the lines with comments, blank lines, tabs and mixed line endings."""
    out = []
    for line in lines:
        while rng.random() < 0.1:
            out.append(rng.choice(["", "   ", "# a comment", "\t# 0 0 1", "#"]))
        line = rng.choice(["\t", " "]).join(line.split(" ")) if rng.random() < 0.2 else line
        if rng.random() < 0.15:
            line = f"  {line} # note"
        out.append(line + ("\r" if rng.random() < 0.2 else ""))
    return "\n".join(out) + rng.choice(["", "\n", "\r\n", "\n\n"])


def _same_failure(expected, call):
    with pytest.raises(StormletError) as got:
        call()
    assert type(got.value) is type(expected)
    assert str(got.value) == str(expected)
    assert getattr(got.value, "line", None) == getattr(expected, "line", None)


def _outcome(call):
    try:
        return call(), None
    except StormletError as exc:
        return None, exc


# piece sizes; each piece is read by the fast reader, or by the line reader
# where the fast reader leaves it
PIECES = [1, 9, 50, 1 << 14, explicit._PIECE_CHARS]


@settings(deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dtmc", "ctmc", "mdp"]),
       rational=st.booleans(), fix=st.booleans(), mutate=st.booleans(),
       piece=st.sampled_from(PIECES))
def test_loader_matches_scalar_reference(seed, kind, rational, fix, mutate, piece):
    rng = random.Random(seed)
    lines = _transition_lines(rng, kind)
    if mutate:
        lines = _mutate(rng, lines)
    header = [rng.choice(["", "# model", "  "]) for _ in range(rng.randint(0, 2))]
    header.append(rng.choice([kind, f" {kind}\t", f"{kind} # kind"] if not mutate or rng.random() < 0.8
                             else ["markov", f"{kind} 0", "", f"{kind}{kind}"]))
    text = _decorate(rng, header + lines)
    saved, explicit._PIECE_CHARS = explicit._PIECE_CHARS, piece
    try:
        expected, error = _outcome(lambda: ref_parse_transitions(text, rational, fix))
        if error is not None:
            _same_failure(error, lambda: explicit.parse_transitions(text, rational, fix))
            return
        got = explicit.parse_transitions(text, rational, fix)
    finally:
        explicit._PIECE_CHARS = saved
    kind_, m, offsets, rates = got
    e_kind, e_m, e_offsets, e_rates = expected
    assert kind_ is e_kind
    assert_same(m, e_m)
    assert_same(offsets, e_offsets)
    if e_rates is None:
        assert rates is None
    else:
        assert type(rates) is list
        assert_same(sparse.as_vector(rates, m.dtype), sparse.as_vector(e_rates, m.dtype))
        assert [type(r) for r in rates] == [type(r) for r in e_rates]


def _reward_lines(rng, offsets, mdp, per_choice):
    lines = []
    for s in range(len(offsets) - 1):
        for c in range(offsets[s + 1] - offsets[s] if per_choice else 1):
            if rng.random() < 0.6:
                value = rng.choice([Fraction(0), Fraction(rng.randint(1, 40), rng.choice([1, 3, 4, 1000]))])
                zero = ["0", "-0", "0.0", "-0.0", "+0", "-0e-3"]
                token = rng.choice(zero) if value == 0 else _token(rng, value, rng.random() < 0.1)
                state = _index(rng, s)
                lines.append(f"{state} {_index(rng, c)} {token}" if per_choice and mdp else f"{state} {token}")
    rng.shuffle(lines)  # reward lines may come in any order
    return lines


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), mdp=st.booleans(), rational=st.booleans(),
       mutate=st.booleans(), piece=st.sampled_from(PIECES))
def test_reward_loaders_match_scalar_reference(seed, mdp, rational, mutate, piece):
    rng = random.Random(seed)
    counts = [rng.randint(1, 3) if mdp else 1 for _ in range(rng.randint(1, 6))]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    kind = ModelKind.MDP if mdp else ModelKind.DTMC
    cases = [
        (lambda text: ref_parse_state_rewards(text, len(counts), rational),
         lambda text: explicit.parse_state_rewards(text, len(counts), rational), False),
        (lambda text: ref_parse_action_rewards(text, kind, offsets, rational),
         lambda text: explicit.parse_action_rewards(text, kind, offsets, rational), True),
    ]
    saved, explicit._PIECE_CHARS = explicit._PIECE_CHARS, piece
    try:
        for reference, loader, per_choice in cases:
            lines = _reward_lines(rng, offsets, mdp, per_choice)
            if mutate:
                lines = _mutate(rng, lines)
            text = _decorate(rng, lines)
            expected, error = _outcome(lambda: reference(text))
            if error is not None:
                _same_failure(error, lambda: loader(text))
            else:
                assert_same(loader(text), expected)
    finally:
        explicit._PIECE_CHARS = saved


# --- clean pieces, which np.loadtxt reads, against the scalar reference ------
#
# A clean piece (ASCII, no NUL) of a transitions or reward file is read by
# one np.loadtxt call, which drops its comment and blank lines. The tokens
# below are the ones numpy's text reader could read apart from int()/float(),
# or split apart from str.split(); spliced into undecorated files they must
# still give the reference's model or its exact error.

SPLICED = ["२", "٣", "１", "1_0", "0_7", "-0", "+5", "0x10", "1e400", "nan", "12345678901234567890"]


def _splice(rng, lines):
    """The lines with one to three of them changed: a field replaced by a
    SPLICED token, a space replaced by ``\\x0c`` or ``\\x1c``, or a ``\\r`` put
    inside the line."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3) if lines else 0):
        i = rng.randrange(len(lines))
        fields = lines[i].split()
        what = rng.randrange(3)
        if what == 0:
            fields[rng.randrange(len(fields))] = rng.choice(SPLICED)
            lines[i] = " ".join(fields)
        elif what == 1 and len(fields) > 1:
            j = rng.randrange(1, len(fields))
            lines[i] = " ".join(fields[:j]) + rng.choice(["\x0c", "\x1c"]) + " ".join(fields[j:])
        else:
            j = rng.randrange(1, max(2, len(lines[i])))
            lines[i] = lines[i][:j] + "\r" + lines[i][j:]
    return lines


def _agree(reference, loader, same=assert_same):
    expected, error = _outcome(reference)
    if error is not None:
        _same_failure(error, loader)
    else:
        same(loader(), expected)


def _same_transitions(got, expected):
    (kind, m, offsets, rates), (e_kind, e_m, e_offsets, e_rates) = got, expected
    assert kind is e_kind
    assert_same(m, e_m)
    assert_same(offsets, e_offsets)
    assert (rates is None) == (e_rates is None)
    if rates is not None:
        assert [type(r) for r in rates] == [type(r) for r in e_rates]
        assert_same(sparse.as_vector(rates, m.dtype), sparse.as_vector(e_rates, m.dtype))


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["dtmc", "ctmc", "mdp"]), rational=st.booleans(),
       splice=st.booleans(), piece=st.sampled_from(PIECES))
def test_clean_pieces_match_scalar_reference(seed, kind, rational, splice, piece):
    rng = random.Random(seed)
    lines = _transition_lines(rng, kind)
    text = "\n".join([kind, *(_splice(rng, lines) if splice else lines)]) + rng.choice(["", "\n"])
    mdp = kind == "mdp"
    counts = [rng.randint(1, 3) if mdp else 1 for _ in range(rng.randint(1, 6))]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    model_kind = ModelKind(kind)
    rewards = []
    for per_choice in (False, True):
        lines = _reward_lines(rng, offsets, mdp, per_choice)
        rewards.append("".join(line + "\n" for line in (_splice(rng, lines) if splice else lines)))
    saved, explicit._PIECE_CHARS = explicit._PIECE_CHARS, piece
    try:
        _agree(lambda: ref_parse_transitions(text, rational), lambda: explicit.parse_transitions(text, rational),
               _same_transitions)
        _agree(lambda: ref_parse_state_rewards(rewards[0], len(counts), rational),
               lambda: explicit.parse_state_rewards(rewards[0], len(counts), rational))
        _agree(lambda: ref_parse_action_rewards(rewards[1], model_kind, offsets, rational),
               lambda: explicit.parse_action_rewards(rewards[1], model_kind, offsets, rational))
    finally:
        explicit._PIECE_CHARS = saved


def test_other_scripts_digits_are_read_as_int_reads_them():
    # numpy's text reader reads a lone Devanagari two as 2360 in an int64 column
    assert explicit.parse_state_rewards("0 1\n२ 5\n", 3).tolist() == [1.0, 0.0, 5.0]
    assert explicit.parse_action_rewards("0 ० 1\n१ 1 2\n", ModelKind.MDP, [0, 1, 3]).tolist() == [1.0, 0.0, 2.0]
    _, m, _, _ = explicit.parse_transitions("dtmc\n0 २ 1\n1 0 1\n2 1 1\n")
    assert m.row(0)[0].tolist() == [2]


def test_clean_pieces_take_one_loadtxt_call_each(monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(args) or loadtxt(*args, **kw))
    body = "".join(f"{i} {i + 1} 1\n" for i in range(12000)) + "12000 12000 1\n"
    pieces = len(list(explicit._pieces(body, explicit._PIECE_CHARS)))
    assert pieces > 1
    for rational in (False, True):
        calls.clear()
        _same_transitions(explicit.parse_transitions("dtmc\n" + body, rational),
                          ref_parse_transitions("dtmc\n" + body, rational))
        assert len(calls) == pieces
    rewards = "".join(f"{i} {i % 7}.5\n" for i in range(3001))
    for rational in (False, True):
        calls.clear()
        assert_same(explicit.parse_state_rewards(rewards, 3001, rational),
                    ref_parse_state_rewards(rewards, 3001, rational))
        assert len(calls) == len(list(explicit._pieces(rewards, explicit._PIECE_CHARS)))
    # a commented piece takes one call too
    text = "dtmc\n# note\n" + body
    calls.clear()
    _same_transitions(explicit.parse_transitions(text), ref_parse_transitions(text))
    assert len(calls) == len(list(explicit._pieces(text, explicit._PIECE_CHARS, len("dtmc\n"))))
    # a non-ASCII digit keeps only its own piece away from loadtxt
    text = "dtmc\n٠" + body[1:]
    calls.clear()
    _same_transitions(explicit.parse_transitions(text), ref_parse_transitions(text))
    assert len(calls) == len(list(explicit._pieces(text, explicit._PIECE_CHARS, len("dtmc\n")))) - 1
    # a labels piece of one label per line takes one call too
    labels = "#DECLARATION\ninit far\n#END\n" + "".join(f"{i} far # far\n" for i in range(1000))
    calls.clear()
    assert_same(explicit.parse_labels(labels, 1000), ref_parse_labels(labels, 1000))
    assert len(calls) == len(list(explicit._pieces(labels, explicit._PIECE_CHARS))) == 1


def test_labels_of_any_width_take_one_loadtxt_call_per_piece(monkeypatch):
    calls, split = [], []
    loadtxt, fields = np.loadtxt, explicit._fields
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(args) or loadtxt(*args, **kw))
    monkeypatch.setattr(explicit, "_fields", lambda *args: split.append(args) or fields(*args))
    head = "#DECLARATION\ninit low high odd\n#END\n"
    names = ["low", "high odd", "init\tlow  high", "low # a comment", "high\r", "odd low high low"]
    text = head + "".join(f"{i} {names[i % len(names)]}\n" + ("\n" if i % 1000 == 999 else "") for i in range(12000))
    pieces = list(explicit._pieces(text, explicit._PIECE_CHARS, len(head)))
    assert len(pieces) > 1
    assert_same(explicit.parse_labels(text, 12000), ref_parse_labels(text, 12000))
    assert len(calls) == len(pieces) and split == []


def test_first_non_finite_entry_is_reported_in_file_order():
    # both entries of row 0 add up past the float range, the later column first in the file
    text = "ctmc\n0 2 1e308\n0 1 1e308\n0 2 1e308\n0 1 1e308\n1 0 1\n2 0 1\n"
    _, error = _outcome(lambda: ref_parse_transitions(text))
    assert str(error) == "non-finite value at (0,2)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _same_failure(error, lambda: explicit.parse_transitions(text))


def test_entries_that_round_to_zero_are_dropped():
    # 5e-324 / 4 rounds to 0, and a deadlocked state keeps its own row
    text = "ctmc\n0 1 5e-324\n0 2 4\n1 1 1\n"
    _same_transitions(explicit.parse_transitions(text, fix_deadlocks=True),
                      ref_parse_transitions(text, fix_deadlocks=True))
    assert explicit.parse_transitions(text, fix_deadlocks=True)[1].row(0)[0].tolist() == [2]


FLOAT_INDICES = ["dtmc\n0 1.0 1\n1 1 1\n", "dtmc\n0 1.7 1\n1 1 1\n", "mdp\n0 0 1e0 1\n1 0.0 1 1\n"]


def _truncating_loadtxt(loadtxt):
    """np.loadtxt as numpy 1.23 has it: a float token in an int64 column is
    read truncated, with one DeprecationWarning."""
    def load(lines, dtype, **kw):
        fixed = [" ".join([str(int(float(t))) for t in line.split()[:-1]] + line.split()[-1:]) for line in lines]
        if fixed != lines:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(fixed, dtype, **kw)
    return load


@pytest.mark.parametrize("text", FLOAT_INDICES)
@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("truncating", [False, True])
def test_float_indices_fail_as_in_the_reference(text, rational, truncating, monkeypatch):
    if truncating:
        monkeypatch.setattr(np, "loadtxt", _truncating_loadtxt(np.loadtxt))
    _, error = _outcome(lambda: ref_parse_transitions(text, rational))
    assert error is not None
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            _same_failure(error, lambda: explicit.parse_transitions(text, rational))
    for rewards, load, ref in [
        ("0 1\n1.7 2\n", lambda t: explicit.parse_state_rewards(t, 3, rational),
         lambda t: ref_parse_state_rewards(t, 3, rational)),
        ("0 0 1\n1 1.0 2\n", lambda t: explicit.parse_action_rewards(t, ModelKind.MDP, [0, 1, 3], rational),
         lambda t: ref_parse_action_rewards(t, ModelKind.MDP, [0, 1, 3], rational)),
    ]:
        _, error = _outcome(lambda: ref(rewards))
        assert error is not None
        _same_failure(error, lambda: load(rewards))


@pytest.mark.parametrize("piece", PIECES)
def test_blank_pieces_raise_no_warning(piece, monkeypatch):
    monkeypatch.setattr(explicit, "_PIECE_CHARS", piece)
    blanks = ["", "\n", "\n\n\n", "   \n\t\n", " \t ", "\r\n", "\r\n\r\n", "\x0c\n"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for blank in blanks:
            for text in (f"dtmc\n0 0 1\n{blank}", f"dtmc\r\n{blank}0 0 1\r\n{blank}"):
                assert explicit.parse_transitions(text)[1].nnz == 1
            for text in (blank, f"0 2\r\n{blank}"):
                assert_same(explicit.parse_state_rewards(text, 1), ref_parse_state_rewards(text, 1))
                assert_same(explicit.parse_action_rewards(text, ModelKind.DTMC, [0, 1]),
                            ref_parse_action_rewards(text, ModelKind.DTMC, [0, 1]))


@pytest.mark.parametrize("load, text, message, line", [
    (explicit.parse_transitions, "dtmc\n0 1 1\n\n   \n1 1 0\n", "transition values must be positive", 5),
    (explicit.parse_transitions, "dtmc\r\n1 1 1\r\n\r\n0 0 1\r\n", "state 0 choice 0 out of ascending order", 4),
    (lambda text: explicit.parse_state_rewards(text, 2), "0 1\n\t\n0 2\n", "duplicate reward assignment for state 0", 3),
])
def test_blank_lines_keep_line_numbers(load, text, message, line):
    with pytest.raises(ParseError) as exc:
        load(text)
    assert str(exc.value) == f"{message} at line {line}"


LABELS_AB = "#DECLARATION\na b\n#END\n"


@pytest.mark.parametrize("load, reference, text, readers", [
    (explicit.parse_transitions, ref_parse_transitions, "dtmc\n# c\n0 1 1\n\n# c\n1 1 0 # zero\n", ["loadtxt"]),
    (explicit.parse_transitions, ref_parse_transitions, "dtmc\n# c\n1 1 1\n# c\n\n0 0 1\n", ["loadtxt"]),
    (explicit.parse_transitions, ref_parse_transitions, "mdp\n# c\n0 0 0 1\n# c\n0 2 0 1\n", ["loadtxt"]),
    (lambda t: explicit.parse_state_rewards(t, 2), lambda t: ref_parse_state_rewards(t, 2), "0 1\n# c\n\n0 2\n",
     ["loadtxt"]),
    (lambda t: explicit.parse_state_rewards(t, 2, True), lambda t: ref_parse_state_rewards(t, 2, True),
     "# c\n0 1\n# c\n1 -2\n", ["loadtxt"]),
    (lambda t: explicit.parse_action_rewards(t, ModelKind.DTMC, [0, 1, 2], True),
     lambda t: ref_parse_action_rewards(t, ModelKind.DTMC, [0, 1, 2], True), "0 1\n# c\n\n1 -1/2\n", ["loadtxt"]),
    (lambda t: explicit.parse_labels(t, 2), lambda t: ref_parse_labels(t, 2), LABELS_AB + "# c\n0 a\n\n# c\n5 b\n",
     ["loadtxt"]),
    # an undeclared name leaves the piece to the line reader, which reports it
    (lambda t: explicit.parse_labels(t, 2), lambda t: ref_parse_labels(t, 2), LABELS_AB + "0 a\n# c\n1 b # c\n1 x\n",
     ["loadtxt", "fields"]),
])
def test_bad_line_after_comments_is_numbered_in_the_same_pass(load, reference, text, readers, monkeypatch):
    events = []
    loadtxt, fields = np.loadtxt, explicit._fields
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: events.append("loadtxt") or loadtxt(*args, **kw))
    monkeypatch.setattr(explicit, "_fields", lambda *args: events.append("fields") or fields(*args))
    _, error = _outcome(lambda: reference(text))
    assert error is not None and "line" in str(error)
    _same_failure(error, lambda: load(text))
    assert events == readers  # the fast reader read the one piece once, and no reader read it again to number it


def test_bad_last_line_of_a_clean_file_is_numbered_in_one_pass(monkeypatch):
    text = "dtmc\n" + "".join(f"{i} {i + 1} 0.5\n{i} {i} 0.5\n" for i in range(6000)) + "6000 6000 0\n"
    pieces = list(explicit._pieces(text, explicit._PIECE_CHARS, len("dtmc\n"), 2))
    assert len(pieces) > 1
    _, error = _outcome(lambda: ref_parse_transitions(text))
    assert (str(error), error.line) == ("transition values must be positive at line 12002", 12002)
    loads, fields = [], []
    loadtxt, read = np.loadtxt, explicit._fields
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: loads.append(args[0]) or loadtxt(*args, **kw))
    monkeypatch.setattr(explicit, "_fields", lambda *args: fields.append(args) or read(*args))
    _same_failure(error, lambda: explicit.parse_transitions(text))
    # every piece read once by numpy, and none by the line reader: the failing row is numbered by
    # a pass over its piece's bytes
    assert loads == [piece.split("\n") for _, _, piece in pieces]
    assert fields == []


def test_row_totals_add_left_to_right():
    rng = random.Random(1)
    rates = [rng.uniform(0.1, 10.0) for _ in range(40)]
    order = rng.sample(range(40), 40)
    text = "ctmc\n" + "".join(f"0 {j} {rates[j]!r}\n" for j in order) + "".join(f"{j} 0 1\n" for j in range(1, 40))
    total = 0.0
    for j in order:
        total += rates[j]
    assert total != sum(rates) and total != float(np.sum(np.array(rates)[order]))  # the order shows
    assert explicit.parse_transitions(text)[3][0] == total


def ref_parse_labels(text, n_states):
    """The per-line labels parser the columnar one replaced."""
    lines = [(no, raw.strip()) for no, raw in enumerate(text.split("\n"), start=1) if raw.strip()]
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
    for no, line in lines[i + 1:]:
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


LABEL_NAMES = ["init", "goal", "far", "done", "a_1", "x"]


def _label_file(rng, n_states, mutate):
    """The lines of a labels file: a declaration block, then state lines in any order."""
    names = rng.sample(LABEL_NAMES, rng.randint(0, len(LABEL_NAMES)))
    head = [rng.choice(["", "# labels", "  "]) for _ in range(rng.randint(0, 2))] + ["#DECLARATION"]
    per_line = rng.randint(1, max(1, len(names)))
    head += [" ".join(names[i:i + per_line]) for i in range(0, len(names), per_line)] + ["#END"]
    body = []
    if names:
        for s in range(n_states):
            if rng.random() < 0.6:
                body.append(" ".join([_index(rng, s), *rng.sample(names, rng.randint(1, len(names)))]))
    rng.shuffle(body)
    if mutate:
        what = rng.randrange(6)
        if what == 0 and body:
            body = _mutate(rng, body)
        elif what == 1:
            head.remove("#END")
        elif what == 2 and len(head) > 2:
            head.insert(rng.randrange(len(head)), rng.choice(LABEL_NAMES + ["#DECLARATION", "# x"]))
        elif what == 3:
            body.insert(rng.randint(0, len(body)), rng.choice(["7", "-1 goal", "99999999999999999999 x", "2 y",
                                                               "0 init init", "1e1 goal", "x goal"]))
        elif what == 4:
            head = head[rng.randint(1, len(head)):]
        else:
            body.append(rng.choice(["#END", "#DECLARATION", "goal", "0"]))
    return head + body


@settings(deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), mutate=st.booleans(), piece=st.sampled_from(PIECES))
def test_labels_parser_matches_scalar_reference(seed, mutate, piece):
    rng = random.Random(seed)
    n_states = rng.randint(1, 8)
    text = _decorate(rng, _label_file(rng, n_states, mutate))
    saved, explicit._PIECE_CHARS = explicit._PIECE_CHARS, piece
    try:
        expected, error = _outcome(lambda: ref_parse_labels(text, n_states))
        if error is not None:
            _same_failure(error, lambda: explicit.parse_labels(text, n_states))
        else:
            assert_same(explicit.parse_labels(text, n_states), expected)
    finally:
        explicit._PIECE_CHARS = saved


@pytest.mark.parametrize("names, body", [
    ("deadlock init", "0 deadlock\n1 init deadlock deadlock\n"),  # a name of two 8-byte words
    ("deadlock init", "0 deadlockX\n1 init\n"),  # one byte longer than the longest: numpy cuts it short
    ("deadlock init", "0 deadloc\n"),
    ("abcdefghijklmnop q", "0 q abcdefghijklmnop q q\n1 abcdefghijklmnopq\n"),
    ("a \x01", "0 a\n1 a a\n"),  # a declared name that is the fast reader's pad
    ("été a", "0 a\n1 a\n"),  # a declared name the fast reader cannot meet
    ("été a", "0 a\n1 été\n"),
    ("a b", "0 a" + " " * 40 + "\n1 b\t \x0ca  b\n"),  # blanks that make lines look wider than they are
    ("a\x00 b", "0 a\n1 b\n"),  # numpy's bytes drop a trailing NUL, but "a" was not declared
    ("abcdefgh a", "0 abcdefgh a\n1 a abcdefgh\n"),  # a name of exactly one 8-byte word
    ("abcdefghX abcdefghY", "0 abcdefghY\n1 abcdefghX abcdefghY\n"),  # names whose first 8 bytes agree
])
def test_label_names_match_the_reference_however_long(names, body):
    text = f"#DECLARATION\n{names}\n#END\n{body}"
    _agree(lambda: ref_parse_labels(text, 2), lambda: explicit.parse_labels(text, 2))
