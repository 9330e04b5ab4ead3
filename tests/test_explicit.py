"""Explicit transition/label/reward file parsing and serialization."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlet import explicit
from stormlet.errors import DeadlockError, ModelError, ParseError, StormletError
from stormlet.explicit import ExplicitBundle
from stormlet.models import ModelKind

LABELS_EMPTY = "#DECLARATION\n\n#END\n"


def test_parse_minimal_dtmc():
    kind, m, offsets, rates, patched = explicit.parse_transitions("dtmc\n0 0 1.0\n")
    assert kind is ModelKind.DTMC
    assert m.rows == 1 and m.values[0] == 1.0
    assert rates is None and not patched.any()


def test_parse_two_state_chain():
    text = "dtmc\n0 0 0.5\n0 1 0.5\n1 1 1\n"
    kind, m, offsets, _, _ = explicit.parse_transitions(text)
    assert m.rows == 2
    assert list(offsets) == [0, 1, 2]
    cols, vals = m.row(0)
    assert list(cols) == [0, 1] and list(vals) == [0.5, 0.5]


def test_parse_mdp_choice_offsets():
    text = "mdp\n0 0 0 1.0\n0 1 1 1.0\n1 0 1 1.0\n"
    kind, m, offsets, _, _ = explicit.parse_transitions(text)
    assert kind is ModelKind.MDP
    assert list(offsets) == [0, 2, 3]


def test_parse_ctmc_builds_embedded_chain():
    text = "ctmc\n0 1 2.0\n0 0 2.0\n1 1 3.0\n"
    kind, m, offsets, rates, _ = explicit.parse_transitions(text)
    assert kind is ModelKind.CTMC
    assert rates == [4.0, 3.0]
    cols, vals = m.row(0)
    assert list(vals) == [0.5, 0.5]


def test_comments_and_blank_lines_ignored():
    text = "dtmc\n\n# a comment\n0 0 1.0  # trailing\n\n"
    kind, m, _, _, _ = explicit.parse_transitions(text)
    assert m.rows == 1


def test_crlf_line_endings():
    kind, m, _, _, _ = explicit.parse_transitions("dtmc\r\n0 1 1\r\n1 1 1\r\n")
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
    kind, m, _, _, patched = explicit.parse_transitions(text, fix_deadlocks=True)
    assert list(patched) == [False, True]
    cols, vals = m.row(1)
    assert list(cols) == [1] and vals[0] == 1.0


def test_row_renormalization_within_tolerance():
    kind, m, _, _, _ = explicit.parse_transitions("dtmc\n0 0 0.3333334\n0 1 0.6666667\n1 1 1\n")
    _, vals = m.row(0)
    assert sum(vals) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModelError):
        explicit.parse_transitions("dtmc\n0 0 0.4\n0 1 0.5\n1 1 1\n")


def test_rational_mode_requires_exact_distribution():
    text = "dtmc\n0 0 1/3\n0 1 2/3\n1 1 1\n"
    kind, m, _, _, _ = explicit.parse_transitions(text, rational=True)
    assert m.values[0] == Fraction(1, 3)
    with pytest.raises(ModelError):
        explicit.parse_transitions("dtmc\n0 0 1/3\n0 1 1/3\n1 1 1\n", rational=True)


def test_float_mode_parses_fraction_tokens_exactly_once():
    text = "dtmc\n0 0 1/3\n0 1 2/3\n1 1 1\n"
    _, m, _, _, _ = explicit.parse_transitions(text)
    assert m.dtype == "float"
    assert list(m.values) == [float(Fraction(1, 3)), float(Fraction(2, 3)), 1.0]
    assert list(explicit.parse_state_rewards("0 1/4\n", 1)) == [0.25]
    for rational in (False, True):
        for token in ("inf", "nan"):
            with pytest.raises(ParseError):
                explicit.parse_transitions(f"dtmc\n0 0 {token}\n", rational=rational)


def test_duplicate_transitions_coalesce():
    kind, m, _, _, _ = explicit.parse_transitions("dtmc\n0 1 0.5\n0 1 0.5\n1 1 1\n")
    cols, vals = m.row(0)
    assert list(cols) == [1] and vals[0] == 1.0


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
    assert round_trip(model) == model

    mdp, _, _ = random_mdp(rng, 5, labels={"init": [True] + [False] * 4})
    mdp.initial_states = mdp.labeling.get("init")
    assert round_trip(mdp) == mdp


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
    assert round_trip(model) == model


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
    assert again == model
    assert list(again.exit_rates) == [2.5, 2.0]


@settings(deadline=None, max_examples=150)
@given(st.text(alphabet="dtmcp 0123456789.\n#-/e", max_size=80))
def test_parser_totality_on_fuzzed_input(text):
    """Any input either parses or raises a structured error, never crashes."""
    try:
        explicit.parse_transitions(text)
    except StormletError:
        pass
