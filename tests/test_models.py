"""Model construction, labeling and validation."""

from fractions import Fraction

import pytest

from stormlet import sparse
from stormlet.errors import DeadlockError, ModelError
from stormlet.models import Model, ModelKind, RewardModel, StateLabeling


def dtmc_matrix():
    return sparse.build_sparse(
        [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)], 2, 2
    )


def test_labeling_basic():
    lab = StateLabeling(3, {"goal": [False, True, True]})
    assert "goal" in lab and "other" not in lab
    assert list(lab.states_with("goal")) == [1, 2]
    lab.add("init", [True, False, False])
    assert lab.names() == ["goal", "init"]
    with pytest.raises(ModelError):
        lab.get("missing")
    with pytest.raises(ModelError):
        lab.add("bad", [True])


def test_dtmc_model_basic():
    m = Model(ModelKind.DTMC, dtmc_matrix(), StateLabeling(2))
    assert m.n_states == 2 and m.n_choices == 2
    assert list(m.choices_of(0)) == [0]
    assert m.dtype == "float"


def test_row_sum_validation_float():
    bad = sparse.build_sparse([(0, 0, 0.4), (0, 1, 0.5), (1, 1, 1.0)], 2, 2)
    with pytest.raises(ModelError, match="row 0 sums to 0.9,"):
        Model(ModelKind.DTMC, bad, StateLabeling(2))


def test_row_sum_validation_rational_is_exact():
    bad = sparse.build_sparse(
        [(0, 0, Fraction(1, 3)), (0, 1, Fraction(1, 3)), (1, 1, Fraction(1))], 2, 2, "rational"
    )
    with pytest.raises(ModelError):
        Model(ModelKind.DTMC, bad, StateLabeling(2))


def test_empty_row_is_a_deadlock():
    m = sparse.SparseMatrix(2, 2, [0, 1, 1], [0], [1.0], "float")
    with pytest.raises(DeadlockError):
        Model(ModelKind.DTMC, m, StateLabeling(2))


def test_mdp_choice_offsets():
    mat = sparse.build_sparse(
        [(0, 0, 1.0), (1, 1, 1.0), (2, 1, 1.0)], 3, 2
    )
    m = Model(ModelKind.MDP, mat, StateLabeling(2), choice_offsets=[0, 2, 3])
    assert m.n_states == 2 and m.n_choices == 3
    assert list(m.choices_of(0)) == [0, 1]
    assert m.row_of_choice(2) == 1


def test_mdp_state_without_choice_rejected():
    mat = sparse.build_sparse([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
    with pytest.raises(ModelError):
        Model(ModelKind.MDP, mat, StateLabeling(2), choice_offsets=[0, 0, 2])


def test_dtmc_offsets_must_be_identity():
    mat = sparse.build_sparse([(0, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0)], 3, 2)
    with pytest.raises(ModelError):
        Model(ModelKind.DTMC, mat, StateLabeling(2), choice_offsets=[0, 2, 3])


def test_ctmc_requires_positive_exit_rates():
    with pytest.raises(ModelError):
        Model(ModelKind.CTMC, dtmc_matrix(), StateLabeling(2))
    with pytest.raises(ModelError):
        Model(ModelKind.CTMC, dtmc_matrix(), StateLabeling(2), exit_rates=[1.0, 0.0])
    m = Model(ModelKind.CTMC, dtmc_matrix(), StateLabeling(2), exit_rates=[2.0, 1.0])
    assert list(m.exit_rates) == [2.0, 1.0]


def test_exit_rates_rejected_on_discrete_models():
    with pytest.raises(ModelError):
        Model(ModelKind.DTMC, dtmc_matrix(), StateLabeling(2), exit_rates=[1.0, 1.0])


def test_reward_model_rejects_negative_values():
    with pytest.raises(ModelError):
        RewardModel("r", state_rewards=[1.0, -0.5])


def test_reward_model_length_validation():
    rm = RewardModel("r", state_rewards=[1.0])
    with pytest.raises(ModelError):
        Model(ModelKind.DTMC, dtmc_matrix(), StateLabeling(2), rewards={"r": rm})


def test_reward_model_lookup():
    rm = RewardModel("r", state_rewards=[1.0, 0.0])
    m = Model(ModelKind.DTMC, dtmc_matrix(), StateLabeling(2), rewards={"r": rm})
    assert m.reward_model() is rm
    assert m.reward_model("r") is rm
    with pytest.raises(ModelError):
        m.reward_model("other")
    bare = Model(ModelKind.DTMC, dtmc_matrix(), StateLabeling(2))
    with pytest.raises(ModelError):
        bare.reward_model()
