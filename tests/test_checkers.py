"""End-to-end property checking against closed forms and brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from conftest import (
    CORPUS,
    STAY_OR_GO,
    assert_same,
    oracle_bounded_until,
    oracle_cumulative_reward,
    oracle_mdp_reach,
    oracle_mdp_reach_reward,
    oracle_reach_probability,
    oracle_reach_reward,
    random_dtmc,
    random_mdp,
    random_stochastic_rows,
    rows_to_matrix,
)
from stormlet import checkers, solvers, sparse
from stormlet.errors import PropertyError, SolverError, UnsupportedCombination
from stormlet.models import Model, ModelKind, RewardModel, StateLabeling
from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
from stormlet.props import parse_property, resolve_atoms
from stormlet.solvers import SolverEnvironment

ENV = SolverEnvironment(precision=1e-10)
EXACT_ENV = SolverEnvironment()  # the exact methods follow from a rational matrix


def dtmc(rows, labels=None, rational=False, rewards=None):
    n = len(rows)
    model = Model(
        ModelKind.DTMC,
        rows_to_matrix(rows, n, rational),
        StateLabeling(n, labels or {}),
        rewards=rewards,
    )
    return model


def run(model, text, env=ENV, state_map=None):
    prop = resolve_atoms(parse_property(text), model, state_map)
    return checkers.check(model, prop, env)


F = Fraction


# --- next / bounded until -------------------------------------------------


def test_next_dtmc():
    model = dtmc([{0: F(1, 4), 1: F(3, 4)}, {1: F(1)}], {"goal": [False, True]})
    out = run(model, 'P=? [ X "goal" ]')
    assert out.values[0] == 0.75 and out.values[1] == 1.0


def test_next_mdp_directions():
    mat = rows_to_matrix([{1: F(1)}, {0: F(1)}, {1: F(1)}], 2, False)
    model = Model(
        ModelKind.MDP, mat, StateLabeling(2, {"goal": [False, True]}), choice_offsets=[0, 2, 3]
    )
    vmax = run(model, 'Pmax=? [ X "goal" ]').values
    vmin = run(model, 'Pmin=? [ X "goal" ]').values
    assert vmax[0] == 1.0 and vmin[0] == 0.0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_bounded_until_matches_path_enumeration(seed, k):
    rng = random.Random(6000 + seed)
    rows = random_stochastic_rows(rng, 5, 5)
    left = [rng.random() < 0.8 for _ in range(5)]
    right = [rng.random() < 0.3 for _ in range(5)]
    model = dtmc(rows, {"l": left, "r": right})
    out = run(model, f'P=? [ "l" U<={k} "r" ]')
    for s in range(5):
        expected = oracle_bounded_until(rows, left, right, k, s)
        assert out.values[s] == pytest.approx(float(expected), abs=1e-12)


def test_bounded_until_exact_mode():
    rows = [{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}]
    model = dtmc(rows, {"goal": [False, True]}, rational=True)
    out = run(model, 'P=? [ F<=2 "goal" ]', EXACT_ENV)
    assert out.values[0] == F(3, 4)


def test_bounded_until_monotone_in_k_converges_to_unbounded():
    rng = random.Random(77)
    rows = random_stochastic_rows(rng, 6, 6)
    right = [False] * 5 + [True]
    rows[5] = {5: F(1)}
    model = dtmc(rows, {"goal": right})
    exact = oracle_reach_probability(rows, [True] * 6, right)
    prev = None
    for k in (1, 2, 4, 8, 16, 32, 64, 256, 1024, 8192):
        vals = run(model, f'P=? [ F<={k} "goal" ]').values
        if prev is not None:
            assert all(vals[s] >= prev[s] - 1e-12 for s in range(6))
        prev = vals
    for s in range(6):
        assert prev[s] == pytest.approx(float(exact[s]), abs=1e-9)


# --- unbounded until ------------------------------------------------------


def test_until_simple_loop_probability_one():
    model = dtmc([{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}], {"goal": [False, True]})
    out = run(model, 'P=? [ F "goal" ]')
    assert out.values[0] == pytest.approx(1.0, abs=1e-9)
    assert out.metadata["prob1"] == 2


def test_until_exact_geometric():
    rows = [{0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}, {1: F(1)}, {2: F(1)}]
    model = dtmc(rows, {"goal": [False, True, False]}, rational=True)
    out = run(model, 'P=? [ F "goal" ]', EXACT_ENV)
    assert out.values[0] == F(1, 2)


@pytest.mark.parametrize("seed", range(20))
def test_until_matches_exact_oracle(seed):
    rng = random.Random(7000 + seed)
    rows = random_stochastic_rows(rng, 7, 7)
    left = [rng.random() < 0.85 for _ in range(7)]
    right = [rng.random() < 0.25 for _ in range(7)]
    model = dtmc(rows, {"l": left, "r": right})
    out = run(model, 'P=? [ "l" U "r" ]')
    expected = oracle_reach_probability(rows, left, right)
    for s in range(7):
        assert out.values[s] == pytest.approx(float(expected[s]), abs=1e-8)


def test_until_threshold_comparison():
    model = dtmc([{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}], {"goal": [False, True]})
    assert list(run(model, 'P>=1 [ F "goal" ]').values) == [True, True]
    assert list(run(model, 'P<0.5 [ F "goal" ]').values) == [False, False]


def test_globally_is_dual_of_reachability():
    rows = [{0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}, {1: F(1)}, {2: F(1)}]
    model = dtmc(rows, {"safe": [True, True, False]})
    out = run(model, 'P=? [ G "safe" ]')
    reach_bad = run(model, 'P=? [ F !"safe" ]')
    for s in range(3):
        assert out.values[s] == pytest.approx(1.0 - reach_bad.values[s], abs=1e-12)
    # state 1 loops inside safe forever, state 0 eventually falls into 2
    assert out.values[1] == pytest.approx(1.0, abs=1e-9)
    assert out.values[0] == pytest.approx(0.5, abs=1e-9)


# --- MDP until ------------------------------------------------------------


@pytest.mark.parametrize("direction", ["min", "max"])
@pytest.mark.parametrize("seed", range(12))
def test_mdp_until_matches_scheduler_enumeration(seed, direction):
    rng = random.Random(8000 + seed)
    model, rows, offsets = random_mdp(rng, 5, max_choices=3)
    target = [rng.random() < 0.3 for _ in range(5)]
    if not any(target):
        target[0] = True
    model.labeling.add("goal", target)
    out = run(model, f'P{direction}=? [ F "goal" ]')
    expected = oracle_mdp_reach(rows, offsets, target, direction == "max")
    for s in range(5):
        assert out.values[s] == pytest.approx(float(expected[s]), abs=1e-6)


def test_mdp_until_value_vs_policy_iteration():
    rng = random.Random(99)
    model, rows, offsets = random_mdp(rng, 6, max_choices=3)
    target = [False] * 5 + [True]
    model.labeling.add("goal", target)
    vi = SolverEnvironment(minmax_method="value_iteration", precision=1e-10)
    pi = SolverEnvironment(minmax_method="policy_iteration", precision=1e-10)
    for text in ('Pmax=? [ F "goal" ]', 'Pmin=? [ F "goal" ]'):
        a = run(model, text, vi).values
        b = run(model, text, pi).values
        assert np.allclose(a, b, atol=1e-8)


def test_mdp_until_exact_mode():
    mat = rows_to_matrix(
        [{0: F(1, 2), 1: F(1, 2)}, {2: F(1)}, {1: F(1)}, {2: F(1)}], 3, True
    )
    model = Model(
        ModelKind.MDP,
        mat,
        StateLabeling(3, {"goal": [False, True, False]}),
        choice_offsets=[0, 2, 3, 4],
    )
    out = run(model, 'Pmax=? [ F "goal" ]', EXACT_ENV)
    assert out.values[0] == F(1)
    out_min = run(model, 'Pmin=? [ F "goal" ]', EXACT_ENV)
    assert out_min.values[0] == F(0)  # the second choice diverts into the sink loop


def test_mdp_scheduler_metadata():
    mat = rows_to_matrix([{1: F(1)}, {2: F(1)}, {1: F(1)}, {2: F(1)}], 3, False)
    model = Model(
        ModelKind.MDP,
        mat,
        StateLabeling(3, {"goal": [False, True, False]}),
        choice_offsets=[0, 2, 3, 4],
    )
    out = run(model, 'Pmax=? [ F "goal" ]')
    assert out.metadata["direction"] == "max"


def test_rmin_scheduler_witnesses_the_value():
    model, state_map = explore(typecheck(parse_program(STAY_OR_GO)), ExploreOptions())
    out = run(model, 'Rmin=? [ F "goal" ]', state_map=state_map)
    # choice 1 is [go]; [stay] ties with it in the Bellman equation but never reaches the goal
    assert out.values[0] == 1.0 and out.metadata["method"] == "policy_iteration"
    assert list(out.metadata["scheduler"]) == [1, 0]
    assert 0 < out.metadata["error_bound"] <= 1e-10


@pytest.mark.parametrize("optimum, p", [("max", F(1, 2)), ("min", F(1))])
def test_end_component_leaves_policy_iteration_uncertified(optimum, p):
    # states 0 and 1 form an end component of zero-reward moves; 0 may also leave it for
    # reward 1, to the goal 2 with probability p, else to the sink 3. The backup cannot
    # hold inside the end component, and switching there would loop (Pmax) or never
    # reach the goal (Rmin, where that loop would have value 0)
    rows = [{1: F(1)}, {2: p, 3: 1 - p}, {0: F(1)}, {2: F(1)}, {3: F(1)}]
    rm = RewardModel("r", action_rewards=np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
    model = Model(ModelKind.MDP, rows_to_matrix(rows, 4, False),
                  StateLabeling(4, {"goal": [False, False, True, False]}),
                  choice_offsets=[0, 2, 3, 4, 5], rewards={"r": rm})
    text = 'Pmax=? [ F "goal" ]' if optimum == "max" else 'Rmin{"r"}=? [ F "goal" ]'
    out = run(model, text)
    assert out.metadata["method"] == "policy_iteration" and "error_bound" not in out.metadata
    assert out.values[0] == out.values[1] == float(p)
    assert out.metadata["scheduler"][0] == 1


@pytest.mark.parametrize("text, value", [('Pmax=? [ F "goal" ]', 0.25), ('Rmin{"r"}=? [ F "goal" ]', 10.0)])
def test_value_iteration_finishes_when_elimination_gives_up(text, value):
    # states 0, 1 and 2 may [stay] for reward 0 or [go] for reward 1 to each of them with 3/10
    # and to the goal 3 with 1/10 (for Pmax, the self-loop of [go] leads to the sink 4 instead).
    # With no elimination budget the first evaluation gives up and the certified iteration
    # finishes without a bound: the stay loops are end components. For Pmax a guess above the
    # value cannot prove itself, as a stay loop keeps it exactly, and the lower side is
    # returned; for Rmin the upper side descends from the value of the proper seed, so the
    # stay loops' value 0 is never reached
    sink = 4 if text.startswith("Pmax") else None
    rows = []
    for i in range(3):
        rows.append({i: F(1)})
        go = {j: F(3, 10) for j in range(3) if j != i}
        go.update({sink if sink is not None else i: F(3, 10), 3: F(1, 10)})
        rows.append(go)
    rows += [{3: F(1)}, {4: F(1)}]
    rm = RewardModel("r", action_rewards=np.array([0.0, 1.0] * 3 + [0.0, 0.0]))
    model = Model(ModelKind.MDP, rows_to_matrix(rows, 5, False),
                  StateLabeling(5, {"goal": [False, False, False, True, False]}),
                  choice_offsets=[0, 2, 4, 6, 7, 8], rewards={"r": rm})
    with mock.patch.object(solvers, "ELIMINATION_BUDGET", 0):
        out = run(model, text)
    assert out.metadata["method"] == "value_iteration" and "error_bound" not in out.metadata
    assert list(out.values[:3]) == pytest.approx([value] * 3, rel=1e-8)
    if sink is not None:
        # for Rmin [stay] ties with [go], and value iteration reports the lower choice
        assert list(out.metadata["scheduler"][:3]) == [1, 1, 1]


# state 0 splits between the absorbing states 1 and 2; in the MDP it may
# also move to 1 for sure
TWO_WAY = """{kind}
module m
  s : [0..2] init 0;
  [] s=0 -> {p} : (s'=1) + {p} : (s'=2);
  {extra}
  [] s>0 -> (s'=s);
endmodule
label "one" = s=1;
label "done" = s>0;
rewards "r" true : 1; endrewards
"""
TWO_WAY_CASES = {
    "dtmc": ("0.5", "", ["P=? [ F {} ]", "R=? [ F {} ]"]),
    "ctmc": ("2", "", ["P=? [ F {} ]", "R=? [ F {} ]"]),
    "mdp": ("0.5", "[] s=0 -> (s'=1);", ["Pmin=? [ F {} ]", "Pmax=? [ F {} ]", "Rmin=? [ F {} ]", "Rmax=? [ F {} ]"]),
}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("kind", ["dtmc", "ctmc", "mdp"])
def test_unbounded_metadata_on_every_model_kind(kind, exact):
    p, extra, templates = TWO_WAY_CASES[kind]
    program = typecheck(parse_program(TWO_WAY.format(kind=kind, p=p, extra=extra)))
    model, state_map = explore(program, ExploreOptions(exact=exact))
    seen = set()
    for template in templates:
        for target in ('"one"', '"done"'):
            text = template.format(target)
            prop = resolve_atoms(parse_property(text), model, state_map)
            meta = checkers.check(model, prop, ENV).metadata
            assert meta.keys() >= {"iterations", "method"}, text
            settled = meta["method"] == "precomputation"
            seen.add((text[0], settled))
            if settled:
                assert meta["iterations"] == 0
            elif exact:
                assert meta["method"] in ("exact", "policy_iteration")
            if kind == "mdp":
                assert meta["direction"] == text[1:4]
                assert len(meta["scheduler"]) == model.n_states
    # P and R each met a solve and a query that precomputation settled
    assert seen == {("P", True), ("P", False), ("R", True), ("R", False)}


# --- rewards --------------------------------------------------------------


def expected_visits_model():
    # leave state 0 with probability 1/2 per step; reward 1 per visit of 0
    rows = [{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}]
    rm = RewardModel("steps", state_rewards=np.array([1.0, 0.0]))
    return dtmc(rows, {"done": [False, True]}, rewards={"steps": rm})


def test_reach_reward_expected_visits():
    out = run(expected_visits_model(), 'R{"steps"}=? [ F "done" ]')
    assert out.values[0] == pytest.approx(2.0, abs=1e-8)  # geometric mean 1/p
    assert out.values[1] == 0.0


def test_reach_reward_exact():
    rows = [{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}]
    rm = RewardModel("steps", state_rewards=[F(1), F(0)])
    model = dtmc(rows, {"done": [False, True]}, rational=True, rewards={"steps": rm})
    out = run(model, 'R{"steps"}=? [ F "done" ]', EXACT_ENV)
    assert out.values[0] == F(2)


def test_reach_reward_infinite_when_target_missed():
    rows = [{0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}, {1: F(1)}, {2: F(1)}]
    rm = RewardModel("r", state_rewards=np.array([1.0, 1.0, 0.0]))
    model = dtmc(rows, {"goal": [False, False, True]}, rewards={"r": rm})
    out = run(model, 'R{"r"}=? [ F "goal" ]')
    assert math.isinf(out.values[0]) and math.isinf(out.values[1])
    assert out.values[2] == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_reach_reward_matches_oracle(seed):
    rng = random.Random(9000 + seed)
    rows = random_stochastic_rows(rng, 6, 6)
    target = [False] * 5 + [True]
    rows[5] = {5: F(1)}
    reward = [F(rng.randint(1, 4)) for _ in range(6)]
    rm = RewardModel("r", state_rewards=np.array([float(v) for v in reward]))
    model = dtmc(rows, {"goal": target}, rewards={"r": rm})
    out = run(model, 'R{"r"}=? [ F "goal" ]')
    expected = oracle_reach_reward(rows, target, reward)
    for s in range(6):
        if expected[s] is None:
            assert math.isinf(out.values[s])
        else:
            assert out.values[s] == pytest.approx(float(expected[s]), abs=1e-7)


@pytest.mark.parametrize("direction", ["min", "max"])
@pytest.mark.parametrize("seed", range(10))
def test_mdp_reach_reward_matches_scheduler_enumeration(seed, direction):
    rng = random.Random(10_000 + seed)
    n = 4
    counts = [rng.randint(1, 2) for _ in range(n)]
    offsets = np.cumsum([0] + counts)
    rows = random_stochastic_rows(rng, int(offsets[-1]), n)
    target = [False] * (n - 1) + [True]
    rows[int(offsets[-1]) - 1] = {n - 1: F(1)}
    # strictly positive choice rewards keep zero-reward loops out of play
    choice_rewards = [F(rng.randint(1, 3)) for _ in range(int(offsets[-1]))]
    rm = RewardModel("r", action_rewards=np.array([float(v) for v in choice_rewards]))
    model = Model(
        ModelKind.MDP,
        rows_to_matrix(rows, n, False),
        StateLabeling(n, {"goal": target}),
        choice_offsets=offsets,
        rewards={"r": rm},
    )
    expected = oracle_mdp_reach_reward(rows, offsets, target, choice_rewards, direction == "max")
    out = run(model, f'R{direction}{{"r"}}=? [ F "goal" ]')
    for s in range(n):
        if expected[s] is None:
            assert math.isinf(out.values[s])
        else:
            assert out.values[s] == pytest.approx(float(expected[s]), abs=1e-6)


def test_cumulative_reward_constant_rate():
    rows = [{0: F(1)}]
    rm = RewardModel("r", state_rewards=np.array([1.5]))
    model = dtmc(rows, rewards={"r": rm})
    out = run(model, 'R{"r"}=? [ C<=4 ]')
    assert out.values[0] == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_cumulative_reward_matches_recursion_oracle(seed):
    rng = random.Random(11_000 + seed)
    rows = random_stochastic_rows(rng, 5, 5)
    reward = [F(rng.randint(0, 3)) for _ in range(5)]
    rm = RewardModel("r", state_rewards=np.array([float(v) for v in reward]))
    model = dtmc(rows, rewards={"r": rm})
    out = run(model, 'R{"r"}=? [ C<=5 ]')
    for s in range(5):
        expected = oracle_cumulative_reward(rows, reward, 5, s)
        assert out.values[s] == pytest.approx(float(expected), abs=1e-10)


@pytest.mark.parametrize("rational", [False, True])
def test_exact_stepping_fails_only_past_its_budget(rational):
    # 1 - 2^-k never repeats exactly; float iterates reach 1 after 54 steps. Step j's
    # stepped entries have 2j + 1 bits in both checks, 24 after four steps and 35 after five
    model = dtmc([{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}], rational=rational)
    rm = RewardModel("r", sparse.as_vector([1, 0], model.dtype))
    left, right = np.array([True, False]), np.array([False, True])
    with mock.patch.object(checkers, "EXACT_BIT_BUDGET", 30):
        assert checkers.check_bounded_until(model, left, right, 5)[0] == F(31, 32)
        assert checkers.check_cumulative_reward(model, rm, 5)[0] == F(31, 16)
        for check in (lambda: checkers.check_bounded_until(model, left, right, 6),
                      lambda: checkers.check_cumulative_reward(model, rm, 6)):
            if rational:
                with pytest.raises(SolverError, match="no fixed point within its budget of 30 "):
                    check()
            else:
                check()
        # a fixed point within the budget answers whatever the bound
        acyclic = dtmc([{1: F(1, 3), 2: F(2, 3)}, {1: F(1)}, {2: F(1)}], rational=rational)
        everywhere, one = np.ones(3, dtype=bool), np.array([False, True, False])
        assert checkers.check_bounded_until(acyclic, everywhere, one, 10**8)[0] == (F(1, 3) if rational else 1 / 3)


def test_cumulative_reward_rejected_on_ctmc():
    mat = rows_to_matrix([{1: F(1)}, {1: F(1)}], 2, False)
    rm = RewardModel("r", state_rewards=np.array([1.0, 0.0]))
    model = Model(
        ModelKind.CTMC, mat, StateLabeling(2), exit_rates=[1.0, 1.0], rewards={"r": rm}
    )
    with pytest.raises(UnsupportedCombination):
        run(model, 'R{"r"}=? [ C<=3 ]')


# --- CTMC -----------------------------------------------------------------


def two_state_ctmc(lam):
    mat = rows_to_matrix([{1: F(1)}, {1: F(1)}], 2, False)
    return Model(
        ModelKind.CTMC,
        mat,
        StateLabeling(2, {"goal": [False, True]}),
        exit_rates=[lam, 1.0],
    )


@pytest.mark.parametrize("lam,t", [(1.0, 1.0), (5.0, 0.5), (0.1, 10.0)])
def test_ctmc_time_bounded_exponential(lam, t):
    model = two_state_ctmc(lam)
    out = run(model, f'P=? [ F<={t} "goal" ]')
    assert out.values[0] == pytest.approx(1.0 - math.exp(-lam * t), abs=1e-6)
    assert out.values[1] == 1.0


def test_ctmc_series_chain_convolution():
    # 0 --rate 2--> 1 --rate 3--> 2: P(reach 2 by t=1) = 1 - 3e^-2 + 2e^-3
    mat = rows_to_matrix([{1: F(1)}, {2: F(1)}, {2: F(1)}], 3, False)
    model = Model(
        ModelKind.CTMC,
        mat,
        StateLabeling(3, {"goal": [False, False, True]}),
        exit_rates=[2.0, 3.0, 1.0],
    )
    out = run(model, 'P=? [ F<=1 "goal" ]')
    expected = 1.0 - 3.0 * math.exp(-2.0) + 2.0 * math.exp(-3.0)
    assert out.values[0] == pytest.approx(expected, abs=1e-6)


def test_ctmc_time_bound_zero():
    model = two_state_ctmc(1.0)
    out = run(model, 'P=? [ F<=0 "goal" ]')
    assert list(out.values) == [0.0, 1.0]


def test_ctmc_fractional_time_bounds_allowed_only_continuous():
    model = dtmc([{0: F(1)}], {"goal": [True]})
    with pytest.raises(UnsupportedCombination):
        run(model, 'P=? [ F<=1.5 "goal" ]')


def test_ctmc_rate_scaling_leaves_unbounded_until_unchanged():
    a = two_state_ctmc(1.0)
    b = two_state_ctmc(10.0)
    va = run(a, 'P=? [ F "goal" ]').values
    vb = run(b, 'P=? [ F "goal" ]').values
    assert np.array_equal(va, vb)


def test_ctmc_unbounded_until_delegates_to_embedded_chain():
    rng = random.Random(321)
    rows = random_stochastic_rows(rng, 5, 5)
    mat = rows_to_matrix(rows, 5, False)
    target = [False, False, True, False, False]
    ctmc = Model(
        ModelKind.CTMC,
        mat,
        StateLabeling(5, {"goal": target}),
        exit_rates=[1.0 + i for i in range(5)],
    )
    embedded = Model(ModelKind.DTMC, mat, StateLabeling(5, {"goal": target}))
    vc = run(ctmc, 'P=? [ F "goal" ]').values
    vd = run(embedded, 'P=? [ F "goal" ]').values
    assert np.array_equal(vc, vd)


TANDEM = """
ctmc
const int c;
module station1
  n1 : [0..c] init 0;
  [arrive] n1<c -> 3 : (n1'=n1+1);
  [serve1] n1>0 -> 2.5 : (n1'=n1-1);
endmodule
module station2
  n2 : [0..c] init 0;
  [serve1] n2<c -> 1 : (n2'=n2+1);
  [serve2] n2>0 -> 2 : (n2'=n2-1);
endmodule
module station3
  n3 : [0..c] init 0;
  [serve2] n3<c -> 1 : (n3'=n3+1);
  [serve3] n3>0 -> 3.1 : (n3'=n3-1);
endmodule
"""


def reference_uniformized(model, active, full=False):
    """The active states' rows of the uniformized matrix, assembled entry by
    entry through build_sparse; with ``full``, a row per state, the identity
    row for an inactive one."""
    n = model.n_states
    rates = np.array([float(model.exit_rates[s]) if active[s] else 0.0 for s in range(n)])
    q = checkers.UNIFORMIZATION_SLACK * rates.max()
    embedded = model.matrix.to_float()
    triples = []
    for row, s in enumerate(range(n) if full else np.flatnonzero(active).tolist()):
        if not active[s]:
            triples.append((row, s, 1.0))
            continue
        ratio = rates[s] / q
        diag = 1.0 - ratio
        cols, vals = embedded.row(s)
        for j, v in zip(cols, vals):
            if j == s:
                diag += ratio * v
            else:
                triples.append((row, int(j), ratio * v))
        if diag > 0.0:
            triples.append((row, s, diag))
    return sparse.build_sparse(triples, n if full else int(active.sum()), n, "float"), q


def uniformization_models():
    for exact in (False, True):
        yield explore(typecheck(parse_program((CORPUS / "queue.sm").read_text())), ExploreOptions(exact=exact))[0]
        for cap in (2, 3, 5):
            program = typecheck(parse_program(TANDEM), {"c": cap})
            yield explore(program, ExploreOptions(exact=exact))[0]
    rng = random.Random(7)
    for i in range(40):
        n = rng.randint(1, 12)
        rows = random_stochastic_rows(rng, n, n)
        rates = [rng.choice([F(1, 3), F(1), F(5, 2), F(7), F(1, 1000)]) for _ in range(n)]
        if i % 5 == 0:
            rates[0] = 5e-324  # scaled entries of this row round to zero
        rational = i % 2 == 1 and i % 5 != 0
        yield Model(ModelKind.CTMC, rows_to_matrix(rows, n, rational), StateLabeling(n), exit_rates=rates)


def test_uniformized_matrix_matches_entrywise_assembly():
    rng = random.Random(11)
    for model in uniformization_models():
        n = model.n_states
        picked = np.array([rng.random() < 0.6 for _ in range(n)])
        for active in (np.ones(n, dtype=bool), np.arange(n) % 2 == 0, picked):
            if not active.any():
                continue
            got, q = checkers._uniformized(model, active)
            expected, expected_q = reference_uniformized(model, active)
            assert_same(got, expected)
            assert q == expected_q


def full_step(m, x, offsets=None, maximize=True, b=None):
    """Every row of m times x, its products added left to right in CSR order
    from zero, and b's entry added last; with choice offsets, each state's
    best row, its products added to b's entry."""
    rows, zero = [], sparse.as_vector([0], m.dtype)[0]
    for i in range(m.rows):
        acc = zero if b is None or offsets is None else b[i]
        for j, v in zip(*m.row(i)):
            acc = acc + v * x[j]
        rows.append(acc if b is None or offsets is not None else acc + b[i])
    if offsets is not None:
        pick = max if maximize else min
        rows = [pick(rows[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    return sparse.as_vector(rows, m.dtype)


def full_bounded_until(model, left, right, k, maximize=True):
    """k full steps of every row; states outside left & ~right keep their pinned value."""
    active = left & ~right
    pinned = sparse.as_vector(right, model.dtype)
    offsets = model.choice_offsets if model.kind is ModelKind.MDP else None
    x = pinned
    for _ in range(k):
        x, previous = np.where(active, full_step(model.matrix, x, offsets, maximize), pinned), x
        if np.array_equal(x, previous):
            break
    return x


def full_cumulative(model, b, k, maximize=True):
    """k full steps of every row from zero, collecting b."""
    offsets = model.choice_offsets if model.kind is ModelKind.MDP else None
    x = sparse.as_vector(np.zeros(model.n_states), model.dtype)
    for _ in range(k):
        x, previous = full_step(model.matrix, x, offsets, maximize, b), x
        if np.array_equal(x, previous):
            break
    return x


def full_timebounded(model, left, right, t):
    """Uniformization with the full matrix, identity rows for inactive states, in every step."""
    matrix, q = reference_uniformized(model, left & ~right, full=True)
    L, R, w, total = solvers.fox_glynn(q * t, ENV.precision * 0.1)
    v, result = right.astype(np.float64), np.zeros(model.n_states)
    for step in range(R + 1):
        if step >= L:
            result += (w[step - L] / total) * v
        if step < R:
            v = full_step(matrix, v)
    result[right] = 1.0
    return result


def test_bounded_results_equal_a_full_matrix_step_bit_for_bit():
    rng, draw = random.Random(5), random.Random(6)  # draw: the rewards
    # queue.sm, the tandem at c <= 3 and random small chains, float and exact
    models = [model for model in uniformization_models() if model.n_states <= 64]
    for i in range(30):
        rational = i % 3 == 0
        models.append(random_dtmc(rng, rng.randint(1, 12), rational)[0])
        models.append(random_mdp(rng, rng.randint(1, 12), 3, rational)[0])
    for model in models:
        n = model.n_states
        for left in (np.ones(n, dtype=bool), np.array([rng.random() < 0.7 for _ in range(n)])):
            right = np.array([rng.random() < 0.3 for _ in range(n)])
            offsets = model.choice_offsets if model.kind is ModelKind.MDP else None
            rm = RewardModel("r", sparse.as_vector([draw.choice([0, 1, F(1, 3)]) for _ in range(n)], model.dtype),
                             sparse.as_vector([draw.choice([0, F(5, 2)]) for _ in range(model.n_choices)],
                                              model.dtype))
            for optimum in ("max", "min") if model.kind is ModelKind.MDP else (None,):
                maximize = optimum == "max"
                got = checkers.check_next(model, right, optimum)
                assert_same(got, full_step(model.matrix, sparse.as_vector(right, model.dtype), offsets, maximize))
                for k in (0, 1, 7, 60):
                    got = checkers.check_bounded_until(model, left, right, k, optimum)
                    assert_same(got, full_bounded_until(model, left, right, k, maximize))
                    if model.kind is not ModelKind.CTMC:
                        got = checkers.check_cumulative_reward(model, rm, k, optimum)
                        assert_same(got, full_cumulative(model, checkers._choice_rewards(model, rm), k, maximize))
            if model.kind is ModelKind.CTMC and (left & ~right).any():
                for t in (0.5, 3.0):
                    got, meta = checkers.check_timebounded_until_ctmc(model, left, right, t, ENV)
                    assert got.tobytes() == full_timebounded(model, left, right, t).tobytes()


# --- conditional probabilities --------------------------------------------


def three_branch_model(rational=False):
    one_third = F(1, 3)
    rows = [
        {1: one_third, 2: one_third, 3: one_third},
        {1: F(1)},
        {2: F(1)},
        {3: F(1)},
    ]
    labels = {
        "a": [False, True, False, False],
        "b": [False, True, True, False],
    }
    return dtmc(rows, labels, rational=rational)


def test_conditional_three_branch_exact():
    model = three_branch_model(rational=True)
    out = run(model, 'P=? [ F "a" || F "b" ]', EXACT_ENV)
    assert out.values[0] == F(1, 2)


def test_conditional_equals_num_over_den():
    model = three_branch_model()
    out = run(model, 'P=? [ F "a" || F "b" ]')
    num = run(model, 'P=? [ F "a" ]').values  # objective implies condition here
    den = run(model, 'P=? [ F "b" ]').values
    assert out.values[0] == pytest.approx(num[0] / den[0], abs=1e-12)


def test_conditional_with_trivial_condition():
    model = dtmc([{0: F(1, 2), 1: F(1, 2)}, {1: F(1)}], {"a": [False, True]})
    cond = run(model, 'P=? [ F "a" || F true ]').values
    plain = run(model, 'P=? [ F "a" ]').values
    assert np.allclose(cond, plain, atol=1e-12)


def test_conditional_zero_condition_gives_nan():
    model = dtmc([{0: F(1)}, {1: F(1)}], {"a": [False, True], "b": [False, True]})
    out = run(model, 'P=? [ F "a" || F "b" ]')
    assert math.isnan(out.values[0])
    assert out.metadata["condition_zero"] == [0]
    assert not math.isnan(out.values[1])


def test_conditional_rejected_on_mdp():
    mat = rows_to_matrix([{1: F(1)}, {1: F(1)}], 2, False)
    model = Model(
        ModelKind.MDP, mat, StateLabeling(2, {"a": [False, True], "b": [False, True]}),
        choice_offsets=[0, 1, 2],
    )
    with pytest.raises((UnsupportedCombination, PropertyError)):
        run(model, 'Pmax=? [ F "a" || F "b" ]')


CONDITIONALS = [
    ('P=? [ "a" U "b" || "c" U "d" ]', ("a", "b"), ("c", "d")),
    ('P=? [ F "b" || F "d" ]', (None, "b"), (None, "d")),
    ('P=? [ F "b" || "c" U "d" ]', (None, "b"), ("c", "d")),
    ('P=? [ "a" U "b" || F "d" ]', ("a", "b"), (None, "d")),
    ('P=? [ "a" U "b" || "a" U "d" ]', ("a", "b"), ("a", "d")),
]


def oracle_conditional(rows, labels, objective, condition):
    """P(objective | condition) per state, exact, NaN where the condition has
    probability 0: reachability of (success, success) in the product of the
    chain with a pending/success/failed monitor per path, as row dicts."""
    n = len(rows)

    def holds(name, s):
        return True if name is None else labels[name][s]

    def monitor(status, path, s):  # 0 pending, 1 success, 2 failed
        left, right = path
        if status != 0:
            return status
        return 1 if labels[right][s] else 0 if holds(left, s) else 2

    def index(s, a, b):
        return 9 * s + 3 * a + b

    product = [{} for _ in range(9 * n)]
    for s, a, b in itertools.product(range(n), range(3), range(3)):
        row = product[index(s, a, b)]
        for t, p in rows[s].items():
            j = index(t, monitor(a, objective, t), monitor(b, condition, t))
            row[j] = row.get(j, 0) + p
    target = [a == 1 and b == 1 for _, a, b in itertools.product(range(n), range(3), range(3))]
    joint = oracle_reach_probability(product, [True] * (9 * n), target)
    den = oracle_reach_probability(rows, [holds(condition[0], s) for s in range(n)], labels[condition[1]])
    return [math.nan if den[s] == 0 else
            joint[index(s, monitor(0, objective, s), monitor(0, condition, s))] / den[s] for s in range(n)]


@pytest.mark.parametrize("rational", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("seed", range(6))
def test_conditional_against_the_monitor_product(seed, rational):
    rng = random.Random(seed)
    for _ in range(8):
        n = rng.randint(1, 10)
        rows = random_stochastic_rows(rng, n, n)
        labels = {name: [rng.random() < 0.4 for _ in range(n)] for name in "abcd"}
        model = dtmc(rows, labels, rational=rational)
        for text, objective, condition in CONDITIONALS:
            expected = oracle_conditional(rows, labels, objective, condition)
            got = run(model, text, EXACT_ENV if rational else ENV).values
            for value, want in zip(got, expected):
                if isinstance(want, float):
                    assert math.isnan(value)
                elif rational:
                    assert value == want
                else:
                    assert value == pytest.approx(float(want), abs=1e-9)


# --- nesting and misc -----------------------------------------------------


def test_nested_operator_as_target():
    # inner: states that reach "a" almost surely; outer: reach such a state
    rows = [{1: F(1, 2), 2: F(1, 2)}, {1: F(1)}, {2: F(1)}]
    model = dtmc(rows, {"a": [False, True, False]})
    out = run(model, 'P=? [ F P>=1 [ F "a" ] ]')
    assert out.values[1] == 1.0
    assert out.values[0] == pytest.approx(0.5, abs=1e-9)


# nested operators under !, & and | and on the left of U, with hand-computed values
# on die.pm: F "six" is 1/6 from s=0, 1/3 from s=2, 2/3 from s=6 and 0 from s=1;
# P>=1 [ X "done" ] holds at s=4, s=5 and s=7
NESTED_ON_DIE = [
    ('P=? [ F P>=1 [ F "done" ] & "six" ]', F(1, 6)),
    ('P>=0.1 [ !"six" U P>=1 [ X "done" ] ]', True),
    ('P=? [ G P<0.75 [ F "six" ] ]', F(5, 6)),  # never reach the six itself
    ('P=? [ F !P>=0.5 [ F "six" ] & P>=0.3 [ F "six" ] ]', F(1, 2)),  # reach s=2
]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("text, expected", NESTED_ON_DIE)
def test_nested_operators_inside_boolean_structure(die_source, text, expected, exact):
    model, state_map = explore(typecheck(parse_program(die_source)), ExploreOptions(exact=exact))
    value = run(model, text, EXACT_ENV if exact else ENV, state_map=state_map).values[0]
    if exact or expected is True:
        assert value == expected
    else:
        assert value == pytest.approx(float(expected), abs=1e-9)


@pytest.mark.parametrize("text, solves", [
    # F "six" under both bounds is solved once, besides the outer until
    ('P=? [ F !P>=0.5 [ F "six" ] & P>=0.3 [ F "six" ] ]', 2),
    ('P=? [ F P>=0.5 [ F "six" ] & P>=0.5 [ F "done" ] ]', 3),
    ('P=? [ F P>=0.5 [ F P>=1 [ F "six" ] ] & P>=1 [ F "six" ] ]', 3),
    # so is an operator that holds a nested one
    ('P=? [ F P>=0.5 [ F P>=1 [ F "six" ] ] & P>=0.3 [ F P>=1 [ F "six" ] ] ]', 3),
])
def test_equal_nested_operators_are_solved_once(monkeypatch, die_source, text, solves):
    model, state_map = explore(typecheck(parse_program(die_source)), ExploreOptions())
    expected = run(model, text, state_map=state_map)
    calls = []
    until = checkers.check_until
    monkeypatch.setattr(checkers, "check_until", lambda *args: calls.append(1) or until(*args))
    out = run(model, text, state_map=state_map)
    assert len(calls) == solves
    assert np.array_equal(out.values, expected.values)
    # each check solves afresh
    run(model, text, state_map=state_map)
    assert len(calls) == 2 * solves


def test_die_program_end_to_end(die_source):
    program = typecheck(parse_program(die_source))
    model, state_map = explore(program, ExploreOptions())
    out = run(model, 'P=? [ F "six" ]', state_map=state_map)
    assert out.values[0] == pytest.approx(1.0 / 6.0, abs=1e-6)
    exact_model, exact_map = explore(program, ExploreOptions(exact=True))
    exact_out = run(exact_model, 'P=? [ F "six" ]', EXACT_ENV, state_map=exact_map)
    assert exact_out.values[0] == F(1, 6)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_bounded_property_keeps_its_numbers_in_numeric(die_source, exact):
    # README's library contract: a bound gives a bool array, its numbers stay in result.numeric
    model, state_map = explore(typecheck(parse_program(die_source)), ExploreOptions(exact=exact))
    env = EXACT_ENV if exact else ENV
    bounded = run(model, 'P>=0.5 [ F "six" ]', env, state_map)
    query = run(model, 'P=? [ F "six" ]', env, state_map)
    assert bounded.values.dtype == bool
    assert_same(bounded.numeric, query.values)
    assert bounded.values.tolist() == [v >= F(1, 2) for v in query.values.tolist()]
    assert bounded.values.any() and not bounded.values.all()


def test_predicate_property_on_program_model(die_source):
    program = typecheck(parse_program(die_source))
    model, state_map = explore(program, ExploreOptions())
    out = run(model, 'P=? [ F (s=7 & d=6) ]', state_map=state_map)
    assert out.values[0] == pytest.approx(1.0 / 6.0, abs=1e-6)
