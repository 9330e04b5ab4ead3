"""In-memory probabilistic models: DTMC, CTMC and MDP.

CTMCs are stored as their embedded jump chain plus a per-state exit-rate
vector. Absorbing CTMC states carry a probability-1 self-loop with exit
rate 1 (the rate never influences any supported property).
"""

from enum import Enum

import numpy as np

from . import sparse
from .errors import DeadlockError, ModelError

# how far from 1 a float row may sum: checked here and by the PRISM explorer,
# and the explicit loader renormalises only rows that deviate by more
ROW_SUM_TOLERANCE = 1e-10


class ModelKind(Enum):
    DTMC = "dtmc"
    CTMC = "ctmc"
    MDP = "mdp"


class StateLabeling:
    """Named bitsets over the state space."""

    def __init__(self, n_states, labels=None):
        self.n_states = n_states
        self._labels = {}
        for name, bits in (labels or {}).items():
            self.add(name, bits)

    def add(self, name, bits):
        bits = np.asarray(bits, dtype=bool)
        if len(bits) != self.n_states:
            raise ModelError(f"label {name!r} bitset has length {len(bits)}, expected {self.n_states}")
        self._labels[name] = bits

    def __contains__(self, name):
        return name in self._labels

    def get(self, name):
        if name not in self._labels:
            raise ModelError(f"unknown label {name!r}")
        return self._labels[name]

    def names(self):
        return sorted(self._labels)

    def states_with(self, name):
        return np.flatnonzero(self.get(name))


class RewardModel:
    # state_rewards: length = states; action_rewards: length = choices (MDP) or states
    __slots__ = ("name", "state_rewards", "action_rewards")

    def __init__(self, name, state_rewards=None, action_rewards=None):
        self.name, self.state_rewards, self.action_rewards = name, state_rewards, action_rewards
        for vec in (state_rewards, action_rewards):
            if vec is None:
                continue
            if np.any(np.asarray(vec) < 0):
                raise ModelError(f"reward model {self.name!r} contains negative rewards")


class Model:
    """A probabilistic model over a sparse transition matrix.

    ``choice_offsets`` maps state -> first matrix row; it is the identity for
    DTMC/CTMC and strictly increasing for MDPs (contiguous choice rows).
    """

    def __init__(self, kind, matrix, labeling, choice_offsets=None, rewards=None,
                 initial_states=None, exit_rates=None):
        self.kind = kind
        self.matrix = matrix
        self.labeling = labeling
        if choice_offsets is None:
            choice_offsets = np.arange(matrix.rows + 1, dtype=np.int64)
        self.choice_offsets = np.asarray(choice_offsets, dtype=np.int64)
        self.rewards = dict(rewards or {})
        n = self.n_states
        if initial_states is None:
            initial_states = np.zeros(n, dtype=bool)
        self.initial_states = np.asarray(initial_states, dtype=bool)
        self.exit_rates = None if exit_rates is None else sparse.as_vector(exit_rates, matrix.dtype)
        self._validate()

    @property
    def n_states(self):
        return len(self.choice_offsets) - 1

    @property
    def n_choices(self):
        return self.matrix.rows

    @property
    def dtype(self):
        return self.matrix.dtype

    def choices_of(self, state):
        return range(self.choice_offsets[state], self.choice_offsets[state + 1])

    def row_of_choice(self, choice_row):
        """State owning a given matrix row."""
        return int(np.searchsorted(self.choice_offsets, choice_row, side="right") - 1)

    def _validate(self):
        n = self.n_states
        m = self.matrix
        if self.kind is ModelKind.MDP:
            if np.any(np.diff(self.choice_offsets) < 1):
                raise ModelError("every MDP state needs at least one choice")
        else:
            if not np.array_equal(self.choice_offsets, np.arange(n + 1)):
                raise ModelError("choice_offsets must be the identity for deterministic models")
        if self.choice_offsets[-1] != m.rows:
            raise ModelError("choice_offsets do not cover the matrix rows")
        if m.cols != n:
            raise ModelError("matrix column count must equal the state count")
        if len(self.initial_states) != n:
            raise ModelError("initial_states bitset has wrong length")

        # a CTMC state whose rates add past the float range has exit rate inf
        # and its entries, rate / inf, round to 0: report it before its empty row
        if self.kind is ModelKind.CTMC and self.exit_rates is not None:
            bad = np.flatnonzero(self.exit_rates == np.inf)
            if bad.size:
                raise ModelError(f"CTMC exit rate of state {bad[0]} is not finite: its rates add past the float range")

        # an empty row sums to 0, so the first bad row is empty or off by more than the tolerance
        sums = sparse.row_sums(m)
        if m.dtype == "rational":
            bad = np.flatnonzero(sums != 1)
        else:
            bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)
        if bad.size:
            r = int(bad[0])
            if m.row_offsets[r] == m.row_offsets[r + 1]:
                raise DeadlockError(self.row_of_choice(r), "row has no transitions")
            if m.dtype == "rational":
                raise ModelError(f"row {r} sums to {sums[r]}, expected exactly 1")
            raise ModelError(f"row {r} sums to {float(sums[r])!r}, outside 1 +- {ROW_SUM_TOLERANCE}")

        if self.kind is ModelKind.CTMC:
            if self.exit_rates is None or len(self.exit_rates) != n:
                raise ModelError("CTMC requires one exit rate per state")
            bad = np.flatnonzero(self.exit_rates <= 0)
            if bad.size:
                raise ModelError(f"CTMC exit rate of state {bad[0]} must be positive")
        elif self.exit_rates is not None:
            raise ModelError("exit rates are only meaningful for CTMCs")

        for rm in self.rewards.values():
            if rm.state_rewards is not None and len(rm.state_rewards) != n:
                raise ModelError(f"reward model {rm.name!r}: state reward vector length mismatch")
            if rm.action_rewards is not None and len(rm.action_rewards) != m.rows:
                raise ModelError(f"reward model {rm.name!r}: action reward vector length mismatch")

    def reward_model(self, name=None):
        if not self.rewards:
            raise ModelError("model has no reward models")
        if name is None:
            if len(self.rewards) > 1:
                raise ModelError("reward model name required (several are defined)")
            return next(iter(self.rewards.values()))
        if name not in self.rewards:
            raise ModelError(f"unknown reward model {name!r}")
        return self.rewards[name]
