"""Independent references for every value the benchmark checks.

None of these calls stormlet. Chains use gambler's-ruin closed forms or an
exact tridiagonal solve over Fraction; MDP optima come from a linear program
(scipy's HiGHS) whose optimal policy is then evaluated and improved in exact
arithmetic until no choice improves it; tiny MDPs are solved by enumerating
every memoryless deterministic scheduler; the tandem queue uses
``expm_multiply`` on a generator built from the queue description.
"""

import itertools
from fractions import Fraction

import numpy as np


# --- birth-death chains --------------------------------------------------


def ruin_top(n, p, i):
    """P(hit n before 0) from i, stepping up with p and down with 1 - p."""
    q = 1 - p
    if p == q:
        return Fraction(i, n)
    r = q / p
    return (1 - r**i) / (1 - r**n)


def ruin_duration(n, p, i):
    """Expected steps from i until 0 or n is hit."""
    q = 1 - p
    if p == q:
        return Fraction(i * (n - i))
    return Fraction(i) / (q - p) - Fraction(n) / (q - p) * ruin_top(n, p, i)


def reflect_reach(chain):
    """P(reach any state set containing n), under every scheduler, of a chain
    whose only absorbing state is n and whose every choice below n moves up
    with positive probability: exactly 1 (from any state, n is at most n
    steps away with probability bounded below, whatever is chosen)."""
    if tuple(chain.absorbing) != (chain.n,):
        raise ValueError("n must be the only absorbing state")
    if any(u[i] <= 0 for u in chain.up for i in range(chain.n)):
        raise ValueError("every choice must move up with positive probability")
    return Fraction(1)


def solve_chain(chain, policy, reward=None, target=None):
    """Exact values of a chain under a per-state choice list (Thomas algorithm).

    Without ``reward`` the value is P(reach target); with it, the expected
    reward until the target (target states have value 0). ``target``
    defaults to the top state n; absorbing non-target states have
    probability 0, and every non-target state must reach the target almost
    surely when a reward is asked for.
    """
    n = chain.n
    target = {n} if target is None else set(target)
    # a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i
    a, b, c, d = [], [], [], []
    for i in range(n + 1):
        if i in target:
            a.append(Fraction(0)), b.append(Fraction(1)), c.append(Fraction(0))
            d.append(Fraction(0) if reward is not None else Fraction(1))
        elif i in chain.absorbing:
            if reward is not None:
                raise ValueError(f"state {i} never reaches the target")
            a.append(Fraction(0)), b.append(Fraction(1)), c.append(Fraction(0)), d.append(Fraction(0))
        else:
            ch = policy[i]
            a.append(-chain.down[ch][i])
            b.append(1 - chain.stay(ch, i))
            c.append(-chain.up[ch][i])
            d.append(Fraction(reward) if reward is not None else Fraction(0))
    for i in range(1, n + 1):
        f = a[i] / b[i - 1]
        b[i] -= f * c[i - 1]
        d[i] -= f * d[i - 1]
    x = [Fraction(0)] * (n + 1)
    x[n] = d[n] / b[n]
    for i in range(n - 1, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return x


def _q(chain, x, i, ch, reward):
    """One Bellman backup of state i under choice ch."""
    return (
        (reward or 0)
        + chain.up[ch][i] * x[i + 1]
        + chain.down[ch][i] * x[i - 1]
        + chain.stay(ch, i) * x[i]
    )


def _interior(chain):
    return [i for i in range(chain.n + 1) if i not in chain.absorbing]


def mdp_optimum_lp(chain, maximize, reward=None):
    """Exact optimal values of a chain MDP, via a linear program.

    The LP's optimal policy is evaluated exactly and improved exactly until
    no choice improves it, so the values returned are the exact optimum.
    """
    from scipy.optimize import linprog

    n = chain.n
    inner = _interior(chain)
    col = {s: k for k, s in enumerate(inner)}
    fixed = {s: (0.0 if reward is not None or s != n else 1.0) for s in chain.absorbing}
    rows, rhs = [], []
    # probability: max  -> min sum x  s.t. x_s >= r + P_a x   (least excessive)
    # probability: min / reward: min -> max sum x  s.t. x_s <= r + P_a x
    sign = 1.0 if maximize else -1.0
    for s in inner:
        for ch in range(chain.choices):
            row = np.zeros(len(inner))
            const = float(reward or 0)
            for dst, pr in ((s - 1, chain.down[ch][s]), (s, chain.stay(ch, s)), (s + 1, chain.up[ch][s])):
                if not pr:
                    continue
                if dst in col:
                    row[col[dst]] += float(pr)
                else:
                    const += float(pr) * fixed[dst]
            row[col[s]] -= 1.0
            # maximize: (P_a - I) x <= -const ; minimize: -(P_a - I) x <= const
            rows.append(sign * row)
            rhs.append(-sign * const)
    cost = np.full(len(inner), sign)
    upper = None if reward is not None else 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(0.0, upper), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    x_lp = res.x
    policy = {}
    for s in inner:
        slacks = []
        for ch in range(chain.choices):
            val = float(reward or 0)
            for dst, pr in ((s - 1, chain.down[ch][s]), (s, chain.stay(ch, s)), (s + 1, chain.up[ch][s])):
                if pr:
                    val += float(pr) * (x_lp[col[dst]] if dst in col else fixed[dst])
            slacks.append(abs(val - x_lp[col[s]]))
        policy[s] = int(np.argmin(slacks))
    # The LP solution is only accurate to its tolerance, which can pick a
    # wrong choice where values are tiny. Exact policy improvement from the
    # LP's policy ends at a policy no choice improves, i.e. an optimal one.
    target = {n} if reward is None else set(chain.absorbing)
    better = (lambda a, b: a > b) if maximize else (lambda a, b: a < b)
    for _ in range(len(inner) + 1):
        x = solve_chain(chain, policy, reward, target)
        changed = False
        for s in inner:
            best = max(range(chain.choices), key=lambda ch: _q(chain, x, s, ch, reward)) if maximize \
                else min(range(chain.choices), key=lambda ch: _q(chain, x, s, ch, reward))
            if better(_q(chain, x, s, best, reward), x[s]):
                policy[s] = best
                changed = True
        if not changed:
            return x
    raise RuntimeError("policy improvement from the LP policy did not settle")


def mdp_optimum_enumerated(chain, maximize, reward=None):
    """Exact optimum at the initial state over every memoryless deterministic
    scheduler; for tiny MDPs only."""
    inner = _interior(chain)
    if chain.choices ** len(inner) > 1 << 12:
        raise ValueError("too many schedulers to enumerate")
    target = {chain.n} if reward is None else set(chain.absorbing)
    best = None
    for picks in itertools.product(range(chain.choices), repeat=len(inner)):
        v = solve_chain(chain, dict(zip(inner, picks)), reward, target)[chain.init]
        if best is None or ((v > best) if maximize else (v < best)):
            best = v
    return best


# --- tandem queue --------------------------------------------------------


def tandem_bounded_reach(t, label_fn, horizon):
    """P(reach a label within the horizon) from the empty queue, via the
    transient distribution of the chain with target states made absorbing."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply

    states = [(a, b, d) for a in range(t.cap + 1) for b in range(t.cap + 1) for d in range(t.cap + 1)]
    index = {s: k for k, s in enumerate(states)}
    target = np.array([bool(label_fn(*s)) for s in states])
    rows, cols, vals = [], [], []
    for k, s in enumerate(states):
        if target[k]:
            continue
        out = 0.0
        for rate, succ in t.transitions(*s):
            rows.append(k), cols.append(index[succ]), vals.append(float(rate))
            out += float(rate)
        rows.append(k), cols.append(k), vals.append(-out)
    n = len(states)
    q = csr_matrix((vals, (rows, cols)), shape=(n, n))
    start = np.zeros(n)
    start[index[(0, 0, 0)]] = 1.0
    dist = expm_multiply(q.T.tocsr() * float(horizon), start)
    return float(dist[target].sum())
