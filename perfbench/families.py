"""Seeded model families, written as the input files the CLI reads.

Every family is a plain Python description (states, choices, rates) plus a
writer for the file format the CLI loads: PRISM source or explicit
``.tra``/``.lab`` text. The oracles in ``oracles.py`` read the Python
description, never the model stormlet builds.

Seeds move the initial state of the iteratively solved chains, the
per-state probabilities of the explicit chains (whose cost depends on their
graph only) and the tandem rates within half a percent. The values checked
change from seed to seed while the work (states, iterations, Poisson
window) stays the same or nearly so: iteration counts of the solvers react
to a 0.001 change of a step probability by several percent, so those stay
fixed.
"""

import random
from dataclasses import dataclass
from fractions import Fraction


def _milli(rng, lo, hi):
    """A probability k/1000 with lo <= k <= hi, drawn from rng.

    k is coprime to 10, so every draw reduces to the same denominator and
    exact-mode arithmetic costs the same whatever the seed.
    """
    while True:
        k = rng.randint(lo, hi)
        if k % 2 and k % 5:
            return Fraction(k, 1000)


def _dec(q):
    """Exact decimal text of a Fraction whose denominator divides 10**6."""
    scaled = q * 10**6
    if scaled.denominator != 1:
        raise ValueError(f"{q} is not a six-digit decimal")
    whole, frac = divmod(int(scaled), 10**6)
    return f"{whole}.{frac:06d}".rstrip("0").rstrip(".") if frac else str(whole)


# --- birth-death chains --------------------------------------------------


@dataclass
class Chain:
    """States 0..n moving by at most one step; choice c of state i goes up
    with up[c][i], down with down[c][i] and stays otherwise.

    ``absorbing`` lists the states with a single self-loop.
    """

    n: int
    up: list  # per choice: list of n+1 Fractions
    down: list
    absorbing: tuple
    init: int

    @property
    def choices(self):
        return len(self.up)

    def stay(self, c, i):
        return 1 - self.up[c][i] - self.down[c][i]


def ruin_chain(n, p, init, choices=1, spread=Fraction(0)):
    """Gambler's ruin: absorbing at 0 and n; choice c goes up with p + c*spread."""
    up = [[p + c * spread] * (n + 1) for c in range(choices)]
    down = [[1 - u[0]] * (n + 1) for u in up]
    return Chain(n, up, down, (0, n), init)


def lazy_walk(n, move, init):
    """Symmetric walk that moves each way with probability ``move``."""
    return Chain(n, [[move] * (n + 1)], [[move] * (n + 1)], (0, n), init)


def tiny_mdp(n, init):
    """Two-choice chain where the safer choice is the slower one, so Pmax and
    Rmin pick different schedulers."""
    up = [[Fraction(35, 100)] * (n + 1), [Fraction(55, 100)] * (n + 1)]
    down = [[Fraction(15, 100)] * (n + 1), [Fraction(45, 100)] * (n + 1)]
    return Chain(n, up, down, (0, n), init)


def reflecting_chain(rng, n, choices):
    """Birth-death chain reflecting at 0 and absorbing at n, per-state
    probabilities from rng. Every choice moves up with positive probability,
    so every scheduler reaches n almost surely."""
    up, down = [], []
    for c in range(choices):
        u = [_milli(rng, 350 + 100 * c, 450 + 100 * c) for _ in range(n + 1)]
        d = [1 - x for x in u]
        d[0] = Fraction(0)  # state 0 reflects: up or stay
        up.append(u)
        down.append(d)
    return Chain(n, up, down, (n,), 0)


def chain_prism(chain, kind):
    """PRISM source for a chain: ``kind`` is ``dtmc`` or ``mdp``."""
    n = chain.n
    lines = [kind, "", "module walk", f"  x : [0..{n}] init {chain.init};"]
    uniform = all(len(set(u[1:n])) == 1 for u in chain.up + chain.down)
    if not uniform:
        raise ValueError("PRISM writer needs per-choice uniform probabilities")
    for c in range(chain.choices):
        u, d = chain.up[c][1], chain.down[c][1]
        s = 1 - u - d
        branches = [f"{_dec(u)} : (x'=x+1)", f"{_dec(d)} : (x'=x-1)"]
        if s:
            branches.append(f"{_dec(s)} : (x'=x)")
        lines.append(f"  [] x>0 & x<{n} -> " + " + ".join(branches) + ";")
    lines.append(f"  [] x=0 | x={n} -> (x'=x);")
    lines += [
        "endmodule",
        "",
        f'label "top" = x={n};',
        f'label "end" = x=0 | x={n};',
        "",
        'rewards "steps"',
        f"  x>0 & x<{n} : 1;",
        "endrewards",
        "",
    ]
    return "\n".join(lines)


def chain_explicit(chain):
    """(tra, lab) texts; DTMC when the chain has one choice, else MDP."""
    mdp = chain.choices > 1
    out = ["mdp" if mdp else "dtmc"]
    for i in range(chain.n + 1):
        if i in chain.absorbing:
            out.append(f"{i} 0 {i} 1" if mdp else f"{i} {i} 1")
            continue
        for c in range(chain.choices):
            head = f"{i} {c}" if mdp else f"{i}"
            for dst, pr in ((i - 1, chain.down[c][i]), (i, chain.stay(c, i)), (i + 1, chain.up[c][i])):
                if pr:
                    out.append(f"{head} {dst} {_dec(pr)}")
    tra = "\n".join(out) + "\n"
    half = chain.n // 2
    lab = ["#DECLARATION", "init done far", "#END", f"{chain.init} init"]
    for i in range(half, chain.n):
        lab.append(f"{i} far")
    lab.append(f"{chain.n} far done")
    return tra, "\n".join(lab) + "\n"


# --- tandem queue --------------------------------------------------------


@dataclass
class Tandem:
    """Three stations in series, capacity ``cap`` each, blocking after service.

    Customers arrive at rate lam to station 1; station k serves at rate
    mu[k-1] and passes the customer on only when station k+1 has room.
    """

    cap: int
    lam: Fraction
    mu: tuple

    def transitions(self, n1, n2, n3):
        """[(rate, successor)] of one state, in no particular order."""
        c = self.cap
        out = []
        if n1 < c:
            out.append((self.lam, (n1 + 1, n2, n3)))
        if n1 > 0 and n2 < c:
            out.append((self.mu[0], (n1 - 1, n2 + 1, n3)))
        if n2 > 0 and n3 < c:
            out.append((self.mu[1], (n1, n2 - 1, n3 + 1)))
        if n3 > 0:
            out.append((self.mu[2], (n1, n2, n3 - 1)))
        return out


# label -> (PRISM expression, the same predicate in Python)
TANDEM_LABELS = {
    "busy1": ("n1>=1", lambda n1, n2, n3: n1 >= 1),
    "queue1": ("n1>=2", lambda n1, n2, n3: n1 >= 2),
    "busy2": ("n2>=1", lambda n1, n2, n3: n2 >= 1),
}


def tandem(rng, cap):
    lam = _milli(rng, 2950, 3050)
    mu = (_milli(rng, 2450, 2550), _milli(rng, 1950, 2050), _milli(rng, 2950, 3050))
    return Tandem(cap, lam, mu)


def tandem_prism(t):
    """CTMC source: the stations synchronise on serve1 and serve2."""
    return "\n".join([
        "ctmc",
        "",
        f"const int c = {t.cap};",
        f"const double lam = {_dec(t.lam)};",
        f"const double mu1 = {_dec(t.mu[0])};",
        f"const double mu2 = {_dec(t.mu[1])};",
        f"const double mu3 = {_dec(t.mu[2])};",
        "",
        "module station1",
        "  n1 : [0..c] init 0;",
        "  [arrive] n1<c -> lam : (n1'=n1+1);",
        "  [serve1] n1>0 -> mu1 : (n1'=n1-1);",
        "endmodule",
        "",
        "module station2",
        "  n2 : [0..c] init 0;",
        "  [serve1] n2<c -> 1 : (n2'=n2+1);",
        "  [serve2] n2>0 -> mu2 : (n2'=n2-1);",
        "endmodule",
        "",
        "module station3",
        "  n3 : [0..c] init 0;",
        "  [serve2] n3<c -> 1 : (n3'=n3+1);",
        "  [serve3] n3>0 -> mu3 : (n3'=n3-1);",
        "endmodule",
        "",
        *(f'label "{name}" = {expr};' for name, (expr, _) in TANDEM_LABELS.items()),
        "",
        'rewards "queue"',
        "  true : n1+n2+n3;",
        "endrewards",
        "",
        'rewards "served"',
        "  [serve3] true : 1;",
        "endrewards",
        "",
    ])


def rng_for(seed, family):
    """Independent stream per family, so adding a family moves no other."""
    return random.Random(f"{seed}:{family}")
