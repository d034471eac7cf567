"""Hypothesis strategies shared by the test modules.

`directed_scenarios` draws the random directed networks on which the engine
is checked against the reference rounds (`test_sim`) and the rate analysis's
early-exit scans against the full scan (`test_analysis`).
"""
import numpy as np
from hypothesis import strategies as st

from pdkf.model import AgentSpec, SystemModel, Topology
from pdkf.sim import ScenarioConfig


@st.composite
def directed_scenarios(draw, T=12, modes=("time", "event")):
    """A random scenario on a strongly connected directed network: a cycle
    plus random extra edges, with random convex weights.  Each agent has 0–2
    measurement rows and 0–2 rows of one consistent constraint set (rows of
    a shared pool through a common point).  The mode is drawn from `modes`.
    Time mode runs a time-varying A and 1–3 rounds; event mode draws each
    threshold from {0, 0.1, 0.5, 2}, δ = 0 only for an agent that measures
    or knows a constraint."""
    N, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    mode = draw(st.sampled_from(modes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def spd(m, lo, hi):
        B = rng.standard_normal((m, m))
        return 0.1 * B @ B.T + np.diag(rng.uniform(lo, hi, m))

    A = [np.diag(rng.uniform(0.8, 1.2, n)) + np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1)
         for _ in range(T if mode == "time" else 1)]
    model = SystemModel(A, spd(n, 0.1, 1.0), rng.standard_normal(n), spd(n, 1.0, 10.0))
    pool = rng.standard_normal((draw(st.integers(0, min(2, n - 1))), n))
    point = rng.standard_normal(n)
    agents = []
    for _ in range(N):
        m, s = draw(st.integers(0, 2)), draw(st.integers(0, len(pool)))
        D = pool[rng.permutation(len(pool))[:s]] * rng.uniform(0.5, 2.0, (s, 1))
        # an agent that neither measures nor knows a constraint may gain no
        # information in exact arithmetic, and at δ = 0 rounding then decides
        # whether it fires, differently in the engine and in the reference
        # (the xfail test in `test_sim`); it gets a positive threshold
        deltas = [0.0, 0.1, 0.5, 2.0] if m or s else [0.1, 0.5, 2.0]
        agents.append(AgentSpec(rng.standard_normal((m, n)), spd(m, 0.5, 3.0), D, D @ point,
                                rng.uniform(1e-3, 0.1), draw(st.sampled_from(deltas))))
    support = (np.eye(N, dtype=bool) | np.roll(np.eye(N, dtype=bool), 1, axis=1)
               | (rng.random((N, N)) < 0.3))
    raw = support * rng.uniform(0.1, 1.0, (N, N))
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(raw / raw.sum(axis=1, keepdims=True)),
                          T=T, L=draw(st.integers(1, 3)), mode=mode,
                          seed=draw(st.integers(0, 2 ** 32 - 1)), checkpoints=())
