import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdkf import model
from pdkf.model import (
    AgentSpec,
    GlobalConstraint,
    SystemModel,
    Topology,
    build_global_constraint,
    matrix_rank,
    metropolis_weights,
)

import oracles

I4 = np.eye(4)


def make_agent(H=None, R=None, D=None, d=None, n=4, eps=0.01, delta=0.0):
    if H is None:
        H = np.zeros((0, n))
        R = np.zeros((0, 0))
    if R is None:
        R = np.eye(H.shape[0])
    if D is None:
        D = np.zeros((0, n))
        d = np.zeros(0)
    if d is None:
        d = np.zeros(D.shape[0])
    return AgentSpec(H=np.asarray(H, float), R=np.asarray(R, float),
                     D=np.asarray(D, float), d=np.asarray(d, float),
                     eps=eps, delta=delta)


# --- metropolis weights -------------------------------------------------

def test_metropolis_path_of_three():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    W = metropolis_weights(adj)
    expected = np.array([[2 / 3, 1 / 3, 0],
                         [1 / 3, 1 / 3, 1 / 3],
                         [0, 1 / 3, 2 / 3]])
    assert np.allclose(W, expected)


def test_metropolis_single_node():
    W = metropolis_weights(np.zeros((1, 1)))
    assert np.allclose(W, [[1.0]])


def test_metropolis_complete_three():
    adj = np.ones((3, 3)) - np.eye(3)
    W = metropolis_weights(adj)
    assert np.allclose(W, np.full((3, 3), 1 / 3))


def test_metropolis_rejects_disconnected():
    # plain ints, each component started by the lowest agent not yet listed
    for edges, comps in (([(0, 1), (2, 3)], "[[0, 1], [2, 3]]"),
                         ([(0, 3), (1, 4)], "[[0, 3], [1, 4], [2]]")):
        adj = np.zeros((max(map(max, edges)) + 1,) * 2)
        for a, b in edges:
            adj[a, b] = adj[b, a] = 1
        with pytest.raises(ValueError) as info:
            metropolis_weights(adj)
        assert str(info.value) == f"graph is disconnected; components: {comps}"


def test_metropolis_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        metropolis_weights(np.eye(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_metropolis_matches_direct_formula(N, seed):
    rng = np.random.default_rng(seed)
    # random connected graph: random spanning tree plus extra edges
    adj = np.zeros((N, N))
    order = rng.permutation(N)
    for a, b in zip(order[:-1], order[1:]):
        adj[a, b] = adj[b, a] = 1
    extra = rng.random((N, N)) < 0.3
    adj = np.clip(adj + np.triu(extra, 1) + np.triu(extra, 1).T, 0, 1)
    np.fill_diagonal(adj, 0)
    W = metropolis_weights(adj)
    assert np.allclose(W, oracles.metropolis(adj))
    assert np.allclose(W.sum(axis=1), 1.0)
    assert np.all(np.diag(W) > 0)
    assert np.allclose(W, W.T)  # metropolis weights are symmetric


# --- Topology -----------------------------------------------------------

def test_topology_neighbor_sets():
    W = metropolis_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    top = Topology(W)
    assert top.N == 3
    assert list(top.in_neighbors(0)) == [0, 1]
    assert list(top.out_neighbors0(0)) == [1]
    assert top.out_degree0(1) == 2


def _network():
    arrays = dict(H=np.eye(4)[:1], R=np.eye(1), D=np.eye(4)[:2], d=np.ones(2),
                  weights=metropolis_weights(np.array([[0, 1, 0], [1, 0, 1],
                                                       [0, 1, 0]])))
    agent = AgentSpec(*(arrays[k] for k in "HRDd"))
    return arrays, agent, Topology(arrays["weights"])


@pytest.mark.parametrize("field", ["H", "R", "D", "d", "weights", "edges"])
def test_network_arrays_are_read_only(field):
    # a cached step layout is keyed on these objects, so their arrays are final
    _, agent, top = _network()
    M = getattr(top if field in ("weights", "edges") else agent, field)
    with pytest.raises(ValueError, match="read-only"):
        M[0] = 0
    assert not M.flags.writeable


def test_network_arrays_do_not_alias_the_arrays_passed_in():
    arrays, agent, top = _network()
    kept = {k: v.copy() for k, v in arrays.items()}
    for M in arrays.values():
        M += 1.0
    for k in "HRDd":
        assert np.array_equal(getattr(agent, k), kept[k])
    assert np.array_equal(top.weights, kept["weights"])
    assert np.array_equal(top.edges, kept["weights"] > 0)


def _stochastic(edges):
    """Row-stochastic weights on `edges` plus the diagonal."""
    W = np.asarray(edges, dtype=float) + np.eye(len(edges))
    return W / W.sum(axis=1, keepdims=True)


def test_topology_rejects_a_one_way_chain():
    # 0 -> 1 -> 2: weakly connected, but nothing reaches agent 0
    chain = np.zeros((3, 3))
    chain[1, 0] = chain[2, 1] = 1          # weights[i, j] > 0: i receives j
    with pytest.raises(ValueError, match="strongly connected"):
        Topology(_stochastic(chain))
    with pytest.raises(ValueError, match="strongly connected"):
        Topology(_stochastic(chain.T))


def test_topology_accepts_a_directed_cycle():
    cycle = np.roll(np.eye(4), 1, axis=1)  # i receives i + 1
    top = Topology(_stochastic(cycle))
    assert [list(top.out_neighbors0(i)) for i in range(4)] == [[3], [0], [1], [2]]


def test_topology_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="weights must be non-empty"):
        Topology(np.zeros((0, 0)))


@pytest.mark.parametrize("weights, message", [
    ([[0.5, 0.6], [0.5, 0.5]], "weight rows must each sum to 1"),
    ([[1.5, -0.5], [0.5, 0.5]], "weights must be nonnegative"),
    # a NaN passes the row-sum and diagonal tests: a NaN self-weight loaded,
    # and its agent fused without its own estimate
    ([[np.nan, 0.5], [0.5, 0.5]], "^weights has non-finite entries$"),
    ([[0.5, np.nan], [0.5, 0.5]], "^weights has non-finite entries$"),
    ([[np.inf, 0.5], [0.5, 0.5]], "^weights has non-finite entries$"),
], ids=["row-sum", "negative", "nan-self", "nan-off-diagonal", "inf"])
def test_topology_rejects_fusion_weights_that_are_not_convex(weights, message):
    # the fusion weights are checked here, where they enter the program
    with pytest.raises(ValueError, match=message):
        Topology(np.array(weights))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.floats(0.0, 0.5),
       st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
def test_connectivity_matches_scipy(N, p, undirected, seed):
    # scipy is a test-only oracle here: pdkf itself does not import it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = np.random.default_rng(seed).random((N, N)) < p
    np.fill_diagonal(adj, False)
    if undirected:
        adj |= adj.T
    n_strong, _ = connected_components(csr_matrix(adj), directed=True,
                                       connection="strong")
    if n_strong == 1:
        assert Topology(_stochastic(adj)).N == N
    else:
        with pytest.raises(ValueError, match="strongly connected"):
            Topology(_stochastic(adj))
    sym = adj | adj.T
    n_comp, labels = connected_components(csr_matrix(sym), directed=False)
    expected = [np.flatnonzero(labels == c).tolist() for c in range(n_comp)]
    assert model._components(sym) == expected
    if undirected and n_comp > 1:
        with pytest.raises(ValueError) as info:
            metropolis_weights(adj)
        assert str(info.value).endswith(f"components: {expected}")


def test_topology_rejects_bad_rows():
    with pytest.raises(ValueError, match="sum"):
        Topology(np.array([[0.5, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="diagonal"):
        Topology(np.array([[0.0, 1.0], [1.0, 0.0]]))


# --- SystemModel --------------------------------------------------------

def test_system_model_time_invariant_accessors():
    m = SystemModel(A=2 * I4, Q=I4, x0_mean=np.zeros(4), P0=I4)
    assert m.time_invariant
    assert m.n == 4
    assert np.allclose(m.A_at(0), m.A_at(17))


def test_system_model_time_varying_sequence():
    A_seq = [np.eye(2) * (k + 1) for k in range(3)]
    m = SystemModel(A=A_seq, Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    assert not m.time_invariant
    assert np.allclose(m.A_at(2), 3 * np.eye(2))


def test_a_negative_step_is_refused_only_where_it_picks_a_matrix():
    # on a time-varying model A_at(-1) used to read the last A
    tv = SystemModel(A=[np.eye(2) * (k + 1) for k in range(3)],
                     Q=[np.eye(2) * (k + 1) for k in range(2)],
                     x0_mean=np.zeros(2), P0=np.eye(2))
    for at in (tv.A_at, tv.Q_at):
        with pytest.raises(ValueError, match="^a time-varying model starts at step 0, "
                                             "got step -1$"):
            at(-1)
    one_Q = dataclasses.replace(tv, Q=np.eye(2))
    assert np.array_equal(one_Q.Q_at(-1), np.eye(2))    # one Q: every step reads it
    ti = SystemModel(A=2 * I4, Q=I4, x0_mean=np.zeros(4), P0=I4)
    assert np.array_equal(ti.A_at(-1), 2 * I4) and np.array_equal(ti.Q_at(-1), I4)


def test_system_model_rejects_singular_A():
    with pytest.raises(ValueError, match="singular"):
        SystemModel(A=np.zeros((2, 2)), Q=np.eye(2),
                    x0_mean=np.zeros(2), P0=np.eye(2))


def test_system_model_rejects_indefinite_Q():
    with pytest.raises(ValueError, match="positive semidefinite"):
        SystemModel(A=np.eye(2), Q=np.diag([1.0, -1.0]),
                    x0_mean=np.zeros(2), P0=np.eye(2))


@pytest.mark.parametrize("A, Q, field", [
    (np.eye(2), np.eye(3), r"Q\[0\]"),
    (np.ones((2, 3)), np.eye(2), r"A\[0\]"),
], ids=["Q", "A"])
def test_system_model_rejects_wrong_shapes(A, Q, field):
    with pytest.raises(ValueError, match=f"{field} must be \\(2, 2\\)"):
        SystemModel(A=A, Q=Q, x0_mean=np.zeros(2), P0=np.eye(2))


@pytest.mark.parametrize("field", ["A", "Q", "x0_mean", "P0"])
def test_system_model_rejects_non_finite(field):
    kw = dict(A=np.eye(2), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    kw[field] = np.full_like(kw[field], np.nan)
    with pytest.raises(ValueError, match=f"{field}.*non-finite"):
        SystemModel(**kw)


# --- AgentSpec ----------------------------------------------------------

def test_agent_spec_shape_checks():
    with pytest.raises(ValueError, match="measurement dimension"):
        AgentSpec(H=np.ones((1, 4)), R=np.eye(2),
                  D=np.zeros((0, 4)), d=np.zeros(0))
    with pytest.raises(ValueError, match="full row rank"):
        AgentSpec(H=np.zeros((0, 4)), R=np.zeros((0, 0)),
                  D=np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]]), d=np.zeros(2))


def test_agent_spec_flags():
    a = make_agent(H=np.array([[1.0, 0, 0, 0]]), R=np.eye(1) * 90)
    assert a.has_measurement and not a.has_constraint
    b = make_agent(D=np.array([[1.0, -1.0, 0, 0]]), d=np.zeros(1))
    assert b.has_constraint and not b.has_measurement


# --- global constraint stacking ------------------------------------------

ROAD = np.array([[1.0, -np.sqrt(3.0), 0.0, 0.0],
                 [0.0, 0.0, 1.0, -np.sqrt(3.0)]])


def test_build_global_constraint_dedups_shared_rows():
    a1 = make_agent(D=ROAD, d=np.zeros(2))
    a2 = make_agent()
    a3 = make_agent(D=ROAD, d=np.zeros(2))
    gc = build_global_constraint([a1, a2, a3])
    assert gc.s_bar == 2
    # stacked rows span the same space as the unique constraint
    assert matrix_rank(np.vstack([gc.Dbar, ROAD])) == 2


def test_build_global_constraint_scales_gram_below_one():
    a = make_agent(D=5.0 * ROAD, d=np.zeros(2))
    gc = build_global_constraint([a])
    eigs = np.linalg.eigvalsh(gc.Dbar @ gc.Dbar.T)
    assert eigs.max() <= 1 + 1e-12


def test_build_global_constraint_keeps_feasible_point():
    a1 = make_agent(D=ROAD, d=np.array([1.0, 2.0]))
    a3 = make_agent(D=2 * ROAD, d=np.array([2.0, 4.0]))  # same set, rescaled
    gc = build_global_constraint([a1, a3])
    x = np.array([1.0 + np.sqrt(3.0), 1.0, 2.0 + np.sqrt(3.0), 1.0])
    # x satisfies the originals, so it must satisfy the stacked system
    assert np.allclose(ROAD @ x, [1.0, 2.0])
    assert np.allclose(gc.Dbar @ x, gc.dbar, atol=1e-12)


def test_build_global_constraint_rejects_contradiction():
    a1 = make_agent(D=np.array([[1.0, 0, 0, 0]]), d=np.array([1.0]))
    a2 = make_agent(D=np.array([[2.0, 0, 0, 0]]), d=np.array([5.0]))
    with pytest.raises(ValueError, match=r"^agents: inconsistent constraints: the "
                                         r"constraint set is empty, .* agents \[0, 2\]$"):
        build_global_constraint([a1, make_agent(), a2])


def test_build_global_constraint_empty():
    gc = build_global_constraint([make_agent(), make_agent()])
    assert gc.empty
    assert gc.Dbar.shape[0] == 0


def test_global_constraint_validates_rank():
    with pytest.raises(ValueError, match="full row rank"):
        GlobalConstraint(Dbar=np.array([[1.0, 0], [2.0, 0]]), dbar=np.zeros(2))


@pytest.mark.parametrize("Dbar", [
    [[0.0, 0.6]],
    np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2.0)]]),
    [[0.0, np.nan]],
], ids=["short-row", "unit-rows-not-orthogonal", "nan"])
def test_global_constraint_rejects_rows_that_are_not_orthonormal(Dbar):
    # its consumers read I − DbarᵀDbar as the tangent projector
    with pytest.raises(ValueError, match=r"orthonormal rows \(so full row rank\)"):
        GlobalConstraint(Dbar=Dbar, dbar=np.zeros(len(Dbar)))


def _floats(draw, *shape, lo, hi):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def _full_row_rank(draw, s, k):
    """(s, k), s ≤ k: a diagonal leading block in ±[0.5, 2] keeps every
    singular value at least 0.5."""
    M = _floats(draw, s, k, lo=-5.0, hi=5.0)
    M[:, :s] = np.diag(_floats(draw, s, lo=0.5, hi=2.0)
                       * draw(st.sampled_from([1.0, -1.0])))
    return M


@st.composite
def consistent_stacks(draw):
    """(agents, base, B, point): a block B (k × n, full row rank), a point x*,
    and 1–5 agents whose rows all lie in B's row space, each with
    d_i = D_i x*.  Agent `base` holds B's rows rescaled; every other holds no
    rows, rescaled copies of some of B's rows, or combinations C·B."""
    n = draw(st.integers(1, 4))
    B = _full_row_rank(draw, draw(st.integers(1, n)), n)
    point = _floats(draw, n, lo=-10.0, hi=10.0)
    blocks = [B]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["none", "copy", "combination"]))
        if kind == "copy":
            rows = draw(st.lists(st.integers(0, len(B) - 1), min_size=1,
                                 max_size=len(B), unique=True))
            blocks.append(B[rows])
        elif kind == "combination":
            blocks.append(_full_row_rank(draw, draw(st.integers(1, len(B))), len(B)) @ B)
        else:
            blocks.append(np.zeros((0, n)))
    order = draw(st.permutations(range(len(blocks))))
    scaled = [blocks[j] * _floats(draw, len(blocks[j]), 1, lo=0.1, hi=10.0) for j in order]
    return [make_agent(D=D, d=D @ point, n=n) for D in scaled], order.index(0), B, point


@settings(max_examples=150, deadline=None)
@given(stack=consistent_stacks(), data=st.data())
def test_build_global_constraint_is_one_orthonormal_basis_of_the_set(stack, data):
    agents, base, B, point = stack
    gc = build_global_constraint(agents)
    n = B.shape[1]
    assert np.abs(gc.Dbar @ gc.Dbar.T - np.eye(gc.s_bar)).max() <= 1e-12
    assert gc.s_bar == matrix_rank(np.vstack([a.D for a in agents]))
    # points of the set: x* plus steps along B's null space
    null = np.linalg.svd(B)[2][len(B):]
    for z in data.draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=len(null),
                                         max_size=len(null)), min_size=1, max_size=3)):
        x = point + np.asarray(z) @ null.reshape(-1, n)
        assert np.abs(gc.Dbar @ x - gc.dbar).max() <= 1e-10
    # an agent other than `base` holds rows that `base` spans, so moving one
    # of its right-hand sides leaves no state that meets every row
    movable = [i for i, a in enumerate(agents) if a.has_constraint and i != base]
    if movable:
        i = data.draw(st.sampled_from(movable))
        moved = agents[i].d.copy()
        moved[data.draw(st.integers(0, len(moved) - 1))] += (
            1.0 + np.abs(moved).max()) * np.abs(agents[i].D).max()
        agents[i] = make_agent(D=agents[i].D, d=moved, n=n)
        with pytest.raises(ValueError, match=rf"^agents: .*\b{i}\b"):
            build_global_constraint(agents)


# --- matrix_rank --------------------------------------------------------

def test_matrix_rank_relative_tolerance():
    # second row differs only at 1e-12 relative scale: treated as dependent
    M = np.array([[1e6, 2e6], [1e6, 2e6 + 1e-6]])
    assert matrix_rank(M) == 1
    assert matrix_rank(np.array([[1.0, 0.0], [0.0, 1e-3]])) == 2


@pytest.mark.parametrize("field", ["H", "R", "D", "d"])
def test_agent_spec_rejects_non_finite(field):
    kw = dict(H=np.ones((1, 2)), R=np.eye(1), D=np.array([[1.0, -1.0]]),
              d=np.zeros(1))
    kw[field] = np.full_like(kw[field], np.inf)
    with pytest.raises(ValueError, match=f"{field} has non-finite"):
        AgentSpec(**kw)


@pytest.mark.parametrize("R, message", [
    ([[90.0, 1.0]], r"^R must be \(1, 1\), got \(1, 2\)$"),
    ([[]], r"^R must be \(1, 1\), got \(1, 0\)$"),
], ids=["R-row", "R-empty-row"])
def test_agent_spec_checks_R_by_the_covariance_rule(R, message):
    # they used to fail as "R is not symmetric" and as numpy's "Last 2
    # dimensions of the array must be square"
    with pytest.raises(ValueError, match=message):
        AgentSpec(H=np.ones((1, 4)), R=np.array(R), D=np.zeros((0, 4)), d=np.zeros(0))


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_agent_spec_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be finite"):
        make_agent(delta=delta)


@pytest.mark.parametrize("field, value, message", [
    ("delta", True, "^delta must be a number, got True$"),
    ("delta", "0.5", "^delta must be a number, got '0.5'$"),
    ("eps", "0.5", "^eps must be a number, got '0.5'$"),
    ("eps", True, "^eps must be a number, got True$"),
], ids=["bool-delta", "str-delta", "str-eps", "bool-eps"])
def test_agent_spec_names_a_delta_or_eps_that_is_not_a_number(field, value, message):
    # a bool used to be stored as the threshold, and a string to raise a raw TypeError
    with pytest.raises(ValueError, match=message):
        make_agent(**{field: value})


def test_agent_spec_stores_numpy_thresholds_as_python_floats():
    a = make_agent(delta=np.float32(0.5), eps=np.float64(0.25))
    assert type(a.delta) is float and a.delta == 0.5
    assert type(a.eps) is float and a.eps == 0.25


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_agent_spec_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        make_agent(eps=eps)


@pytest.mark.parametrize("make", [make_agent, lambda: Topology(metropolis_weights(
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])))], ids=["agent", "topology"])
def test_specs_compare_and_hash_by_identity(make):
    # the step-layout cache keys on these objects: equal values are not the
    # same network, and comparing must not ask numpy for an array's truth
    a = make()
    twin = dataclasses.replace(a)
    assert a == a and hash(a) == hash(a)
    assert a != twin and twin != a
    assert len({a, twin}) == 2
