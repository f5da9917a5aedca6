import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvgmn import graph as G
from mvgmn import tensor as T
from mvgmn.errors import ConfigurationError, DimensionError, InputError
from mvgmn.tensor import Tensor, check_gradients


def brute_force_rule_edges(v, t):
    time_e, view_e = set(), set()
    for a in range(v * t):
        for b in range(a + 1, v * t):
            va, ta = divmod(a, t)
            vb, tb = divmod(b, t)
            if va == vb and ta != tb:
                time_e.add((a, b))
            if ta == tb and va != vb:
                view_e.add((a, b))
    return time_e, view_e


def brute_force_knn(x, k):
    sims = G.similarity_matrix(x)
    n = x.shape[0]
    edges = set()
    for i in range(n):
        candidates = sorted(
            (j for j in range(n) if j != i), key=lambda j: (-sims[i, j], j)
        )
        edges.update((i, j) for j in candidates[:k])
    return edges


def assemble_adjacency(rule, knn, n):
    """Oracle: symmetrized union adjacency with self-loops, and its degree matrix."""
    a = np.zeros((n, n))
    for i, j in list(rule) + list(knn):
        a[i, j] = 1.0
        a[j, i] = 1.0
    a_tilde = a + np.eye(n)
    return a_tilde, np.diag(a_tilde.sum(axis=1))


def oracle_operator(a_tilde, d_tilde):
    """Oracle: D^-1/2 A D^-1/2 from the degree matrix."""
    inv_sqrt = 1.0 / np.sqrt(np.diag(d_tilde))
    return a_tilde * np.outer(inv_sqrt, inv_sqrt)


def pair_set(mask):
    """Unordered pairs (i < j) of a symmetric boolean adjacency without self-loops."""
    edges = {(int(i), int(j)) for i, j in np.argwhere(mask)}
    assert edges == {(j, i) for i, j in edges}, "adjacency is not symmetric"
    assert all(i != j for i, j in edges), "adjacency has a self-loop"
    return {(i, j) for i, j in edges if i < j}


def rule_edge_sets(v, t):
    return tuple(pair_set(m) for m in G.rule_edges(v, t))


def sorted_knn(x, k):
    """Oracle: a stable sort of every row's descending similarities, cut at k."""
    sims = G.similarity_matrix(x)
    n = sims.shape[-1]
    sims[..., np.arange(n), np.arange(n)] = -np.inf
    return np.argsort(-sims, axis=-1, kind="stable")[..., :k]


def knn_edge_set(nbrs):
    """Directed edges (i, j) of one graph's [n, k] neighbour indices."""
    return {(i, int(j)) for i, row in enumerate(nbrs) for j in row}


# ---------------------------------------------------------------------------
# rule edges
# ---------------------------------------------------------------------------


def test_rule_edges_single_vertex_empty():
    time_e, view_e = rule_edge_sets(1, 1)
    assert time_e == set() and view_e == set()


def test_rule_edges_two_by_two():
    time_e, view_e = rule_edge_sets(2, 2)
    assert len(time_e) == 2 and len(view_e) == 2


def test_rule_edges_three_views_eight_steps():
    time_e, view_e = rule_edge_sets(3, 8)
    assert len(time_e) == 84  # 3 * C(8,2)
    assert len(view_e) == 24  # 8 * C(3,2)
    assert len(time_e | view_e) == 108


@given(st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=24, deadline=None)
def test_rule_edges_match_exhaustive_oracle(v, t):
    assert rule_edge_sets(v, t) == brute_force_rule_edges(v, t)


def test_rule_edges_reject_bad_sizes():
    with pytest.raises(InputError):
        G.rule_edges(0, 3)


# ---------------------------------------------------------------------------
# knn edges
# ---------------------------------------------------------------------------


def test_knn_complete_digraph_when_k_is_max():
    x = np.random.default_rng(0).standard_normal((5, 3))
    edges = knn_edge_set(G.knn_edges(x, 4))
    assert edges == {(i, j) for i in range(5) for j in range(5) if i != j}


def test_knn_zero_norm_row_falls_back_to_distance():
    x = np.array([[0.0], [1.0], [10.0]])
    assert knn_edge_set(G.knn_edges(x, 1)) == {(0, 1), (1, 0), (2, 1)}


def test_knn_duplicate_rows_mutual_and_tie_broken():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    edges = knn_edge_set(G.knn_edges(x, 1))
    # all three duplicates are pairwise at similarity 1; lower index wins
    assert edges == {(0, 1), (1, 0), (2, 0), (3, 0)}


@pytest.mark.parametrize("seed", range(8))
def test_knn_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    k = int(rng.integers(1, 4))
    x = rng.standard_normal((n, 5))
    assert knn_edge_set(G.knn_edges(x, k)) == brute_force_knn(x, k)


@given(st.integers(1, 3), st.integers(2, 8), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_knn_matches_brute_force_under_heavy_ties(b, n, d, data):
    # small integer features tie often; a zero row sends its graph alone to
    # the distance fallback
    k = data.draw(st.integers(1, n - 1))
    cells = data.draw(st.lists(st.integers(-2, 2), min_size=b * n * d, max_size=b * n * d))
    x = np.asarray(cells, dtype=np.float64).reshape(b, n, d)
    nbrs = G.knn_edges(x, k)
    for i in range(b):
        assert knn_edge_set(nbrs[i]) == brute_force_knn(x[i], k)


@given(st.integers(1, 3), st.integers(2, 9), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_knn_edges_equal_the_stable_sort_oracle(b, n, d, data):
    # whole index arrays, order included: small integer features tie across
    # the k-th place, copied rows are exact duplicates (scoring -0.0 apart in
    # a distance-fallback graph), and a zero row sends its graph alone to the
    # distance fallback
    k = data.draw(st.sampled_from((1, n - 1)) | st.integers(1, n - 1), label="k")
    dtype = data.draw(st.sampled_from((np.float32, np.float64)), label="dtype")
    cells = data.draw(st.lists(st.integers(-2, 2), min_size=b * n * d, max_size=b * n * d))
    x = np.asarray(cells, dtype=dtype).reshape(b, n, d)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for src, dst in data.draw(st.lists(pairs, max_size=3), label="duplicates"):
        x[:, dst] = x[:, src]
    x[x.any(axis=-1) == 0] = 1.0  # no zero rows but the one drawn below
    zero = data.draw(st.none() | st.tuples(st.integers(0, b - 1), st.integers(0, n - 1)))
    if zero is not None:
        x[zero] = 0.0
    got = G.knn_edges(x, k)
    assert got.shape == (b, n, k)
    np.testing.assert_array_equal(got, sorted_knn(x, k))


def test_knn_ties_straddling_the_kth_place_go_to_the_lower_index():
    # vertex 0 scores 1 against vertices 1-4 and less against 5: k=2 keeps the
    # lowest two of the four tied at the k-th place
    x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 0.0], [4.0, 0.0], [1.0, 1.0]])
    got = G.knn_edges(x, 2)
    np.testing.assert_array_equal(got, sorted_knn(x, 2))
    np.testing.assert_array_equal(got[0], [1, 2])
    np.testing.assert_array_equal(got[4], [0, 1])


@given(st.integers(1, 2), st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_knn_signed_zero_scores_tie(b, n, data):
    # features never score -0.0 against +0.0 in one row (a BLAS sum starts at
    # +0.0), so the selection gets such scores directly: they compare equal
    # and rank by index alone
    k = data.draw(st.integers(1, n - 1), label="k")
    cells = data.draw(st.lists(st.sampled_from((-0.0, 0.0, 0.5, -1.0)), min_size=b * n * n,
                               max_size=b * n * n))
    scores = np.asarray(cells).reshape(b, n, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(G, "similarity_matrix", lambda features: scores.copy())
        np.testing.assert_array_equal(G.knn_edges(scores, k), sorted_knn(scores, k))


def test_knn_edges_equal_the_oracle_at_long_sequence_size():
    # n = 512: a random graph and a heavily tied (rounded) one, in one batch
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 512, 16)).astype(np.float32)
    x[1] = np.round(x[1])
    x[1, x[1].any(axis=-1) == 0] = 1.0
    for k in (1, 3, 511):
        np.testing.assert_array_equal(G.knn_edges(x, k), sorted_knn(x, k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_rejects_non_finite_features(bad):
    x = np.random.default_rng(4).standard_normal((2, 6, 3))
    x[1, 4] = bad
    with pytest.raises(InputError, match="finite"):
        G.knn_edges(x, 2)
    with pytest.raises(InputError, match="finite"):
        G.build_graph(2, 3, x, 2)


def test_knn_rejects_rows_whose_similarities_overflow():
    # two rows near 1e200 score NaN against each other, leaving each with
    # n - 2 finite scores: enough for k = n - 2, too few for k = n - 1
    x = np.random.default_rng(4).standard_normal((6, 3))
    x[4:] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(G.knn_edges(x, 4), sorted_knn(x, 4))
        with pytest.raises(InputError, match="overflow"):
            G.knn_edges(x, 5)


def test_knn_k_out_of_range():
    x = np.random.default_rng(1).standard_normal((4, 2))
    with pytest.raises(ConfigurationError):
        G.knn_edges(x, 0)
    with pytest.raises(ConfigurationError):
        G.knn_edges(x, 4)


# ---------------------------------------------------------------------------
# adjacency assembly
# ---------------------------------------------------------------------------


def test_assemble_no_edges_gives_identity():
    a_tilde, d_tilde = assemble_adjacency(set(), set(), 3)
    np.testing.assert_array_equal(a_tilde, np.eye(3))
    np.testing.assert_array_equal(d_tilde, np.eye(3))
    # an edgeless self-looped graph normalizes to the identity
    np.testing.assert_array_equal(G.normalized_operator(np.eye(3, dtype=bool)), np.eye(3))


def test_assemble_single_edge():
    a_tilde, d_tilde = assemble_adjacency({(0, 1)}, set(), 2)
    np.testing.assert_array_equal(a_tilde, [[1, 1], [1, 1]])
    np.testing.assert_array_equal(d_tilde, [[2, 0], [0, 2]])
    # two views of one step: the rule edge and both KNN edges are that pair
    built = G.build_graph(2, 1, np.array([[1.0, 0.0], [0.0, 1.0]]), k=1)
    np.testing.assert_array_equal(built, a_tilde)
    np.testing.assert_array_equal(G.normalized_operator(built), oracle_operator(a_tilde, d_tilde))


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=30, deadline=None)
def test_assemble_symmetric_and_degrees_consistent(v, t, seed, data):
    n = v * t
    assume(n >= 2)
    k = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, int(rng.integers(1, 5))))
    rule = set().union(*brute_force_rule_edges(v, t))
    knn = brute_force_knn(x, k)
    a_tilde, d_tilde = assemble_adjacency(rule, knn, n)
    built = G.build_graph(v, t, x, k)
    np.testing.assert_array_equal(built, a_tilde)
    np.testing.assert_array_equal(G.normalized_operator(built), oracle_operator(a_tilde, d_tilde))
    np.testing.assert_array_equal(a_tilde, a_tilde.T)
    np.testing.assert_array_equal(np.diag(d_tilde), a_tilde.sum(axis=1))
    # idempotent union: assembling the derived undirected edges again is stable
    again, _ = assemble_adjacency(rule | knn, set(), n)
    np.testing.assert_array_equal(again, a_tilde)


def test_build_graph_batch_equals_each_graph_built_alone():
    # a batch of three graphs, each against the oracle and its own single build
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 12, 5))
    built = G.build_graph(3, 4, x, k=3)
    ops = G.normalized_operator(built)
    rule = set().union(*brute_force_rule_edges(3, 4))
    for i in range(3):
        a_tilde, d_tilde = assemble_adjacency(rule, brute_force_knn(x[i], 3), 12)
        np.testing.assert_array_equal(built[i], a_tilde)
        np.testing.assert_array_equal(ops[i], oracle_operator(a_tilde, d_tilde))
        np.testing.assert_array_equal(G.knn_edges(x, 3)[i], G.knn_edges(x[i], 3))


def test_build_graph_falls_back_to_distance_per_graph():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 6, 4)) * rng.uniform(0.1, 10.0, (2, 6, 1))
    x[0, 2] = 0.0  # graph 0 ranks by distance, graph 1 by cosine
    built = G.build_graph(2, 3, x, k=2)
    nbrs = G.knn_edges(x, 2)
    for i in range(2):
        np.testing.assert_array_equal(built[i], G.build_graph(2, 3, x[i], k=2))
        np.testing.assert_array_equal(nbrs[i], G.knn_edges(x[i], 2))
        assert knn_edge_set(nbrs[i]) == brute_force_knn(x[i], 2)
    # ranking graph 1 by distance, as a batch-wide fallback would, changes it
    dist = np.linalg.norm(x[1][:, None] - x[1][None], axis=-1) + np.diag(np.full(6, np.inf))
    by_distance = np.argsort(dist, axis=1, kind="stable")[:, :2]
    assert knn_edge_set(nbrs[1]) != knn_edge_set(by_distance)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_normalized_operator_spectral_norm_bounded():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        mask = rng.random((n, n)) < 0.4
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
        a_tilde, d_tilde = assemble_adjacency(edges, set(), n)
        op = G.normalized_operator(a_tilde)
        np.testing.assert_array_equal(op, oracle_operator(a_tilde, d_tilde))
        assert np.abs(np.linalg.eigvalsh(op)).max() <= 1 + 1e-9


def test_rule_graph_preserves_constant_columns():
    # rule graphs are regular, so the normalized operator fixes constants
    op = G.rule_operator(3, 4, np.dtype(np.float64))
    np.testing.assert_allclose(op @ np.ones(12), np.ones(12), atol=1e-12)
    rule = set().union(*brute_force_rule_edges(3, 4))
    np.testing.assert_array_equal(op, oracle_operator(*assemble_adjacency(rule, set(), 12)))


def normalized_batch(*graphs):
    """Stack each graph's normalized operator as the [B, n, n] propagation input."""
    return Tensor(np.stack([G.normalized_operator(assemble_adjacency(*g)[0]) for g in graphs]))


def test_gcn_edgeless_identity_on_nonnegative():
    x = Tensor(np.abs(np.random.default_rng(2).standard_normal((1, 4, 3))))
    out = G.gcn_propagate(x, normalized_batch((set(), set(), 4)), Tensor(np.eye(3)))
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_gcn_two_vertex_full_smoothing():
    norm = normalized_batch(({(0, 1)}, set(), 2))
    out = G.gcn_propagate(Tensor([[[2.0], [0.0]]]), norm, Tensor(np.eye(1)))
    np.testing.assert_allclose(out.data, [[[1.0], [1.0]]], atol=1e-12)


def test_gcn_gradients():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    norm = normalized_batch(
        ({(0, 1), (2, 3), (1, 4)}, {(0, 2)}, 5), ({(0, 4), (1, 2)}, set(), 5)
    )

    def loss():
        out = G.gcn_propagate(x, norm, w)
        return T.sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, w], h=1e-5) < 1e-4


def test_gcn_shape_mismatch():
    norm = normalized_batch((set(), set(), 3))
    with pytest.raises(DimensionError):
        G.gcn_propagate(Tensor(np.zeros((1, 4, 2))), norm, Tensor(np.eye(2)))


def test_build_graph_bundles_edges():
    x = np.random.default_rng(11).standard_normal((6, 4))
    a_tilde = G.build_graph(2, 3, x, k=2)
    time_e, view_e = rule_edge_sets(2, 3)
    want, _ = assemble_adjacency(time_e | view_e, knn_edge_set(G.knn_edges(x, 2)), 6)
    assert a_tilde.shape == (6, 6)
    np.testing.assert_array_equal(a_tilde, want)
    np.testing.assert_array_equal(np.diag(a_tilde), np.ones(6))
