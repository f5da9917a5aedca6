import numpy as np
import pytest
from hypothesis import given, settings
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


# ---------------------------------------------------------------------------
# rule edges
# ---------------------------------------------------------------------------


def test_rule_edges_single_vertex_empty():
    time_e, view_e = G.rule_edges(1, 1)
    assert time_e == set() and view_e == set()


def test_rule_edges_two_by_two():
    time_e, view_e = G.rule_edges(2, 2)
    assert len(time_e) == 2 and len(view_e) == 2


def test_rule_edges_three_views_eight_steps():
    time_e, view_e = G.rule_edges(3, 8)
    assert len(time_e) == 84  # 3 * C(8,2)
    assert len(view_e) == 24  # 8 * C(3,2)
    assert len(time_e | view_e) == 108


@given(st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=24, deadline=None)
def test_rule_edges_match_exhaustive_oracle(v, t):
    assert G.rule_edges(v, t) == brute_force_rule_edges(v, t)


def test_rule_edges_reject_bad_sizes():
    with pytest.raises(InputError):
        G.rule_edges(0, 3)


# ---------------------------------------------------------------------------
# knn edges
# ---------------------------------------------------------------------------


def test_knn_complete_digraph_when_k_is_max():
    x = np.random.default_rng(0).standard_normal((5, 3))
    edges = G.knn_edges(x, 4)
    assert edges == {(i, j) for i in range(5) for j in range(5) if i != j}


def test_knn_zero_norm_row_falls_back_to_distance():
    x = np.array([[0.0], [1.0], [10.0]])
    assert G.knn_edges(x, 1) == {(0, 1), (1, 0), (2, 1)}


def test_knn_duplicate_rows_mutual_and_tie_broken():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    edges = G.knn_edges(x, 1)
    # all three duplicates are pairwise at similarity 1; lower index wins
    assert edges == {(0, 1), (1, 0), (2, 0), (3, 0)}


@pytest.mark.parametrize("seed", range(8))
def test_knn_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    k = int(rng.integers(1, 4))
    x = rng.standard_normal((n, 5))
    assert G.knn_edges(x, k) == brute_force_knn(x, k)


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
    a_tilde, d_tilde = G.assemble_adjacency(set(), set(), 3)
    np.testing.assert_array_equal(a_tilde, np.eye(3))
    np.testing.assert_array_equal(d_tilde, np.eye(3))


def test_assemble_single_edge():
    a_tilde, d_tilde = G.assemble_adjacency({(0, 1)}, set(), 2)
    np.testing.assert_array_equal(a_tilde, [[1, 1], [1, 1]])
    np.testing.assert_array_equal(d_tilde, [[2, 0], [0, 2]])


@given(st.integers(2, 10), st.data())
@settings(max_examples=30, deadline=None)
def test_assemble_symmetric_and_degrees_consistent(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    rule = set(data.draw(st.lists(pairs, max_size=8)))
    knn = set(data.draw(st.lists(pairs, max_size=8)))
    a_tilde, d_tilde = G.assemble_adjacency(rule, knn, n)
    np.testing.assert_array_equal(a_tilde, a_tilde.T)
    np.testing.assert_array_equal(np.diag(d_tilde), a_tilde.sum(axis=1))
    # idempotent union: assembling the derived undirected edges again is stable
    again, _ = G.assemble_adjacency(rule | knn, set(), n)
    np.testing.assert_array_equal(again, a_tilde)


def test_assemble_rejects_out_of_range_and_self_edges():
    with pytest.raises(InputError):
        G.assemble_adjacency({(0, 5)}, set(), 3)
    with pytest.raises(InputError):
        G.assemble_adjacency({(1, 1)}, set(), 3)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_normalized_operator_spectral_norm_bounded():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        mask = rng.random((n, n)) < 0.4
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
        a_tilde, d_tilde = G.assemble_adjacency(edges, set(), n)
        op = G.normalized_operator(a_tilde, d_tilde)
        assert np.abs(np.linalg.eigvalsh(op)).max() <= 1 + 1e-9


def test_rule_graph_preserves_constant_columns():
    # rule graphs are regular, so the normalized operator fixes constants
    time_e, view_e = G.rule_edges(3, 4)
    a_tilde, d_tilde = G.assemble_adjacency(time_e | view_e, set(), 12)
    op = G.normalized_operator(a_tilde, d_tilde)
    np.testing.assert_allclose(op @ np.ones(12), np.ones(12), atol=1e-12)


def normalized_batch(*graphs):
    """Stack each graph's normalized operator as the [B, n, n] propagation input."""
    ops = [G.normalized_operator(*G.assemble_adjacency(*g)) for g in graphs]
    return Tensor(np.stack(ops))


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
    g = G.build_graph(2, 3, x, k=2)
    assert g.n_vertices == 6
    assert g.rule_time_edges == G.rule_edges(2, 3)[0]
    assert g.knn_edges == G.knn_edges(x, 2)
    assert g.a_tilde.shape == (6, 6)
    np.testing.assert_array_equal(np.diag(g.a_tilde), np.ones(6))
