"""View-temporal graph construction and graph-convolution propagation.

Vertices are (view, time) cells of the feature grid, numbered canonically as
v*T + t. Rule edges connect all same-view different-time pairs and all
same-time different-view pairs. KNN edges connect each vertex to its k most
similar vertices by cosine similarity (ties toward the lower index; if any
embedding row has zero norm the whole call falls back to negative Euclidean
distance, since cosine and distance scores cannot be ranked together).

Propagation is symmetric-normalized graph convolution over the self-looped
union adjacency: relu(D^-1/2 (A + I) D^-1/2 X W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .scan import project
from .tensor import Tensor, bmm, relu

Edge = tuple[int, int]


def rule_edges(views: int, time_steps: int) -> tuple[set[Edge], set[Edge]]:
    """All same-view temporal pairs and same-time cross-view pairs.

    Returned as unordered pairs (i, j) with i < j in canonical vertex
    numbering; counts are V*T*(T-1)/2 and T*V*(V-1)/2.
    """
    if views < 1 or time_steps < 1:
        raise InputError("views and time_steps must be at least 1")
    time_edges = {
        (v * time_steps + t, v * time_steps + t2)
        for v in range(views)
        for t in range(time_steps)
        for t2 in range(t + 1, time_steps)
    }
    view_edges = {
        (v * time_steps + t, v2 * time_steps + t)
        for t in range(time_steps)
        for v in range(views)
        for v2 in range(v + 1, views)
    }
    return time_edges, view_edges


def similarity_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise similarity used for KNN selection.

    Cosine similarity normally; negative Euclidean distance for the whole
    matrix when any row has zero norm.
    """
    x = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        sq = (x * x).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        return -np.sqrt(d2)
    return (x @ x.T) / np.outer(norms, norms)


def knn_edges(features, k: int) -> set[Edge]:
    """Directed edges from each vertex to its k most-similar other vertices."""
    x = features.data if isinstance(features, Tensor) else np.asarray(features)
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise ConfigurationError(f"knn_k must lie in [1, {n - 1}], got {k}")
    sims = similarity_matrix(x)
    np.fill_diagonal(sims, -np.inf)
    edges: set[Edge] = set()
    for i in range(n):
        # stable sort on descending similarity breaks ties toward lower index
        order = np.argsort(-sims[i], kind="stable")
        for j in order[:k]:
            edges.add((i, int(j)))
    return edges


def assemble_adjacency(
    rule: set[Edge] | list[Edge], knn: set[Edge] | list[Edge], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized union adjacency with self-loops and its degree matrix."""
    a = np.zeros((n, n))
    for i, j in list(rule) + list(knn):
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) out of range for {n} vertices")
        if i == j:
            raise InputError(f"self-edge ({i}, {j}) is not allowed before self-loops")
        a[i, j] = 1.0
        a[j, i] = 1.0
    a_tilde = a + np.eye(n)
    d_tilde = np.diag(a_tilde.sum(axis=1))
    return a_tilde, d_tilde


def normalized_operator(a_tilde: np.ndarray, d_tilde: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of a self-looped adjacency."""
    inv_sqrt = 1.0 / np.sqrt(np.diag(d_tilde))
    return a_tilde * np.outer(inv_sqrt, inv_sqrt)


@dataclass
class ViewTemporalGraph:
    """Edge sets and assembled adjacency for one grid's vertices."""

    n_vertices: int
    rule_time_edges: set[Edge]
    rule_view_edges: set[Edge]
    knn_edges: set[Edge]
    a_tilde: np.ndarray
    d_tilde: np.ndarray


def build_graph(views: int, time_steps: int, features, k: int) -> ViewTemporalGraph:
    """Construct rule plus KNN edges from current vertex features."""
    time_e, view_e = rule_edges(views, time_steps)
    knn = knn_edges(features, k)
    n = views * time_steps
    a_tilde, d_tilde = assemble_adjacency(time_e | view_e, knn, n)
    return ViewTemporalGraph(n, time_e, view_e, knn, a_tilde, d_tilde)


def gcn_propagate(x: Tensor, norm: Tensor, weight: Tensor) -> Tensor:
    """One graph-convolution layer, relu(N X W), batched over graphs.

    ``x`` is [B, n, D_in], ``norm`` holds each graph's [n, n] operator from
    ``normalized_operator`` as [B, n, n], and ``weight`` is [D_in, D_out].
    """
    return relu(project(bmm(norm, x), weight))
