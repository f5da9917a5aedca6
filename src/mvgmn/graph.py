"""View-temporal graph construction and graph-convolution propagation.

Vertices are (view, time) cells of the feature grid, numbered canonically as
v*T + t. A graph is a boolean adjacency array, batched over leading axes.
Rule edges connect all same-view different-time pairs and all same-time
different-view pairs: the masks I_V⊗(J_T−I_T) and (J_V−I_V)⊗I_T. KNN edges
connect each vertex to its k most similar vertices by cosine similarity (ties
toward the lower index; if any embedding row of a graph has zero norm, that
graph falls back to negative Euclidean distance, since cosine and distance
scores cannot be ranked together).

Propagation is symmetric-normalized graph convolution over the self-looped
union adjacency: relu(D^-1/2 (A + I) D^-1/2 X W), where D is the degree
vector of A + I (Kipf & Welling, arXiv 1609.02907).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, InputError
from .scan import project
from .tensor import Tensor, bmm, relu


@lru_cache(maxsize=None)
def rule_edges(views: int, time_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric boolean [n, n] masks of temporal and cross-view rule edges.

    The first holds same-view different-time pairs, the second same-time
    different-view pairs. Both are cached per grid shape and read-only.
    """
    if views < 1 or time_steps < 1:
        raise InputError("views and time_steps must be at least 1")
    eye_v, eye_t = np.eye(views, dtype=bool), np.eye(time_steps, dtype=bool)
    masks = (np.kron(eye_v, ~eye_t), np.kron(~eye_v, eye_t))
    for m in masks:
        m.flags.writeable = False
    return masks


def similarity_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise similarity [..., n, n] used for KNN selection.

    Cosine similarity normally; negative Euclidean distance for every graph
    (leading index) that has a zero-norm row.
    """
    x = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    zero = norms == 0.0
    gram = x @ np.swapaxes(x, -1, -2)
    safe = np.where(zero, 1.0, norms)
    sims = gram / (safe[..., :, None] * safe[..., None, :])
    fallback = zero.any(axis=-1)
    if fallback.any():
        sq = (x * x).sum(axis=-1)
        d2 = np.maximum(sq[..., :, None] + sq[..., None, :] - 2.0 * gram, 0.0)
        sims = np.where(fallback[..., None, None], -np.sqrt(d2), sims)
    return sims


def knn_edges(features: np.ndarray, k: int) -> np.ndarray:
    """Indices [..., n, k] of each vertex's k most-similar other vertices."""
    n = features.shape[-2]
    if not 1 <= k <= n - 1:
        raise ConfigurationError(f"knn_k must lie in [1, {n - 1}], got {k}")
    sims = similarity_matrix(features)
    sims[..., np.arange(n), np.arange(n)] = -np.inf
    # stable sort on descending similarity breaks ties toward lower index
    return np.argsort(-sims, axis=-1, kind="stable")[..., :k]


def build_graph(views: int, time_steps: int, features: np.ndarray, k: int) -> np.ndarray:
    """Self-looped union of rule and symmetrized KNN edges, boolean [..., n, n]."""
    n = views * time_steps
    time_mask, view_mask = rule_edges(views, time_steps)
    nbrs = knn_edges(features, k)
    a = np.zeros(nbrs.shape[:-1] + (n,), dtype=bool)
    np.put_along_axis(a, nbrs, True, axis=-1)
    a |= np.swapaxes(a, -1, -2) | time_mask | view_mask | np.eye(n, dtype=bool)
    return a


def normalized_operator(a_tilde: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of a self-looped adjacency, in float64."""
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=-1))
    return a_tilde * (inv_sqrt[..., :, None] * inv_sqrt[..., None, :])


@lru_cache(maxsize=None)
def rule_operator(views: int, time_steps: int, dtype: np.dtype) -> np.ndarray:
    """Normalized operator of the self-looped rule-only graph, cached read-only."""
    time_mask, view_mask = rule_edges(views, time_steps)
    a_tilde = time_mask | view_mask | np.eye(views * time_steps, dtype=bool)
    op = normalized_operator(a_tilde).astype(dtype)
    op.flags.writeable = False
    return op


def gcn_propagate(x: Tensor, norm: Tensor, weight: Tensor) -> Tensor:
    """One graph-convolution layer, relu(N X W), batched over graphs.

    ``x`` is [B, n, D_in], ``norm`` holds each graph's [n, n] operator from
    ``normalized_operator`` as [B, n, n], and ``weight`` is [D_in, D_out].
    """
    return relu(project(bmm(norm, x), weight))
