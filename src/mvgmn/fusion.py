"""Per-frame fusion of skeleton tokens with RGB patch tokens.

Each frame carries one skeleton-derived token and a set of RGB patch tokens.
The default mode projects the skeleton token to a query that attends over the
projected patches: one ``tensor.attention`` call over all frames, with one
query row per frame. Ablation variants are mean fusion (average of a
projected skeleton token and the mean projected patch) and linear fusion (a
single learned map over the concatenated skeleton token and mean patch). All
frames fuse at once: patches project as one ``matmul`` of the [F, P, D_rgb]
stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError
from .tensor import Tensor, add, attention, concat, matmul, mean_axis, mul, reshape

FUSION_MODES = ("cross_attention", "mean", "linear")


def skeleton_alignment_indices(t_sk: int, t_rgb: int) -> np.ndarray:
    """Skeleton indices paired with each RGB frame under the stride rule."""
    if t_rgb < 1 or t_sk % t_rgb != 0:
        raise ConfigurationError(
            f"skeleton count {t_sk} is not an integer multiple of RGB count {t_rgb}"
        )
    return np.arange(t_rgb) * (t_sk // t_rgb)


def fuse_frames(sk_tokens: Tensor, patches: Tensor, mode: str, p: dict[str, Tensor]) -> Tensor:
    """Fuse a batch of frames: sk_tokens [F, D_sk], patches [F, P, D_rgb] -> [F, D].

    ``p`` holds the weights the mode reads: ``cross_attention`` reads
    ``w_query`` [D_sk, d_k], ``w_key`` [D_rgb, d_k] and ``w_value``
    [D_rgb, D]; ``mean`` reads ``w_skeleton`` [D_sk, D] and ``w_value``;
    ``linear`` reads ``w_linear`` [D_sk + D_rgb, D].
    """
    if mode not in FUSION_MODES:
        raise ConfigurationError(
            f"unknown fusion mode {mode!r}; expected one of {FUSION_MODES}"
        )
    if sk_tokens.shape[0] != patches.shape[0]:
        raise DimensionError(
            f"frame counts disagree: {sk_tokens.shape} vs {patches.shape}"
        )
    if patches.shape[1] < 1:
        raise InputError("each frame needs at least one RGB patch")
    if mode == "cross_attention":
        f = sk_tokens.shape[0]
        query = matmul(reshape(sk_tokens, (f, 1, sk_tokens.shape[1])), p["w_query"])
        pooled = attention(query, matmul(patches, p["w_key"]), matmul(patches, p["w_value"]))
        return reshape(pooled, (f, pooled.shape[2]))
    mean_patch = mean_axis(patches, axis=1)  # [F, D_rgb]
    if mode == "mean":
        projected_sk = matmul(sk_tokens, p["w_skeleton"])
        projected_patch = matmul(mean_patch, p["w_value"])
        return mul(add(projected_sk, projected_patch), 0.5)
    return matmul(concat([sk_tokens, mean_patch], axis=1), p["w_linear"])
