"""Per-frame fusion of skeleton tokens with RGB patch tokens.

Each frame carries one skeleton-derived token and a set of RGB patch tokens.
The default mode projects the skeleton token to a query that attends over the
projected patches; ablation variants are mean fusion (average of a projected
skeleton token and the mean projected patch) and linear fusion (a single
learned map over the concatenated skeleton token and mean patch). All frames
fuse at once: patches project as one ``matmul`` of the [F, P, D_rgb] stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError
from .rng import Xoshiro256pp
from .tensor import (
    Tensor,
    add,
    concat,
    matmul,
    mean_axis,
    mul,
    reshape,
    softmax_rows,
)

# fusion mode -> the FusionParams weights it reads
_MODE_WEIGHTS = {
    "cross_attention": ("w_query", "w_key", "w_value"),
    "mean": ("w_skeleton", "w_value"),
    "linear": ("w_linear",),
}
FUSION_MODES = tuple(_MODE_WEIGHTS)


@dataclass
class FusionParams:
    """Trainable fusion weights; ``fusion_mode`` decides which must be set."""

    w_query: Tensor | None = None  # [D_sk, d_k], cross_attention mode
    w_key: Tensor | None = None  # [D_rgb, d_k], cross_attention mode
    w_value: Tensor | None = None  # [D_rgb, D], cross_attention and mean modes
    fusion_mode: str = "cross_attention"
    w_skeleton: Tensor | None = None  # [D_sk, D], mean mode
    w_linear: Tensor | None = None  # [D_sk + D_rgb, D], linear mode

    def __post_init__(self):
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigurationError(
                f"unknown fusion mode {self.fusion_mode!r}; expected one of {FUSION_MODES}"
            )
        missing = [n for n in _MODE_WEIGHTS[self.fusion_mode] if getattr(self, n) is None]
        if missing:
            raise ConfigurationError(f"{self.fusion_mode} fusion requires {missing}")


def sample_segments(length: int, num_segments: int, rng: Xoshiro256pp) -> list[int]:
    """One frame index per equal segment of [0, length), strictly increasing."""
    if num_segments < 1:
        raise InputError("num_segments must be at least 1")
    if length < num_segments:
        raise InputError(
            f"cannot sample {num_segments} segments from {length} frames"
        )
    indices = []
    for i in range(num_segments):
        lo = (i * length) // num_segments
        hi = ((i + 1) * length) // num_segments
        indices.append(lo + rng.below(hi - lo))
    return indices


def skeleton_alignment_indices(t_sk: int, t_rgb: int) -> np.ndarray:
    """Skeleton indices paired with each RGB frame under the stride rule."""
    if t_rgb < 1 or t_sk % t_rgb != 0:
        raise ConfigurationError(
            f"skeleton count {t_sk} is not an integer multiple of RGB count {t_rgb}"
        )
    return np.arange(t_rgb) * (t_sk // t_rgb)


def cross_attention_pool(query: Tensor, keys: Tensor, values: Tensor) -> Tensor:
    """Scaled dot-product pooling of value rows, batched over frames.

    ``query`` is [F, d_k], ``keys`` [F, P, d_k], ``values`` [F, P, D]; each
    frame's attention weights are a softmax over its P patch scores.
    """
    f, d_k = query.shape
    scores = matmul(keys, reshape(query, (f, d_k, 1)))  # [F, P, 1]
    scores = mul(reshape(scores, (f, keys.shape[1])), 1.0 / math.sqrt(d_k))
    weights = softmax_rows(scores)  # [F, P]
    pooled = matmul(reshape(weights, (f, 1, keys.shape[1])), values)
    return reshape(pooled, (f, values.shape[2]))


def fuse_frames(sk_tokens: Tensor, patches: Tensor, params: FusionParams) -> Tensor:
    """Fuse a batch of frames: sk_tokens [F, D_sk], patches [F, P, D_rgb] -> [F, D]."""
    if sk_tokens.shape[0] != patches.shape[0]:
        raise DimensionError(
            f"frame counts disagree: {sk_tokens.shape} vs {patches.shape}"
        )
    if patches.shape[1] < 1:
        raise InputError("each frame needs at least one RGB patch")
    mode = params.fusion_mode
    if mode == "cross_attention":
        query = matmul(sk_tokens, params.w_query)
        keys = matmul(patches, params.w_key)
        values = matmul(patches, params.w_value)
        return cross_attention_pool(query, keys, values)
    mean_patch = mean_axis(patches, axis=1)  # [F, D_rgb]
    if mode == "mean":
        projected_sk = matmul(sk_tokens, params.w_skeleton)
        projected_patch = matmul(mean_patch, params.w_value)
        return mul(add(projected_sk, projected_patch), 0.5)
    return matmul(concat([sk_tokens, mean_patch], axis=1), params.w_linear)

