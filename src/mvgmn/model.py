"""Model assembly: fused grid -> scheduled scan/graph units -> pooled head.

An aggregator names what happens inside each scheduled unit:

    linear           per-vertex linear map, no cross-vertex interaction
    attention        residual self-attention over all V*T vertices (quadratic),
                     one ``tensor.attention`` call per unit
    ssm              directional selective-scan layers (linear in V*T)
    gcn_rule         per-vertex linear + graph conv over rule edges
    gcn_rule_knn     per-vertex linear + graph conv over rule and KNN edges
    attention_graph  self-attention + linear + graph conv (rule and KNN)
    mvgmn            directional scan + graph conv (rule and KNN); full model

The classification head global-average-pools the final vertex features and
the original fused grid, concatenates both, and applies a linear classifier.
A graph stage builds one [B, n, n] adjacency per batch from its unit's mixer
output: KNN edges from those features plus rule edges, static per grid shape;
rule-only units reuse one normalized operator cached per grid shape.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import graph as graph_mod
from . import scan as scan_mod
from .data import SyntheticSpec, check_fields, read_tensor_container, write_tensor_container
from .errors import ConfigurationError, FormatError, InputError
from .fusion import FUSION_MODES, fuse_frames, skeleton_alignment_indices
from .rng import Xoshiro256pp, derive_seed
from .scan import SCAN_MODES
from .tensor import Tensor, add, attention, concat, matmul, mean_axis, mul, reshape, scope

# (mixer kind, graph edge kind) per scheduled unit, one entry per aggregator
_UNIT_LAYOUT = {
    "linear": ("linear", None),
    "attention": ("attention", None),
    "ssm": ("scan", None),
    "gcn_rule": ("linear", "rule"),
    "gcn_rule_knn": ("linear", "rule_knn"),
    "attention_graph": ("attention", "rule_knn"),
    "mvgmn": ("scan", "rule_knn"),
}
AGGREGATORS = tuple(_UNIT_LAYOUT)

_VALID_BLOCK_COUNTS = (2, 4, 8, 12)
_INIT_TAG = 0x494E4954  # "INIT"

_INNER_EXPAND = 2  # Mamba layer's inner width per model width
_CONV_WIDTH = 3  # odd: both sequence convolutions are length-preserving
# fixed input gain of the classifier; compensates the scale lost to
# vertex-count averaging at desk widths so the stated SGD rate trains
_HEAD_GAIN = 10.0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; widths must match the dataset dims."""

    views: int
    time_steps: int
    width: int
    n_classes: int
    rgb_dim: int = 32
    sk_dim: int = 16
    patches: int = 4
    n_blocks: int = 4
    scan_mode: str = "view_time"
    aggregator: str = "mvgmn"
    knn_k: int = 3
    fusion_mode: str = "cross_attention"
    attn_dim: int = 16
    state_dim: int = 64

    @property
    def n_vertices(self) -> int:
        return self.views * self.time_steps

    def __post_init__(self):
        check_fields(self)
        if self.aggregator not in AGGREGATORS:
            raise ConfigurationError(
                f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATORS}"
            )
        if self.scan_mode not in SCAN_MODES:
            raise ConfigurationError(
                f"unknown scan_mode {self.scan_mode!r}; expected one of {sorted(SCAN_MODES)}"
            )
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigurationError(
                f"unknown fusion_mode {self.fusion_mode!r}; expected one of {FUSION_MODES}"
            )
        if self.n_blocks not in _VALID_BLOCK_COUNTS:
            raise ConfigurationError(
                f"n_blocks must be one of {_VALID_BLOCK_COUNTS}, got {self.n_blocks}"
            )
        if self.n_classes < 2:
            raise ConfigurationError("n_classes must be at least 2")
        if _UNIT_LAYOUT[self.aggregator][1] == "rule_knn" and self.knn_k > self.n_vertices - 1:
            raise ConfigurationError(
                f"knn_k={self.knn_k} exceeds the {self.n_vertices - 1} available neighbors"
            )


# the ModelConfig fields that a dataset's SyntheticSpec fixes
DATASET_FIELDS = ("views", "time_steps", "n_classes", "rgb_dim", "sk_dim", "patches")


def config_for_dataset(spec: SyntheticSpec, **overrides) -> ModelConfig:
    """Model config whose input dims match a dataset spec."""
    fixed = {name: getattr(spec, name) for name in DATASET_FIELDS}
    return ModelConfig(**{**fixed, "width": 32, **overrides})


def block_schedule(n_blocks: int, scan_mode: str) -> list[str]:
    """Ordered scan direction per unit.

    Two blocks pair one forward view-ordered unit with one forward
    time-ordered unit; larger counts repeat the mode's full direction cycle.
    ``ModelConfig`` validates both arguments.
    """
    directions = SCAN_MODES[scan_mode]
    if scan_mode == "view_time":
        if n_blocks == 2:
            return ["view_forward", "time_forward"]
        return list(directions) * (n_blocks // 4)
    return list(directions) * (n_blocks // 2)


# ---------------------------------------------------------------------------
# state and initialization
# ---------------------------------------------------------------------------


@dataclass
class ModelState:
    """Named trainable tensors plus the config that shaped them."""

    config: ModelConfig
    params: dict[str, Tensor]

    @property
    def schedule(self) -> list[str]:
        return block_schedule(self.config.n_blocks, self.config.scan_mode)

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None


def count_parameters(state: ModelState) -> int:
    return sum(t.size for t in state.params.values())


class _Init:
    """Deterministic parameter factory; creation order fixes the byte layout.

    Without an rng it draws nothing and records each tensor's shape instead.
    """

    def __init__(self, rng: Xoshiro256pp | None, dtype=None):
        self.rng = rng
        self.dtype = dtype
        self.params: dict = {}

    def _add(self, name: str, shape: tuple[int, ...], make) -> None:
        drawn = self.rng is not None
        self.params[name] = Tensor(make().astype(self.dtype), requires_grad=True) if drawn else shape

    def dense(self, name: str, shape: tuple[int, ...], fan_in: int, fan_out: int):
        std = math.sqrt(2.0 / (fan_in + fan_out))
        self._add(name, shape, lambda: self.rng.normals(int(np.prod(shape))).reshape(shape) * std)

    def zeros(self, name: str, shape: tuple[int, ...]):
        self._add(name, shape, lambda: np.zeros(shape))

    def constant(self, name: str, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        self._add(name, data.shape, lambda: data)


def _init_ssm(ini: _Init, prefix: str, d: int, n: int) -> None:
    # decay spectrum log(1..N) per channel; step size starts near 0.1
    ini.constant(f"{prefix}.a_log", np.tile(np.log(np.arange(1, n + 1)), (d, 1)))
    ini.dense(f"{prefix}.b_proj", (d, n), d, n)
    ini.dense(f"{prefix}.c_proj", (d, n), d, n)
    ini.dense(f"{prefix}.dt_weight", (d, 1), d, 1)
    ini.constant(f"{prefix}.dt_bias", np.asarray([math.log(math.expm1(0.1))]))
    ini.constant(f"{prefix}.skip_gain", np.ones(d))


def _init_scan_unit(ini: _Init, prefix: str, cfg: ModelConfig) -> None:
    d, d_in, k = cfg.width, _INNER_EXPAND * cfg.width, _CONV_WIDTH
    ini.dense(f"{prefix}.conv_kernel", (k, d, d), k * d, d)
    ini.zeros(f"{prefix}.conv_bias", (d,))
    ini.dense(f"{prefix}.mamba.w_in", (d, d_in), d, d_in)
    ini.zeros(f"{prefix}.mamba.b_in", (d_in,))
    ini.dense(f"{prefix}.mamba.w_res", (d, d_in), d, d_in)
    ini.zeros(f"{prefix}.mamba.b_res", (d_in,))
    ini.dense(f"{prefix}.mamba.w_out", (d_in, d), d_in, d)
    ini.zeros(f"{prefix}.mamba.b_out", (d,))
    ini.dense(f"{prefix}.mamba.conv_weight", (k, d_in), k, 1)
    ini.zeros(f"{prefix}.mamba.conv_bias", (d_in,))
    _init_ssm(ini, f"{prefix}.mamba.ssm", d_in, cfg.state_dim)


def _populate(ini: _Init, cfg: ModelConfig) -> dict:
    """Add every tensor for the config's aggregator; returns ``ini.params``.

    This is the one declaration of parameter names, shapes and init order.
    Each layer reads its tensors by these names, cut out by ``tensor.scope``.
    """
    d = cfg.width

    if cfg.fusion_mode == "cross_attention":
        ini.dense("fusion.w_query", (cfg.sk_dim, cfg.attn_dim), cfg.sk_dim, cfg.attn_dim)
        ini.dense("fusion.w_key", (cfg.rgb_dim, cfg.attn_dim), cfg.rgb_dim, cfg.attn_dim)
        ini.dense("fusion.w_value", (cfg.rgb_dim, d), cfg.rgb_dim, d)
    elif cfg.fusion_mode == "mean":
        ini.dense("fusion.w_skeleton", (cfg.sk_dim, d), cfg.sk_dim, d)
        ini.dense("fusion.w_value", (cfg.rgb_dim, d), cfg.rgb_dim, d)
    else:
        ini.dense(
            "fusion.w_linear", (cfg.sk_dim + cfg.rgb_dim, d), cfg.sk_dim + cfg.rgb_dim, d
        )

    mixer, edge_kind = _UNIT_LAYOUT[cfg.aggregator]
    for u in range(cfg.n_blocks):  # block_schedule has one direction per block
        prefix = f"unit{u:02d}"
        if mixer == "scan":
            _init_scan_unit(ini, f"{prefix}.scan", cfg)
        elif mixer == "attention":
            for name in ("w_query", "w_key", "w_value", "w_out"):
                ini.dense(f"{prefix}.attn.{name}", (d, d), d, d)
        else:
            ini.dense(f"{prefix}.mix.weight", (d, d), d, d)
            ini.zeros(f"{prefix}.mix.bias", (d,))
        if edge_kind is not None:
            ini.dense(f"{prefix}.gcn.weight", (d, d), d, d)

    ini.dense("head.weight", (2 * d, cfg.n_classes), 2 * d, cfg.n_classes)
    ini.zeros("head.bias", (cfg.n_classes,))
    return ini.params


def init_state(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelState:
    """Create all trainable tensors for the config's aggregator."""
    params = _populate(_Init(Xoshiro256pp(derive_seed(seed, _INIT_TAG)), dtype), config)
    return ModelState(config=config, params=params)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def fuse_batch(
    state: ModelState,
    rgb: np.ndarray,
    sk: np.ndarray,
    mask_view: int | None = None,
) -> Tensor:
    """Fuse raw per-view features into canonical vertex tokens [B, V*T, D].

    ``rgb`` is [B, V, T, N_p, D_rgb]; ``sk`` is [B, V, T_sk, D_sk] and is
    subsampled to the RGB frame instants. Masking zeroes one view's raw
    features (cross-view evaluation analog); fusion maps zero features to
    zero tokens in every mode.
    """
    cfg = state.config
    dtype = state.dtype
    b, v, t = rgb.shape[0], rgb.shape[1], rgb.shape[2]
    if (v, t, rgb.shape[3], rgb.shape[4]) != (cfg.views, cfg.time_steps, cfg.patches, cfg.rgb_dim):
        raise ConfigurationError(
            f"rgb features {rgb.shape[1:]} do not match config "
            f"({cfg.views}, {cfg.time_steps}, {cfg.patches}, {cfg.rgb_dim})"
        )
    if sk.shape[1] != v or sk.shape[3] != cfg.sk_dim:
        raise ConfigurationError(f"skeleton features {sk.shape[1:]} do not match config")
    rgb = rgb.astype(dtype, copy=mask_view is not None)
    align = skeleton_alignment_indices(sk.shape[2], t)
    sk_aligned = sk[:, :, align].astype(dtype, copy=mask_view is not None)
    if mask_view is not None:
        if not 0 <= mask_view < v:
            raise ConfigurationError(f"mask_view {mask_view} out of range for {v} views")
        rgb[:, mask_view] = 0.0
        sk_aligned[:, mask_view] = 0.0
    frames = b * v * t
    fused = fuse_frames(
        Tensor(sk_aligned.reshape(frames, cfg.sk_dim)),
        Tensor(rgb.reshape(frames, cfg.patches, cfg.rgb_dim)),
        cfg.fusion_mode,
        scope(state.params, "fusion"),
    )
    return reshape(fused, (b, v * t, cfg.width))


def _self_attention(state: ModelState, unit: int, x: Tensor) -> Tensor:
    p = scope(state.params, f"unit{unit:02d}.attn")
    ctx = attention(matmul(x, p["w_query"]), matmul(x, p["w_key"]), matmul(x, p["w_value"]))
    return add(x, matmul(ctx, p["w_out"]))


def _graph_stage(state: ModelState, unit: int, x: Tensor, edge_kind: str) -> Tensor:
    cfg = state.config
    if edge_kind == "rule":
        op = graph_mod.rule_operator(cfg.views, cfg.time_steps, x.dtype)
        norm = np.broadcast_to(op, x.shape[:1] + op.shape)
    else:
        # edge selection is structural: no gradient flows through it
        a_tilde = graph_mod.build_graph(cfg.views, cfg.time_steps, x.data, cfg.knn_k)
        norm = graph_mod.normalized_operator(a_tilde).astype(x.dtype)
    return graph_mod.gcn_propagate(x, Tensor(norm), state.params[f"unit{unit:02d}.gcn.weight"])


def _mix(state: ModelState, unit: int, direction: str, x: Tensor) -> Tensor:
    """The unit's per-vertex or sequence mixer, which feeds its graph stage."""
    cfg = state.config
    mixer = _UNIT_LAYOUT[cfg.aggregator][0]
    if mixer == "scan":
        weights = scope(state.params, f"unit{unit:02d}.scan")
        return scan_mod.apply_direction(x, direction, weights, cfg.views, cfg.time_steps)
    if mixer == "attention":
        return _self_attention(state, unit, x)
    p = state.params
    return add(matmul(x, p[f"unit{unit:02d}.mix.weight"]), p[f"unit{unit:02d}.mix.bias"])


def _apply_unit(state: ModelState, unit: int, direction: str, x: Tensor) -> Tensor:
    x = _mix(state, unit, direction, x)
    edge_kind = _UNIT_LAYOUT[state.config.aggregator][1]
    if edge_kind is not None:
        x = _graph_stage(state, unit, x, edge_kind)
    return x


def forward_grid_batch(state: ModelState, grid: Tensor) -> Tensor:
    """Aggregator plus head on pre-fused canonical grids [B, V*T, D]."""
    cfg = state.config
    if grid.data.ndim != 3 or grid.shape[1] != cfg.n_vertices or grid.shape[2] != cfg.width:
        raise ConfigurationError(
            f"grid {grid.shape} does not match config ({cfg.n_vertices} vertices, width {cfg.width})"
        )
    x = grid
    for unit, direction in enumerate(state.schedule):
        x = _apply_unit(state, unit, direction, x)
    pooled = concat([mean_axis(x, axis=1), mean_axis(grid, axis=1)], axis=1)
    pooled = mul(pooled, _HEAD_GAIN)
    return add(matmul(pooled, state.params["head.weight"]), state.params["head.bias"])


def forward_batch(
    state: ModelState, rgb: np.ndarray, sk: np.ndarray, mask_view: int | None = None
) -> Tensor:
    """Full pipeline: fusion, scheduled units, pooled classifier logits."""
    return forward_grid_batch(state, fuse_batch(state, rgb, sk, mask_view))


def inspect_graph(
    state: ModelState, rgb: np.ndarray, sk: np.ndarray, block_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges the given unit builds for the first sample of the batch.

    Replays the units before it and the unit's mixer, then returns the rule
    masks (``graph.rule_edges``) and the KNN neighbour indices [n, k] of the
    mixer output; a rule-only unit has [n, 0] neighbours.
    """
    cfg = state.config
    if not 0 <= block_index < len(state.schedule):
        raise InputError(
            f"block index {block_index} outside schedule of {len(state.schedule)} units"
        )
    edge_kind = _UNIT_LAYOUT[cfg.aggregator][1]
    if edge_kind is None:
        raise InputError(f"aggregator {cfg.aggregator!r} has no graph stage to inspect")
    x = fuse_batch(state, rgb, sk)
    for unit, direction in enumerate(state.schedule[:block_index]):
        x = _apply_unit(state, unit, direction, x)
    x = _mix(state, block_index, state.schedule[block_index], x)
    knn = edge_kind == "rule_knn"
    nbrs = graph_mod.knn_edges(x.data[0], cfg.knn_k) if knn else np.empty((x.shape[1], 0), int)
    return (*graph_mod.rule_edges(cfg.views, cfg.time_steps), nbrs)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, state: ModelState) -> None:
    meta = {"kind": "mvgmn-checkpoint", "version": __version__, "config": asdict(state.config)}
    write_tensor_container(path, meta, {k: t.data for k, t in state.params.items()})


def load_checkpoint(path) -> ModelState:
    meta, tensors = read_tensor_container(path)
    if meta.get("kind") != "mvgmn-checkpoint":
        raise InputError(f"{path} is not a model checkpoint")
    version = meta.get("version")
    if version != __version__:
        written = "a version before 0.3.0" if version is None else f"version {version}"
        raise FormatError(f"{path}: checkpoint written by {written}; this is mvgmn {__version__}")
    try:
        config = ModelConfig(**meta.get("config"))
    except TypeError as err:  # absent config, or unknown, missing or mistyped fields
        raise FormatError(f"{path}: bad checkpoint config: {err}") from None
    want = _populate(_Init(None), config)  # names and shapes only: no draws
    have = {k: v.shape for k, v in tensors.items()}
    if have != want:
        names = sorted(want.keys() | have.keys())
        diff = {k: (want.get(k), have.get(k)) for k in names if want.get(k) != have.get(k)}
        raise FormatError(
            f"{path}: tensors differ from the config's layout (expected, found): {diff}"
        )
    params = {k: Tensor(v, requires_grad=True) for k, v in tensors.items()}
    return ModelState(config=config, params=params)
