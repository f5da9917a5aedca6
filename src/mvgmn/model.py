"""Model assembly: fused grid -> scheduled scan/graph units -> pooled head.

An aggregator names what happens inside each scheduled unit:

    linear           per-vertex linear map, no cross-vertex interaction
    attention        residual self-attention over all V*T vertices (quadratic)
    ssm              directional selective-scan layers (linear in V*T)
    gcn_rule         per-vertex linear + graph conv over rule edges
    gcn_rule_knn     per-vertex linear + graph conv over rule and KNN edges
    attention_graph  self-attention + linear + graph conv (rule and KNN)
    mvgmn            directional scan + graph conv (rule and KNN); full model

The classification head global-average-pools the final vertex features and
the original fused grid, concatenates both, and applies a linear classifier.
KNN edges are rebuilt from each unit's current features; rule edges are
static per grid shape.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import graph as graph_mod
from . import scan as scan_mod
from .data import SyntheticSpec, read_tensor_container, write_tensor_container
from .errors import ConfigurationError, FormatError, InputError
from .fusion import (
    FUSION_MODES,
    FusionParams,
    fuse_frames,
    skeleton_alignment_indices,
)
from .rng import Xoshiro256pp, derive_seed
from .scan import SCAN_MODES, DirectionParams, MambaLayerParams, SsmParams
from .tensor import (
    Tensor,
    add,
    bmm,
    concat,
    matmul,
    mean_axis,
    mul,
    reshape,
    softmax_rows,
    swap_last,
)

AGGREGATORS = (
    "linear",
    "attention",
    "ssm",
    "gcn_rule",
    "gcn_rule_knn",
    "attention_graph",
    "mvgmn",
)

# (mixer kind, graph edge kind) per scheduled unit
_UNIT_LAYOUT = {
    "linear": ("linear", None),
    "attention": ("attention", None),
    "ssm": ("scan", None),
    "gcn_rule": ("linear", "rule"),
    "gcn_rule_knn": ("linear", "rule_knn"),
    "attention_graph": ("attention", "rule_knn"),
    "mvgmn": ("scan", "rule_knn"),
}

_VALID_BLOCK_COUNTS = (2, 4, 8, 12)
_INIT_TAG = 0x494E4954  # "INIT"


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
    gcn_layers_per_block: int = 1
    attn_dim: int = 16
    inner_expand: int = 2
    state_dim: int = 64
    conv_width: int = 3
    # fixed input gain of the classifier; compensates the scale lost to
    # vertex-count averaging at desk widths so the stated SGD rate trains
    head_gain: float = 10.0

    @property
    def n_vertices(self) -> int:
        return self.views * self.time_steps

    @property
    def inner_width(self) -> int:
        return self.inner_expand * self.width

    def __post_init__(self):
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
        if self.knn_k < 1:
            raise ConfigurationError(f"knn_k must be at least 1, got {self.knn_k}")
        if _UNIT_LAYOUT[self.aggregator][1] == "rule_knn" and self.knn_k > self.n_vertices - 1:
            raise ConfigurationError(
                f"knn_k={self.knn_k} exceeds the {self.n_vertices - 1} available neighbors"
            )
        if self.conv_width % 2 == 0:
            raise ConfigurationError("conv_width must be odd")
        for name in ("views", "time_steps", "width", "rgb_dim", "sk_dim", "patches",
                     "attn_dim", "inner_expand", "state_dim", "gcn_layers_per_block"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.head_gain <= 0:
            raise ConfigurationError("head_gain must be positive")


def config_for_dataset(spec: SyntheticSpec, **overrides) -> ModelConfig:
    """Model config whose input dims match a dataset spec."""
    base = dict(
        views=spec.views,
        time_steps=spec.time_steps,
        width=32,
        n_classes=spec.n_classes,
        rgb_dim=spec.rgb_dim,
        sk_dim=spec.sk_dim,
        patches=spec.patches,
    )
    base.update(overrides)
    return ModelConfig(**base)


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
    schedule: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.schedule:
            self.schedule = block_schedule(self.config.n_blocks, self.config.scan_mode)

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None


def count_parameters(state: ModelState) -> int:
    return sum(t.size for t in state.params.values())


class _Init:
    """Deterministic parameter factory; creation order fixes the byte layout."""

    def __init__(self, seed: int, dtype):
        self.rng = Xoshiro256pp(derive_seed(seed, _INIT_TAG))
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def _add(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data.astype(self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def dense(self, name: str, shape: tuple[int, ...], fan_in: int, fan_out: int):
        std = math.sqrt(2.0 / (fan_in + fan_out))
        data = self.rng.normals(int(np.prod(shape))).reshape(shape) * std
        return self._add(name, data)

    def zeros(self, name: str, shape: tuple[int, ...]):
        return self._add(name, np.zeros(shape))

    def constant(self, name: str, data: np.ndarray):
        return self._add(name, np.asarray(data, dtype=np.float64))


def _init_ssm(ini: _Init, prefix: str, d: int, n: int) -> None:
    # decay spectrum log(1..N) per channel; step size starts near 0.1
    ini.constant(f"{prefix}.a_log", np.tile(np.log(np.arange(1, n + 1)), (d, 1)))
    ini.dense(f"{prefix}.b_proj", (d, n), d, n)
    ini.dense(f"{prefix}.c_proj", (d, n), d, n)
    ini.dense(f"{prefix}.dt_weight", (d, 1), d, 1)
    ini.constant(f"{prefix}.dt_bias", np.asarray([math.log(math.expm1(0.1))]))
    ini.constant(f"{prefix}.skip_gain", np.ones(d))


def _init_scan_unit(ini: _Init, prefix: str, cfg: ModelConfig) -> None:
    d, d_in, k = cfg.width, cfg.inner_width, cfg.conv_width
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


def init_state(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelState:
    """Create all trainable tensors for the config's aggregator."""
    ini = _Init(seed, dtype)
    cfg = config
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
    schedule = block_schedule(cfg.n_blocks, cfg.scan_mode)
    for u in range(len(schedule)):
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
            for layer in range(cfg.gcn_layers_per_block):
                ini.dense(f"{prefix}.gcn.l{layer}.weight", (d, d), d, d)

    ini.dense("head.weight", (2 * d, cfg.n_classes), 2 * d, cfg.n_classes)
    ini.zeros("head.bias", (cfg.n_classes,))
    return ModelState(config=cfg, params=ini.params, schedule=schedule)


# ---------------------------------------------------------------------------
# structured parameter views
# ---------------------------------------------------------------------------


def fusion_params(state: ModelState) -> FusionParams:
    p = state.params
    return FusionParams(
        w_query=p.get("fusion.w_query"),
        w_key=p.get("fusion.w_key"),
        w_value=p.get("fusion.w_value"),
        fusion_mode=state.config.fusion_mode,
        w_skeleton=p.get("fusion.w_skeleton"),
        w_linear=p.get("fusion.w_linear"),
    )


def _direction_params(state: ModelState, unit: int) -> DirectionParams:
    p = state.params
    pre = f"unit{unit:02d}.scan"
    return DirectionParams(
        conv_kernel=p[f"{pre}.conv_kernel"],
        conv_bias=p[f"{pre}.conv_bias"],
        mamba=MambaLayerParams(
            w_in=p[f"{pre}.mamba.w_in"],
            b_in=p[f"{pre}.mamba.b_in"],
            w_res=p[f"{pre}.mamba.w_res"],
            b_res=p[f"{pre}.mamba.b_res"],
            w_out=p[f"{pre}.mamba.w_out"],
            b_out=p[f"{pre}.mamba.b_out"],
            conv_weight=p[f"{pre}.mamba.conv_weight"],
            conv_bias=p[f"{pre}.mamba.conv_bias"],
            ssm=SsmParams(
                a_log=p[f"{pre}.mamba.ssm.a_log"],
                b_proj=p[f"{pre}.mamba.ssm.b_proj"],
                c_proj=p[f"{pre}.mamba.ssm.c_proj"],
                dt_weight=p[f"{pre}.mamba.ssm.dt_weight"],
                dt_bias=p[f"{pre}.mamba.ssm.dt_bias"],
                skip_gain=p[f"{pre}.mamba.ssm.skip_gain"],
            ),
        ),
    )


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rule_norm(views: int, time_steps: int) -> np.ndarray:
    time_e, view_e = graph_mod.rule_edges(views, time_steps)
    a_tilde, d_tilde = graph_mod.assemble_adjacency(time_e | view_e, set(), views * time_steps)
    return graph_mod.normalized_operator(a_tilde, d_tilde)


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
        fusion_params(state),
    )
    return reshape(fused, (b, v * t, cfg.width))


def _self_attention(state: ModelState, unit: int, x: Tensor) -> Tensor:
    p = state.params
    pre = f"unit{unit:02d}.attn"
    d = state.config.width
    q = scan_mod.project(x, p[f"{pre}.w_query"])
    q = mul(q, 1.0 / math.sqrt(d))
    k = scan_mod.project(x, p[f"{pre}.w_key"])
    v = scan_mod.project(x, p[f"{pre}.w_value"])
    weights = softmax_rows(bmm(q, swap_last(k)))  # [B, n, n]
    ctx = bmm(weights, v)
    return add(x, scan_mod.project(ctx, p[f"{pre}.w_out"]))


def _graph_stage(
    state: ModelState,
    unit: int,
    x: Tensor,
    edge_kind: str,
    graph_sink: dict | None,
) -> Tensor:
    cfg = state.config
    b, n, _ = x.shape
    if edge_kind == "rule":
        norm = np.broadcast_to(
            _rule_norm(cfg.views, cfg.time_steps).astype(x.dtype), (b, n, n)
        )
        if graph_sink is not None:
            time_e, view_e = graph_mod.rule_edges(cfg.views, cfg.time_steps)
            a_tilde, d_tilde = graph_mod.assemble_adjacency(time_e | view_e, set(), n)
            graph_sink[unit] = graph_mod.ViewTemporalGraph(
                n, time_e, view_e, set(), a_tilde, d_tilde
            )
    else:
        feats = x.data  # edge selection is structural: no gradient flows through it
        mats = np.empty((b, n, n), dtype=x.dtype)
        for i in range(b):
            g = graph_mod.build_graph(cfg.views, cfg.time_steps, feats[i], cfg.knn_k)
            mats[i] = graph_mod.normalized_operator(g.a_tilde, g.d_tilde)
            if graph_sink is not None and i == 0:
                graph_sink[unit] = g
        norm = mats
    norm_t = Tensor(norm)
    for layer in range(cfg.gcn_layers_per_block):
        w = state.params[f"unit{unit:02d}.gcn.l{layer}.weight"]
        x = graph_mod.gcn_propagate(x, norm_t, w)
    return x


def _apply_unit(
    state: ModelState,
    unit: int,
    direction: str,
    x: Tensor,
    graph_sink: dict | None = None,
) -> Tensor:
    cfg = state.config
    mixer, edge_kind = _UNIT_LAYOUT[cfg.aggregator]
    if mixer == "scan":
        x = scan_mod.apply_direction(
            x, direction, _direction_params(state, unit), cfg.views, cfg.time_steps
        )
    elif mixer == "attention":
        x = _self_attention(state, unit, x)
    else:
        p = state.params
        x = scan_mod.project(x, p[f"unit{unit:02d}.mix.weight"], p[f"unit{unit:02d}.mix.bias"])
    if edge_kind is not None:
        x = _graph_stage(state, unit, x, edge_kind, graph_sink)
    return x


def forward_grid_batch(
    state: ModelState, grid: Tensor, graph_sink: dict | None = None
) -> Tensor:
    """Aggregator plus head on pre-fused canonical grids [B, V*T, D]."""
    cfg = state.config
    if grid.data.ndim != 3 or grid.shape[1] != cfg.n_vertices or grid.shape[2] != cfg.width:
        raise ConfigurationError(
            f"grid {grid.shape} does not match config ({cfg.n_vertices} vertices, width {cfg.width})"
        )
    x = grid
    for unit, direction in enumerate(state.schedule):
        x = _apply_unit(state, unit, direction, x, graph_sink)
    pooled = concat([mean_axis(x, axis=1), mean_axis(grid, axis=1)], axis=1)
    pooled = mul(pooled, cfg.head_gain)
    return add(matmul(pooled, state.params["head.weight"]), state.params["head.bias"])


def forward_batch(
    state: ModelState,
    rgb: np.ndarray,
    sk: np.ndarray,
    mask_view: int | None = None,
    graph_sink: dict | None = None,
) -> Tensor:
    """Full pipeline: fusion, scheduled units, pooled classifier logits."""
    fused = fuse_batch(state, rgb, sk, mask_view)
    return forward_grid_batch(state, fused, graph_sink)


def inspect_graph(
    state: ModelState, rgb: np.ndarray, sk: np.ndarray, block_index: int
) -> graph_mod.ViewTemporalGraph:
    """Graph built by the given unit for the first sample of the batch."""
    if not 0 <= block_index < len(state.schedule):
        raise InputError(
            f"block index {block_index} outside schedule of {len(state.schedule)} units"
        )
    if _UNIT_LAYOUT[state.config.aggregator][1] is None:
        raise InputError(
            f"aggregator {state.config.aggregator!r} has no graph stage to inspect"
        )
    sink: dict[int, graph_mod.ViewTemporalGraph] = {}
    forward_batch(state, rgb, sk, graph_sink=sink)
    return sink[block_index]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, state: ModelState) -> None:
    meta = {"kind": "mvgmn-checkpoint", "config": asdict(state.config)}
    write_tensor_container(path, meta, {k: t.data for k, t in state.params.items()})


def load_checkpoint(path) -> ModelState:
    meta, tensors = read_tensor_container(path)
    if meta.get("kind") != "mvgmn-checkpoint":
        raise InputError(f"{path} is not a model checkpoint")
    try:
        config = ModelConfig(**meta.get("config"))
    except TypeError as err:  # absent config, or unknown, missing or mistyped fields
        raise FormatError(f"{path}: bad checkpoint config: {err}") from None
    want = {k: t.shape for k, t in init_state(config).params.items()}
    have = {k: v.shape for k, v in tensors.items()}
    if have != want:
        names = sorted(want.keys() | have.keys())
        diff = {k: (want.get(k), have.get(k)) for k in names if want.get(k) != have.get(k)}
        raise FormatError(
            f"{path}: tensors differ from the config's layout (expected, found): {diff}"
        )
    params = {k: Tensor(v, requires_grad=True) for k, v in tensors.items()}
    return ModelState(config=config, params=params)
