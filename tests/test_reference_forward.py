"""Whole-model float64 reference forward, built one sample at a time from oracles.

Each stage is plain numpy written from its definition: the three fusion
modes, both sequence convolutions, the scan orders, self-attention, the
linear mixer, graph convolution and the pooled head. The recurrence, the rule
and KNN edges and the normalized operator come from the test oracles
(``selective_scan_reference``, ``brute_force_rule_edges``, ``brute_force_knn``,
``assemble_adjacency`` and ``oracle_operator``).

Similarities that tie in exact arithmetic can differ in the last bit between
the batched model and this reference (say, cosines of collinear rows), and
which neighbour wins such a tie is then a rounding accident. So where the
brute-force KNN and the model's picks differ, each differing pick must be a
near tie (within 1e-12), and the reference goes on with the model's picks.
"""

import numpy as np
import pytest

from mvgmn import graph as G
from mvgmn import model as M
from mvgmn.tensor import Tensor
from test_graph import (
    assemble_adjacency,
    brute_force_knn,
    brute_force_rule_edges,
    knn_edge_set,
    oracle_operator,
)
from test_model import tiny_config, tiny_inputs
from test_scan import selective_scan_reference

# (mixer, graph edges) of each aggregator's units
LAYOUT = {
    "linear": ("linear", None),
    "attention": ("attention", None),
    "ssm": ("scan", None),
    "gcn_rule": ("linear", "rule"),
    "gcn_rule_knn": ("linear", "rule_knn"),
    "attention_graph": ("attention", "rule_knn"),
    "mvgmn": ("scan", "rule_knn"),
}
SCHEDULE = ("view_forward", "time_forward")  # two view_time blocks
HEAD_GAIN = 10.0


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def relu(z):
    return np.maximum(z, 0.0)


def fuse_frame(s, patches, mode, w):
    """One frame: skeleton token s [D_sk], patches [P, D_rgb] -> [D]."""
    if mode == "cross_attention":
        q = s @ w["fusion.w_query"]
        scores = (patches @ w["fusion.w_key"]) @ q / np.sqrt(q.size)
        return softmax(scores) @ (patches @ w["fusion.w_value"])
    mean_patch = patches.mean(axis=0)
    if mode == "mean":
        return 0.5 * (s @ w["fusion.w_skeleton"] + mean_patch @ w["fusion.w_value"])
    return np.concatenate([s, mean_patch]) @ w["fusion.w_linear"]


def conv_same(x, kernel, bias):
    """Zero-padded odd-width convolution of x [L, D]; kernel [K, D, D_out] or depthwise [K, D]."""
    length, pad = x.shape[0], kernel.shape[0] // 2
    out = np.tile(bias, (length, 1))
    for t in range(length):
        for j, tap in enumerate(kernel):
            s = t + j - pad
            if 0 <= s < length:
                out[t] += x[s] @ tap if tap.ndim == 2 else x[s] * tap
    return out


def scan_order(direction, views, time_steps):
    """Canonical vertex v*T + t of each sequence position."""
    if direction.startswith("view"):  # views interleave within each time step
        order = [v * time_steps + t for t in range(time_steps) for v in range(views)]
    else:
        order = [v * time_steps + t for v in range(views) for t in range(time_steps)]
    return order[::-1] if direction.endswith("backward") else order


def scan_unit(x, direction, prefix, params, views, time_steps):
    order = scan_order(direction, views, time_steps)
    w = {k[len(prefix) + 1:]: v for k, v in params.items() if k.startswith(prefix + ".")}
    seq = relu(conv_same(x[order], w["conv_kernel"], w["conv_bias"]))
    inner = conv_same(seq @ w["mamba.w_in"] + w["mamba.b_in"],
                      w["mamba.conv_weight"], w["mamba.conv_bias"])
    ssm = {k[len("mamba.ssm."):]: Tensor(v) for k, v in w.items() if k.startswith("mamba.ssm.")}
    scanned = selective_scan_reference(inner, ssm)
    residual = seq @ w["mamba.w_res"] + w["mamba.b_res"]
    out = (scanned + residual) @ w["mamba.w_out"] + w["mamba.b_out"]
    restored = np.empty_like(out)
    restored[order] = out
    return restored


def knn_resolving_near_ties(x, k, model_nbrs, tol=1e-12):
    """brute_force_knn(x, k), with near ties resolved as the model's [n, k] picks did."""
    want, got = brute_force_knn(x, k), knn_edge_set(model_nbrs)
    sims = G.similarity_matrix(x)
    for i, j in want ^ got:  # a differing pick ties with vertex i's k-th best
        kth = min(sims[i, b] for a, b in want if a == i)
        assert abs(sims[i, j] - kth) <= tol, (i, j)
    return got


def reference_logits(cfg, params, rgb, sk, mask_view, model_knn):
    """Logits [C] of one sample: rgb [V, T, P, D_rgb], sk [V, T_sk, D_sk].

    ``model_knn`` holds the model's [n, k] KNN picks of each unit, for ties.
    """
    v_count, t_count = cfg.views, cfg.time_steps
    n = v_count * t_count
    rgb = rgb.copy()
    sk = sk[:, :: sk.shape[1] // t_count].copy()  # skeleton frame at each RGB instant
    if mask_view is not None:
        rgb[mask_view] = 0.0
        sk[mask_view] = 0.0
    grid = np.stack([fuse_frame(sk[v, t], rgb[v, t], cfg.fusion_mode, params)
                     for v in range(v_count) for t in range(t_count)])  # row v*T + t
    rule = set().union(*brute_force_rule_edges(v_count, t_count))
    mixer, edges = LAYOUT[cfg.aggregator]
    x = grid
    for u, direction in enumerate(SCHEDULE):
        pre = f"unit{u:02d}"
        if mixer == "scan":
            x = scan_unit(x, direction, f"{pre}.scan", params, v_count, t_count)
        elif mixer == "attention":
            q = x @ params[f"{pre}.attn.w_query"] / np.sqrt(cfg.width)
            weights = softmax(q @ (x @ params[f"{pre}.attn.w_key"]).T)
            x = x + weights @ (x @ params[f"{pre}.attn.w_value"]) @ params[f"{pre}.attn.w_out"]
        else:
            x = x @ params[f"{pre}.mix.weight"] + params[f"{pre}.mix.bias"]
        if edges is not None:
            knn = set()
            if edges == "rule_knn":
                knn = knn_resolving_near_ties(x, cfg.knn_k, model_knn[u])
            op = oracle_operator(*assemble_adjacency(rule, knn, n))
            x = relu(op @ x @ params[f"{pre}.gcn.weight"])
    pooled = HEAD_GAIN * np.concatenate([x.mean(axis=0), grid.mean(axis=0)])
    return pooled @ params["head.weight"] + params["head.bias"]


@pytest.mark.parametrize("mask_view", [None, 1])
@pytest.mark.parametrize("fusion_mode", M.FUSION_MODES)
@pytest.mark.parametrize("aggregator", M.AGGREGATORS)
def test_forward_batch_matches_reference(aggregator, fusion_mode, mask_view, monkeypatch):
    # the batch of test_batched_forward_matches_per_sample: sample 1 has an
    # all-zero view (zero-norm fallback), sample 2 two identical views (ties)
    cfg = tiny_config(aggregator=aggregator, fusion_mode=fusion_mode)
    rgb, sk = tiny_inputs(cfg, batch=4, seed=11)
    rgb[1, 0] = 0.0
    sk[1, 0] = 0.0
    rgb[2, 1] = rgb[2, 0]
    sk[2, 1] = sk[2, 0]
    state = M.init_state(cfg, seed=12, dtype=np.float64)
    assert state.schedule == list(SCHEDULE)
    params = {k: t.data for k, t in state.params.items()}
    built = []  # each unit's [B, n, k] KNN picks
    knn_edges = G.knn_edges

    def recording(x, k):
        built.append(knn_edges(x, k))
        return built[-1]

    monkeypatch.setattr(G, "knn_edges", recording)
    batched = M.forward_batch(state, rgb, sk, mask_view).data
    for i in range(4):
        want = reference_logits(cfg, params, rgb[i], sk[i], mask_view, [b[i] for b in built])
        np.testing.assert_allclose(batched[i], want, rtol=1e-12, atol=1e-12)
