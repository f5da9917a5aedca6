"""Bidirectional state-space scanning over a view-by-time feature grid.

A grid of per-view per-time tokens is flattened in one of four orders (view
index fastest, time index fastest, and their exact reversals), embedded by a
conv+ReLU stage, passed through a selective-scan layer with an additive
residual, and restored to canonical grid order. Directions compose
sequentially: each scan consumes the previous one's output. Sequences are
batched [B, L, D]; each projection is a ``matmul`` by a weight plus a bias.
Each function reads its weights from a dict keyed by their names within its
layer, as ``tensor.scope`` cuts them out of the model's parameters.

Canonical vertex order is row-major (view, time): vertex (v, t) <-> v*T + t.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError
from .tensor import (
    Tensor,
    _tracking,
    add,
    conv1d,
    custom_op,
    matmul,
    relu,
    scope,
    sigmoid_stable,
    take_rows,
)

SCAN_MODES = {
    "view_prioritized": ("view_forward", "view_backward"),
    "time_prioritized": ("time_forward", "time_backward"),
    "view_time": ("view_forward", "view_backward", "time_forward", "time_backward"),
}
SCAN_ORDERS = SCAN_MODES["view_time"]


@lru_cache(maxsize=None)
def scan_permutation(order: str, views: int, time_steps: int) -> np.ndarray:
    """Canonical-row gather indices realizing a scan order.

    ``seq[s] = canonical[perm[s]]``. The time-forward order coincides with
    canonical row-major storage; the view-forward order interleaves views
    within each time step; backward orders are exact reversals.
    """
    if order not in SCAN_ORDERS:
        raise ConfigurationError(
            f"unknown scan order {order!r}; expected one of {SCAN_ORDERS}"
        )
    n = views * time_steps
    if order.startswith("time"):
        perm = np.arange(n, dtype=np.intp)
    else:
        s = np.arange(n, dtype=np.intp)
        perm = (s % views) * time_steps + s // views
    if order.endswith("backward"):
        perm = perm[::-1].copy()
    return perm


@lru_cache(maxsize=None)
def inverse_permutation(order: str, views: int, time_steps: int) -> np.ndarray:
    return np.argsort(scan_permutation(order, views, time_steps), kind="stable")


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------


def selective_scan(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Run the selective-scan recurrence along axis -2 in one linear pass.

    ``p`` holds the input-dependent diagonal state-space parameters:
    ``a_log`` [D, N] stores log(-A) per (channel, state), so the state matrix
    A = -exp(a_log) is strictly negative and the recurrence decays;
    ``b_proj`` and ``c_proj`` [D, N] are the input and readout projections,
    shared across channels; ``dt_weight`` [D, 1] and ``dt_bias`` [1] project
    each token to its step size; ``skip_gain`` [D] is a learned per-channel
    passthrough.

    Per step: dt = softplus(x_t . dt_weight + dt_bias) (one scalar per step),
    decay = exp(dt * A), drive = dt * (x_t . b_proj) outer x_t, state update
    h = decay * h + drive starting from h = 0, and readout
    y_t = <x_t . c_proj, h_t> per channel plus skip_gain * x_t.

    Takes [B, L, D]. The state is one time-major array [S, B, D, N]: step t
    reads slot (t-1) mod S and writes slot t mod S, and slot S-1 starts as
    h_{-1} = 0. Under a tape S = L, so the array is the state history that
    the hand-derived backward reads; without one S = 1. The readout is a
    matrix product, h_t [D, N] @ c_t [N, 1]: once per step without a tape,
    once over the whole history after the loop with one. Both run the same
    per-(t, b) product, so taped and untaped outputs are byte-identical.

    The backward keeps only the carried state gradient in its step loop. It
    allocates one [B, D, N] work buffer of its own, which takes each step's
    outer product gy_t ⊗ c_t and then its recomputed decay, so no step makes
    a state-sized temporary. Every parameter gradient is formed after the
    loop as a whole-array product; those of ``b_proj`` and ``c_proj`` are
    one BLAS product each, x [D, B·L] @ g [B·L, N]. The backward overwrites
    the history with dL/d(decay)·decay as it goes, so a tape can replay it
    only once (``GradTape.backward`` enforces that).
    """
    xb = x.data
    if xb.ndim != 3:
        raise DimensionError(f"selective_scan expects [B, L, D], got {x.shape}")
    batch, length, d = xb.shape
    if length < 1:
        raise InputError("selective_scan requires at least one step")
    if p["a_log"].shape[0] != d:
        raise DimensionError(
            f"channel mismatch: input width {d} vs state params {p['a_log'].shape}"
        )
    # the tape's input order, which the backward's gradient list follows
    weights = [p[k] for k in ("a_log", "b_proj", "c_proj", "dt_weight", "dt_bias", "skip_gain")]
    a_log, b_proj, c_proj, dt_weight, dt_bias, skip = (w.data for w in weights)
    n = a_log.shape[1]

    a_neg = -np.exp(a_log)  # [D, N], strictly negative
    u = xb @ dt_weight + dt_bias  # [B, L, 1]
    u = u[..., 0]  # [B, L]
    delta = np.logaddexp(0.0, u).astype(xb.dtype)  # softplus
    b_seq = xb @ b_proj  # [B, L, N]
    c_seq = xb @ c_proj  # [B, L, N]

    # time-major contiguous copies, one state array and one reused work
    # buffer: the step loop is the benchmark-critical path, so it must stream
    # memory sequentially and not churn allocations
    xt = np.ascontiguousarray(xb.transpose(1, 0, 2))  # [L, B, D]
    # fold the step size into the drive; the multiply also guarantees a fresh
    # array (b_seq itself is read again by the backward pass)
    bt = b_seq.transpose(1, 0, 2) * delta.T[:, :, np.newaxis]  # [L, B, N]
    # readout columns and outputs as contiguous [..., 1] arrays, so a step's
    # product and the whole-history product run the same per-(t, b) kernel
    c_col = np.ascontiguousarray(c_seq.transpose(1, 0, 2)).reshape(length, batch, n, 1)
    y_col = np.empty((length, batch, d, 1), dtype=xb.dtype)  # [L, B, D, 1]
    # each step's operands, shaped once to broadcast against the [B, D, N] state
    dt_t = delta.T[:, :, np.newaxis, np.newaxis]  # [L, B, 1, 1]
    x_col = xt[:, :, :, np.newaxis]  # [L, B, D, 1]
    b_row = bt[:, :, np.newaxis, :]  # [L, B, 1, N]
    slots = length if _tracking(x, *weights) else 1
    hist = np.empty((slots, batch, d, n), dtype=xb.dtype)  # [S, B, D, N]
    h = hist[-1]
    h[...] = 0.0
    work = np.empty_like(h)
    for t in range(length):
        prev, h = h, hist[t % slots]
        np.multiply(a_neg, dt_t[t], out=work)
        np.exp(work, out=work)  # decay
        np.multiply(prev, work, out=h)
        np.multiply(x_col[t], b_row[t], out=work)
        h += work  # drive
        if slots == 1:
            np.matmul(h, c_col[t], out=y_col[t])
    if slots > 1:  # the history is kept: read it out in one product
        np.matmul(hist, c_col, out=y_col)
    yt = y_col[..., 0]
    yt += skip * xt
    y = yt.transpose(1, 0, 2)

    def backward(gy: np.ndarray):
        gx = gy * skip
        gyt = gy.transpose(1, 0, 2)[:, :, np.newaxis, :]  # [L, B, 1, D]
        g_cseq = (gyt @ hist)[:, :, 0].transpose(1, 0, 2)  # y_t reads h_t through c_t
        g_skip = (gy * xb).sum(axis=(0, 1))
        g_drive = np.empty_like(b_seq)  # dL/d(dt * b_t) = x_t . dL/dh_t, [B, L, N]
        gh_b = np.empty_like(xb)  # dL/dh_t . b_t, [B, L, D]
        gh = np.zeros((batch, d, n), dtype=xb.dtype)  # dL/dh_t, carried back from t+1
        work = np.empty_like(gh)  # each step's outer product, then its decay
        for t in range(length - 1, -1, -1):
            np.einsum("bd,bn->bdn", gy[:, t], c_seq[:, t], out=work)
            gh += work
            g_drive[:, t] = (xb[:, t, np.newaxis, :] @ gh)[:, 0]
            gh_b[:, t] = (gh @ b_seq[:, t, :, np.newaxis])[:, :, 0]
            np.multiply(a_neg, dt_t[t], out=work)
            np.exp(work, out=work)
            gh *= work  # now dL/dh_{t-1}
            if t > 0:  # h_{-1} = 0, so step 0's decay gets no gradient
                hist[t - 1] *= gh  # dL/d(decay_t) * decay_t; no later step reads h_{t-1}
        g_bseq = g_drive * delta[:, :, np.newaxis]
        g_delta = (g_drive * b_seq).sum(axis=-1)
        gx += gh_b * delta[:, :, np.newaxis]
        # the decay part, one product each over every step's dL/d(decay) * decay
        g_decay = hist[:-1].reshape(length - 1, batch, d * n)
        g_delta[:, 1:] += (g_decay @ a_neg.reshape(-1)).T
        g_a = (delta.T[1:].reshape(1, -1) @ g_decay.reshape(-1, d * n)).reshape(d, n)
        # step-size projection: delta = softplus(u)
        gu = g_delta * sigmoid_stable(u)
        gx += gu[:, :, np.newaxis] * dt_weight[:, 0]
        g_dtw = np.einsum("bld,bl->d", xb, gu)[:, np.newaxis]
        g_dtb = np.asarray([gu.sum()], dtype=xb.dtype)
        # token projections into state drive/readout
        gx += g_bseq @ b_proj.T
        gx += g_cseq @ c_proj.T
        x_rows = xb.reshape(-1, d).T  # [D, B*L]
        g_bproj = x_rows @ g_bseq.reshape(-1, n)
        g_cproj = x_rows @ g_cseq.reshape(-1, n)
        g_alog = g_a * a_neg  # dA/da_log = -exp(a_log) = A
        return [gx, g_alog, g_bproj, g_cproj, g_dtw, g_dtb, g_skip]

    return custom_op(y, [x, *weights], backward)


# ---------------------------------------------------------------------------
# scan layer and directional block
# ---------------------------------------------------------------------------


def mamba_layer(seq: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Linear -> depthwise conv -> selective scan -> residual -> linear.

    ``p`` holds ``w_in`` and ``w_res`` [D, D_inner] with biases ``b_in`` and
    ``b_res`` [D_inner], ``w_out`` [D_inner, D] with bias ``b_out`` [D], the
    depthwise ``conv_weight`` [K_c, D_inner] with ``conv_bias`` [D_inner], and
    ``selective_scan``'s tensors under ``ssm.``. The output has the shape of
    the input sequence.
    """
    d = seq.shape[-1]
    w_in, w_out = p["w_in"], p["w_out"]
    d_inner = w_in.shape[1]
    if w_in.shape[0] != d or w_out.shape != (d_inner, d):
        raise ConfigurationError(
            f"layer widths do not compose: input {seq.shape}, "
            f"w_in {w_in.shape}, w_out {w_out.shape}"
        )
    inner = add(matmul(seq, w_in), p["b_in"])
    conv = conv1d(inner, p["conv_weight"], p["conv_bias"])
    scanned = selective_scan(conv, scope(p, "ssm"))
    residual = add(matmul(seq, p["w_res"]), p["b_res"])
    return add(matmul(add(scanned, residual), w_out), p["b_out"])


def apply_direction(
    canonical: Tensor, order: str, p: dict[str, Tensor], views: int, time_steps: int
) -> Tensor:
    """Scan canonically-ordered vertices [..., V*T, D] in one direction.

    The reordered sequence is embedded by a length-preserving conv and a ReLU,
    then passed through ``mamba_layer``. ``p`` holds the embedding conv's
    ``conv_kernel`` [K, D, D] and ``conv_bias`` [D], and ``mamba_layer``'s
    tensors under ``mamba.``.
    """
    seq = take_rows(canonical, scan_permutation(order, views, time_steps))
    seq = relu(conv1d(seq, p["conv_kernel"], p["conv_bias"]))
    seq = mamba_layer(seq, scope(p, "mamba"))
    return take_rows(seq, inverse_permutation(order, views, time_steps))
