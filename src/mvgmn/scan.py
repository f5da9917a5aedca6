"""Bidirectional state-space scanning over a view-by-time feature grid.

A grid of per-view per-time tokens is flattened in one of four orders (view
index fastest, time index fastest, and their exact reversals), embedded by a
conv+ReLU stage, passed through a selective-scan layer with an additive
residual, and restored to canonical grid order. Directions compose
sequentially: each scan consumes the previous one's output. Sequences are
batched [B, L, D]; each projection is a ``matmul`` by a weight plus a bias.

Canonical vertex order is row-major (view, time): vertex (v, t) <-> v*T + t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError
from .tensor import (
    Tensor,
    _tracking,
    add,
    conv1d_depthwise,
    conv1d_same,
    custom_op,
    matmul,
    relu,
    sigmoid_stable,
    take_rows,
)

SCAN_ORDERS = ("view_forward", "view_backward", "time_forward", "time_backward")

SCAN_MODES = {
    "view_prioritized": ("view_forward", "view_backward"),
    "time_prioritized": ("time_forward", "time_backward"),
    "view_time": ("view_forward", "view_backward", "time_forward", "time_backward"),
}


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


@dataclass
class SsmParams:
    """Input-dependent diagonal state-space parameters.

    ``a_log`` stores log(-A) per (channel, state) so the state matrix
    A = -exp(a_log) is strictly negative and the recurrence decays. The step
    size is a softplus of a learned scalar projection of the current token;
    input and readout projections are shared across channels; ``skip_gain``
    is a learned per-channel passthrough.
    """

    a_log: Tensor  # [D, N]
    b_proj: Tensor  # [D, N]
    c_proj: Tensor  # [D, N]
    dt_weight: Tensor  # [D, 1]
    dt_bias: Tensor  # [1]
    skip_gain: Tensor  # [D]

    @property
    def state_dim(self) -> int:
        return self.a_log.shape[1]

    def tensors(self) -> list[Tensor]:
        return [
            self.a_log,
            self.b_proj,
            self.c_proj,
            self.dt_weight,
            self.dt_bias,
            self.skip_gain,
        ]


def selective_scan(x: Tensor, ssm: SsmParams) -> Tensor:
    """Run the selective-scan recurrence along axis -2 in one linear pass.

    Per step: dt = softplus(x_t . dt_weight + dt_bias) (one scalar per step),
    decay = exp(dt * A), drive = dt * (x_t . b_proj) outer x_t, state update
    h = decay * h + drive starting from h = 0, and readout
    y_t = <x_t . c_proj, h_t> per channel plus skip_gain * x_t.

    Takes [B, L, D]. Only when a tape records the op does it store the
    [B, L, D, N] state history that the hand-derived backward reads.
    """
    xb = x.data
    if xb.ndim != 3:
        raise DimensionError(f"selective_scan expects [B, L, D], got {x.shape}")
    batch, length, d = xb.shape
    if length < 1:
        raise InputError("selective_scan requires at least one step")
    if ssm.a_log.shape[0] != d:
        raise DimensionError(
            f"channel mismatch: input width {d} vs state params {ssm.a_log.shape}"
        )
    n = ssm.state_dim

    a_log = ssm.a_log.data
    a_neg = -np.exp(a_log)  # [D, N], strictly negative
    u = xb @ ssm.dt_weight.data + ssm.dt_bias.data  # [B, L, 1]
    u = u[..., 0]  # [B, L]
    delta = np.logaddexp(0.0, u).astype(xb.dtype)  # softplus
    b_seq = xb @ ssm.b_proj.data  # [B, L, N]
    c_seq = xb @ ssm.c_proj.data  # [B, L, N]
    skip = ssm.skip_gain.data

    record = _tracking(x, *ssm.tensors())
    hist = np.empty((batch, length, d, n), dtype=xb.dtype) if record else None

    # time-major contiguous copies and one reused work buffer: the step loop
    # is the benchmark-critical path, so it must stream memory sequentially
    # and not churn allocations
    xt = np.ascontiguousarray(xb.transpose(1, 0, 2))  # [L, B, D]
    # fold the step size into the drive; the multiply also guarantees a fresh
    # array (b_seq itself is read again by the backward pass)
    bt = b_seq.transpose(1, 0, 2) * delta.T[:, :, np.newaxis]  # [L, B, N]
    ct = np.ascontiguousarray(c_seq.transpose(1, 0, 2))  # [L, B, N]
    dt_t = delta.T  # [L, B]
    h = np.zeros((batch, d, n), dtype=xb.dtype)
    work = np.empty_like(h)
    yt = np.empty_like(xt)
    for t in range(length):
        dt = dt_t[t][:, np.newaxis, np.newaxis]  # [B, 1, 1]
        np.multiply(a_neg, dt, out=work)
        np.exp(work, out=work)  # decay
        h *= work
        np.multiply(xt[t][:, :, np.newaxis], bt[t][:, np.newaxis, :], out=work)
        h += work  # drive
        if record:
            hist[:, t] = h
        np.multiply(h, ct[t][:, np.newaxis, :], out=work)
        np.sum(work, axis=-1, out=yt[t])
        yt[t] += skip * xt[t]
    y = yt.transpose(1, 0, 2)

    def backward(gy: np.ndarray):
        gx = np.zeros_like(xb)
        g_a = np.zeros_like(a_neg)
        g_bseq = np.zeros_like(b_seq)
        g_cseq = np.zeros_like(c_seq)
        g_delta = np.zeros_like(delta)
        g_skip = (gy * xb).sum(axis=(0, 1))
        gh_next = np.zeros((batch, d, n), dtype=xb.dtype)
        for t in range(length - 1, -1, -1):
            h_t = hist[:, t]
            h_prev = hist[:, t - 1] if t > 0 else np.zeros_like(h_t)
            dt = delta[:, t, np.newaxis, np.newaxis]
            decay = np.exp(dt * a_neg)
            gy_t = gy[:, t]  # [B, D]
            g_cseq[:, t] = (gy_t[:, :, np.newaxis] * h_t).sum(axis=1)
            gx[:, t] += gy_t * skip
            gh = gy_t[:, :, np.newaxis] * c_seq[:, t, np.newaxis, :] + gh_next
            g_decay = gh * h_prev
            g_delta[:, t] += (g_decay * decay * a_neg).sum(axis=(1, 2))
            g_a += (g_decay * decay * dt).sum(axis=0)
            drive_core = xb[:, t, :, np.newaxis] * b_seq[:, t, np.newaxis, :]
            g_delta[:, t] += (gh * drive_core).sum(axis=(1, 2))
            g_bseq[:, t] = (gh * xb[:, t, :, np.newaxis]).sum(axis=1) * dt[:, :, 0]
            gx[:, t] += (gh * b_seq[:, t, np.newaxis, :]).sum(axis=2) * dt[:, 0]
            gh_next = gh * decay
        # step-size projection: delta = softplus(u)
        gu = g_delta * sigmoid_stable(u)
        gx += gu[:, :, np.newaxis] * ssm.dt_weight.data[:, 0]
        g_dtw = np.einsum("bld,bl->d", xb, gu)[:, np.newaxis]
        g_dtb = np.asarray([gu.sum()], dtype=xb.dtype)
        # token projections into state drive/readout
        gx += g_bseq @ ssm.b_proj.data.T
        gx += g_cseq @ ssm.c_proj.data.T
        g_bproj = np.einsum("bld,bln->dn", xb, g_bseq)
        g_cproj = np.einsum("bld,bln->dn", xb, g_cseq)
        g_alog = g_a * a_neg  # dA/da_log = -exp(a_log) = A
        return [gx, g_alog, g_bproj, g_cproj, g_dtw, g_dtb, g_skip]

    return custom_op(y, [x, *ssm.tensors()], backward)


def selective_scan_reference(x: np.ndarray, ssm: SsmParams) -> np.ndarray:
    """Scalar-loop oracle for the recurrence; intentionally unvectorized."""
    length, d = x.shape
    n = ssm.state_dim
    a = -np.exp(np.asarray(ssm.a_log.data, dtype=np.float64))
    bp = np.asarray(ssm.b_proj.data, dtype=np.float64)
    cp = np.asarray(ssm.c_proj.data, dtype=np.float64)
    dtw = np.asarray(ssm.dt_weight.data, dtype=np.float64)
    dtb = float(ssm.dt_bias.data[0])
    skip = np.asarray(ssm.skip_gain.data, dtype=np.float64)
    h = np.zeros((d, n))
    y = np.zeros((length, d))
    for t in range(length):
        u = dtb
        for i in range(d):
            u += x[t, i] * dtw[i, 0]
        dt = np.logaddexp(0.0, u)
        bvec = np.zeros(n)
        cvec = np.zeros(n)
        for j in range(n):
            for i in range(d):
                bvec[j] += x[t, i] * bp[i, j]
                cvec[j] += x[t, i] * cp[i, j]
        for i in range(d):
            for j in range(n):
                h[i, j] = np.exp(dt * a[i, j]) * h[i, j] + dt * bvec[j] * x[t, i]
                y[t, i] += cvec[j] * h[i, j]
            y[t, i] += skip[i] * x[t, i]
    return y


# ---------------------------------------------------------------------------
# scan layer and directional block
# ---------------------------------------------------------------------------


@dataclass
class MambaLayerParams:
    """Linear -> depthwise conv -> selective scan -> residual -> linear."""

    w_in: Tensor  # [D, D_inner]
    b_in: Tensor  # [D_inner]
    w_res: Tensor  # [D, D_inner]
    b_res: Tensor  # [D_inner]
    w_out: Tensor  # [D_inner, D]
    b_out: Tensor  # [D]
    conv_weight: Tensor  # [K_c, D_inner], depthwise
    conv_bias: Tensor  # [D_inner]
    ssm: SsmParams

    def tensors(self) -> list[Tensor]:
        return [
            self.w_in,
            self.b_in,
            self.w_res,
            self.b_res,
            self.w_out,
            self.b_out,
            self.conv_weight,
            self.conv_bias,
            *self.ssm.tensors(),
        ]


def pre_conv(seq: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Sequence embedding stage: length-preserving conv followed by ReLU."""
    return relu(conv1d_same(seq, kernel, bias))


def mamba_layer(seq: Tensor, params: MambaLayerParams) -> Tensor:
    """One scan layer; output has the same shape as the input sequence."""
    d = seq.shape[-1]
    d_inner = params.w_in.shape[1]
    if params.w_in.shape[0] != d or params.w_out.shape != (d_inner, d):
        raise ConfigurationError(
            f"layer widths do not compose: input {seq.shape}, "
            f"w_in {params.w_in.shape}, w_out {params.w_out.shape}"
        )
    inner = add(matmul(seq, params.w_in), params.b_in)
    conv = conv1d_depthwise(inner, params.conv_weight, params.conv_bias)
    scanned = selective_scan(conv, params.ssm)
    residual = add(matmul(seq, params.w_res), params.b_res)
    return add(matmul(add(scanned, residual), params.w_out), params.b_out)


@dataclass
class DirectionParams:
    """Per-direction weights: embedding conv plus one scan layer."""

    conv_kernel: Tensor  # [K, D, D]
    conv_bias: Tensor  # [D]
    mamba: MambaLayerParams


def apply_direction(
    canonical: Tensor, order: str, params: DirectionParams, views: int, time_steps: int
) -> Tensor:
    """Scan canonically-ordered vertices [..., V*T, D] in one direction."""
    seq = take_rows(canonical, scan_permutation(order, views, time_steps))
    seq = pre_conv(seq, params.conv_kernel, params.conv_bias)
    seq = mamba_layer(seq, params.mamba)
    return take_rows(seq, inverse_permutation(order, views, time_steps))

