"""Dense numeric substrate with reverse-mode autodiff on a gradient tape.

Tensors wrap numpy arrays (float32 for training/benchmark runs, float64 for
gradient checking) and are treated as immutable values. Every differentiable
op computes its forward result in numpy and hands it to ``custom_op`` with a
function that maps d(loss)/d(out) to one gradient per input. Inside a
``GradTape`` context, ``custom_op`` records one backward closure through
``GradTape.record`` for every op whose inputs require gradients; that is the
only place anything reaches the tape. ``GradTape.backward`` replays the
closures in reverse execution order, which is a reverse topological order of
the graph, visiting each recorded operation exactly once. Gradients
accumulate additively across fan-out.

Outside a tape context operations run plain numpy with no recording, which is
the inference/benchmark fast path.

``matmul`` is the one matrix product: a 2-D weight along the last axis of any
stack, or equal-rank stacks pairwise. ``attention`` is the one softmax-weighted
product, softmax(q kᵀ / √d_k) v, that self-attention and cross-attention
fusion both call. ``conv1d`` is the one sequence convolution: a [K, D, D_out]
kernel mixes channels, a [K, D] kernel filters each channel on its own.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError

_FLOAT_DTYPES = (np.float32, np.float64)


def _check_finite(data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError("operation produced non-finite values")


class Tensor:
    """Immutable-by-convention array value, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name})"


def scope(params: dict, prefix: str) -> dict:
    """The entries of ``params`` under ``prefix.``, keyed without that prefix."""
    head = prefix + "."
    return {k[len(head):]: t for k, t in params.items() if k.startswith(head)}


_active_tape: "GradTape | None" = None


class GradTape:
    """Single-writer record of operations for one forward/backward pass."""

    def __init__(self):
        self._ops: list[Callable[[], None]] = []
        self._replayed = False

    def __enter__(self) -> "GradTape":
        global _active_tape
        if _active_tape is not None:
            raise ConfigurationError("gradient tapes do not nest")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        return False

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._ops.append(backward_fn)

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and replay closures in reverse order.

        A tape replays once: closures may consume what their forward saved
        (the selective scan overwrites its state history), so a second
        replay raises ``ConfigurationError``.
        """
        if self._replayed:
            raise ConfigurationError("a gradient tape replays once; record a new one")
        if loss.data.size != 1:
            raise DimensionError("backward requires a scalar loss")
        if not np.all(np.isfinite(loss.data)):
            raise NumericError("loss is non-finite")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self._ops):
            fn()


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _tracking(*tensors: Tensor) -> bool:
    return _active_tape is not None and any(t.requires for t in tensors)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def custom_op(
    out_data: np.ndarray,
    inputs: Sequence[Tensor],
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Wrap a forward result as an op; the only way an op reaches the tape.

    When a tape is active and any input requires gradients, the output is
    marked as requiring them and one closure is recorded through
    ``GradTape.record``. On replay, once a gradient has reached the output,
    the closure calls ``backward`` with d(loss)/d(out). ``backward`` returns
    one gradient array (or None) per input, in order; they accumulate into
    the inputs in that order. The gradient of an input whose ``requires`` is
    false is dropped, so ``backward`` returns None for it rather than pay to
    compute it (a constant graph operator, say).
    """
    _check_finite(out_data)
    out = Tensor.__new__(Tensor)  # skips __init__: ops hand over float arrays
    out.data, out.grad, out.requires = out_data, None, False
    inputs = list(inputs)
    if _tracking(*inputs):

        def bwd():
            g = out.grad
            if g is None:
                return
            for t, gt in zip(inputs, backward(g)):
                if t.requires and gt is not None:
                    _accum(t, gt)

        out.requires = True
        _active_tape.record(bwd)
    return out


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return custom_op(a.data + b.data, [a, b], lambda g: [
        _unbroadcast(g, a.data.shape) if a.requires else None,
        _unbroadcast(g, b.data.shape) if b.requires else None,
    ])


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    if isinstance(b, (int, float)):
        return custom_op(a.data * b, [a], lambda g: [g * b])
    return custom_op(a.data * b.data, [a, b], lambda g: [
        _unbroadcast(g * b.data, a.data.shape) if a.requires else None,
        _unbroadcast(g * a.data, b.data.shape) if b.requires else None,
    ])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The one matrix product: a weight over a stack, or a stack by a stack.

    A 2-D ``b`` [K, N] is a weight applied along the last axis of any
    ``a`` [..., K]; it runs, and its gradient is taken, as one product over
    the flattened [-1, K] rows. A ``b`` [..., K, N] of higher rank pairs with
    an ``a`` [..., M, K] of equal rank and equal leading axes.
    """
    ad, bd = a.data, b.data
    stack = bd.ndim > 2
    if ad.ndim < 2 or bd.ndim < 2 or (stack and ad.ndim != bd.ndim):
        raise DimensionError(
            f"matmul expects [..., K] @ [K, N] or equal-rank stacks, got {ad.shape} @ {bd.shape}"
        )
    if ad.shape[-1] != bd.shape[-2] or (stack and ad.shape[:-2] != bd.shape[:-2]):
        raise DimensionError(f"matmul shapes do not compose: {ad.shape} @ {bd.shape}")
    if stack:
        return custom_op(np.matmul(ad, bd), [a, b], lambda g: [
            np.matmul(g, np.swapaxes(bd, -1, -2)) if a.requires else None,
            np.matmul(np.swapaxes(ad, -1, -2), g) if b.requires else None,
        ])
    rows = ad.reshape(-1, ad.shape[-1])

    def backward(g):
        g = g.reshape(-1, bd.shape[1])
        return [
            (g @ bd.T).reshape(ad.shape) if a.requires else None,
            rows.T @ g if b.requires else None,
        ]

    return custom_op((rows @ bd).reshape(ad.shape[:-1] + bd.shape[1:]), [a, b], backward)


def reshape(a: Tensor, shape) -> Tensor:
    return custom_op(a.data.reshape(shape), [a], lambda g: [g.reshape(a.data.shape)])


def take_rows(a: Tensor, idx) -> Tensor:
    """Reorder rows along axis -2 (sequence axis) by the permutation ``idx``.

    ``idx`` must be a permutation of that axis, so the backward is the
    gather by its inverse.
    """
    idx = np.asarray(idx, dtype=np.intp)
    return custom_op(
        np.take(a.data, idx, axis=-2), [a], lambda g: [np.take(g, np.argsort(idx), axis=-2)]
    )


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)

    def backward(g):
        return np.split(g, np.cumsum([p.data.shape[axis] for p in parts])[:-1], axis=axis)

    return custom_op(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0
    return custom_op(np.maximum(a.data, 0), [a], lambda g: [g * (a.data > 0)])


def sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |x| (plain ndarray math)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)
    return custom_op(out_data, [a], lambda g: [np.broadcast_to(g, a.data.shape).copy()])


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]

    def backward(g):
        g = np.expand_dims(g, axis)
        return [np.broadcast_to(g / n, a.data.shape).copy()]

    return custom_op(a.data.mean(axis=axis), [a], backward)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention, softmax(q kᵀ / √d_k) v, as one op.

    ``q`` is [..., M, d_k], ``k`` [..., P, d_k] and ``v`` [..., P, D], with
    equal leading axes; the softmax runs over the P keys of each query row.
    The backward reads only the [..., M, P] weights, the scaled queries and
    the inputs.
    """
    qd, kd, vd = q.data, k.data, v.data
    if not qd.ndim == kd.ndim == vd.ndim >= 2:
        raise DimensionError(
            f"attention expects equal-rank q, k, v, got {qd.shape}, {kd.shape}, {vd.shape}"
        )
    if qd.shape[-1] != kd.shape[-1] or kd.shape[-2] != vd.shape[-2] or not (
        qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]
    ):
        raise DimensionError(
            f"attention shapes do not compose: q {qd.shape}, k {kd.shape}, v {vd.shape}"
        )
    scale = 1.0 / math.sqrt(qd.shape[-1])  # a Python float keeps float32 float32
    qs = qd * scale
    w = qs @ np.swapaxes(kd, -1, -2)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def backward(g):
        g_s = None
        if q.requires or k.requires:  # d(loss)/d(weights), made d(loss)/d(scores) in place
            g_s = g @ np.swapaxes(vd, -1, -2)
            g_s -= np.einsum("...ij,...ij->...i", g_s, w)[..., np.newaxis]  # row dots
            g_s *= w
        return [
            (g_s @ kd) * scale if q.requires else None,
            np.swapaxes(np.swapaxes(qs, -1, -2) @ g_s, -1, -2) if k.requires else None,
            np.swapaxes(w, -1, -2) @ g if v.requires else None,
        ]

    return custom_op(w @ vd, [q, k, v], backward)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy between row softmaxes and integer labels."""
    x = logits.data
    if x.ndim != 2:
        raise DimensionError(f"expected [batch, classes] logits, got {x.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (x.shape[0],):
        raise DimensionError("labels must have one entry per logits row")
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    n = x.shape[0]
    loss = -logp[np.arange(n), labels].mean()

    def backward(g):
        probs = np.exp(logp)
        probs[np.arange(n), labels] -= 1.0
        return [(g / n) * probs]

    return custom_op(np.asarray(loss, dtype=x.dtype), [logits], backward)


# ---------------------------------------------------------------------------
# convolution along the sequence axis
# ---------------------------------------------------------------------------


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Length-preserving 1-D convolution along axis -2, plus a bias.

    ``x`` is [..., L, D], zero-padded by (K-1)/2 rows on both ends, K odd. A
    ``kernel`` [K, D, D_out] mixes channels; a ``kernel`` [K, D] filters each
    channel on its own (depthwise, D_out = D). ``bias`` is [D_out].
    """
    xd, kd = x.data, kernel.data
    if kd.ndim not in (2, 3) or kd.shape[0] % 2 == 0:
        raise ConfigurationError(
            f"conv1d kernel must be [K, D, D_out] or [K, D] with K odd, got {kd.shape}"
        )
    if xd.shape[-1] != kd.shape[1]:
        raise DimensionError(
            f"conv1d channel mismatch: input {xd.shape} vs kernel {kd.shape}"
        )
    d_in, d_out = kd.shape[1], kd.shape[-1]
    lead = tuple(range(xd.ndim - 1))
    if kd.ndim == 3:  # channel-mixing
        tap = np.matmul
        tap_grad = lambda xs, g: xs.reshape(-1, d_in).T @ g.reshape(-1, d_out)
    else:  # depthwise
        tap = np.multiply
        tap_grad = lambda xs, g: (xs * g).sum(axis=lead)
    length, pad = xd.shape[-2], kd.shape[0] // 2
    xp = np.zeros(xd.shape[:-2] + (length + 2 * pad, xd.shape[-1]), dtype=xd.dtype)
    xp[..., pad : pad + length, :] = xd  # np.pad costs 20x this at batch 1
    windows = [xp[..., j : j + length, :] for j in range(kd.shape[0])]
    out_data = np.zeros(xd.shape[:-1] + (d_out,), dtype=xd.dtype)
    for xs, w in zip(windows, kd):
        out_data += tap(xs, w)
    out_data += bias.data

    def backward(g):
        gx = gk = gb = None
        if x.requires:
            gxp = np.zeros_like(xp)
            for j, w in enumerate(kd):
                gxp[..., j : j + length, :] += tap(g, w.T)  # .T of a 1-D row is the row
            gx = gxp[..., pad : pad + length, :]
        if kernel.requires:
            gk = np.stack([tap_grad(xs, g) for xs in windows])
        if bias.requires:
            gb = g.sum(axis=lead)
        return [gx, gk, gb]

    return custom_op(out_data, [x, kernel, bias], backward)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Compare tape gradients against central finite differences.

    ``loss_fn`` must rebuild the graph from the current parameter values and
    return a scalar loss. Returns the worst relative error over every scalar
    parameter entry, with the hybrid denominator max(1, |fd|, |analytic|).
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigurationError("check_gradients requires float64 parameters")
    with GradTape() as tape:
        tape.backward(loss_fn())
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    for p in params:
        p.grad = None

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().data)
            flat[i] = orig - h
            f_minus = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("finite-difference evaluation is non-finite")
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i]))
            worst = max(worst, err)
    return worst
