import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgmn import scan as S
from mvgmn import tensor as T
from mvgmn.errors import ConfigurationError, InputError
from mvgmn.model import ModelConfig
from mvgmn.tensor import Tensor
from gradcheck import check_gradients, sum_all


def make_rows(v, t, d, seed=0, dtype=np.float64):
    """A [V, T, D] grid as canonical vertex rows [V*T, D] (row v*T + t)."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((v, t, d)).astype(dtype).reshape(v * t, d))


def flatten(rows, order, v, t):
    return T.take_rows(rows, S.scan_permutation(order, v, t))


def restore(seq, order, v, t):
    return T.take_rows(seq, S.inverse_permutation(order, v, t))


def make_ssm(d, n, seed=0, dtype=np.float64, requires=True):
    rng = np.random.default_rng(seed)

    def p(shape, scale=0.5):
        return Tensor(
            (rng.standard_normal(shape) * scale).astype(dtype), requires_grad=requires
        )

    return {
        "a_log": p((d, n)),
        "b_proj": p((d, n)),
        "c_proj": p((d, n)),
        "dt_weight": p((d, 1)),
        "dt_bias": p((1,)),
        "skip_gain": p((d,)),
    }


def selective_scan_reference(x: np.ndarray, p: dict[str, Tensor]) -> np.ndarray:
    """Scalar-loop oracle for the recurrence; intentionally unvectorized.

    ``x`` is one [L, D] sequence; ``p`` holds ``selective_scan``'s tensors.
    """
    length, d = x.shape
    n = p["a_log"].shape[1]
    a = -np.exp(np.asarray(p["a_log"].data, dtype=np.float64))
    bp = np.asarray(p["b_proj"].data, dtype=np.float64)
    cp = np.asarray(p["c_proj"].data, dtype=np.float64)
    dtw = np.asarray(p["dt_weight"].data, dtype=np.float64)
    dtb = float(p["dt_bias"].data[0])
    skip = np.asarray(p["skip_gain"].data, dtype=np.float64)
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


def nest(prefix, params):
    """``params`` keyed under ``prefix.``, as the layer that holds them reads them."""
    return {f"{prefix}.{k}": t for k, t in params.items()}


def make_layer(d, d_inner, n, seed=0, dtype=np.float64, requires=True, k_c=3):
    rng = np.random.default_rng(seed)

    def p(shape, scale=0.4):
        return Tensor(
            (rng.standard_normal(shape) * scale).astype(dtype), requires_grad=requires
        )

    return {
        "w_in": p((d, d_inner)),
        "b_in": p((d_inner,)),
        "w_res": p((d, d_inner)),
        "b_res": p((d_inner,)),
        "w_out": p((d_inner, d)),
        "b_out": p((d,)),
        "conv_weight": p((k_c, d_inner)),
        "conv_bias": p((d_inner,)),
        **nest("ssm", make_ssm(d_inner, n, seed + 1, dtype, requires)),
    }


# ---------------------------------------------------------------------------
# scan orders
# ---------------------------------------------------------------------------


def test_view_forward_interleaves_views():
    # (v, t) canonical index = v*T + t; V=T=2.
    perm = S.scan_permutation("view_forward", 2, 2)
    np.testing.assert_array_equal(perm, [0, 2, 1, 3])  # (v1,t1),(v2,t1),(v1,t2),(v2,t2)


def test_time_forward_is_canonical_order():
    perm = S.scan_permutation("time_forward", 2, 2)
    np.testing.assert_array_equal(perm, [0, 1, 2, 3])


@given(st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_backward_orders_are_exact_reversals(v, t):
    for fwd, bwd in [("view_forward", "view_backward"), ("time_forward", "time_backward")]:
        np.testing.assert_array_equal(
            S.scan_permutation(bwd, v, t), S.scan_permutation(fwd, v, t)[::-1]
        )


def test_flatten_reverse_equals_backward_flatten():
    rows = make_rows(3, 5, 4)
    fwd = flatten(rows, "view_forward", 3, 5).data
    bwd = flatten(rows, "view_backward", 3, 5).data
    np.testing.assert_array_equal(bwd, fwd[::-1])


@pytest.mark.parametrize("order", S.SCAN_ORDERS)
def test_round_trip_identity(order):
    rows = make_rows(3, 8, 6, seed=3)
    back = restore(flatten(rows, order, 3, 8), order, 3, 8)
    np.testing.assert_array_equal(back.data, rows.data)


def test_round_trip_exhaustive_small_grids():
    for v in range(1, 9):
        for t in range(1, 9):
            rows = make_rows(v, t, 2, seed=v * 10 + t)
            for order in S.SCAN_ORDERS:
                back = restore(flatten(rows, order, v, t), order, v, t)
                np.testing.assert_array_equal(back.data, rows.data)


def test_mismatched_order_round_trip_detects_permutation():
    rows = make_rows(2, 3, 2, seed=9)
    wrong = restore(flatten(rows, "view_forward", 2, 3), "time_forward", 2, 3)
    assert not np.array_equal(wrong.data, rows.data)


def test_degenerate_axis_orders_coincide_up_to_reversal():
    for v, t in [(1, 6), (6, 1)]:
        rows = make_rows(v, t, 3, seed=v)
        vf = flatten(rows, "view_forward", v, t).data
        tf = flatten(rows, "time_forward", v, t).data
        np.testing.assert_array_equal(vf, tf)
        np.testing.assert_array_equal(flatten(rows, "view_backward", v, t).data, tf[::-1])


def test_unknown_order_and_mode_rejected():
    with pytest.raises(ConfigurationError):
        S.scan_permutation("sideways", 2, 2)
    with pytest.raises(ConfigurationError):
        ModelConfig(views=2, time_steps=2, width=4, n_classes=2, scan_mode="diagonal")


# ---------------------------------------------------------------------------
# embedding conv
# ---------------------------------------------------------------------------


def test_embedding_conv_nonnegative_and_zero_cases():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((7, 4)))
    kernel = Tensor(rng.standard_normal((3, 4, 4)))
    bias = Tensor(np.zeros(4))
    out = T.relu(T.conv1d(x, kernel, bias))
    assert out.data.min() >= 0.0
    zero = T.relu(T.conv1d(x, Tensor(np.zeros((3, 4, 4))), bias))
    np.testing.assert_array_equal(zero.data, np.zeros((7, 4)))


def test_embedding_conv_identity_kernel_on_nonnegative_input():
    x = Tensor(np.abs(np.random.default_rng(1).standard_normal((5, 3))))
    kernel = Tensor(np.eye(3)[np.newaxis])
    out = T.relu(T.conv1d(x, kernel, Tensor(np.zeros(3))))
    np.testing.assert_array_equal(out.data, x.data)


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------


def test_scan_zero_step_size_reduces_to_skip():
    d, n = 3, 4
    ssm = make_ssm(d, n, seed=2, requires=False)
    ssm["dt_weight"].data[:] = 0.0
    ssm["dt_bias"].data[:] = -1e9  # softplus underflows to exactly 0
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, d))
    y = S.selective_scan(Tensor(x[np.newaxis]), ssm).data[0]
    np.testing.assert_allclose(y, ssm["skip_gain"].data * x, atol=1e-12)


def test_scan_hand_rolled_recurrence():
    # D=N=1, fixed step ln 2, unit drive/readout, no skip:
    # h_t = 0.5 h_{t-1} + ln 2, y_t = h_t.
    ssm = {
        "a_log": Tensor([[0.0]]),
        "b_proj": Tensor([[1.0]]),
        "c_proj": Tensor([[1.0]]),
        "dt_weight": Tensor([[0.0]]),
        "dt_bias": Tensor([0.0]),  # softplus(0) = ln 2
        "skip_gain": Tensor([0.0]),
    }
    y = S.selective_scan(Tensor([[[1.0], [1.0], [1.0]]]), ssm).data[0]
    np.testing.assert_allclose(y[:, 0], [0.6931, 1.0397, 1.2129], atol=1e-3)


def test_scan_single_step_unrolls():
    d, n = 2, 3
    ssm = make_ssm(d, n, seed=7, requires=False)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, d))
    y = S.selective_scan(Tensor(x[np.newaxis]), ssm).data[0]
    dt = np.logaddexp(0, x[0] @ ssm["dt_weight"].data[:, 0] + ssm["dt_bias"].data[0])
    bvec = x[0] @ ssm["b_proj"].data
    cvec = x[0] @ ssm["c_proj"].data
    h1 = dt * np.outer(x[0], bvec)
    expect = h1 @ cvec + ssm["skip_gain"].data * x[0]
    np.testing.assert_allclose(y[0], expect, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_scan_matches_reference_oracle(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, 65))
    d = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    ssm = make_ssm(d, n, seed=seed + 100, requires=False)
    x = rng.standard_normal((length, d))
    fast = S.selective_scan(Tensor(x[np.newaxis]), ssm).data[0]
    slow = selective_scan_reference(x, ssm)
    np.testing.assert_allclose(fast, slow, atol=1e-6, rtol=1e-9)


# [B, L, D] and N of the scan in the train workload's recipe (batch 32,
# V*T = 24, width 32 doubled by the layer's inner expansion, state_dim 64)
TRAIN_SCAN_SHAPE = (32, 24, 64, 64)


def test_scan_matches_reference_oracle_at_train_shape():
    batch, length, d, n = TRAIN_SCAN_SHAPE
    ssm = make_ssm(d, n, seed=51, requires=False)
    x = np.random.default_rng(52).standard_normal((batch, length, d))
    fast = S.selective_scan(Tensor(x), ssm).data
    for row in (0, batch - 1):
        slow = selective_scan_reference(x[row], ssm)
        np.testing.assert_allclose(fast[row], slow, atol=1e-6, rtol=1e-9)


def test_scan_batched_matches_per_sample():
    rng = np.random.default_rng(3)
    ssm = make_ssm(4, 5, seed=4, requires=False)
    xb = rng.standard_normal((3, 10, 4))
    full = S.selective_scan(Tensor(xb), ssm).data
    for i in range(3):
        single = S.selective_scan(Tensor(xb[i][np.newaxis]), ssm).data[0]
        np.testing.assert_allclose(full[i], single, atol=1e-12)


def test_scan_gradients_match_finite_differences():
    d, n, length = 3, 4, 7
    ssm = make_ssm(d, n, seed=11)
    x = Tensor(
        np.random.default_rng(12).standard_normal((length, d))[np.newaxis], requires_grad=True
    )

    def loss():
        out = S.selective_scan(x, ssm)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, *ssm.values()], h=1e-5) < 1e-4


def test_scan_batched_gradients():
    d, n = 2, 3
    ssm = make_ssm(d, n, seed=21)
    x = Tensor(np.random.default_rng(22).standard_normal((2, 5, d)), requires_grad=True)

    def loss():
        out = S.selective_scan(x, ssm)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, *ssm.values()], h=1e-5) < 1e-4


@pytest.mark.parametrize("batch, length", [(1, 1), (3, 2)])
def test_short_scan_gradients_match_finite_differences(batch, length):
    # L = 1: no step has a previous state, so the decay gradients are all
    # zero; L = 2: one decay gradient, written over the first state's slot
    d, n = 3, 2
    ssm = make_ssm(d, n, seed=23 + length)
    x = Tensor(
        np.random.default_rng(24 + length).standard_normal((batch, length, d)),
        requires_grad=True,
    )

    def loss():
        out = S.selective_scan(x, ssm)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, *ssm.values()], h=1e-5) < 1e-4


def test_scan_directional_gradients_at_train_shape():
    # every scan gradient against a central difference along one random
    # direction per tensor: <grad, direction> = d/de loss(p + e * direction)
    batch, length, d, n = TRAIN_SCAN_SHAPE
    ssm = make_ssm(d, n, seed=53)
    rng = np.random.default_rng(54)
    x = Tensor(rng.standard_normal((batch, length, d)), requires_grad=True)
    w = Tensor(rng.standard_normal((batch, length, d)))

    def loss():
        return sum_all(T.mul(S.selective_scan(x, ssm), w))

    with T.GradTape() as tape:
        tape.backward(loss())
    h = 1e-6
    for name, p in {"x": x, **ssm}.items():
        direction = rng.standard_normal(p.shape)
        base = p.data.copy()
        p.data[...] = base + h * direction
        up = float(loss().data)
        p.data[...] = base - h * direction
        down = float(loss().data)
        p.data[...] = base
        along = float((p.grad * direction).sum())
        assert abs((up - down) / (2 * h) - along) < 1e-6 * abs(along), name


def test_scan_tape_replays_once():
    # the backward overwrites the state history, so a second replay would
    # compute the a_log gradient from the wrong values
    ssm = make_ssm(3, 2, seed=25)
    x = Tensor(np.random.default_rng(26).standard_normal((2, 5, 3)), requires_grad=True)
    with T.GradTape() as tape:
        loss = sum_all(S.selective_scan(x, ssm))
        tape.backward(loss)
        first = ssm["a_log"].grad.copy()
        with pytest.raises(ConfigurationError, match="replays once"):
            tape.backward(loss)
    assert ssm["a_log"].grad.tobytes() == first.tobytes()


def test_untaped_scan_stores_no_state_history():
    # model parameters always require gradients, so only the tape can say
    # whether the [L, B, D, N] history will ever be read
    length, d, n = 256, 16, 16
    ssm = make_ssm(d, n, seed=41)
    x = Tensor(np.random.default_rng(42).standard_normal((1, length, d)))
    tracemalloc.start()
    try:
        S.selective_scan(x, ssm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length * d * n * x.data.itemsize


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("length", [1, 2, 24])
def test_taped_and_untaped_scans_are_byte_identical(length, batch, dtype):
    # taped: one state slot per step; untaped: one slot in all. At L = 1 and
    # 2 the last slot is both h_{-1} = 0 and a slot that a step writes
    d, n = 5, 4
    ssm = make_ssm(d, n, seed=43, dtype=dtype)
    x = Tensor(
        np.random.default_rng(44).standard_normal((batch, length, d)).astype(dtype),
        requires_grad=True,
    )
    untaped = S.selective_scan(x, ssm).data
    with T.GradTape() as tape:
        taped = S.selective_scan(x, ssm).data
    assert len(tape) == 1
    assert taped.dtype == untaped.dtype == dtype
    assert taped.tobytes() == untaped.tobytes()


def test_scan_rejects_empty_sequence():
    ssm = make_ssm(2, 2, requires=False)
    with pytest.raises(InputError):
        S.selective_scan(Tensor(np.zeros((1, 0, 2))), ssm)


# ---------------------------------------------------------------------------
# mamba layer
# ---------------------------------------------------------------------------


def test_mamba_layer_residual_identity():
    d = 4
    layer = make_layer(d, d, 3, seed=5, requires=False)
    for t in layer.values():
        t.data[:] = 0.0
    layer["w_res"].data[:] = np.eye(d)
    layer["w_out"].data[:] = np.eye(d)
    x = np.random.default_rng(6).standard_normal((5, d))
    out = S.mamba_layer(Tensor(x[np.newaxis]), layer).data[0]
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_mamba_layer_shape_contract():
    for length, d in [(1, 2), (9, 5), (4, 3)]:
        layer = make_layer(d, 2 * d, 4, seed=length, requires=False)
        x = Tensor(np.random.default_rng(length).standard_normal((length, d))[np.newaxis])
        assert S.mamba_layer(x, layer).data[0].shape == (length, d)


def test_mamba_layer_width_mismatch():
    layer = make_layer(4, 8, 4, requires=False)
    with pytest.raises(ConfigurationError):
        S.mamba_layer(Tensor(np.zeros((3, 5))), layer)


def test_mamba_layer_gradients():
    d = 3
    layer = make_layer(d, 2 * d, 3, seed=31)
    x = Tensor(np.random.default_rng(32).standard_normal((6, d))[np.newaxis], requires_grad=True)

    def loss():
        out = S.mamba_layer(x, layer)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, *layer.values()], h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# bidirectional block
# ---------------------------------------------------------------------------


def make_direction(d, seed, requires=False):
    rng = np.random.default_rng(seed)
    return {
        "conv_kernel": Tensor(rng.standard_normal((3, d, d)) * 0.4, requires_grad=requires),
        "conv_bias": Tensor(np.zeros(d), requires_grad=requires),
        **nest("mamba", make_layer(d, 2 * d, 4, seed=seed + 1, requires=requires)),
    }


def scan_block(rows, mode, layers, v, t):
    """The mode's directions applied in sequence, as a model unit cycle does.

    ``rows`` holds one sample's canonical rows; they run as a batch of one.
    """
    x = Tensor(rows.data[np.newaxis])
    for order in S.SCAN_MODES[mode]:
        x = S.apply_direction(x, order, layers[order], v, t)
    return Tensor(x.data[0])


def test_block_degenerate_single_vertex():
    rows = make_rows(1, 1, 3, seed=1)
    layers = {o: make_direction(3, i) for i, o in enumerate(S.SCAN_ORDERS)}
    out = scan_block(rows, "view_time", layers, 1, 1)
    assert out.shape == (1, 3)


def test_block_identity_composition():
    d = 3
    layers = {}
    for o in S.SCAN_ORDERS:
        mamba = make_layer(d, d, 4, seed=0, requires=False)
        for t in mamba.values():
            t.data[:] = 0.0
        mamba["w_res"].data = np.eye(d)
        mamba["w_out"].data = np.eye(d)
        p = {
            "conv_kernel": Tensor(np.zeros((3, d, d))),
            "conv_bias": Tensor(np.zeros(d)),
            **nest("mamba", mamba),
        }
        # embedding conv = identity center tap so ReLU sees nonnegative input
        p["conv_kernel"].data[1] = np.eye(d)
        layers[o] = p
    rows = Tensor(np.abs(np.random.default_rng(4).standard_normal((2, 3, d))).reshape(6, d))
    out = scan_block(rows, "view_time", layers, 2, 3)
    np.testing.assert_allclose(out.data, rows.data, atol=1e-12)


def test_view_vs_time_prioritized_differ():
    d = 4
    shared = {o: make_direction(d, 7) for o in S.SCAN_ORDERS}
    rows = make_rows(3, 4, d, seed=8)
    out_v = scan_block(rows, "view_prioritized", shared, 3, 4)
    out_t = scan_block(rows, "time_prioritized", shared, 3, 4)
    assert not np.allclose(out_v.data, out_t.data)


def test_backward_scan_equals_reverse_forward_reverse():
    # Scanning in a backward order with given weights must equal: reverse the
    # forward-order sequence, scan it with the same weights, reverse back.
    d, v, t = 3, 3, 4
    params = make_direction(d, 13)
    x = Tensor(make_rows(v, t, d, seed=14).data[np.newaxis])
    direct = S.apply_direction(x, "view_backward", params, v, t).data

    seq_fwd = T.take_rows(x, S.scan_permutation("view_forward", v, t))
    rev = T.take_rows(seq_fwd, np.arange(v * t)[::-1].copy())
    embedded = T.relu(T.conv1d(rev, params["conv_kernel"], params["conv_bias"]))
    processed = S.mamba_layer(embedded, T.scope(params, "mamba"))
    back = T.take_rows(processed, np.arange(v * t)[::-1].copy())
    manual = T.take_rows(back, S.inverse_permutation("view_forward", v, t)).data
    np.testing.assert_allclose(direct, manual, atol=1e-12)
