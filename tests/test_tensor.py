import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgmn.errors import ConfigurationError, DimensionError, NumericError
from mvgmn import tensor as T
from mvgmn.tensor import GradTape, Tensor
from gradcheck import check_gradients, sum_all


def _rand(shape, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(dtype))


def _param(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(Tensor(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_row_times_column():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    expect = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                expect[i, j] += a[i, k] * b[k, j]
    got = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)


def test_matmul_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        T.matmul(_rand((2, 3), 0), _rand((4, 2), 1))
    with pytest.raises(DimensionError):
        T.matmul(_rand((2, 3), 0), _rand((3, 2, 2), 1))
    with pytest.raises(DimensionError):
        T.matmul(_rand((2, 3, 4), 0), _rand((5, 2), 1))
    with pytest.raises(DimensionError):
        T.matmul(_rand((2, 3, 4), 0), _rand((3, 4, 2), 1))


def test_matmul_applies_a_weight_across_a_stack():
    x = _param((2, 5, 4), 71)
    w = _param((4, 3), 72)
    with GradTape() as tape:
        y = T.matmul(x, w)
        assert len(tape) == 1
        tape.backward(sum_all(y))
    rows = x.data.reshape(-1, 4)
    expect = (rows @ w.data).reshape(2, 5, 3)
    assert y.data.shape == expect.shape and y.data.tobytes() == expect.tobytes()
    assert w.grad.tobytes() == (rows.T @ np.ones((10, 3))).tobytes()


# ---------------------------------------------------------------------------
# conv1d: "same" (length-preserving) padding, channel-mixing [K, D, D_out] and
# depthwise [K, D] kernels
# ---------------------------------------------------------------------------


def test_conv1d_same_identity_kernel():
    x = _rand((6, 3), 1)
    mixing = Tensor(np.eye(3)[np.newaxis, :, :])  # K=1 identity channel map
    depthwise = Tensor(np.ones((1, 3)))
    for kernel in (mixing, depthwise):
        np.testing.assert_array_equal(T.conv1d(x, kernel, Tensor(np.zeros(3))).data, x.data)


def test_conv1d_same_sliding_sum():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    kernel = Tensor(np.ones((3, 1, 1)))
    out = T.conv1d(x, kernel, Tensor(np.zeros(1)))
    np.testing.assert_allclose(out.data[:, 0], [3.0, 6.0, 5.0])
    x = Tensor(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
    out = T.conv1d(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)))  # each channel alone
    np.testing.assert_allclose(out.data, [[3.0, 30.0], [6.0, 60.0], [5.0, 50.0]])


def test_conv1d_same_zero_input():
    out = T.conv1d(Tensor(np.zeros((5, 4))), _rand((3, 4, 2), 2), Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))
    out = T.conv1d(Tensor(np.zeros((5, 4))), _rand((3, 4), 2), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 4)))


def test_conv1d_same_even_width_rejected():
    with pytest.raises(ConfigurationError):
        T.conv1d(_rand((5, 4), 0), _rand((2, 4, 4), 1), Tensor(np.zeros(4)))
    with pytest.raises(ConfigurationError):
        T.conv1d(_rand((5, 4), 0), _rand((2, 4), 1), Tensor(np.zeros(4)))


def test_conv1d_kernel_rank_and_channels_checked():
    x = _rand((5, 4), 0)
    for shape in ((3,), (3, 4, 4, 1)):
        with pytest.raises(ConfigurationError):
            T.conv1d(x, _rand(shape, 1), Tensor(np.zeros(4)))
    for shape in ((3, 2, 4), (3, 2)):
        with pytest.raises(DimensionError):
            T.conv1d(x, _rand(shape, 1), Tensor(np.zeros(shape[-1])))


@given(st.integers(1, 4), st.integers(1, 12), st.sampled_from([1, 3, 5, 7]))
@settings(max_examples=30, deadline=None)
def test_conv1d_same_preserves_length(d, length, k):
    x = _rand((length, d), 3)
    for kernel in (_rand((k, d, d), 4), _rand((k, d), 4)):
        assert T.conv1d(x, kernel, Tensor(np.zeros(d))).data.shape == (length, d)


# ---------------------------------------------------------------------------
# attention: softmax(q kᵀ / √d_k) v
# ---------------------------------------------------------------------------


def softmax_weights(logits):
    """Row softmax of [M, P] logits, read off ``attention`` with v = I_P.

    With d_k = 16 the scale is 1/4 and the keys 4·I make q kᵀ/√d_k equal the
    logits exactly, so the weights are the softmax of the logits themselves.
    """
    logits = np.asarray(logits, dtype=np.float64)
    m, p = logits.shape
    q = np.zeros((m, 16))
    q[:, :p] = logits
    return T.attention(Tensor(q), Tensor(4.0 * np.eye(p, 16)), Tensor(np.eye(p))).data


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax_weights([[0.0, 0.0]]), [[0.5, 0.5]])


def test_softmax_two_logits():
    np.testing.assert_allclose(softmax_weights([[1.0, 0.0]]), [[0.7311, 0.2689]], atol=1e-4)


def test_softmax_large_logit_no_overflow():
    np.testing.assert_allclose(softmax_weights([[1000.0, 0.0]]), [[1.0, 0.0]], atol=1e-12)


@given(st.integers(1, 5), st.integers(1, 6), st.floats(-50, 50))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(m, n, shift):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((m, n)) * 5
    p = softmax_weights(x)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(m), atol=1e-9)
    assert np.all(p >= 0) and np.all(p <= 1)
    p_shift = softmax_weights(x + shift)
    np.testing.assert_allclose(p, p_shift, atol=1e-9)


def test_attention_records_one_tape_op():
    q, k, v = _param((2, 3, 4), 81), _param((2, 5, 4), 82), _param((2, 5, 3), 83)
    with GradTape() as tape:
        out = T.attention(q, k, v)
        assert len(tape) == 1 and out.requires
    scores = q.data @ np.swapaxes(k.data, -1, -2) / 2.0  # √d_k = 2
    weights = np.exp(scores) / np.exp(scores).sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out.data, weights @ v.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "q_shape, k_shape, v_shape",
    [((3, 4), (5, 3), (5, 2)),  # d_k differs
     ((3, 4), (5, 4), (6, 2)),  # P differs
     ((2, 3, 4), (3, 5, 4), (3, 5, 2)),  # leading axes differ
     ((3, 4), (2, 5, 4), (2, 5, 2)),  # ranks differ
     ((4,), (4,), (4,))],  # no row axis
    ids=["d_k", "keys_vs_values", "leading_axes", "rank", "vectors"],
)
def test_attention_shape_mismatch_raises(q_shape, k_shape, v_shape):
    with pytest.raises(DimensionError):
        T.attention(_rand(q_shape, 0), _rand(k_shape, 1), _rand(v_shape, 2))


def test_softmax_cross_entropy_uniform_gradient():
    logits = Tensor(np.zeros((1, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = T.softmax_cross_entropy(logits, np.array([1]))
        tape.backward(loss)
    np.testing.assert_allclose(logits.grad, [[0.5, -0.5]], atol=1e-12)
    assert float(loss.data) == pytest.approx(np.log(2.0))


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_linear_loss_gradient_is_input():
    w = _param((3, 4), 5)
    x = _rand((4, 2), 6)

    def loss():
        return sum_all(T.matmul(w, x))

    assert check_gradients(loss, [w], h=1e-5) < 1e-10


def test_fanout_gradients_accumulate():
    w = Tensor(np.array([2.0]), requires_grad=True)
    with GradTape() as tape:
        y = sum_all(T.add(T.mul(w, 3.0), T.mul(w, 4.0)))
        tape.backward(y)
    np.testing.assert_allclose(w.grad, [7.0])


def test_backward_requires_scalar():
    w = _param((2, 2), 7)
    with GradTape() as tape:
        y = T.mul(w, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(y)


def test_no_recording_outside_tape():
    w = _param((2, 2), 8)
    y = T.mul(w, 2.0)
    assert y.requires is False
    assert y.grad is None


def test_tape_records_only_ops_that_need_gradients(monkeypatch):
    c = _rand((2, 3, 4), 61)
    w = _param((2, 4, 5), 62)
    with GradTape() as tape:
        const = T.relu(T.matmul(c, _rand((2, 4, 5), 63)))
        assert len(tape) == 0 and const.requires is False
        y = T.matmul(c, w)
        assert len(tape) == 1 and y.requires is True
        loss = sum_all(y)
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *args: calls.append(1) or matmul(*args))
        tape.backward(loss)
        monkeypatch.undo()
    assert len(calls) == 1  # the constant's gradient is never computed
    assert c.grad is None
    np.testing.assert_allclose(w.grad, np.swapaxes(c.data, -1, -2) @ np.ones((2, 3, 5)))


def test_nested_tapes_rejected():
    with GradTape():
        with pytest.raises(ConfigurationError):
            GradTape().__enter__()
    assert T._active_tape is None


def test_finite_check_raises():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            T.mul(big, 1e308)


def test_check_gradients_rejects_non_scalar_and_non_finite_loss():
    w = _param((2, 2), 9)
    with pytest.raises(DimensionError):
        check_gradients(lambda: T.mul(w, 2.0), [w])
    with pytest.raises(NumericError):
        check_gradients(lambda: Tensor(np.array(np.inf)), [w])
    assert T._active_tape is None


def test_check_gradients_requires_float64():
    w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigurationError):
        check_gradients(lambda: sum_all(w), [w])


def test_float32_preserved_through_ops():
    x = Tensor(np.ones((3, 3), dtype=np.float32))
    y = T.relu(T.add(T.matmul(x, x), Tensor(np.ones(3, dtype=np.float32))))
    assert y.data.dtype == np.float32
    assert T.attention(y, y, y).data.dtype == np.float32


# ---------------------------------------------------------------------------
# per-op finite-difference checks (float64, h = 1e-5, rel err < 1e-4)
# ---------------------------------------------------------------------------

OPS = {
    "add_broadcast": lambda p, x: T.add(p, x),
    "mul_broadcast": lambda p, x: T.mul(p, x),
    "matmul_left": lambda p, x: T.matmul(p, T.reshape(x, (3, 4))),
    "relu": lambda p, x: T.relu(T.mul(p, x)),
    "mean_axis": lambda p, x: T.mean_axis(T.mul(p, x), axis=0),
    "take_rows": lambda p, x: T.take_rows(T.mul(p, x), [2, 0, 3, 1]),
    "concat": lambda p, x: T.concat([T.mul(p, 2.0), T.mul(p, x)], axis=1),
    "concat_three_axis0": lambda p, x: T.concat([p, T.mul(p, x), T.mul(p, 3.0)], axis=0),
    "matmul_stack_constant_left": lambda p, x: T.matmul(
        T.reshape(x, (1, 3, 4)), T.reshape(p, (1, 4, 3))
    ),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    op = OPS[name]
    seed = zlib.crc32(name.encode()) % 1000  # str hash() is salted per process
    p = _param((4, 3), seed=seed)
    x = _rand((4, 3), seed=seed + 1)

    def loss():
        out = op(p, x)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, [p], h=1e-5) < 1e-4


@pytest.mark.parametrize(
    "b_shape", [(2, 4, 5), (4, 3)], ids=["stack_by_stack", "weight_over_stack"]
)
def test_matmul_gradients(b_shape):
    a = _param((2, 3, 4), 21)
    b = _param(b_shape, 22)

    def loss():
        return sum_all(T.matmul(a, b))

    assert check_gradients(loss, [a, b], h=1e-5) < 1e-4


@pytest.mark.parametrize(
    "q_shape, k_shape, v_shape, requires",
    [((3, 4), (5, 4), (5, 2), (True, True, True)),
     ((2, 3, 4), (2, 5, 4), (2, 5, 3), (True, True, True)),
     ((6, 1, 4), (6, 3, 4), (6, 3, 2), (True, True, True)),  # one query a frame, as in fusion
     ((3, 4), (5, 4), (5, 2), (False, False, True))],
    ids=["q_k_v", "batched", "single_query", "values_only"],
)
def test_attention_gradients(q_shape, k_shape, v_shape, requires):
    q, k, v = (
        Tensor(np.random.default_rng(seed).standard_normal(shape), requires_grad=r)
        for seed, shape, r in zip((41, 42, 43), (q_shape, k_shape, v_shape), requires)
    )
    params = [t for t in (q, k, v) if t.requires]

    def loss():
        out = T.attention(q, k, v)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, params, h=1e-5) < 1e-4
    # check_gradients clears the parameters' gradients; a constant never gets one
    assert all(t.grad is None for t in (q, k, v))


@pytest.mark.parametrize(
    "kernel_shape", [(3, 3, 2), (3, 3)], ids=["channel_mixing", "depthwise"]
)
def test_conv1d_gradients(kernel_shape):
    x = _param((2, 5, 3), 31)
    kernel = _param(kernel_shape, 32)
    bias = _param(kernel_shape[-1:], 33)

    def loss():
        out = T.conv1d(x, kernel, bias)
        return sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, kernel, bias], h=1e-5) < 1e-4


def test_softmax_cross_entropy_gradients():
    logits = _param((6, 4), 51)
    labels = np.array([0, 1, 2, 3, 1, 0])

    def loss():
        return T.softmax_cross_entropy(logits, labels)

    assert check_gradients(loss, [logits], h=1e-5) < 1e-4
