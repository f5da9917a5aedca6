import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgmn.errors import ConfigurationError, DimensionError, NumericError
from mvgmn import tensor as T
from mvgmn.tensor import GradTape, Tensor, check_gradients, finite_checks


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


# ---------------------------------------------------------------------------
# conv1d_same
# ---------------------------------------------------------------------------


def test_conv1d_same_identity_kernel():
    x = _rand((6, 3), 1)
    kernel = Tensor(np.eye(3)[np.newaxis, :, :])  # K=1 identity channel map
    np.testing.assert_array_equal(T.conv1d_same(x, kernel).data, x.data)


def test_conv1d_same_sliding_sum():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    kernel = Tensor(np.ones((3, 1, 1)))
    out = T.conv1d_same(x, kernel)
    np.testing.assert_allclose(out.data[:, 0], [3.0, 6.0, 5.0])


def test_conv1d_same_zero_input():
    out = T.conv1d_same(Tensor(np.zeros((5, 4))), _rand((3, 4, 2), 2))
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_conv1d_same_even_width_rejected():
    with pytest.raises(ConfigurationError):
        T.conv1d_same(_rand((5, 4), 0), _rand((2, 4, 4), 1))


@given(st.integers(1, 4), st.integers(1, 12), st.sampled_from([1, 3, 5, 7]))
@settings(max_examples=30, deadline=None)
def test_conv1d_same_preserves_length(d, length, k):
    x = _rand((length, d), 3)
    kernel = _rand((k, d, d), 4)
    assert T.conv1d_same(x, kernel).data.shape == (length, d)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    out = T.softmax_rows(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_two_logits():
    out = T.softmax_rows(Tensor([[1.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.7311, 0.2689]], atol=1e-4)


def test_softmax_large_logit_no_overflow():
    out = T.softmax_rows(Tensor([[1000.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)


@given(st.integers(1, 5), st.integers(1, 6), st.floats(-50, 50))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(m, n, shift):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((m, n)) * 5
    p = T.softmax_rows(Tensor(x)).data
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(m), atol=1e-9)
    assert np.all(p >= 0) and np.all(p <= 1)
    p_shift = T.softmax_rows(Tensor(x + shift)).data
    np.testing.assert_allclose(p, p_shift, atol=1e-9)


def test_softmax_cross_entropy_uniform_gradient():
    logits = Tensor(np.zeros((1, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = T.softmax_cross_entropy(logits, np.array([1]))
        tape.backward(loss)
    np.testing.assert_allclose(logits.grad, [[0.5, -0.5]], atol=1e-12)
    assert loss.item() == pytest.approx(np.log(2.0))


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_linear_loss_gradient_is_input():
    w = _param((3, 4), 5)
    x = _rand((4, 2), 6)

    def loss():
        return T.sum_all(T.matmul(w, x))

    assert check_gradients(loss, [w], h=1e-5) < 1e-10


def test_fanout_gradients_accumulate():
    w = Tensor(np.array([2.0]), requires_grad=True)
    with GradTape() as tape:
        y = T.sum_all(T.add(T.mul(w, 3.0), T.mul(w, 4.0)))
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


def test_nested_tapes_rejected():
    with GradTape():
        with pytest.raises(ConfigurationError):
            GradTape().__enter__()
    assert T._active_tape is None


def test_finite_check_raises_and_can_be_disabled():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            T.mul(big, 1e308)
        with finite_checks(False):
            out = T.mul(big, 1e308)
            assert np.isinf(out.data[0])


def test_check_gradients_requires_float64():
    w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigurationError):
        check_gradients(lambda: T.sum_all(w), [w])


def test_float32_preserved_through_ops():
    x = Tensor(np.ones((3, 3), dtype=np.float32))
    y = T.relu(T.add(T.matmul(x, x), 1.0))
    assert y.data.dtype == np.float32
    assert T.softmax_rows(y).data.dtype == np.float32


# ---------------------------------------------------------------------------
# per-op finite-difference checks (float64, h = 1e-5, rel err < 1e-4)
# ---------------------------------------------------------------------------

OPS = {
    "add_broadcast": lambda p, x: T.add(p, x),
    "mul_broadcast": lambda p, x: T.mul(p, x),
    "matmul_left": lambda p, x: T.matmul(p, T.reshape(x, (3, 4))),
    "relu": lambda p, x: T.relu(T.mul(p, x)),
    "softmax": lambda p, x: T.softmax_rows(T.mul(p, x)),
    "mean_axis": lambda p, x: T.mean_axis(T.mul(p, x), axis=0),
    "swap_last": lambda p, x: T.swap_last(T.mul(p, x)),
    "take_rows": lambda p, x: T.take_rows(T.mul(p, x), [2, 0, 1, 0]),
    "concat": lambda p, x: T.concat([T.mul(p, 2.0), T.mul(p, x)], axis=1),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    op = OPS[name]
    seed = zlib.crc32(name.encode()) % 1000  # str hash() is salted per process
    p = _param((4, 3), seed=seed)
    x = _rand((4, 3), seed=seed + 1)

    def loss():
        out = op(p, x)
        return T.sum_all(T.mul(out, out))

    assert check_gradients(loss, [p], h=1e-5) < 1e-4


def test_bmm_gradients():
    a = _param((2, 3, 4), 21)
    b = _param((2, 4, 5), 22)

    def loss():
        return T.sum_all(T.bmm(a, b))

    assert check_gradients(loss, [a, b], h=1e-5) < 1e-4


def test_conv1d_same_gradients():
    x = _param((5, 3), 31)
    kernel = _param((3, 3, 2), 32)
    bias = _param((2,), 33)

    def loss():
        out = T.conv1d_same(x, kernel, bias)
        return T.sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, kernel, bias], h=1e-5) < 1e-4


def test_conv1d_depthwise_gradients():
    x = _param((2, 6, 3), 41)
    w = _param((3, 3), 42)
    bias = _param((3,), 43)

    def loss():
        out = T.conv1d_depthwise(x, w, bias)
        return T.sum_all(T.mul(out, out))

    assert check_gradients(loss, [x, w, bias], h=1e-5) < 1e-4


def test_softmax_cross_entropy_gradients():
    logits = _param((6, 4), 51)
    labels = np.array([0, 1, 2, 3, 1, 0])

    def loss():
        return T.softmax_cross_entropy(logits, labels)

    assert check_gradients(loss, [logits], h=1e-5) < 1e-4
