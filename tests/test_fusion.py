import numpy as np
import pytest

from mvgmn import fusion as F
from mvgmn import tensor as T
from mvgmn.errors import ConfigurationError, InputError
from mvgmn.tensor import Tensor, check_gradients


def make_params(d_sk, d_rgb, d_k, d, seed=0, requires=False):
    """Every weight any fusion mode reads."""
    rng = np.random.default_rng(seed)

    def p(shape):
        return Tensor(rng.standard_normal(shape) * 0.5, requires_grad=requires)

    return {
        "w_query": p((d_sk, d_k)),
        "w_key": p((d_rgb, d_k)),
        "w_value": p((d_rgb, d)),
        "w_skeleton": p((d_sk, d)),
        "w_linear": p((d_sk + d_rgb, d)),
    }


def make_frame(d_sk, d_rgb, n_p, seed=0):
    """One frame as fuse_frames takes it: sk [1, D_sk], patches [1, N_p, D_rgb]."""
    rng = np.random.default_rng(seed)
    patches = Tensor(rng.standard_normal((1, n_p, d_rgb)))
    return Tensor(rng.standard_normal((1, d_sk))), patches


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def test_align_tokens_stride_two():
    sk = np.arange(16)[:, None] * np.ones((16, 3))
    idx = F.skeleton_alignment_indices(16, 8)
    got = [int(token[0]) for token in sk[idx]]
    assert got == [0, 2, 4, 6, 8, 10, 12, 14]
    np.testing.assert_array_equal(idx, [0, 2, 4, 6, 8, 10, 12, 14])


def test_align_tokens_identity_when_equal():
    sk = np.arange(8)[:, None]
    idx = F.skeleton_alignment_indices(8, 8)
    assert [int(token[0]) for token in sk[idx]] == list(range(8))


def test_align_tokens_non_integer_ratio():
    with pytest.raises(ConfigurationError):
        F.skeleton_alignment_indices(15, 8)


# ---------------------------------------------------------------------------
# cross-attention fusion
# ---------------------------------------------------------------------------


def test_zero_skeleton_token_gives_mean_of_values():
    params = make_params(3, 4, 2, 5, seed=1)
    sk, patches = make_frame(3, 4, 6, seed=2)
    sk.data[:] = 0.0
    out = F.fuse_frames(sk, patches, "cross_attention", params)
    values = patches.data[0] @ params["w_value"].data
    np.testing.assert_allclose(out.data[0], values.mean(axis=0), atol=1e-12)


def test_single_patch_ignores_query():
    params = make_params(3, 4, 2, 5, seed=3)
    sk, patches = make_frame(3, 4, 1, seed=4)
    out1 = F.fuse_frames(sk, patches, "cross_attention", params)
    sk.data *= 37.0  # scaling the query cannot matter
    out2 = F.fuse_frames(sk, patches, "cross_attention", params)
    expect = patches.data[0, 0] @ params["w_value"].data
    np.testing.assert_allclose(out1.data[0], expect, atol=1e-12)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_scalar_attention_hand_oracle():
    # post-projection Q=[1], K rows [1],[0], V rows [2],[4], one frame, as
    # fuse_frames calls attention: weights = softmax([1, 0]) ->
    # 0.7311*2 + 0.2689*4 = 2.5379
    out = T.attention(
        Tensor([[[1.0]]]),
        Tensor([[[1.0], [0.0]]]),
        Tensor([[[2.0], [4.0]]]),
    )
    np.testing.assert_allclose(out.data, [[[2.5379]]], atol=1e-3)


def test_attention_invariant_to_patch_permutation():
    params = make_params(3, 4, 2, 5, seed=5)
    sk, patches = make_frame(3, 4, 7, seed=6)
    out = F.fuse_frames(sk, patches, "cross_attention", params)
    perm = np.random.default_rng(7).permutation(7)
    out_p = F.fuse_frames(sk, Tensor(patches.data[:, perm]), "cross_attention", params)
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-12)


def test_attention_weights_sum_to_one():
    params = make_params(3, 4, 2, 5, seed=8)
    sk, patches = make_frame(3, 4, 5, seed=9)
    q = sk.data @ params["w_query"].data  # [1, d_k]
    k = patches.data[0] @ params["w_key"].data  # [5, d_k]
    w = T.attention(Tensor(q), Tensor(k), Tensor(np.eye(5))).data  # v = I: the weights
    assert w.shape == (1, 5)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(w >= 0) and np.all(w <= 1)


# ---------------------------------------------------------------------------
# sequence fusion and variants
# ---------------------------------------------------------------------------


def test_fuse_sequence_single_frame_matches_single_fusion():
    # frames fuse independently: each row of a batch equals that frame alone
    params = make_params(3, 4, 2, 5, seed=10)
    frames = [make_frame(3, 4, 6, seed=11 + i) for i in range(3)]
    sk = Tensor(np.concatenate([f[0].data for f in frames]))
    patches = Tensor(np.concatenate([f[1].data for f in frames]))
    seq = F.fuse_frames(sk, patches, "cross_attention", params)
    assert seq.shape == (3, 5)
    for i, frame in enumerate(frames):
        single = F.fuse_frames(*frame, "cross_attention", params)
        assert single.shape == (1, 5)
        np.testing.assert_allclose(seq.data[i], single.data[0], atol=1e-12)


def test_mean_mode_with_identical_projections():
    params = make_params(2, 2, 2, 3, seed=12)
    # force both projected modalities to the same vector
    params["w_skeleton"].data[:] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    params["w_value"].data[:] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    token = np.array([0.3, -0.7])
    sk, patches = Tensor(token[None]), Tensor(np.stack([token, token])[None])
    out = F.fuse_frames(sk, patches, "mean", params)
    np.testing.assert_allclose(out.data[0], [0.3, -0.7, 0.0], atol=1e-12)


def test_three_fusion_modes_are_distinct():
    frames = [make_frame(3, 4, 5, seed=s) for s in range(2)]
    sk = Tensor(np.concatenate([f[0].data for f in frames]))
    patches = Tensor(np.concatenate([f[1].data for f in frames]))
    outs = {}
    for mode in F.FUSION_MODES:
        params = make_params(3, 4, 2, 5, seed=13)
        outs[mode] = F.fuse_frames(sk, patches, mode, params).data
    assert not np.allclose(outs["cross_attention"], outs["mean"])
    assert not np.allclose(outs["cross_attention"], outs["linear"])
    assert not np.allclose(outs["mean"], outs["linear"])


def test_fuse_frames_rejects_zero_patches():
    params = make_params(3, 4, 2, 5)
    with pytest.raises(InputError):
        F.fuse_frames(
            Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 0, 4))), "cross_attention", params
        )


def test_unknown_fusion_mode_rejected():
    sk, patches = make_frame(2, 2, 2)
    with pytest.raises(ConfigurationError):
        F.fuse_frames(sk, patches, "max", make_params(2, 2, 2, 2))


@pytest.mark.parametrize("mode", F.FUSION_MODES)
def test_fusion_gradients(mode):
    params = make_params(3, 4, 2, 5, seed=14, requires=True)
    rng = np.random.default_rng(15)
    sk = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    patches = Tensor(rng.standard_normal((4, 6, 4)), requires_grad=True)

    def loss():
        out = F.fuse_frames(sk, patches, mode, params)
        return T.sum_all(T.mul(out, out))

    assert check_gradients(loss, [sk, patches, *params.values()], h=1e-5) < 1e-4
