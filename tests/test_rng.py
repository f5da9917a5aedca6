import numpy as np
import pytest

from mvgmn.rng import Xoshiro256pp, _scalar_words, derive_seed, splitmix64

M = 256  # words per lane of a block
SIZES = [1, 2, 7, M - 1, M, M + 1, 63, 64, 65, 4095, 4096, 4097, 65535, 65536, 65537, 70000]
LARGE = [n for n in SIZES if n > 4097]

# First words of three seeds, from the scalar recurrence before blocks existed.
FIRST_WORDS = {
    0: [
        0x53175D61490B23DF, 0x61DA6F3DC380D507, 0x5C0FDF91EC9A7BFC, 0x02EEBF8C3BBE5E1A,
        0x7ECA04EBAF4A5EEA, 0x0543C37757F08D9A, 0xDB7490C75AB5026E, 0xD87343E6464BC959,
    ],
    1: [
        0xCFC5D07F6F03C29B, 0xBF424132963FE08D, 0x19A37D5757AAF520, 0xBF08119F05CD56D6,
        0x2F47184B86186FA4, 0x97299FCAE7202345, 0xFCA3C79508F41507, 0x85FEA5C90363F221,
    ],
    2**64 - 1: [
        0x56CCF8CE948E27B2, 0xE68588432E5A5B90, 0xE3E9B5A48119CA8B, 0x460F19495532AE73,
        0xA7D62040EA9263E1, 0x66F1FB2AC9402C14, 0xE243B47DE8A73F68, 0x7C93FDAB4C7B3DFF,
    ],
}


class ScalarOracle(Xoshiro256pp):
    """The same generator with every word drawn on demand by the scalar loop."""

    def _words(self, n):
        words, self._state = _scalar_words(self._state, n)
        return np.array(words, dtype=np.uint64)

    def u64(self):
        return int(self._words(1)[0])


def draw(rng, op, n):
    """One call of ``op`` sized by n, as comparable bytes or values."""
    if op == "u64":
        return [rng.u64() for _ in range(min(n, 300))]
    if op == "below":
        return [rng.below(b) for b in range(1, min(n, 300) + 1)]
    if op == "u64s":
        return rng.u64s(n)
    if op == "shuffle":
        items = list(range(min(n, 300)))
        rng.shuffle(items)
        return items
    if op == "orthogonal":
        return rng.orthogonal(1 + n % 12).tobytes()
    return getattr(rng, op)(n).tobytes()  # normals, uniforms


def test_splitmix64_reference_vector():
    # First output for seed 0, from the reference implementation.
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF


def test_xoshiro_reference_outputs_from_raw_state():
    rng = Xoshiro256pp(0)
    rng._s = [1, 2, 3, 4]
    # First two outputs of xoshiro256++ for state (1,2,3,4), derived by hand
    # from the update rule.
    assert rng.u64() == 41943041
    assert rng.u64() == 58720359


def test_same_seed_same_stream():
    a = Xoshiro256pp(12345)
    b = Xoshiro256pp(12345)
    assert a.u64s(100) == b.u64s(100)
    assert np.array_equal(a.normals(51), b.normals(51))


def test_different_seeds_differ():
    assert Xoshiro256pp(1).u64s(8) != Xoshiro256pp(2).u64s(8)


def test_uniform_range_and_moments():
    u = Xoshiro256pp(7).uniforms(20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normals_moments():
    z = Xoshiro256pp(11).normals(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_below_bounds_and_rejects_bad_bound():
    rng = Xoshiro256pp(3)
    draws = [rng.below(13) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 12
    with pytest.raises(ValueError):
        rng.below(0)


def test_shuffle_is_permutation_and_deterministic():
    a = list(range(50))
    b = list(range(50))
    Xoshiro256pp(9).shuffle(a)
    Xoshiro256pp(9).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(50))
    assert a != list(range(50))


def test_orthogonal_is_orthogonal():
    q = Xoshiro256pp(5).orthogonal(8)
    np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-12)


def test_derive_seed_varies_by_tag():
    s = {derive_seed(42, t) for t in range(32)}
    assert len(s) == 32
    assert derive_seed(42, 3, 1) != derive_seed(42, 1, 3)
    assert derive_seed(42, 5) == derive_seed(42, 5)


@pytest.mark.parametrize("seed", sorted(FIRST_WORDS))
def test_first_words_are_pinned(seed):
    assert Xoshiro256pp(seed).u64s(8) == FIRST_WORDS[seed]


@pytest.mark.parametrize("case", range(200))
def test_block_path_matches_scalar_loop(case):
    # random seed and request pattern; sizes straddle the lane length m, the
    # first block sizes and the 65,536-word cap, and the calls interleave
    pick = np.random.default_rng(case)
    seed = int(pick.integers(0, 2**63)) * 2 + int(pick.integers(0, 2))
    fast, slow = Xoshiro256pp(seed), ScalarOracle(seed)
    ops = ["u64", "below", "u64s", "normals", "uniforms", "orthogonal", "shuffle"]
    for _ in range(6):
        op = ops[pick.integers(len(ops))]
        n = int(pick.choice(LARGE if pick.random() < 0.05 else SIZES))
        assert draw(fast, op, n) == draw(slow, op, n), (op, n)
    assert fast.u64s(8) == slow.u64s(8)


def test_long_stream_matches_scalar_loop():
    # request sizes cycle until the stream is past three full 65,536-word blocks
    start = Xoshiro256pp(2024)._s
    rng = Xoshiro256pp(2024)
    words = []
    while len(words) < 4 * 65536:
        for n in SIZES:
            words += rng.u64s(n)
            assert len(rng._buf) <= 65536
    assert words == _scalar_words(start, len(words))[0]


def test_assigning_state_mid_stream_takes_effect():
    rng = Xoshiro256pp(0)
    rng.u64s(5000)  # mid-way through a lane block
    rng._s = [1, 2, 3, 4]
    assert rng.u64() == 41943041
    assert rng.u64() == 58720359
    rng.normals(3)
    rng._s = Xoshiro256pp(1)._s
    assert rng.u64s(8) == FIRST_WORDS[1]


def test_state_reads_after_the_prefetched_block():
    start = Xoshiro256pp(5)._s
    rng = Xoshiro256pp(5)
    rng.u64()
    # the first block holds 64 words
    assert rng._s == _scalar_words(start, 64)[1]
