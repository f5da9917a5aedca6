"""Deterministic PRNG: xoshiro256++ seeded through splitmix64.

Every random draw in dataset generation, parameter initialization, and epoch
shuffling comes from this generator so that artifacts are byte-reproducible
across platforms. The draw order is part of each caller's format contract:
inserting or removing a draw changes downstream bytes.

Words are served from a prefetched block of the stream. The first block
holds 64 words and each refill doubles the size, up to 65,536 words (512 KB
of uint64). A block of fewer than 16 lanes of m = 256 words comes from the
scalar recurrence (``_scalar_words``); below that size numpy's per-call cost
outweighs the Python loop. A larger block of W lanes is built in numpy:
xoshiro's state update is linear over GF(2), so m steps are one fixed bit
matrix, the jump T^m. Lane 0 starts at the current state and each next lane
at the previous start times T^m; all W lanes then step m times at once, and
the [W, m] outputs read in row order are the stream, word for word. T^m is
cached once per process as a [256, 4] uint64 table (8 KB): row j is the state
m steps after the state with only bit j set.

``_s`` is the state after the last prefetched word, so it runs ahead of the
words served so far by what is left of the block. Assigning ``_s`` sets the
state, discards the block and restarts the block sizes at 64 words; the next
draw is the first word after that state.

Reference sequences: https://prng.di.unimi.it/ (Blackman & Vigna); the jump
as a bit matrix: Blackman & Vigna, arXiv 1805.01407, and Haramoto et al.,
INFORMS J. Computing 2008.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_LANE_STEPS = 256  # m: words per lane, the jump T^m
_MIN_LANES = 16  # smaller blocks come from the scalar loop
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 16


def _mix(z: int) -> int:
    """splitmix64 output function."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def splitmix64(seed: int):
    """Infinite stream of 64-bit words from a splitmix64 state."""
    state = seed & _MASK
    while True:
        state = (state + _GOLDEN) & _MASK
        yield _mix(state)


def derive_seed(root: int, *tags: int) -> int:
    """Derive a child seed from a root seed and integer tags.

    Folds each tag into a splitmix64 walk; stable across versions, so child
    streams (per-epoch shuffles, split selection) are reproducible.
    """
    x = root & _MASK
    for t in tags:
        x = _mix((x ^ (t & _MASK)) + _GOLDEN & _MASK)
    return x


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _scalar_words(state: list[int], n: int) -> tuple[list[int], list[int]]:
    """The next n words after ``state`` by the scalar recurrence, and the state after them."""
    # Unrolled locals: this loop is the whole cost of a small block.
    s0, s1, s2, s3 = state
    out = []
    append = out.append
    for _ in range(n):
        append((_rotl((s0 + s3) & _MASK, 23) + s0) & _MASK)
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    return out, [s0, s1, s2, s3]


def _step_lanes(lanes: np.ndarray, steps: int, out: np.ndarray | None = None) -> None:
    """Step every column of the [4, W] uint64 state ``steps`` times in place.

    With ``out`` [W, steps], step j's output word of lane i goes to out[i, j].
    """
    s0, s1, s2, s3 = lanes
    a = np.empty_like(s0)
    b = np.empty_like(s0)
    for j in range(steps):
        if out is not None:
            np.add(s0, s3, out=a)
            np.left_shift(a, 23, out=b)
            a >>= 41
            a |= b
            np.add(a, s0, out=out[:, j])
        np.left_shift(s1, 17, out=b)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= b
        np.left_shift(s3, 45, out=a)
        s3 >>= 19
        s3 |= a


@cache
def _jump_table() -> np.ndarray:
    """T^m as [256, 4] uint64: row j is the state m steps after bit j alone."""
    basis = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    basis[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    _step_lanes(basis, _LANE_STEPS)
    table = np.ascontiguousarray(basis.T)
    table.flags.writeable = False  # shared by every generator in the process
    return table


def _lane_words(state: list[int], lanes: int) -> tuple[np.ndarray, list[int]]:
    """The next lanes·m words after ``state``, stepped in lanes, and the state after them."""
    table = _jump_table()
    starts = np.empty((lanes, 4), dtype="<u8")
    starts[0] = state
    for i in range(1, lanes):
        bits = np.unpackbits(starts[i - 1].view(np.uint8), bitorder="little").view(bool)
        np.bitwise_xor.reduce(table[bits], axis=0, out=starts[i])
    lane_state = np.ascontiguousarray(starts.T)
    out = np.empty((lanes, _LANE_STEPS), dtype=np.uint64)
    _step_lanes(lane_state, _LANE_STEPS, out)
    # the last lane ends where the block ends
    return out.reshape(-1), [int(w) for w in lane_state[:, -1]]


class Xoshiro256pp:
    """xoshiro256++ with state expanded from a 64-bit seed via splitmix64."""

    def __init__(self, seed: int):
        sm = splitmix64(seed)
        self._s = [next(sm) for _ in range(4)]

    @property
    def _s(self) -> list[int]:
        return list(self._state)

    @_s.setter
    def _s(self, state) -> None:
        self._state = [int(w) & _MASK for w in state]
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._block = _FIRST_BLOCK

    def _refill(self) -> None:
        n = self._block
        self._block = min(2 * n, _MAX_BLOCK)
        if n < _MIN_LANES * _LANE_STEPS:
            words, self._state = _scalar_words(self._state, n)
            self._buf = np.array(words, dtype=np.uint64)
        else:
            self._buf, self._state = _lane_words(self._state, n // _LANE_STEPS)
        self._pos = 0

    def _words(self, n: int) -> np.ndarray:
        """The next n words of the stream as uint64."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        parts = []
        while n > len(self._buf) - self._pos:
            parts.append(self._buf[self._pos :])
            n -= len(parts[-1])
            self._refill()
        parts.append(self._buf[self._pos : self._pos + n])
        self._pos += n
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def u64(self) -> int:
        if self._pos == len(self._buf):
            self._refill()
        self._pos += 1
        return int(self._buf[self._pos - 1])

    def u64s(self, n: int) -> list[int]:
        return self._words(n).tolist()

    def uniforms(self, n: int) -> np.ndarray:
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive u64 pairs.

        Each pair (w1, w2) yields z0 = r cos(theta), z1 = r sin(theta) with
        r = sqrt(-2 ln u1), u1 = ((w1 >> 11) + 1) * 2^-53 in (0, 1], and
        theta = 2 pi u2, u2 = (w2 >> 11) * 2^-53. Odd n discards the last z1.
        """
        pairs = (n + 1) // 2
        words = self._words(2 * pairs).reshape(pairs, 2)
        u1 = ((words[:, 0] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (words[:, 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via unbiased rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.u64()
            if w < threshold:
                return w % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def orthogonal(self, dim: int) -> np.ndarray:
        """Random orthogonal matrix: QR of a Gaussian matrix, sign-fixed.

        Columns are scaled so diag(R) > 0, making the factorization unique
        and the output deterministic for a given stream position.
        """
        g = self.normals(dim * dim).reshape(dim, dim)
        q, r = np.linalg.qr(g)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs[np.newaxis, :]
