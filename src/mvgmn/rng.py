"""Deterministic PRNG: xoshiro256++ seeded through splitmix64.

Every random draw in dataset generation, parameter initialization, and epoch
shuffling comes from this generator so that artifacts are byte-reproducible
across platforms. The draw order is part of each caller's format contract:
inserting or removing a draw changes downstream bytes.

Reference sequences: https://prng.di.unimi.it/ (Blackman & Vigna).
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


class Xoshiro256pp:
    """xoshiro256++ with state expanded from a 64-bit seed via splitmix64."""

    def __init__(self, seed: int):
        sm = splitmix64(seed)
        self._s = [next(sm) for _ in range(4)]

    def u64(self) -> int:
        return self.u64s(1)[0]

    def u64s(self, n: int) -> list[int]:
        # Unrolled locals: this loop dominates dataset generation time.
        s0, s1, s2, s3 = self._s
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
        self._s = [s0, s1, s2, s3]
        return out

    def uniforms(self, n: int) -> np.ndarray:
        words = np.array(self.u64s(n), dtype=np.uint64)
        return ((words >> np.uint64(11)).astype(np.float64)) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive u64 pairs.

        Each pair (w1, w2) yields z0 = r cos(theta), z1 = r sin(theta) with
        r = sqrt(-2 ln u1), u1 = ((w1 >> 11) + 1) * 2^-53 in (0, 1], and
        theta = 2 pi u2, u2 = (w2 >> 11) * 2^-53. Odd n discards the last z1.
        """
        pairs = (n + 1) // 2
        words = np.array(self.u64s(2 * pairs), dtype=np.uint64).reshape(pairs, 2)
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
