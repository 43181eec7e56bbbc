"""Reproducible 64-bit random streams for parallel trials.

The generator is xorshift64* with the state derived from (seed, stream_index)
by two rounds of the splitmix64 finalizer, so any trial can be regenerated in
isolation and trials may run in any order or in parallel. All arithmetic is
64-bit modular integer work plus IEEE doubles, hence identical across
platforms. Normal variates come from the Box-Muller transform with the spare
value cached.

Exact derivation, one number at a time, for reimplementation elsewhere:

    state = mix64(mix64((seed + (stream_index + 1) * 0x9E3779B97F4A7C15) mod 2^64))
    if state == 0: state = 0x9E3779B97F4A7C15

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
              z *= 0x94D049BB133111EB; z ^= z >> 31      (all mod 2^64)

    word:    state ^= state >> 12; state ^= state << 25; state ^= state >> 27;
             word = (state * 0x2545F4914F6CDD1D) mod 2^64
    uniform = (word >> 11) * 2^-53                         in [0, 1)
    bit     = word >> 63
    normal:  u1 = 1 - uniform in (0, 1]; u2 = uniform;
             r = sqrt(-2 ln u1); r*cos(2 pi u2), then the spare r*sin(2 pi u2)

Draws are made a block at a time, and the streams are the same as drawing
one number after another as above. Without the output multiply the
xorshift64 step T is linear over GF(2), so T^t(s) is the XOR of T^t(e_j) over
the set bits j of s (the jump-ahead of Haramoto et al. 2008). A draw of n
numbers splits into lanes of ``_BLOCK`` consecutive states, finds every lane's
start with one masked XOR-reduce of the cached rows T^(k * _BLOCK)(e_j), steps
all lanes in lockstep on uint64 arrays and reads them back in stream order.
Box-Muller takes its logarithms, cosines and sines from ``math``, whose last
bit can differ from numpy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULTIPLIER = 0x2545F4914F6CDD1D
_TWO_TO_MINUS_53 = 2.0**-53
_BLOCK = 8  # consecutive states per lane
_LANES = 512  # cached jump rows (256 KiB); longer draws take several passes
_BITS = np.arange(64, dtype=np.uint64)


def _mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _xorshift(x: np.ndarray) -> np.ndarray:
    """One xorshift64 step of every state in the uint64 array ``x``, in place."""
    x ^= x >> 12
    x ^= x << 25
    x ^= x >> 27
    return x


@cache
def _jump() -> np.ndarray:
    """``rows[k, j] = T^(k * _BLOCK)(1 << j)``, built by the process's first draw of two lanes or more.

    Each row is the one before it stepped ``_BLOCK`` times, all 64 columns at once.
    """
    rows = np.empty((_LANES, 64), dtype=np.uint64)
    rows[0] = np.left_shift(np.uint64(1), _BITS)
    for k in range(1, _LANES):
        rows[k] = rows[k - 1]
        for _ in range(_BLOCK):
            _xorshift(rows[k])
    return rows


@dataclass
class RngStream:
    """Deterministic stream of draws identified by (seed, stream_index)."""

    seed: int
    stream_index: int = 0
    _state: int = field(init=False, repr=False)
    _spare_normal: float | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        z = (self.seed + (self.stream_index + 1) * _GAMMA) & _MASK
        z = _mix64(_mix64(z))
        self._state = z if z != 0 else _GAMMA

    def _states(self, n: int) -> np.ndarray:
        """The next ``n`` xorshift64 states as uint64, in stream order."""
        out = np.empty(n, dtype=np.uint64)
        for first in range(0, n, _LANES * _BLOCK):
            count = min(n - first, _LANES * _BLOCK)
            lanes = -(-count // _BLOCK)
            x = np.array([self._state], dtype=np.uint64)
            if lanes > 1:  # lane k starts _BLOCK * k states on
                x = np.bitwise_xor.reduce(_jump()[:lanes, (x >> _BITS) & 1 == 1], axis=1)
            block = np.empty((min(count, _BLOCK), lanes), dtype=np.uint64)
            for row in block:
                row[:] = _xorshift(x)
            out[first : first + count] = block.T.ravel()[:count]
            self._state = int(out[first + count - 1])
        return out

    def advance(self, n: int) -> None:
        """Move the stream on as a draw of ``n`` uniforms or bits would, without making them.

        The state jumps by whole lanes, at most ``_LANES - 1`` of them per masked
        XOR-reduce of one cached row, then takes the last ``n % _BLOCK`` steps one by one.
        """
        lanes, rest = divmod(n, _BLOCK)
        state = self._state
        while lanes:
            row = min(lanes, _LANES - 1)
            bits = (np.array([state], dtype=np.uint64) >> _BITS) & 1 == 1
            state = int(np.bitwise_xor.reduce(_jump()[row, bits]))
            lanes -= row
        for _ in range(rest):
            state ^= state >> 12
            state ^= (state << 25) & _MASK
            state ^= state >> 27
        self._state = state

    def _words(self, n: int) -> np.ndarray:
        """The next ``n`` 64-bit outputs as uint64."""
        return self._states(n) * np.uint64(_MULTIPLIER)

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniform doubles in [0, 1), each from the top 53 bits of a word."""
        return (self._words(n) >> 11).astype(np.float64) * _TWO_TO_MINUS_53

    def bits(self, n: int) -> np.ndarray:
        """The next ``n`` fair bits (the top bit of each word) as uint64."""
        return self._words(n) >> 63

    def normals(self, n: int) -> np.ndarray:
        """The next ``n`` standard normals by Box-Muller; two uniforms per pair, spare cached."""
        out = np.empty(n)
        head = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal, head = self._spare_normal, None, 1
        pairs = (n - head + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = (1.0 - u[0::2]).tolist()  # (0, 1], keeps the log finite
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1), np.float64, pairs))
        theta = (2.0 * math.pi * u[1::2]).tolist()
        values = np.empty(2 * pairs)
        values[0::2] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)
        values[1::2] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)
        out[head:] = values[: n - head]
        if (n - head) % 2:
            self._spare_normal = float(values[-1])
        return out

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct integers from range(n), by partial Fisher-Yates shuffle."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        picks, moved = [], {}  # moved[j]: what the shuffle left at j, for the displaced j only
        for i, u in enumerate(self.uniforms(k).tolist()):
            j = i + int(u * (n - i))
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return picks
