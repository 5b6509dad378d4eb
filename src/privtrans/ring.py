"""Fixed-point arithmetic over the ring Z_{2^64}.

Values are embedded two's-complement style: a real number x is encoded as
round(x * 2**frac_bits) mod 2**64. All tensors store unsigned 64-bit
words, so the native uint64 wraparound is the ring reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The nonpoly stages (securefn, fixedfn) carry values at 16 bits.
MAX_VALUE_BITS = 16


@dataclass(frozen=True)
class RingParams:
    """Fixed-point geometry on Z_{2^64}.

    value_bits is the width of a decoded value (1 sign + int + frac),
    frac_bits the fraction part.
    """

    value_bits: int = 15
    frac_bits: int = 8

    def __post_init__(self):
        for name in ("value_bits", "frac_bits"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.value_bits > MAX_VALUE_BITS:
            raise ValueError(
                f"value_bits={self.value_bits} exceeds {MAX_VALUE_BITS}, "
                "the width the nonpoly stages carry"
            )
        if not (1 <= self.frac_bits < self.value_bits):
            raise ValueError("frac_bits must be in [1, value_bits)")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    # -- scalar embedding ------------------------------------------------

    def to_signed(self, arr: np.ndarray) -> np.ndarray:
        """Ring words as signed ints in [-2^63, 2^63): an int64 view."""
        return np.ascontiguousarray(arr, dtype=np.uint64).view(np.int64)

    def from_signed(self, arr: np.ndarray) -> np.ndarray:
        return np.array(arr, dtype=np.int64).view(np.uint64)

    def encode(self, x) -> np.ndarray:
        """round(x * 2^frac_bits), embedded in the ring.

        Rounds half away from zero so encode(1.5) with frac_bits=8 is
        exactly 384 and encode(-1.0) is 2^64 - 256.
        """
        x = np.asarray(x, dtype=np.float64)
        scaled = x * self.scale
        q = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
        return self.from_signed(q.astype(np.int64))

    def decode(self, arr: np.ndarray) -> np.ndarray:
        """Signed interpretation divided by the scale."""
        return self.to_signed(arr).astype(np.float64) / self.scale

    def value_limit(self) -> int:
        """Largest encoded magnitude after saturation: 2^(value_bits-1)-1."""
        return (1 << (self.value_bits - 1)) - 1


DEFAULT_RING = RingParams()


class FixedTensor:
    """A rows x cols matrix of ring elements (row-major uint64 words)."""

    __slots__ = ("data", "ring")

    def __init__(self, data: np.ndarray, ring: RingParams = DEFAULT_RING):
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError("FixedTensor is strictly 2-D")
        self.data = data.astype(np.uint64)  # always a private copy
        self.ring = ring

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_float(cls, x, ring: RingParams = DEFAULT_RING) -> "FixedTensor":
        return cls(ring.encode(np.atleast_2d(x)), ring)

    @classmethod
    def from_signed(cls, x, ring: RingParams = DEFAULT_RING) -> "FixedTensor":
        return cls(ring.from_signed(np.atleast_2d(np.asarray(x))), ring)

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: RingParams = DEFAULT_RING) -> "FixedTensor":
        return cls(np.zeros((rows, cols), dtype=np.uint64), ring)

    # -- views -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def signed(self) -> np.ndarray:
        return self.ring.to_signed(self.data)

    def to_float(self) -> np.ndarray:
        return self.ring.decode(self.data)

    def copy(self) -> "FixedTensor":
        return FixedTensor(self.data.copy(), self.ring)

    def _same_ring(self, other: "FixedTensor") -> None:
        if self.ring != other.ring:
            raise ValueError("ring params mismatch")

    # -- ring arithmetic (all exact mod 2^64) ------------------------------

    def __add__(self, other: "FixedTensor") -> "FixedTensor":
        self._same_ring(other)
        return FixedTensor(self.data + other.data, self.ring)

    def __sub__(self, other: "FixedTensor") -> "FixedTensor":
        self._same_ring(other)
        return FixedTensor(self.data - other.data, self.ring)

    def __neg__(self) -> "FixedTensor":
        return FixedTensor(np.uint64(0) - self.data, self.ring)

    def scalar_mul(self, k: int) -> "FixedTensor":
        """Multiply every element by a ring scalar (e.g. an encoded constant)."""
        return FixedTensor(self.data * np.uint64(k & 0xFFFFFFFFFFFFFFFF), self.ring)

    def lshift(self, bits: int) -> "FixedTensor":
        """Exact rescale up by 2^bits (used to align fixed-point scales)."""
        return FixedTensor(self.data << np.uint64(bits), self.ring)

    def transpose(self) -> "FixedTensor":
        return FixedTensor(self.data.T.copy(), self.ring)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FixedTensor)
            and self.ring == other.ring
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"FixedTensor({self.rows}x{self.cols})"


def mat_mul(a: FixedTensor, b: FixedTensor) -> FixedTensor:
    """Ring matrix product a @ b mod 2^64.

    uint64 matmul wraps mod 2^64 natively, so associativity and
    distribution hold exactly because the ring does.
    """
    a._same_ring(b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return FixedTensor(a.data @ b.data, a.ring)

