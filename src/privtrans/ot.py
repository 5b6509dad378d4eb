"""1-out-of-2 oblivious transfer (simplest-OT style) over MODP groups.

The receiver holds choice bits; the sender holds uint64 message pairs (the
wire labels). Per transfer the receiver computes g^b and A^b, the sender
B^a; no OT extension. Messages are one-time-padded with SHA-256 derived
keys.

Groups: a 256-bit toy safe prime (`TOY_256`, the default, for speed) and
the standard 1024-bit and 1536-bit MODP primes; tests check primality.
All sizes share every code path.

The receiver's two exponentiations have a fixed base (g for the whole
group, the sender's A for one batch) and fresh 256-bit exponents, so they
read precomputed powers base^(d * 256^k) from a `FixedBase` table: 32
multiplications each instead of a square-and-multiply. The sender's B^a
has a new base per transfer and stays on `pow`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MODP_1024_HEX = """
FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1 29024E08
8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD EF9519B3 CD3A431B
302B0A6D F25F1437 4FE1356D 6D51C245 E485B576 625E7EC6 F44C42E9
A637ED6B 0BFF5CB6 F406B7ED EE386BFB 5A899FA5 AE9F2411 7C4B1FE6
49286651 ECE65381 FFFFFFFF FFFFFFFF
"""

_MODP_1536_HEX = """
FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1 29024E08
8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD EF9519B3 CD3A431B
302B0A6D F25F1437 4FE1356D 6D51C245 E485B576 625E7EC6 F44C42E9
A637ED6B 0BFF5CB6 F406B7ED EE386BFB 5A899FA5 AE9F2411 7C4B1FE6
49286651 ECE45B3D C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8
FD24CF5F 83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
670C354E 4ABC9804 F1746C08 CA237327 FFFFFFFF FFFFFFFF
"""


@dataclass(frozen=True)
class ModpGroup:
    bits: int
    p: int
    g: int = 2

    @property
    def element_bytes(self) -> int:
        return (self.bits + 7) // 8


# 256-bit safe prime for demonstration-scale sessions only: far too small for
# real DH security, but ~13x faster per transfer, which matters when a toy
# transformer block needs tens of thousands of base OTs. g=4 generates the
# prime-order subgroup.
_TOY_256_HEX = """
B2AE5573 5E6DD44A 8075DE6A 20157C47 7E63804C 1DE29F99 36BE9D21 B071AFE3
"""

MODP_1024 = ModpGroup(1024, int(_MODP_1024_HEX.replace(" ", "").replace("\n", ""), 16))
MODP_1536 = ModpGroup(1536, int(_MODP_1536_HEX.replace(" ", "").replace("\n", ""), 16))
TOY_256 = ModpGroup(256, int(_TOY_256_HEX.replace(" ", "").replace("\n", ""), 16), g=4)


class OTCheatError(RuntimeError):
    pass


_EXP_BYTES = 32


def _exponent(rng: np.random.Generator) -> int:
    # 256-bit ephemeral exponents (short-exponent DH practice)
    return int.from_bytes(rng.bytes(_EXP_BYTES), "little") | (1 << 255)


class FixedBase:
    """Powers of one base mod p for exponents below 2^256, 8 bits a window:
    row k holds base^(d * 256^k) for every byte value d."""

    def __init__(self, base: int, p: int):
        self.p = p
        self.rows = []
        for _ in range(_EXP_BYTES):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * base % p)
            self.rows.append(row)
            base = row[-1] * base % p

    def pow(self, e: int) -> int:
        """base^e mod p; an exponent outside [0, 2^256) raises OverflowError."""
        out = 1
        for row, d in zip(self.rows, e.to_bytes(_EXP_BYTES, "little")):
            if d:
                out = out * row[d] % self.p
        return out


@lru_cache(maxsize=None)
def _generator_table(group: ModpGroup) -> FixedBase:
    return FixedBase(group.g, group.p)


def _kdf(point: int, group: ModpGroup, index: int) -> int:
    raw = point.to_bytes(group.element_bytes, "little") + index.to_bytes(4, "little")
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


@dataclass
class OTSender:
    """Holds the sender's ephemeral secret across the two message flows."""

    group: ModpGroup
    a: int
    big_a: int

    @classmethod
    def setup(cls, group: ModpGroup, rng: np.random.Generator) -> "OTSender":
        a = _exponent(rng)
        big_a = pow(group.g, a, group.p)
        return cls(group, a, big_a)

    def respond(self, bs: list, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
        """Encrypt each message pair against the receiver's points. Returns
        ciphertext pairs, shape (n, 2) uint64."""
        p = self.group.p
        # choice-1 pads use (B/A)^a = B^a * (A^a)^-1; the inverse is loop
        # invariant
        inv_big_a_pow_a = pow(pow(self.big_a, self.a, p), p - 2, p)
        out = np.zeros((len(bs), 2), dtype=np.uint64)
        for i, b in enumerate(bs):
            if not 1 < b < p - 1:
                raise OTCheatError("receiver point out of range")
            k_b = pow(b, self.a, p)
            k0 = _kdf(k_b, self.group, i)
            k1 = _kdf(k_b * inv_big_a_pow_a % p, self.group, i)
            out[i, 0] = np.uint64(int(m0[i]) ^ k0)
            out[i, 1] = np.uint64(int(m1[i]) ^ k1)
        return out


@dataclass
class OTReceiver:
    group: ModpGroup
    choices: np.ndarray
    secrets: list

    @classmethod
    def respond(
        cls, group: ModpGroup, big_a: int, choices: np.ndarray, rng: np.random.Generator
    ) -> tuple["OTReceiver", list]:
        """Choice c=0 sends g^b, c=1 sends A*g^b; returns the points."""
        if not 1 < big_a < group.p - 1:
            raise OTCheatError("sender point out of range")
        g_table = _generator_table(group)
        points = []
        secrets = []
        for c in np.asarray(choices).ravel():
            b = _exponent(rng)
            point = g_table.pow(b)
            if c:
                point = point * big_a % group.p
            points.append(point)
            secrets.append(b)
        return cls(group, np.asarray(choices).ravel(), secrets), points

    def receive(self, big_a: int, cipher_pairs: np.ndarray) -> np.ndarray:
        a_table = FixedBase(big_a, self.group.p)
        out = np.zeros(len(self.secrets), dtype=np.uint64)
        for i, (c, b) in enumerate(zip(self.choices, self.secrets)):
            k = _kdf(a_table.pow(b), self.group, i)
            out[i] = np.uint64(int(cipher_pairs[i, int(c)]) ^ k)
        return out


def run_ot(
    m0: np.ndarray,
    m1: np.ndarray,
    choices: np.ndarray,
    group: ModpGroup,
    rng_sender: np.random.Generator,
    rng_receiver: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """In-process execution of the whole batch; returns (labels, bytes moved)."""
    sender = OTSender.setup(group, rng_sender)
    receiver, points = OTReceiver.respond(group, sender.big_a, choices, rng_receiver)
    pairs = sender.respond(points, m0, m1)
    got = receiver.receive(sender.big_a, pairs)
    moved = group.element_bytes * (1 + len(points)) + pairs.nbytes
    return got, moved
