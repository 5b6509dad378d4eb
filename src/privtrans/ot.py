"""1-out-of-2 oblivious transfer: IKNP extension over 128 base OTs.

`run_ot` hands the receiver one of two uint64 messages per choice bit.
The sender (the client, which garbles) holds the message pairs x^0, x^1;
the receiver (the server, which evaluates) holds the m choice bits r.
Each call is semi-honest IKNP OT extension (Ishai-Kilian-Nissim-Petrank,
CRYPTO 2003) and runs its own KAPPA = 128 base OTs, so no state outlives
a call:

1. Base OTs, roles reversed. The receiver is the base-OT sender of
   KAPPA pairs of 16-byte seeds (k_i^0, k_i^1); the sender picks with
   its KAPPA-bit string s and learns k_i^(s_i).
2. Columns. With G = SHAKE-128, the receiver keeps t^i = G(k_i^0) and
   sends u^i = t^i ^ G(k_i^1) ^ r. The sender forms
   q^i = G(k_i^(s_i)) ^ s_i * u^i, which equals t^i ^ s_i * r.
3. Rows. Transposed (np.unpackbits / np.packbits), row j reads
   q_j = t_j ^ r_j * s. The sender sends y_j^b = x_j^b ^ H(j, q_j ^ b * s)
   for b = 0, 1, and the receiver unmasks y_j^(r_j) with H(j, t_j). H is
   SHA-256 with the index j as a tweak. The other pad needs t_j ^ s, and
   the receiver does not know s.

Bytes moved per call of m transfers: the sender sends KAPPA group
elements and 16*m (two masked messages a transfer); the receiver one
group element, KAPPA*32 (its encrypted seed pairs) and KAPPA*ceil(m/8)
(the columns u).

The base OTs are simplest-OT style over one MODP group, `TOY_256`, a
256-bit toy safe prime (tests check primality): per transfer the base-OT
receiver computes g^b and A^b, the base-OT sender B^a, and the seeds are
one-time-padded with SHA-256 derived keys.

The base-OT receiver's two exponentiations have a fixed base (g for the
whole group, the sender's A for one call) and fresh 256-bit exponents,
so they read precomputed powers base^(d * 256^k) from a `FixedBase`
table: 32 multiplications each instead of a square-and-multiply. At 128
transfers a call the table for A pays for itself. The sender's B^a has
a new base per transfer and stays on `pow`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

@dataclass(frozen=True)
class ModpGroup:
    bits: int
    p: int
    g: int = 2

    @property
    def element_bytes(self) -> int:
        return (self.bits + 7) // 8


# 256-bit safe prime for demonstration-scale sessions only: far too small for
# real DH security, but ~13x faster per transfer than the standard 1536-bit
# MODP prime, which matters while every OT call runs its own 128 base OTs.
# g=4 generates the prime-order subgroup.
_TOY_256_HEX = """
B2AE5573 5E6DD44A 8075DE6A 20157C47 7E63804C 1DE29F99 36BE9D21 B071AFE3
"""

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
def _generator_table() -> FixedBase:
    return FixedBase(TOY_256.g, TOY_256.p)


KAPPA = 128  # base OTs per call, and the bit length of the rows of q and t
SEED_BYTES = 16  # one base-OT message: a seed of G


def _hash(data: bytes, index: int, size: int) -> bytes:
    """SHA-256 of data with a 4-byte index tweak, cut to size bytes."""
    return hashlib.sha256(data + index.to_bytes(4, "little")).digest()[:size]


def _kdf(point: int, index: int) -> np.ndarray:
    """The base OT's one-time pad for the seed of transfer index."""
    raw = _hash(point.to_bytes(TOY_256.element_bytes, "little"), index, SEED_BYTES)
    return np.frombuffer(raw, dtype=np.uint8)


@dataclass
class OTSender:
    """The base-OT sender (the extension's receiver); holds its ephemeral
    secret across the two message flows."""

    a: int
    big_a: int

    @classmethod
    def setup(cls, rng: np.random.Generator) -> "OTSender":
        a = _exponent(rng)
        return cls(a, pow(TOY_256.g, a, TOY_256.p))

    def respond(self, bs: list, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
        """Encrypt each seed pair (m0, m1: (n, SEED_BYTES) uint8) against
        the receiver's points. Returns ciphertext pairs, (n, 2, SEED_BYTES)."""
        p = TOY_256.p
        # choice-1 pads use (B/A)^a = B^a * (A^a)^-1; the inverse is loop
        # invariant
        inv_big_a_pow_a = pow(pow(self.big_a, self.a, p), p - 2, p)
        out = np.empty((len(bs), 2, SEED_BYTES), dtype=np.uint8)
        for i, b in enumerate(bs):
            if not 1 < b < p - 1:
                raise OTCheatError("receiver point out of range")
            k_b = pow(b, self.a, p)
            out[i, 0] = m0[i] ^ _kdf(k_b, i)
            out[i, 1] = m1[i] ^ _kdf(k_b * inv_big_a_pow_a % p, i)
        return out


@dataclass
class OTReceiver:
    """The base-OT receiver (the extension's sender)."""

    choices: np.ndarray
    secrets: list

    @classmethod
    def respond(
        cls, big_a: int, choices: np.ndarray, rng: np.random.Generator
    ) -> tuple["OTReceiver", list]:
        """Choice c=0 sends g^b, c=1 sends A*g^b; returns the points."""
        p = TOY_256.p
        if not 1 < big_a < p - 1:
            raise OTCheatError("sender point out of range")
        g_table = _generator_table()
        points = []
        secrets = []
        for c in np.asarray(choices).ravel():
            b = _exponent(rng)
            point = g_table.pow(b)
            if c:
                point = point * big_a % p
            points.append(point)
            secrets.append(b)
        return cls(np.asarray(choices).ravel(), secrets), points

    def receive(self, big_a: int, cipher_pairs: np.ndarray) -> np.ndarray:
        """The chosen seed of every transfer, (n, SEED_BYTES) uint8."""
        a_table = FixedBase(big_a, TOY_256.p)
        out = np.empty((len(self.secrets), SEED_BYTES), dtype=np.uint8)
        for i, (c, b) in enumerate(zip(self.choices, self.secrets)):
            out[i] = cipher_pairs[i, int(c)] ^ _kdf(a_table.pow(b), i)
        return out


def _expand(seeds: np.ndarray, nbytes: int) -> np.ndarray:
    """G: each seed stretched to nbytes by SHAKE-128, (len(seeds), nbytes) uint8."""
    out = b"".join(hashlib.shake_128(k.tobytes()).digest(nbytes) for k in seeds)
    return np.frombuffer(out, dtype=np.uint8).reshape(len(seeds), nbytes)


def _columns(seeds0: np.ndarray, seeds1: np.ndarray, r: np.ndarray):
    """The receiver's columns: t^i = G(k_i^0), kept, and
    u^i = t^i ^ G(k_i^1) ^ r, sent; both (KAPPA, ceil(m/8)) packed bits."""
    packed = np.packbits(r)
    t = _expand(seeds0, len(packed))
    return t, t ^ _expand(seeds1, len(packed)) ^ packed


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """Transpose KAPPA packed columns of m bits into m packed rows of KAPPA bits."""
    return np.packbits(np.unpackbits(cols, axis=1, count=m).T, axis=1)


def _row_pads(rows: np.ndarray) -> np.ndarray:
    """H(j, row j) for every row j, as uint64 pads."""
    buf, w = rows.tobytes(), rows.shape[1]
    pads = b"".join(_hash(buf[j * w : (j + 1) * w], j, 8) for j in range(len(rows)))
    return np.frombuffer(pads, dtype="<u8")


def run_ot(
    m0: np.ndarray,
    m1: np.ndarray,
    choices: np.ndarray,
    rng_sender: np.random.Generator,
    rng_receiver: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """In-process IKNP extension of the whole batch, base OTs included;
    returns (labels, bytes moved). Each party draws only from its own
    generator: the sender its string s and base-OT exponents, the receiver
    its base-OT secret and seed pairs."""
    r = np.asarray(choices, dtype=np.uint8).ravel()
    m = len(r)
    # base OTs, roles reversed: the receiver sends seed pairs, the sender picks by s
    base_sender = OTSender.setup(rng_receiver)
    seeds = np.frombuffer(rng_receiver.bytes(2 * KAPPA * SEED_BYTES), dtype=np.uint8)
    seeds0, seeds1 = seeds.reshape(2, KAPPA, SEED_BYTES)
    s = rng_sender.integers(0, 2, KAPPA, dtype=np.uint8)
    base_receiver, points = OTReceiver.respond(base_sender.big_a, s, rng_sender)
    sealed = base_sender.respond(points, seeds0, seeds1)
    chosen = base_receiver.receive(base_sender.big_a, sealed)
    # the extension: the receiver sends u, the sender both masked messages
    t, u = _columns(seeds0, seeds1, r)
    q_rows = _rows(_expand(chosen, u.shape[1]) ^ (s[:, None] * u), m)
    y = np.stack([m0 ^ _row_pads(q_rows), m1 ^ _row_pads(q_rows ^ np.packbits(s))], axis=1)
    got = y[np.arange(m), r] ^ _row_pads(_rows(t, m))
    moved = TOY_256.element_bytes * (1 + KAPPA) + sealed.nbytes + u.nbytes + y.nbytes
    return got, moved
