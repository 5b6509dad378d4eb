"""1-out-of-2 oblivious transfer: IKNP extension over one session's 128 base OTs.

`run_ot` hands the receiver one of two uint64 messages per choice bit.
The sender (the client, which garbles) holds the message pairs x^0, x^1;
the receiver (the server, which evaluates) holds the m choice bits r.
Each call is semi-honest IKNP OT extension (Ishai-Kilian-Nissim-Petrank,
CRYPTO 2003). The KAPPA = 128 base OTs run once per session, inside its
first call, and every later call reuses them. Each party keeps its half
of their outcome on its own side: `ExtSender` (the client's) holds s and
the chosen seeds, `ExtReceiver` (the server's) both seed rows.

1. Base OTs, roles reversed, on the session's first call. The receiver
   is the base-OT sender of KAPPA pairs of 16-byte seeds (k_i^0, k_i^1);
   the sender picks with its KAPPA-bit string s and learns k_i^(s_i).
2. Columns. Call c stretches each seed with G_c(k) = SHAKE-128(k || c),
   so every call expands the seeds afresh. The receiver keeps
   t^i = G_c(k_i^0) and sends u^i = t^i ^ G_c(k_i^1) ^ r. The sender
   forms q^i = G_c(k_i^(s_i)) ^ s_i * u^i, which equals t^i ^ s_i * r.
3. Rows. Transposed (8 x 8 bit blocks, a word at a time), row j reads
   q_j = t_j ^ r_j * s. The sender sends y_j^b = x_j^b ^ H(J, q_j ^ b * s)
   for b = 0, 1, and the receiver unmasks y_j^(r_j) with H(J, t_j). The
   tweak J is the transfer's index in the whole session, not just in its
   call: s serves every call, so no two transfers may share a tweak. The
   other pad needs t_j ^ s, and the receiver does not know s.

H is `garble._prf` over the two uint64 words of each row, one array pass
per call. Like the garbling PRF it is a toy ARX mix at the package's toy
security scale (64-bit labels), not the fixed-key-AES tweakable
correlation-robust hash of Guo-Katz-Wang-Yu (IEEE S&P 2020). ALSZ
(Asharov-Lindell-Schneider-Zohner, CCS 2013) is the reference for the
hashing and base-OT costs of IKNP.

Bytes moved: the base OTs, once per session, move KAPPA + 1 group
elements (KAPPA from the sender, one from the receiver) and KAPPA*32 (the
receiver's sealed seed pairs). A call of m transfers moves 16*m from the
sender (two masked messages a transfer) and KAPPA*ceil(m/8) from the
receiver (the columns u).

The base OTs are simplest-OT style over one MODP group, `TOY_256`, a
256-bit toy safe prime (tests check primality): per transfer the base-OT
receiver computes g^b and A^b, the base-OT sender B^a, and the seeds are
one-time-padded with SHA-256 derived keys.

The base-OT receiver's two exponentiations have a fixed base (g for the
whole group, the sender's A for one session) and fresh 256-bit
exponents, so they read precomputed powers base^(d * 256^k) from a
`FixedBase` table: 32 multiplications each instead of a
square-and-multiply. At 128 transfers the table for A pays for itself.
The sender's B^a has a new base per transfer and stays on `pow`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .garble import _prf

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
# MODP prime, which keeps a session's 128 base OTs cheap next to its
# garbling. g=4 generates the prime-order subgroup.
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


KAPPA = 128  # base OTs per session, and the bit length of the rows of q and t
SEED_BYTES = 16  # one base-OT message: a seed of G


def _kdf(point: int, index: int) -> np.ndarray:
    """The base OT's one-time pad for the seed of transfer index: SHA-256 of
    the point with a 4-byte index tweak, cut to SEED_BYTES."""
    data = point.to_bytes(TOY_256.element_bytes, "little") + index.to_bytes(4, "little")
    return np.frombuffer(hashlib.sha256(data).digest()[:SEED_BYTES], dtype=np.uint8)


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


class _ExtSide:
    """One party's side of a session's OT extension: its generator, which
    draws its part of the base OTs, and the session's calls and transfers
    so far, from which it takes each call's index and first tweak."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls = self.transfers = 0

    def next_call(self, m: int) -> tuple[int, np.ndarray]:
        """Count one call of m transfers; returns its index and its
        transfers' session-wide tweaks."""
        call, first = self.calls, self.transfers
        self.calls += 1
        self.transfers += m
        return call, np.arange(first, first + m, dtype=np.uint64)


class ExtSender(_ExtSide):
    """The client's side: after the base OTs, its string s and the seeds
    k_i^(s_i) it chose, which the receiver must never hold."""

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng)
        self.s = self.chosen = None


class ExtReceiver(_ExtSide):
    """The server's side: after the base OTs, both seed rows
    (2, KAPPA, SEED_BYTES)."""

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng)
        self.seeds = None


def _base_ots(sender: ExtSender, receiver: ExtReceiver) -> int:
    """The session's KAPPA base OTs, roles reversed: the receiver sends
    seed pairs, the sender picks by s. Returns the bytes they move."""
    base_sender = OTSender.setup(receiver.rng)
    seeds = np.frombuffer(receiver.rng.bytes(2 * KAPPA * SEED_BYTES), dtype=np.uint8)
    receiver.seeds = seeds.reshape(2, KAPPA, SEED_BYTES)
    sender.s = sender.rng.integers(0, 2, KAPPA, dtype=np.uint8)
    base_receiver, points = OTReceiver.respond(base_sender.big_a, sender.s, sender.rng)
    sealed = base_sender.respond(points, *receiver.seeds)
    sender.chosen = base_receiver.receive(base_sender.big_a, sealed)
    return TOY_256.element_bytes * (1 + KAPPA) + sealed.nbytes


def _expand(seeds: np.ndarray, nbytes: int, call: int) -> np.ndarray:
    """G_call: each seed stretched to nbytes by SHAKE-128 over seed || call,
    (len(seeds), nbytes) uint8."""
    tag = call.to_bytes(8, "little")
    out = b"".join(hashlib.shake_128(k.tobytes() + tag).digest(nbytes) for k in seeds)
    return np.frombuffer(out, dtype=np.uint8).reshape(len(seeds), nbytes)


def _columns(seeds: np.ndarray, r: np.ndarray, call: int):
    """The receiver's columns of one call: t^i = G_call(k_i^0), kept, and
    u^i = t^i ^ G_call(k_i^1) ^ r, sent; both (KAPPA, ceil(m/8)) packed bits."""
    packed = np.packbits(r)
    t = _expand(seeds[0], len(packed), call)
    return t, t ^ _expand(seeds[1], len(packed), call) ^ packed


# the three swap rounds of an 8 x 8 bit-block transpose held in one word
# (Warren, Hacker's Delight, 2nd ed., section 7-3): (shift, mask of the bits
# that move up by shift); the same bits of x >> shift move down
_TRANSPOSE8 = tuple((np.uint64(k), np.uint64(mask)) for k, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """Transpose KAPPA packed columns of m bits into m packed rows of KAPPA
    bits, a word at a time: each 8 x 8 bit block (one byte of each of 8
    columns) is read as one big-endian word, so byte r's bit c (from the
    top) sits at bit 63 - (8 r + c); the swaps exchange bits (r, c) and
    (c, r), and the word is written back as one byte of each of 8 rows."""
    n = cols.shape[1]
    blocks = cols.reshape(-1, 8, n).transpose(0, 2, 1)  # (column group, byte, column)
    x = np.ascontiguousarray(blocks).view(">u8")[..., 0].astype(np.uint64)
    for k, mask in _TRANSPOSE8:
        t = (x ^ (x >> k)) & mask
        x ^= t ^ (t << k)
    out = x.astype(">u8")[..., None].view(np.uint8)  # (column group, byte, row in byte)
    return out.transpose(1, 2, 0).reshape(8 * n, -1)[:m]


def _row_pads(rows: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
    """H(J, row) for every row and its transfer's tweak J: one PRF pass over
    the rows' two uint64 words."""
    words = np.ascontiguousarray(rows).view("<u8")
    return _prf(words[:, 0], words[:, 1], tweaks)


def run_ot(
    m0: np.ndarray,
    m1: np.ndarray,
    choices: np.ndarray,
    sender: ExtSender,
    receiver: ExtReceiver,
) -> tuple[np.ndarray, int]:
    """In-process IKNP extension of the whole batch; the session's first
    call runs the base OTs. Returns (labels, bytes moved). Each party reads
    only its own side: the sender its s and chosen seeds, the receiver its
    seed rows and choices."""
    r = np.asarray(choices, dtype=np.uint8).ravel()
    m = len(r)
    moved = _base_ots(sender, receiver) if receiver.seeds is None else 0
    # the receiver sends u, the sender both masked messages
    r_call, r_tweaks = receiver.next_call(m)
    t, u = _columns(receiver.seeds, r, r_call)
    s_call, s_tweaks = sender.next_call(m)
    s = sender.s
    q_rows = _rows(_expand(sender.chosen, u.shape[1], s_call) ^ (s[:, None] * u), m)
    y = np.stack([m0 ^ _row_pads(q_rows, s_tweaks),
                  m1 ^ _row_pads(q_rows ^ np.packbits(s), s_tweaks)], axis=1)
    got = y[np.arange(m), r] ^ _row_pads(_rows(t, m), r_tweaks)
    return got, moved + u.nbytes + y.nbytes
