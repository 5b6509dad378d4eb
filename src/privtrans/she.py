"""Additive-only homomorphic encryption, semantic backend.

Mirrors the API shape of an RLWE SIMD scheme (keygen / encrypt / decrypt /
add / add_plain / mul_plain / rotate over M packed slots) as a secret-key
linear scheme: the key pair holds one secret ring scalar s, and a
ciphertext of m is (a, b = a*s + m) for a fresh uniform slot vector a, so
only the client's KeyPair decrypts. Slots are raw uint64 words, so every
op is exact mod 2^64. There is deliberately no ciphertext-times-ciphertext
multiply.

There is no noise term, so this is not LWE: one known plaintext (a
zero-padded slot, say) gives away s. What the scheme guarantees is
structural: no server code path reaches plaintext without the KeyPair.

A Ciphertext is one ciphertext, or a batch of k on a leading axis (its a
and b are (k, M)); every op acts on the last axis, so one call on a batch
does the work of k calls on its rows. Every operation takes the CostReport
it bills and bumps exactly one of its counters, by the number of
ciphertexts it acts on; there is no uncounted call. Each op also charges a
linear noise meter a flat cost (the COST_* constants); running past
NOISE_BUDGET raises NoiseBudgetExceeded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .costs import CostReport


class NoiseBudgetExceeded(RuntimeError):
    pass


class KeyMismatch(RuntimeError):
    pass


# The linear noise meter: each op charges a flat cost against the budget,
# which is sized from the deepest offline chain the fused protocol mode
# produces at desk scale, doubled (see test_she for the measurement the
# number came from).
NOISE_BUDGET = 1 << 16
COST_ADD = COST_ADD_PLAIN = 1
COST_MUL_PLAIN = 8
COST_ROTATE = 4


@dataclass(frozen=True)
class HEParams:
    slots: int = 4096

    def __post_init__(self):
        if self.slots & (self.slots - 1) or self.slots < 1:
            raise ValueError("slot count must be a power of two")

    @property
    def ciphertext_bytes(self) -> int:
        """Modeled wire size of one ciphertext: 16 bytes per slot."""
        return 16 * self.slots


_KEY_IDS = itertools.count()


class KeyPair:
    """The secret scalar s (the first draw of the key's own PRF stream) and
    the stream that draws each ciphertext's a; only the owner should keep
    this. Each key pair takes a fresh process-wide key_id, so ciphertexts
    of two keys never mix silently."""

    def __init__(self, seed: int, params: HEParams):
        self.key_id = next(_KEY_IDS)
        self.params = params
        self._stream = np.random.Generator(np.random.Philox(key=seed))
        self.s = self._stream.integers(0, 1 << 64, dtype=np.uint64)

    def fresh_a(self, lead: tuple = ()) -> np.ndarray:
        """A uniform (*lead, M) block; (k, M) holds the words of k
        successive single draws, in order."""
        return self._stream.integers(0, 1 << 64, size=(*lead, self.params.slots), dtype=np.uint64)


class Ciphertext:
    """(a, b = a*s + m) over the slots; b is garbage without s. a and b are
    (M,) for one ciphertext, or (k, M) for a batch of k, one per row. A
    batch goes through one sequence of ops, so its rows share one
    noise_used."""

    __slots__ = ("a", "b", "key_id", "params", "noise_used")

    def __init__(self, a, b, key_id, params, noise_used=0):
        self.a = a
        self.b = b
        self.key_id = key_id
        self.params = params
        self.noise_used = noise_used

    @property
    def count(self) -> int:
        """The number of ciphertexts held: 1, or k for a (k, M) batch."""
        return self.a.size // self.params.slots

    def row(self, j) -> "Ciphertext":
        """Ciphertext j of a batch, as a single ciphertext; for a slice j,
        those rows as a batch whose a and b are views of this one's."""
        return Ciphertext(self.a[j], self.b[j], self.key_id, self.params, self.noise_used)


def _next(ct: Ciphertext, a, b, cost: int) -> Ciphertext:
    """(a, b) under ct's key, with ct's noise plus cost."""
    used = ct.noise_used + cost
    if used > NOISE_BUDGET:
        raise NoiseBudgetExceeded(f"noise {used} exceeds budget {NOISE_BUDGET}")
    return Ciphertext(a, b, ct.key_id, ct.params, used)


def keygen(params: HEParams, seed: int = 0) -> KeyPair:
    return KeyPair(seed, params)


def _as_slots(v, params: HEParams) -> np.ndarray:
    """v's last axis zero-padded to the M slots: a vector, or one row of
    slots per row of a matrix."""
    arr = np.asarray(v, dtype=np.uint64)
    width = arr.shape[-1] if arr.ndim else 1
    if width == params.slots:
        return arr
    if width > params.slots:
        raise ValueError(f"width {width} exceeds {params.slots} slots")
    out = np.zeros((*arr.shape[:-1], params.slots), dtype=np.uint64)
    out[..., :width] = arr
    return out


def encrypt(v, key: KeyPair, report: CostReport) -> Ciphertext:
    """Pack v (ring words) into slots, zero-padded, as (a, a*s + v): one
    ciphertext of a vector, or a batch of one per row of a (k, cols)
    matrix, whose a rows are the words of k single encrypts."""
    m = _as_slots(v, key.params)
    a = key.fresh_a(m.shape[:-1])
    ct = Ciphertext(a, a * key.s + m, key.key_id, key.params)
    report.bump("he_enc", ct.count)
    return ct


def decrypt(ct: Ciphertext, key: KeyPair, report: CostReport) -> np.ndarray:
    if key.key_id != ct.key_id:
        raise KeyMismatch(f"ciphertext under key {ct.key_id}, got key {key.key_id}")
    report.bump("he_dec", ct.count)
    return ct.b - ct.a * key.s


def he_add(a: Ciphertext, b: Ciphertext, report: CostReport) -> Ciphertext:
    if a.key_id != b.key_id:
        raise KeyMismatch("cannot add ciphertexts under different keys")
    count = a.count
    if count != b.count:
        raise ValueError(f"cannot add a batch of {count} ciphertexts to one of {b.count}")
    report.bump("he_add", count)
    noisier = a if a.noise_used >= b.noise_used else b
    return _next(noisier, a.a + b.a, a.b + b.b, COST_ADD)


def he_add_plain(ct: Ciphertext, v, report: CostReport) -> Ciphertext:
    """Slotwise sum with a plaintext vector, or with one row per ciphertext
    of a batch."""
    b = ct.b + _as_slots(v, ct.params)
    if b.shape != ct.b.shape:
        raise ValueError(f"a plaintext of {b.size // ct.params.slots} rows "
                         f"does not fit a batch of {ct.count} ciphertexts")
    report.bump("he_add_plain", ct.count)
    return _next(ct, ct.a, b, COST_ADD_PLAIN)


def he_mul_plain(ct: Ciphertext, v, report: CostReport) -> Ciphertext:
    """Slotwise product with a ring scalar, a plaintext vector, or a (k, M)
    array; a single ciphertext times a (k, M) array is a batch of k
    products, billed k."""
    # an array skips np.isscalar, the costly check on the common path
    if getattr(v, "ndim", None) == 0 or (not isinstance(v, np.ndarray) and np.isscalar(v)):
        p = np.uint64(int(v) & 0xFFFFFFFFFFFFFFFF)
    else:
        p = _as_slots(v, ct.params)
    a, b = ct.a * p, ct.b * p
    report.bump("he_mul_plain", a.size // ct.params.slots)
    return _next(ct, a, b, COST_MUL_PLAIN)


@lru_cache(maxsize=None)
def _cycle(slots: int) -> np.ndarray:
    """Read-only indices 0..slots-1 twice over: [k:k+slots] rotates by k."""
    idx = np.tile(np.arange(slots, dtype=np.intp), 2)
    idx.flags.writeable = False
    return idx


def he_rotate(ct: Ciphertext, k: int, report: CostReport) -> Ciphertext:
    """Cyclic left rotation by k slots of each ciphertext held; k=0 is
    legal and still counted.

    Each of a and b is one numpy take along the last axis (a fresh array,
    never a view of ct) through the window [k, k+M) of _cycle(M), for a
    single ciphertext and a batch alike. The cache holds one read-only
    2M-long index per slot count, never one per k: that would be M^2
    words.
    """
    slots = ct.params.slots
    if not 0 <= k < slots:
        raise ValueError(f"rotation {k} outside [0, {slots})")
    report.bump("he_rotate", ct.count)
    idx = _cycle(slots)[k:k + slots]
    return _next(ct, ct.a.take(idx, axis=-1), ct.b.take(idx, axis=-1), COST_ROTATE)

