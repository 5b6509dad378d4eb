"""Additive-only homomorphic encryption, semantic backend.

Mirrors the API shape of an RLWE SIMD scheme (keygen / encrypt / decrypt /
add / add_plain / mul_plain / rotate over M packed slots) but models the
ciphertext as payload + one-time-pad mask drawn from a per-key counter
PRF stream. Slots are raw uint64 words, so every op is exact mod 2^64.
There is deliberately no ciphertext-times-ciphertext multiply.

Every operation bumps exactly one CostReport counter and one linear noise
meter; running past the budget raises NoiseBudgetExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostReport


class NoiseBudgetExceeded(RuntimeError):
    pass


class KeyMismatch(RuntimeError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    """Linear meter: each op charges a flat cost against the budget.

    The default budget is sized from the deepest offline chain the fused
    protocol mode produces at desk scale, doubled (see test_she for the
    measurement the number came from).
    """

    budget: int = 1 << 16
    cost_add: int = 1
    cost_add_plain: int = 1
    cost_mul_plain: int = 8
    cost_rotate: int = 4


@dataclass(frozen=True)
class HEParams:
    slots: int = 4096
    ciphertext_bytes: int = 1 << 18
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if self.slots & (self.slots - 1) or self.slots < 1:
            raise ValueError("slot count must be a power of two")


@dataclass(frozen=True)
class PublicKey:
    key_id: int


@dataclass(frozen=True)
class SecretKey:
    key_id: int


class KeyPair:
    """Holds the per-key PRF stream; only the owner should keep this."""

    def __init__(self, key_id: int, seed: int, params: HEParams):
        self.key_id = key_id
        self.params = params
        self._stream = np.random.Generator(np.random.Philox(key=seed))

    def public(self) -> PublicKey:
        return PublicKey(self.key_id)

    def secret(self) -> SecretKey:
        return SecretKey(self.key_id)

    def fresh_mask(self) -> np.ndarray:
        return self._stream.integers(0, 1 << 64, size=self.params.slots, dtype=np.uint64)


class Ciphertext:
    """Masked slot vector. `slots` alone is garbage without the mask."""

    __slots__ = ("slots", "_mask", "key_id", "params", "noise_used")

    def __init__(self, slots, mask, key_id, params, noise_used=0):
        self.slots = slots
        self._mask = mask
        self.key_id = key_id
        self.params = params
        self.noise_used = noise_used

    def _charge(self, cost: int) -> int:
        return _charge(self.params, self.noise_used, cost)


def _charge(params: HEParams, used: int, cost: int) -> int:
    used += cost
    if used > params.noise.budget:
        raise NoiseBudgetExceeded(f"noise {used} exceeds budget {params.noise.budget}")
    return used


def keygen(params: HEParams, key_id: int = 0, seed: int = 0) -> KeyPair:
    return KeyPair(key_id, seed, params)


def _as_slots(v, params: HEParams) -> np.ndarray:
    arr = np.asarray(v, dtype=np.uint64).ravel()
    if arr.size > params.slots:
        raise ValueError(f"{arr.size} values do not fit {params.slots} slots")
    if arr.size < params.slots:
        arr = np.concatenate([arr, np.zeros(params.slots - arr.size, dtype=np.uint64)])
    return arr


def encrypt(v, key: KeyPair, report: CostReport | None = None) -> Ciphertext:
    """Pack v (ring words) into slots, zero-padded, under a fresh OTP mask."""
    payload = _as_slots(v, key.params)
    mask = key.fresh_mask()
    if report:
        report.bump("he_enc")
    return Ciphertext(payload + mask, mask, key.key_id, key.params)


def decrypt(ct: Ciphertext, sk: SecretKey, report: CostReport | None = None) -> np.ndarray:
    if sk.key_id != ct.key_id:
        raise KeyMismatch(f"ciphertext under key {ct.key_id}, got secret {sk.key_id}")
    if report:
        report.bump("he_dec")
    return ct.slots - ct._mask


def he_add(a: Ciphertext, b: Ciphertext, report: CostReport | None = None) -> Ciphertext:
    if a.key_id != b.key_id:
        raise KeyMismatch("cannot add ciphertexts under different keys")
    if report:
        report.bump("he_add")
    noise = _charge(a.params, max(a.noise_used, b.noise_used), a.params.noise.cost_add)
    return Ciphertext(a.slots + b.slots, a._mask + b._mask, a.key_id, a.params, noise)


def he_add_plain(ct: Ciphertext, v, report: CostReport | None = None) -> Ciphertext:
    if report:
        report.bump("he_add_plain")
    p = _as_slots(v, ct.params)
    return Ciphertext(
        ct.slots + p, ct._mask, ct.key_id, ct.params,
        ct._charge(ct.params.noise.cost_add_plain),
    )


def he_mul_plain(ct: Ciphertext, v, report: CostReport | None = None) -> Ciphertext:
    """Slotwise product with a plaintext vector (or a ring scalar)."""
    if report:
        report.bump("he_mul_plain")
    if np.isscalar(v) or getattr(v, "ndim", 1) == 0:
        p = np.full(ct.params.slots, int(v) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    else:
        p = _as_slots(v, ct.params)
    return Ciphertext(
        ct.slots * p, ct._mask * p, ct.key_id, ct.params,
        ct._charge(ct.params.noise.cost_mul_plain),
    )


def he_rotate(ct: Ciphertext, k: int, report: CostReport | None = None) -> Ciphertext:
    """Cyclic left rotation by k slots; k=0 is legal and still counted."""
    if not 0 <= k < ct.params.slots:
        raise ValueError(f"rotation {k} outside [0, {ct.params.slots})")
    if report:
        report.bump("he_rotate")
    return Ciphertext(
        np.roll(ct.slots, -k), np.roll(ct._mask, -k), ct.key_id, ct.params,
        ct._charge(ct.params.noise.cost_rotate),
    )


def noise_budget(ct: Ciphertext) -> int:
    """Remaining headroom under the linear meter."""
    return ct.params.noise.budget - ct.noise_used
