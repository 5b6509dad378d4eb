"""Semantic HE backend: roundtrips, op correctness, counters, noise meter."""

import inspect
import typing

import numpy as np
import pytest

from privtrans import she
from privtrans.costs import CostReport, HE_COUNTERS
from privtrans.she import (
    Ciphertext,
    HEParams,
    KeyMismatch,
    NoiseBudgetExceeded,
    NoiseModel,
    decrypt,
    encrypt,
    he_add,
    he_add_plain,
    he_mul_plain,
    he_rotate,
    keygen,
    noise_budget,
)

PARAMS = HEParams(slots=8)


def fresh_key(key_id=0, seed=42, params=PARAMS):
    return keygen(params, key_id=key_id, seed=seed)


def ciphertext_pair_ops():
    """Every way the HE layer could combine two ciphertexts: the public she
    functions taking two Ciphertext arguments, plus any product operator
    Ciphertext defines. Anything beyond he_add would be a ct x ct product."""
    found = [op for op in ("__mul__", "__rmul__", "__imul__", "__matmul__", "__rmatmul__")
             if hasattr(Ciphertext, op)]
    for name, fn in inspect.getmembers(she, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != she.__name__:
            continue
        hints = typing.get_type_hints(fn)
        if sum(hints.get(p) is Ciphertext for p in inspect.signature(fn).parameters) >= 2:
            found.append(name)
    return found


def test_encrypt_decrypt_roundtrip():
    rng = np.random.default_rng(1)
    key = fresh_key()
    for _ in range(20):
        v = rng.integers(0, 2 ** 64, size=8, dtype=np.uint64)
        ct = encrypt(v, key)
        assert np.array_equal(decrypt(ct, key.secret()), v)


def test_payload_is_masked():
    key = fresh_key()
    v = np.arange(8, dtype=np.uint64)
    ct = encrypt(v, key)
    # reading slots without the key must not expose the plaintext
    assert not np.array_equal(ct.slots, v)


def test_wrong_key_decrypt_raises():
    k0, k1 = fresh_key(0, 1), fresh_key(1, 2)
    ct = encrypt(np.ones(8, dtype=np.uint64), k0)
    with pytest.raises(KeyMismatch):
        decrypt(ct, k1.secret())


def test_homomorphic_ops_match_plain():
    rng = np.random.default_rng(2)
    key = fresh_key()
    mod = 1 << 64
    for _ in range(20):
        a = rng.integers(0, mod, size=8, dtype=np.uint64)
        b = rng.integers(0, mod, size=8, dtype=np.uint64)
        p = rng.integers(0, mod, size=8, dtype=np.uint64)
        ca, cb = encrypt(a, key), encrypt(b, key)
        assert np.array_equal(decrypt(he_add(ca, cb), key.secret()), a + b)
        assert np.array_equal(decrypt(he_add_plain(ca, p), key.secret()), a + p)
        assert np.array_equal(decrypt(he_mul_plain(ca, p), key.secret()), a * p)


def test_rotate_left_example():
    key = keygen(HEParams(slots=4), 0, 3)
    ct = encrypt(np.array([1, 2, 3, 4], dtype=np.uint64), key)
    out = decrypt(he_rotate(ct, 1), key.secret())
    assert list(out) == [2, 3, 4, 1]


def test_rotate_zero_counts_and_is_identity():
    key = fresh_key()
    report = CostReport()
    v = np.arange(8, dtype=np.uint64)
    ct = he_rotate(encrypt(v, key), 0, report)
    assert np.array_equal(decrypt(ct, key.secret()), v)
    assert report.total("he_rotate") == 1


def test_rotate_composition():
    key = fresh_key()
    v = np.arange(8, dtype=np.uint64)
    ct = encrypt(v, key)
    out = he_rotate(he_rotate(ct, 3), 6)
    assert np.array_equal(decrypt(out, key.secret()), np.roll(v, -(3 + 6) % 8))


def test_every_op_bumps_exactly_one_counter():
    key = fresh_key()
    report = CostReport()
    v = np.ones(8, dtype=np.uint64)
    ct = encrypt(v, key, report)
    ct2 = he_add(ct, ct, report)
    ct3 = he_add_plain(ct2, v, report)
    ct4 = he_mul_plain(ct3, v, report)
    ct5 = he_rotate(ct4, 2, report)
    decrypt(ct5, key.secret(), report)
    total = sum(report.total(c) for c in HE_COUNTERS)
    assert total == 6


def test_no_ciphertext_by_ciphertext_product():
    assert ciphertext_pair_ops() == ["he_add"]
    ct = encrypt(np.ones(8, dtype=np.uint64), fresh_key())
    with pytest.raises(TypeError):
        he_mul_plain(ct, ct)  # the plaintext operand cannot be a ciphertext


def test_noise_budget_meter():
    params = HEParams(slots=4, noise=NoiseModel(budget=10, cost_mul_plain=4))
    key = keygen(params, 0, 5)
    ct = encrypt(np.ones(4, dtype=np.uint64), key)
    assert noise_budget(ct) == 10
    ct = he_mul_plain(ct, 3)
    ct = he_mul_plain(ct, 3)
    assert noise_budget(ct) == 2
    with pytest.raises(NoiseBudgetExceeded):
        he_mul_plain(ct, 3)


def test_slot_count_must_be_power_of_two():
    with pytest.raises(ValueError):
        HEParams(slots=48)
