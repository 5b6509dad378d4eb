"""Semantic HE backend: roundtrips, op correctness, counters, noise meter."""

import inspect
import tracemalloc
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
    decrypt,
    encrypt,
    he_add,
    he_add_plain,
    he_mul_plain,
    he_rotate,
    keygen,
)

PARAMS = HEParams(slots=8)


def fresh_key(seed=42, params=PARAMS):
    return keygen(params, seed=seed)


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
        ct = encrypt(v, key, CostReport())
        assert np.array_equal(decrypt(ct, key, CostReport()), v)


def test_payload_is_masked():
    key = fresh_key()
    v = np.arange(8, dtype=np.uint64)
    ct = encrypt(v, key, CostReport())
    # reading b without the key must not expose the plaintext
    assert not np.array_equal(ct.b, v)


def test_wrong_key_decrypt_raises():
    # each key pair takes its own id, so two keys from one seed (one
    # secret s) do not mix either
    report = CostReport()
    for k0, k1 in ((fresh_key(1), fresh_key(2)), (fresh_key(7), fresh_key(7))):
        ct = encrypt(np.ones(8, dtype=np.uint64), k0, report)
        with pytest.raises(KeyMismatch):
            decrypt(ct, k1, report)
        with pytest.raises(KeyMismatch):
            he_add(ct, encrypt(np.ones(8, dtype=np.uint64), k1, report), report)


def test_homomorphic_ops_match_plain():
    rng = np.random.default_rng(2)
    key = fresh_key()
    mod = 1 << 64
    r = CostReport()
    for _ in range(20):
        a = rng.integers(0, mod, size=8, dtype=np.uint64)
        b = rng.integers(0, mod, size=8, dtype=np.uint64)
        p = rng.integers(0, mod, size=8, dtype=np.uint64)
        ca, cb = encrypt(a, key, r), encrypt(b, key, r)
        assert np.array_equal(decrypt(he_add(ca, cb, r), key, r), a + b)
        assert np.array_equal(decrypt(he_add_plain(ca, p, r), key, r), a + p)
        assert np.array_equal(decrypt(he_mul_plain(ca, p, r), key, r), a * p)


def test_rotate_left_example():
    key, r = keygen(HEParams(slots=4), seed=3), CostReport()
    ct = encrypt(np.array([1, 2, 3, 4], dtype=np.uint64), key, r)
    out = decrypt(he_rotate(ct, 1, r), key, r)
    assert list(out) == [2, 3, 4, 1]


def test_rotate_zero_counts_and_is_identity():
    key = fresh_key()
    report = CostReport()
    v = np.arange(8, dtype=np.uint64)
    ct = he_rotate(encrypt(v, key, CostReport()), 0, report)
    assert np.array_equal(decrypt(ct, key, CostReport()), v)
    assert report.total("he_rotate") == 1


def test_rotate_composition():
    key, r = fresh_key(), CostReport()
    v = np.arange(8, dtype=np.uint64)
    ct = encrypt(v, key, r)
    out = he_rotate(he_rotate(ct, 3, r), 6, r)
    assert np.array_equal(decrypt(out, key, r), np.roll(v, -(3 + 6) % 8))


@pytest.mark.parametrize("slots", [1, 2, 16, 64])
def test_rotate_matches_roll_for_every_k(slots):
    params = HEParams(slots=slots)
    ct = encrypt(np.arange(slots, dtype=np.uint64), keygen(params, seed=9), CostReport())
    for k in range(slots):
        report = CostReport()
        out = he_rotate(ct, k, report)
        assert np.array_equal(out.a, np.roll(ct.a, -k))
        assert np.array_equal(out.b, np.roll(ct.b, -k))
        assert report.total("he_rotate") == 1
        assert out.noise_used == ct.noise_used + she.COST_ROTATE


def test_rotate_output_does_not_alias_input_or_cache():
    key, r = fresh_key(), CostReport()
    ct = encrypt(np.arange(8, dtype=np.uint64), key, r)
    a0, b0, idx0 = ct.a.copy(), ct.b.copy(), she._cycle(8).copy()
    for k in (0, 3):
        out = he_rotate(ct, k, r)
        out.a[:] = 7
        out.b[:] = 7
    assert np.array_equal(ct.a, a0) and np.array_equal(ct.b, b0)
    assert np.array_equal(she._cycle(8), idx0)
    with pytest.raises(ValueError):
        she._cycle(8)[0] = 1


@pytest.mark.parametrize("k", [8, -1])
def test_rotate_outside_the_slots_raises(k):
    report = CostReport()
    with pytest.raises(ValueError, match="outside"):
        he_rotate(encrypt(np.ones(8, dtype=np.uint64), fresh_key(), CostReport()), k, report)
    assert report.total("he_rotate") == 0


def test_rotate_caches_one_index_per_slot_count():
    # one 2M-word index per M, never one per (M, k): that would be M^2 words
    params, r = HEParams(slots=4096), CostReport()
    ct = encrypt(np.ones(4, dtype=np.uint64), keygen(params, seed=4), r)
    he_rotate(ct, 0, r)
    cached = she._cycle.cache_info().currsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(4096):
            he_rotate(ct, k, r)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert she._cycle.cache_info().currsize == cached
    assert she._cycle(4096).shape == (2 * 4096,)
    assert kept < 1 << 20  # an index per k would keep 4096 * 32 KiB


def test_every_op_bumps_exactly_one_counter():
    key = fresh_key()
    report = CostReport()
    v = np.ones(8, dtype=np.uint64)
    ct = encrypt(v, key, report)
    ct2 = he_add(ct, ct, report)
    ct3 = he_add_plain(ct2, v, report)
    ct4 = he_mul_plain(ct3, v, report)
    ct5 = he_rotate(ct4, 2, report)
    decrypt(ct5, key, report)
    total = sum(report.total(c) for c in HE_COUNTERS)
    assert total == 6


def test_every_op_on_a_batch_bumps_one_counter_by_its_count():
    # the k = 3 twin of the test above: each op is one bump, by 3
    key = fresh_key()
    report = CostReport()
    v = np.ones((3, 8), dtype=np.uint64)
    ct = encrypt(v, key, report)
    ct2 = he_add(ct, ct, report)
    ct3 = he_add_plain(ct2, v, report)
    ct4 = he_mul_plain(ct3, v, report)
    ct5 = he_rotate(ct4, 2, report)
    decrypt(ct5, key, report)
    assert {c: report.total(c) for c in HE_COUNTERS} == dict.fromkeys(HE_COUNTERS, 3)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_batched_op_equals_the_op_on_each_row(k):
    # one op on a batch of k gives, row for row, the a, b and noise of the
    # op on each row alone, and bills the same total
    rng = np.random.default_rng(40 + k)
    m = PARAMS.slots
    words = lambda *shape: rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    key = fresh_key()
    x = encrypt(words(k, m), key, CostReport())
    y = he_mul_plain(encrypt(words(k, 5), key, CostReport()), 3, CostReport())  # noisier
    vec, mat = words(m), words(k, m)
    cases = [
        lambda pick, r: he_add(pick(x), pick(y), r),
        lambda pick, r: he_add_plain(pick(y), pick(mat), r),
        lambda pick, r: he_add_plain(pick(y), vec, r),
        lambda pick, r: he_rotate(pick(y), 0, r),
        lambda pick, r: he_rotate(pick(y), m - 1, r),
        lambda pick, r: he_mul_plain(pick(x), 7, r),
        lambda pick, r: he_mul_plain(pick(y), vec, r),
        lambda pick, r: he_mul_plain(pick(y), pick(mat), r),
    ]
    for case, op in enumerate(cases):
        batch_report, row_report = CostReport(), CostReport()
        batch = op(lambda v: v, batch_report)
        rows = [op(lambda v, i=i: v.row(i) if isinstance(v, Ciphertext) else v[i], row_report)
                for i in range(k)]
        assert batch.count == k, case
        assert np.array_equal(batch.a, np.stack([r.a for r in rows])), case
        assert np.array_equal(batch.b, np.stack([r.b for r in rows])), case
        assert {r.noise_used for r in rows} == {batch.noise_used}, case
        assert batch_report.to_dict() == row_report.to_dict(), case
        assert sum(batch_report.total(c) for c in HE_COUNTERS) == k, case
    # decrypt: the rows' plaintexts, billed k
    batch_report, row_report = CostReport(), CostReport()
    got = decrypt(y, key, batch_report)
    want = np.stack([decrypt(y.row(i), key, row_report) for i in range(k)])
    assert np.array_equal(got, want)
    assert batch_report.to_dict() == row_report.to_dict()
    assert batch_report.total("he_dec") == k
    # encrypt of a (k, cols) matrix draws the a rows of k single encrypts
    # under a twin key of the same seed, in order
    plain = words(k, 5)
    batch_report, row_report = CostReport(), CostReport()
    batch = encrypt(plain, fresh_key(seed=9), batch_report)
    twin = fresh_key(seed=9)
    rows = [encrypt(plain[i], twin, row_report) for i in range(k)]
    assert batch.a.shape == (k, m)
    assert np.array_equal(batch.a, np.stack([r.a for r in rows]))
    assert np.array_equal(batch.b, np.stack([r.b for r in rows]))
    assert batch_report.to_dict() == row_report.to_dict()
    assert batch_report.total("he_enc") == k


def test_adding_batches_of_different_counts_raises():
    # numpy would broadcast one ciphertext over a batch and bill k adds
    key, report = fresh_key(), CostReport()
    three = encrypt(np.ones((3, 8), dtype=np.uint64), key, report)
    two = encrypt(np.ones((2, 8), dtype=np.uint64), key, report)
    one = encrypt(np.ones(8, dtype=np.uint64), key, report)
    for left, right in ((three, two), (one, three)):
        with pytest.raises(ValueError, match=f"batch of {left.count} .* {right.count}"):
            he_add(left, right, report)
    assert report.total("he_add") == 0
    # a plaintext with more rows than the batch does not widen it either
    with pytest.raises(ValueError, match="does not fit a batch of 1"):
        he_add_plain(one, np.ones((3, 8), dtype=np.uint64), report)
    assert report.total("he_add_plain") == 0


@pytest.mark.parametrize("shape", [(9,), (2, 9)])
def test_encrypt_refuses_values_wider_than_the_slots(shape):
    report = CostReport()
    with pytest.raises(ValueError, match="width 9 exceeds 8 slots"):
        encrypt(np.ones(shape, dtype=np.uint64), fresh_key(), report)
    assert report.total("he_enc") == 0


def test_no_ciphertext_by_ciphertext_product():
    assert ciphertext_pair_ops() == ["he_add"]
    report = CostReport()
    ct = encrypt(np.ones(8, dtype=np.uint64), fresh_key(), report)
    with pytest.raises(TypeError):
        he_mul_plain(ct, ct, report)  # the plaintext operand cannot be a ciphertext


def test_noise_budget_meter():
    # 8,192 plaintext products use the whole 1 << 16 budget; one more exceeds it
    assert she.NOISE_BUDGET == 8192 * she.COST_MUL_PLAIN
    key, report = keygen(HEParams(slots=4), seed=5), CostReport()
    ct = encrypt(np.ones(4, dtype=np.uint64), key, report)
    assert ct.noise_used == 0
    for _ in range(8192):
        ct = he_mul_plain(ct, 3, report)
    assert ct.noise_used == she.NOISE_BUDGET
    with pytest.raises(NoiseBudgetExceeded):
        he_mul_plain(ct, 3, report)


def test_slot_count_must_be_power_of_two():
    with pytest.raises(ValueError):
        HEParams(slots=48)
