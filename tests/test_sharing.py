"""Mask uniformity, encrypted-row ops, and matrix-triple correctness."""

import numpy as np
import pytest
from scipy import stats

from privtrans.costs import CostReport
from privtrans.ring import DEFAULT_RING, FixedTensor
from privtrans.she import HEParams, keygen
from privtrans.sharing import (
    dec_rows,
    enc_left_matmul,
    enc_rows,
    make_product_triple,
    plain_left_matmul,
    rand_ring,
    rotate_reduce_sum,
)

from oracles import matmul_mod


def small_params(slots=16):
    return HEParams(slots=slots)


def test_masked_values_uniform_chi_square():
    # Masking three fixed inputs, the low byte of x - r must look uniform
    # over 2**8 buckets at 1e5 samples each; x - r is Session._remask's delta.
    ring = DEFAULT_RING
    samples = 100_000
    for seed, val in ((101, 0.0), (102, 1.5), (103, -63.996)):
        rng = np.random.default_rng(seed)
        x = FixedTensor.from_float(np.full((1, samples), val), ring)
        masked = x - rand_ring(x.shape, rng, ring)
        buckets = (masked.data & np.uint64(0xFF)).ravel()
        counts = np.bincount(buckets.astype(np.int64), minlength=256)
        p = stats.chisquare(counts).pvalue
        assert p > 0.01, f"seed {seed}: p={p}"


def test_enc_rows_roundtrip():
    rng = np.random.default_rng(21)
    key = keygen(small_params(), seed=1)
    x = rand_ring((4, 5), rng, DEFAULT_RING)
    report = CostReport()
    with report.at("Others", "offline"):
        cts = enc_rows(x, key, report)
        back = dec_rows(cts, 5, key.secret(), DEFAULT_RING, report)
    assert back == x
    assert report.total("he_enc") == 4


def test_enc_rows_rejects_wide_matrix():
    rng = np.random.default_rng(22)
    key = keygen(small_params(slots=4), seed=1)
    with pytest.raises(ValueError):
        enc_rows(rand_ring((1, 5), rng, DEFAULT_RING), key)


def test_plain_left_matmul_matches_oracle():
    rng = np.random.default_rng(23)
    key = keygen(small_params(), seed=2)
    report = CostReport()
    p = rand_ring((3, 4), rng, DEFAULT_RING)
    b = rand_ring((4, 6), rng, DEFAULT_RING)
    with report.at("QxK", "offline"):
        cts = plain_left_matmul(p, enc_rows(b, key, report), report)
        got = dec_rows(cts, 6, key.secret(), DEFAULT_RING, report)
    want = matmul_mod(p.data.tolist(), b.data.tolist(), 64)
    assert got.data.tolist() == want
    assert report.total("he_rotate") == 0


def test_rotate_reduce_sum_fills_every_slot():
    key = keygen(small_params(slots=8), seed=3)
    vec = np.arange(1, 9, dtype=np.uint64)
    ct = rotate_reduce_sum(
        enc_rows(FixedTensor(vec.reshape(1, -1), DEFAULT_RING), key)[0]
    )
    from privtrans.she import decrypt

    assert decrypt(ct, key.secret()).tolist() == [36] * 8


def test_enc_left_matmul_matches_oracle():
    rng = np.random.default_rng(24)
    key = keygen(small_params(), seed=4)
    report = CostReport()
    left = rand_ring((3, 5), rng, DEFAULT_RING)
    r = rand_ring((5, 2), rng, DEFAULT_RING)
    with report.at("QxK", "offline"):
        cts = enc_left_matmul(enc_rows(left, key, report), r, report)
        got = dec_rows(cts, 2, key.secret(), DEFAULT_RING, report)
    want = matmul_mod(left.data.tolist(), r.data.tolist(), 64)
    assert got.data.tolist() == want


def test_triple_product_tiny_example():
    # left mask [[5]] against its transpose decrypts to [[25]]
    key = keygen(small_params(slots=4), seed=5)
    rc = FixedTensor(np.array([[5]], dtype=np.uint64), DEFAULT_RING)
    t = make_product_triple(rc, rc.transpose(), key)
    got = dec_rows(t.product_ct, 1, key.secret(), DEFAULT_RING)
    assert got.data.tolist() == [[25]]


def test_gen_triple_product_matches_brute_force():
    key = keygen(small_params(), seed=6)
    rng = np.random.default_rng(30)
    rc = rand_ring((4, 3), rng, DEFAULT_RING)
    t = make_product_triple(rc, rc.transpose(), key)
    assert dec_rows(t.left_ct, 3, key.secret(), DEFAULT_RING) == rc
    assert dec_rows(t.right_ct, 4, key.secret(), DEFAULT_RING) == rc.transpose()
    got = dec_rows(t.product_ct, 4, key.secret(), DEFAULT_RING)
    want = matmul_mod(rc.data.tolist(), rc.transpose().data.tolist(), 64)
    assert got.data.tolist() == want


def test_gen_product_triple_independent_masks():
    key = keygen(small_params(), seed=7)
    rng = np.random.default_rng(31)
    left, right = rand_ring((4, 4), rng, DEFAULT_RING), rand_ring((4, 3), rng, DEFAULT_RING)
    t = make_product_triple(left, right, key)
    # the triple is the server's material: ciphertexts only, no plaintext mask
    assert not any(isinstance(v, FixedTensor) for v in vars(t).values())
    got = dec_rows(t.product_ct, 3, key.secret(), DEFAULT_RING)
    want = matmul_mod(left.data.tolist(), right.data.tolist(), 64)
    assert got.data.tolist() == want

