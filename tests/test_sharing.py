"""Mask uniformity, encrypted-row ops, and matrix-triple correctness."""

import numpy as np
import pytest
from scipy import stats

from privtrans import sharing
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
)
from privtrans.she import Ciphertext

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
        back = dec_rows(cts, 5, key, DEFAULT_RING, report)
    assert back == x
    assert report.total("he_enc") == 4


def test_enc_rows_rejects_wide_matrix():
    rng = np.random.default_rng(22)
    key = keygen(small_params(slots=4), seed=1)
    with pytest.raises(ValueError):
        enc_rows(rand_ring((1, 5), rng, DEFAULT_RING), key, CostReport())


def test_plain_left_matmul_matches_oracle():
    rng = np.random.default_rng(23)
    key = keygen(small_params(), seed=2)
    report = CostReport()
    p = rand_ring((3, 4), rng, DEFAULT_RING)
    b = rand_ring((4, 6), rng, DEFAULT_RING)
    with report.at("QxK", "offline"):
        cts = plain_left_matmul(p, enc_rows(b, key, report), report)
        got = dec_rows(cts, 6, key, DEFAULT_RING, report)
    want = matmul_mod(p.data.tolist(), b.data.tolist(), 64)
    assert got.data.tolist() == want
    assert report.total("he_rotate") == 0
    # a scalar combination per row: a * b products and a * (b - 1) additions
    assert report.total("he_mul_plain") == 3 * 4
    assert report.total("he_add") == 3 * 3


def test_row_kernels_make_one_call_per_step_on_all_rows(monkeypatch):
    # a row-encrypted matrix is one batch: each kernel's op calls do not
    # grow with its rows, and each call bills every row
    calls = {}
    for name in ("he_add", "he_mul_plain", "he_rotate"):
        def counted(*args, _real=getattr(sharing, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sharing, name, counted)
    rng = np.random.default_rng(27)
    key = keygen(small_params(), seed=3)
    for a in (2, 5):
        calls.clear()
        report = CostReport()
        rows = enc_rows(rand_ring((a, 5), rng, DEFAULT_RING), key, report)
        assert isinstance(rows, Ciphertext) and rows.count == a
        r = rand_ring((5, 2), rng, DEFAULT_RING)  # D = 6 nonzero diagonals
        assert enc_left_matmul(rows, r, report).count == a
        assert calls == {"he_rotate": 6, "he_mul_plain": 6, "he_add": 5}, a
        calls.clear()
        p = rand_ring((3, a), rng, DEFAULT_RING)
        assert plain_left_matmul(p, rows, report).count == 3
        assert calls == {"he_mul_plain": a, "he_add": a - 1}, a


def _plain_with_zeros(rng, rows, cols, case):
    r = rand_ring((rows, cols), rng, DEFAULT_RING)
    if case == "zero_rows":
        r.data[::2] = 0
    elif case == "zero_cols":
        r.data[:, 1::2] = 0
    return r


def _nonzero_diagonals(r: FixedTensor, slots: int) -> int:
    # D: the distinct shifts (j - o) mod M of the nonzero entries R[j, o]
    j, o = np.nonzero(r.data)
    return len(set(((j - o) % slots).tolist()))


@pytest.mark.parametrize("case", ["dense", "zero_rows", "zero_cols"])
@pytest.mark.parametrize("a,b,c,slots", [
    (3, 5, 2, 16),   # no diagonal wraps
    (3, 6, 5, 8),    # b + c - 1 > M: diagonals wrap
    (2, 8, 3, 8),    # b = M
    (2, 3, 8, 8),    # c = M
    (2, 8, 8, 8),    # b = c = M: all M diagonals
    (1, 7, 4, 8),    # one row
])
def test_enc_left_matmul_matches_oracle(a, b, c, slots, case):
    rng = np.random.default_rng(24 + a + b + c)
    key = keygen(small_params(slots), seed=4)
    left = rand_ring((a, b), rng, DEFAULT_RING)
    r = _plain_with_zeros(rng, b, c, case)
    rows = enc_rows(left, key, CostReport())
    report = CostReport()
    with report.at("QxK", "offline"):
        cts = enc_left_matmul(rows, r, report)
    got = dec_rows(cts, slots, key, DEFAULT_RING, CostReport())
    want = matmul_mod(left.data.tolist(), r.data.tolist(), 64)
    assert got.data[:, :c].tolist() == want
    assert not got.data[:, c:].any()  # slots past c stay zero
    # per row: one rotation and one plaintext product per nonzero diagonal,
    # and D - 1 additions to sum them
    d = _nonzero_diagonals(r, slots)
    assert d <= min(slots, b + c - 1)
    assert report.total("he_rotate") == a * d
    assert report.total("he_mul_plain") == a * d
    assert report.total("he_add") == a * (d - 1)


def test_enc_left_matmul_op_counts_and_width_check():
    # D = b + c - 1 = 6 diagonals of a dense 5 x 2 plaintext at M = 16
    rng = np.random.default_rng(25)
    key = keygen(small_params(), seed=4)
    rows = enc_rows(rand_ring((3, 5), rng, DEFAULT_RING), key, CostReport())
    report = CostReport()
    enc_left_matmul(rows, rand_ring((5, 2), rng, DEFAULT_RING), report)
    assert report.total("he_rotate") == 3 * 6
    assert report.total("he_mul_plain") == 3 * 6
    assert report.total("he_add") == 3 * 5
    with pytest.raises(ValueError, match="exceeds 16 slots"):
        enc_left_matmul(rows, rand_ring((5, 17), rng, DEFAULT_RING), report)


def test_enc_left_matmul_of_a_zero_plaintext_gives_a_zero_row_per_row():
    # no diagonal is nonzero; each row still comes back as one ciphertext
    # of zeros, from diagonal 0 alone
    rng = np.random.default_rng(26)
    key = keygen(small_params(), seed=4)
    rows = enc_rows(rand_ring((3, 5), rng, DEFAULT_RING), key, CostReport())
    report = CostReport()
    cts = enc_left_matmul(rows, FixedTensor(np.zeros((5, 2), dtype=np.uint64)), report)
    assert isinstance(cts, Ciphertext) and cts.count == 3
    assert not dec_rows(cts, 16, key, DEFAULT_RING, CostReport()).data.any()
    assert (report.total("he_rotate"), report.total("he_mul_plain"), report.total("he_add")) == (3, 3, 0)


def test_triple_product_tiny_example():
    # left mask [[5]] against its transpose decrypts to [[25]]
    key, report = keygen(small_params(slots=4), seed=5), CostReport()
    rc = FixedTensor(np.array([[5]], dtype=np.uint64), DEFAULT_RING)
    t = make_product_triple(rc, rc.transpose(), key, report)
    got = dec_rows(t.product_ct, 1, key, DEFAULT_RING, report)
    assert got.data.tolist() == [[25]]


def test_gen_triple_product_matches_brute_force():
    key, r = keygen(small_params(), seed=6), CostReport()
    rng = np.random.default_rng(30)
    rc = rand_ring((4, 3), rng, DEFAULT_RING)
    t = make_product_triple(rc, rc.transpose(), key, r)
    assert dec_rows(t.left_ct, 3, key, DEFAULT_RING, r) == rc
    assert dec_rows(t.right_ct, 4, key, DEFAULT_RING, r) == rc.transpose()
    got = dec_rows(t.product_ct, 4, key, DEFAULT_RING, r)
    want = matmul_mod(rc.data.tolist(), rc.transpose().data.tolist(), 64)
    assert got.data.tolist() == want


def test_gen_product_triple_independent_masks():
    key, report = keygen(small_params(), seed=7), CostReport()
    rng = np.random.default_rng(31)
    left, right = rand_ring((4, 4), rng, DEFAULT_RING), rand_ring((4, 3), rng, DEFAULT_RING)
    t = make_product_triple(left, right, key, report)
    # the triple is the server's material: ciphertexts only, no plaintext mask
    assert not any(isinstance(v, FixedTensor) for v in vars(t).values())
    got = dec_rows(t.product_ct, 3, key, DEFAULT_RING, report)
    want = matmul_mod(left.data.tolist(), right.data.tolist(), 64)
    assert got.data.tolist() == want

