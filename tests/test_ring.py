"""Fixed-point ring: encoding, truncation, matmul vs brute-force oracle."""

import numpy as np
import pytest

from privtrans.ring import DEFAULT_RING, FixedTensor, RingParams, fx_decode, fx_encode, mat_mul, truncate
from privtrans.securefn import SecureFnSpec, plain_apply

import oracles


def rand_tensor(rng, rows, cols, ring, bits=14):
    vals = rng.integers(-(1 << bits), 1 << bits, size=(rows, cols))
    return FixedTensor.from_signed(vals, ring)


def test_encode_examples():
    # frac_bits=8: 1.5 -> 384; -1.0 -> 2^64 - 256
    assert int(fx_encode(1.5)) == 384
    assert int(fx_encode(-1.0)) == 2 ** 64 - 256
    assert int(fx_encode(0.0)) == 0


def test_decode_roundtrip_tolerance():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-60, 60, size=500)
    err = np.abs(fx_decode(fx_encode(xs)) - xs)
    assert err.max() <= 2.0 ** (-DEFAULT_RING.frac_bits - 1)


def test_encode_matches_oracle():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-50, 50, size=200):
        assert int(fx_encode(float(x))) == oracles.encode(float(x), 8, 64)


def test_truncate_square_example():
    # 1.5^2: 384*384 = 147456, shift 8 -> 576 which decodes to 2.25
    t = FixedTensor(np.array([[384 * 384]], dtype=np.uint64))
    out = truncate(t)
    assert int(out.data[0, 0]) == 576
    assert out.to_float()[0, 0] == 2.25


def test_truncate_saturates_to_value_range():
    ring = DEFAULT_RING
    lim = ring.value_limit()  # 2^14 - 1
    big = FixedTensor.from_signed([[(lim + 500) << ring.frac_bits]], ring)
    small = FixedTensor.from_signed([[-(lim + 500) << ring.frac_bits]], ring)
    assert int(truncate(big).signed()[0, 0]) == lim
    assert int(truncate(small).signed()[0, 0]) == -lim
    # every element's magnitude stays strictly below 2^(value_bits-1)
    rng = np.random.default_rng(11)
    t = FixedTensor(rng.integers(0, 2 ** 63, size=(20, 20), dtype=np.uint64))
    assert np.abs(truncate(t).signed()).max() < 1 << (ring.value_bits - 1)


def test_truncate_matches_oracle():
    ring = DEFAULT_RING
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 2 ** 64, size=300, dtype=np.uint64)
    got = truncate(FixedTensor(vals.reshape(1, -1))).data.ravel()
    want = [oracles.trunc_sat(int(v), 64, ring.frac_bits, ring.value_bits) for v in vals]
    assert [int(g) for g in got] == want


def test_matmul_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        r, k, c = rng.integers(1, 7, size=3)
        a = FixedTensor(rng.integers(0, 2 ** 64, size=(r, k), dtype=np.uint64))
        b = FixedTensor(rng.integers(0, 2 ** 64, size=(k, c), dtype=np.uint64))
        got = mat_mul(a, b).data.tolist()
        want = oracles.matmul_mod(
            [[int(v) for v in row] for row in a.data],
            [[int(v) for v in row] for row in b.data],
            64,
        )
        assert got == want


def test_matmul_associative_mod_ring():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = FixedTensor(rng.integers(0, 2 ** 64, size=(3, 4), dtype=np.uint64))
        b = FixedTensor(rng.integers(0, 2 ** 64, size=(4, 5), dtype=np.uint64))
        c = FixedTensor(rng.integers(0, 2 ** 64, size=(5, 2), dtype=np.uint64))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_fixed_point_product_accuracy():
    # decode(truncate(enc(a) * enc(b))) within 2 * 2^-frac_bits of a*b,
    # for representable a, b with |a*b| inside the value range
    rng = np.random.default_rng(29)
    step = 2.0 ** -DEFAULT_RING.frac_bits
    a = rng.integers(-8 << 8, 8 << 8, size=(6, 6)) * step
    b = rng.integers(-7 << 8, 7 << 8, size=(6, 6)) * step
    prod = truncate(FixedTensor.from_float(a) * FixedTensor.from_float(b))
    assert np.abs(prod.to_float() - a * b).max() <= 2 * step


def test_ring_params_validation():
    # the nonpoly stages carry 16-bit values: at the limit a relu stage
    # saturates 200.0 (input at 2f) to the largest 16-bit value; wider
    # value ranges would wrap it instead, so they are refused
    ring = RingParams(value_bits=16, frac_bits=8)
    out = plain_apply(SecureFnSpec("relu", shift=8, ring=ring), [[200 << 16]])
    assert ring.decode(out)[0, 0] == ring.value_limit() / ring.scale == 32767 / 256
    with pytest.raises(ValueError, match="value_bits"):
        RingParams(value_bits=17, frac_bits=8)
    with pytest.raises(ValueError, match="frac_bits"):
        RingParams(value_bits=12, frac_bits=12)
    with pytest.raises(ValueError, match="frac_bits"):
        RingParams(value_bits=12, frac_bits=0)


def test_signed_view_and_private_storage():
    words = np.array([[0, 1, 2 ** 63, 2 ** 64 - 1]], dtype=np.uint64)
    assert DEFAULT_RING.to_signed(words).tolist() == [[0, 1, -(2 ** 63), -1]]
    t = FixedTensor(words)
    words[0, 0] = 7  # the tensor keeps its own copy
    assert int(t.data[0, 0]) == 0


def test_add_sub_neg_group_laws():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = FixedTensor(rng.integers(0, 2 ** 64, size=(4, 4), dtype=np.uint64))
        b = FixedTensor(rng.integers(0, 2 ** 64, size=(4, 4), dtype=np.uint64))
        assert a + b == b + a
        assert (a + b) - b == a
        assert a + (-a) == FixedTensor.zeros(4, 4)
