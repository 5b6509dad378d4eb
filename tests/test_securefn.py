"""Secure nonpoly stages: circuits, backends, masking, strict mode."""

import numpy as np
import pytest

from privtrans import fixedfn
from privtrans.circuits import CircuitBuilder, CircuitOps, eval_circuit, pack_bits, unpack_bits
from privtrans.costs import CostReport
from privtrans.fixedfn import F2
from privtrans.ring import DEFAULT_RING, fx_decode, fx_encode
from privtrans.securefn import (
    FN_NAMES,
    RangeViolation,
    SecureFnSpec,
    build_secure_circuit,
    eval_secure,
    plain_apply,
)
from privtrans.transcript import Transcript

F = DEFAULT_RING.frac_bits


def pair_circuit(fn, w):
    """The circuit of the two-input stage fn(ops, x, y) at width w."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    b.mark_output(fn(ops, ops.input(w), ops.input(w)))
    return b.build()


def run_pair_circuit(circ, a, b, w):
    bits = np.concatenate([pack_bits(a, w), pack_bits(b, w)])
    return unpack_bits(eval_circuit(circ, bits))


def test_reconstruct_add_circuit_examples_and_exhaustive():
    c8 = pair_circuit(fixedfn.reconstruct_add, 8)
    got = run_pair_circuit(c8, np.array([3, 255], np.uint64), np.array([4, 1], np.uint64), 8)
    assert got.tolist() == [7, 0]
    c6 = pair_circuit(fixedfn.reconstruct_add, 6)
    a, b = np.meshgrid(np.arange(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))
    got = run_pair_circuit(c6, a.ravel(), b.ravel(), 6)
    assert np.array_equal(got, (a.ravel() + b.ravel()) % 64)
    assert c6.and_count == 5  # w-1 ANDs; the final carry is never used


def test_remask_sub_circuit_examples_and_exhaustive():
    c8 = pair_circuit(fixedfn.remask_sub, 8)
    got = run_pair_circuit(c8, np.array([10, 77], np.uint64), np.array([3, 0], np.uint64), 8)
    assert got.tolist() == [7, 77]
    c6 = pair_circuit(fixedfn.remask_sub, 6)
    y, r = np.meshgrid(np.arange(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))
    got = run_pair_circuit(c6, y.ravel(), r.ravel(), 6)
    assert np.array_equal(got, (y.ravel() - r.ravel()) % 64)


def share_raw(raw, rng, w):
    """Split raw words (lanes, k) into two uniform shares mod 2^w."""
    mask = np.uint64((1 << w) - 1 if w < 64 else 0xFFFFFFFFFFFFFFFF)
    r = rng.integers(0, 1 << 64, raw.shape, dtype=np.uint64) & mask
    return (raw - r) & mask, r


def reconstruct(c, s, w):
    mask = np.uint64((1 << w) - 1 if w < 64 else 0xFFFFFFFFFFFFFFFF)
    return (c + s) & mask


def signed_dec(raw, w, frac):
    shift = np.uint64(64 - w)
    return ((raw << shift).view(np.int64) >> np.int64(64 - w)) / float(1 << frac)


EQUIV_SPECS = [
    SecureFnSpec("reconstruct_add", 8),
    SecureFnSpec("remask_sub", 8),
    SecureFnSpec("relu", 8),
    SecureFnSpec("trunc", 16, shift=F),
    SecureFnSpec("gelu", 16, shift=F),
    SecureFnSpec("exp_approx", 16, in_frac=F),
    SecureFnSpec("reciprocal", 16),
    SecureFnSpec("max_reduce", 16, count=4),
    SecureFnSpec("softmax_row", 16, count=3),
    SecureFnSpec("layernorm_row", 16, count=4),
]


def test_backends_agree_on_every_fn():
    # gc and semantic must reconstruct identically: 100 random inputs per fn
    assert {s.fn for s in EQUIV_SPECS} >= set(FN_NAMES) - {"softmax_row"} | {"softmax_row"}
    rng = np.random.default_rng(200)
    for spec in EQUIV_SPECS:
        w = spec.bitwidth
        lanes = 100
        raw = rng.integers(0, 1 << w, (lanes, spec.n_in), dtype=np.uint64)
        xc, xs = share_raw(raw, rng, w)
        masks = rng.integers(0, 1 << w, (lanes, spec.n_out), dtype=np.uint64)
        c_sem, s_sem = eval_secure(spec, xc, xs, np.random.default_rng(1), masks=masks)
        c_gc, s_gc = eval_secure(
            spec, xc, xs, np.random.default_rng(1), masks=masks, backend="gc"
        )
        assert np.array_equal(c_sem, c_gc), spec.fn
        assert np.array_equal(s_sem, s_gc), spec.fn
        assert np.array_equal(
            reconstruct(c_sem, s_sem, w), plain_apply(spec, raw)
        ), spec.fn


def test_relu_on_shares_of_negative_is_zero():
    rng = np.random.default_rng(201)
    spec = SecureFnSpec("relu", 64)
    raw = np.array([[fx_encode(-2.0, DEFAULT_RING)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 64)
    c, s = eval_secure(spec, xc, xs, rng)
    assert fx_decode(reconstruct(c, s, 64)[0, 0], DEFAULT_RING) == 0.0


def test_softmax_on_shares_matches_known_values():
    rng = np.random.default_rng(202)
    spec = SecureFnSpec("softmax_row", 64, count=3, shift=0)
    raw = np.array([[fx_encode(v, DEFAULT_RING) for v in (1.0, 2.0, 3.0)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 64)
    c, s = eval_secure(spec, xc, xs, rng)
    got = signed_dec(reconstruct(c, s, 64), 64, F)[0]
    want = np.array([0.0900, 0.2447, 0.6652])
    assert np.max(np.abs(got - want)) <= 2.0 ** -5

    spec2 = SecureFnSpec("softmax_row", 64, count=2)
    raw2 = np.zeros((1, 2), dtype=np.uint64)
    xc2, xs2 = share_raw(raw2, rng, 64)
    c2, s2 = eval_secure(spec2, xc2, xs2, rng)
    got2 = signed_dec(reconstruct(c2, s2, 64), 64, F)[0]
    assert np.max(np.abs(got2 - 0.5)) <= 2.0 ** -6


def test_shift_stage_truncates_before_fn():
    # shares carry 2f fraction bits; relu with shift=f must emit f bits
    rng = np.random.default_rng(203)
    spec = SecureFnSpec("relu", 64, shift=F)
    vals = [-3.5, -0.125, 0.0, 7.25, 60.0]
    raw = np.array([[int(round(v * (1 << 2 * F))) % (1 << 64)] for v in vals], dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 64)
    c, s = eval_secure(spec, xc, xs, rng)
    got = signed_dec(reconstruct(c, s, 64), 64, F)[:, 0]
    assert got.tolist() == [0.0, 0.0, 0.0, 7.25, 60.0]


def test_fresh_masks_are_the_client_share():
    rng = np.random.default_rng(204)
    spec = SecureFnSpec("relu", 64)
    raw = np.array([[fx_encode(5.0, DEFAULT_RING)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 64)
    masks = np.array([[123456789]], dtype=np.uint64)
    c, s = eval_secure(spec, xc, xs, rng, masks=masks)
    assert c[0, 0] == 123456789
    assert reconstruct(c, s, 64)[0, 0] == raw[0, 0]


def test_strict_mode_flags_domain_violations():
    rng = np.random.default_rng(205)
    spec = SecureFnSpec("relu", 64, shift=F)
    big = np.array([[int(100.0 * (1 << 2 * F))]], dtype=np.uint64)  # beyond +-64
    xc, xs = share_raw(big, rng, 64)
    with pytest.raises(RangeViolation):
        eval_secure(spec, xc, xs, rng, strict=True)
    eval_secure(spec, xc, xs, rng, strict=False)  # permissive clamps instead

    pos = np.array([[1 << F2]], dtype=np.uint64)
    xc, xs = share_raw(pos, rng, 64)
    with pytest.raises(RangeViolation):
        eval_secure(SecureFnSpec("exp_approx", 64), xc, xs, rng, strict=True)
    tiny = np.array([[3]], dtype=np.uint64)  # below the reciprocal floor of 0.5
    xc, xs = share_raw(tiny, rng, 64)
    with pytest.raises(RangeViolation):
        eval_secure(SecureFnSpec("reciprocal", 64), xc, xs, rng, strict=True)


def test_cost_logging_matches_message_bytes():
    # online gc bytes must equal the logged material plus the OT traffic
    rng = np.random.default_rng(206)
    spec = SecureFnSpec("relu", 16)
    raw = rng.integers(0, 1 << 16, (20, 1), dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 16)
    report = CostReport("client")
    t = Transcript()
    eval_secure(spec, xc, xs, rng, backend="gc", report=report, transcript=t, step="SoftMax")
    circ = build_secure_circuit(spec)
    assert report.get("SoftMax", "offline", "gc_and_gates") == circ.and_count
    n_bits = 16 * 20
    assert report.get("SoftMax", "online", "ot_count") == n_bits
    material = report.get("SoftMax", "online", "gc_table_bytes")
    ot_bytes = sum(m.nbytes for m in t.messages if m.kind == "ot")
    assert t.bytes_sent("SoftMax", "online") == material + ot_bytes
    assert t.interactions("SoftMax") == 1


def test_rejects_bad_shapes_and_unknown_fn():
    with pytest.raises(ValueError):
        SecureFnSpec("median", 64)
    with pytest.raises(ValueError):
        SecureFnSpec("relu", 64, count=3)
    rng = np.random.default_rng(207)
    with pytest.raises(ValueError):
        eval_secure(
            SecureFnSpec("softmax_row", 64, count=3),
            np.zeros((2, 2), np.uint64),
            np.zeros((2, 2), np.uint64),
            rng,
        )
