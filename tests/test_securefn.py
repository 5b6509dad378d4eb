"""Secure nonpoly stages: circuits, backends, masking, strict mode."""

import numpy as np
import pytest

from privtrans import fixedfn, securefn
from privtrans.circuits import CircuitBuilder, CircuitOps, pack_bits, unpack_bits
from privtrans.costs import CostReport
from privtrans.model import ModelConfig, final_ln_spec
from privtrans.ring import DEFAULT_RING
from privtrans.securefn import (
    FN_NAMES,
    RangeViolation,
    SecureFnSpec,
    build_secure_circuit,
    check_domain,
    eval_secure,
    plain_apply,
)
from privtrans.transcript import Transcript

from oracles import eval_circuit

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
    SecureFnSpec("relu", 8),
    SecureFnSpec("trunc", 16, shift=F),
    SecureFnSpec("gelu", 16, shift=F),
    SecureFnSpec("softmax_row", 16, count=3),
    SecureFnSpec("layernorm_row", 16, count=4),
]


def test_backends_agree_on_every_fn():
    # gc and semantic must reconstruct identically: 100 random inputs per fn
    assert {s.fn for s in EQUIV_SPECS} == set(FN_NAMES)
    rng = np.random.default_rng(200)
    for spec in EQUIV_SPECS:
        w = spec.bitwidth
        lanes = 100
        raw = rng.integers(0, 1 << w, (lanes, spec.count), dtype=np.uint64)
        xc, xs = share_raw(raw, rng, w)
        # equally seeded rngs draw the same client masks on both backends
        c_sem, s_sem = eval_secure(spec, xc, xs, np.random.default_rng(1))
        c_gc, s_gc = eval_secure(spec, xc, xs, np.random.default_rng(1), backend="gc",
                                 rng_server=np.random.default_rng(2))
        assert np.array_equal(c_sem, c_gc), spec.fn
        assert np.array_equal(s_sem, s_gc), spec.fn
        assert np.array_equal(
            reconstruct(c_sem, s_sem, w), plain_apply(spec, raw)
        ), spec.fn


def test_relu_on_shares_of_negative_is_zero():
    rng = np.random.default_rng(201)
    spec = SecureFnSpec("relu", 64)
    raw = np.array([[DEFAULT_RING.encode(-2.0)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 64)
    c, s = eval_secure(spec, xc, xs, rng)
    assert DEFAULT_RING.decode(reconstruct(c, s, 64)[0, 0]) == 0.0


def test_softmax_on_shares_matches_known_values():
    rng = np.random.default_rng(202)
    spec = SecureFnSpec("softmax_row", 64, count=3, shift=0)
    raw = np.array([[DEFAULT_RING.encode(v) for v in (1.0, 2.0, 3.0)]], dtype=np.uint64)
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


def test_64_bit_softmax_row_agrees_across_backends():
    # x - max on 64-bit lanes stays one 64-bit word in both backends, so a
    # row whose difference wraps the ring reconstructs the same on each
    spec = SecureFnSpec("softmax_row", 64, count=2)
    raw = np.array([[2**63 - 1, 2**63]], dtype=np.uint64)
    xc, xs = share_raw(raw, np.random.default_rng(210), 64)
    for backend in ("semantic", "gc"):
        c, s = eval_secure(spec, xc, xs, np.random.default_rng(211), backend=backend,
                           rng_server=np.random.default_rng(212))
        assert reconstruct(c, s, 64).tolist() == [[128, 128]], backend
    assert plain_apply(spec, raw).tolist() == [[128, 128]]


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
    raw = np.array([[DEFAULT_RING.encode(5.0)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 64)
    # the client's new share is eval_secure's first draw from its rng
    want = np.random.default_rng(7).integers(0, 1 << 64, (1, 1), dtype=np.uint64)
    c, s = eval_secure(spec, xc, xs, np.random.default_rng(7))
    assert np.array_equal(c, want)
    assert reconstruct(c, s, 64)[0, 0] == raw[0, 0]


def test_strict_mode_flags_domain_violations():
    rng = np.random.default_rng(205)
    spec = SecureFnSpec("relu", 64, shift=F)
    big = np.array([[int(100.0 * (1 << 2 * F))]], dtype=np.uint64)  # beyond +-64
    xc, xs = share_raw(big, rng, 64)
    with pytest.raises(RangeViolation):
        eval_secure(spec, xc, xs, rng, strict=True)
    eval_secure(spec, xc, xs, rng, strict=False)  # permissive clamps instead


def test_strict_mode_checks_unshifted_stages():
    # pre-norm layer norms run at shift 0 and cut each input to 20 bits at
    # d_emb=8, so 600000 and 600000 - 2^20 would give the same output
    pre_cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=32, d_ff=16, norm="pre")
    spec = final_ln_spec(pre_cfg)
    assert spec.shift == 0
    with pytest.raises(RangeViolation, match="layernorm_row"):
        check_domain(spec, [[600000] + [0] * 7])
    lim = DEFAULT_RING.value_limit()
    check_domain(spec, np.array([[lim, -lim] + [0] * 6], dtype=np.int64).astype(np.uint64))
    with pytest.raises(RangeViolation):
        check_domain(spec, np.array([[-lim - 1] + [0] * 7], dtype=np.int64).astype(np.uint64))


def test_cost_logging_matches_message_bytes():
    # online gc bytes must equal the logged material plus the OT traffic
    rng = np.random.default_rng(206)
    spec = SecureFnSpec("relu", 16)
    raw = rng.integers(0, 1 << 16, (20, 1), dtype=np.uint64)
    xc, xs = share_raw(raw, rng, 16)
    report = CostReport("client")
    t = Transcript()
    eval_secure(spec, xc, xs, rng, backend="gc", report=report, transcript=t, step="SoftMax",
                rng_server=np.random.default_rng(205))
    circ = build_secure_circuit(spec)
    assert report.get("SoftMax", "offline", "gc_and_gates") == circ.and_count
    n_bits = 16 * 20
    assert report.get("SoftMax", "online", "ot_count") == n_bits
    material = report.get("SoftMax", "online", "gc_table_bytes")
    ot_bytes = sum(m.nbytes for m in t.messages if m.kind == "ot")
    assert t.bytes_sent("SoftMax", "online") == material + ot_bytes
    assert t.interactions("SoftMax") == 1


def test_logged_ot_bytes_equal_the_bytes_run_ot_moves(monkeypatch):
    moved = []
    real_run_ot = securefn.run_ot

    def spy(*args):
        labels, nbytes = real_run_ot(*args)
        moved.append(nbytes)
        return labels, nbytes

    monkeypatch.setattr(securefn, "run_ot", spy)
    rng = np.random.default_rng(208)
    for spec, lanes in ((SecureFnSpec("relu", 16), 20), (SecureFnSpec("trunc", 64, shift=F), 3)):
        raw = rng.integers(0, 1 << spec.bitwidth, (lanes, 1), dtype=np.uint64)
        xc, xs = share_raw(raw, rng, spec.bitwidth)
        t = Transcript()
        moved.clear()
        eval_secure(spec, xc, xs, rng, backend="gc", transcript=t,
                    rng_server=np.random.default_rng(209))
        ot = [m for m in t.messages if m.kind == "ot"]
        assert [m.sender for m in ot] == ["client", "server"]
        assert len(moved) == 1
        assert sum(m.nbytes for m in ot) == moved[0]


def test_logged_gc_messages_equal_the_objects_that_cross(monkeypatch):
    # measured = modeled: the gc_material message against the tables, constant
    # labels, decode bits and client labels garble made, and the OT messages
    # against what run_ot moved, also for a batch of m = 39 transfers
    seen = {}
    real_garble, real_evaluate, real_run_ot = securefn.garble, securefn.evaluate, securefn.run_ot

    def spy_garble(*args):
        seen["gt"], state = real_garble(*args)
        return seen["gt"], state

    def spy_evaluate(circ, gt, active):
        seen["active"] = active
        return real_evaluate(circ, gt, active)

    def spy_run_ot(*args):
        labels, seen["moved"] = real_run_ot(*args)
        return labels, seen["moved"]

    monkeypatch.setattr(securefn, "garble", spy_garble)
    monkeypatch.setattr(securefn, "evaluate", spy_evaluate)
    monkeypatch.setattr(securefn, "run_ot", spy_run_ot)
    rng = np.random.default_rng(210)
    for spec, lanes in ((SecureFnSpec("relu", 16), 20), (SecureFnSpec("relu", 13), 3),
                        (SecureFnSpec("trunc", 64, shift=F), 3)):
        raw = rng.integers(0, 1 << spec.bitwidth, (lanes, 1), dtype=np.uint64)
        xc, xs = share_raw(raw, rng, spec.bitwidth)
        t = Transcript()
        eval_secure(spec, xc, xs, rng, backend="gc", transcript=t,
                    rng_server=np.random.default_rng(211))
        gt, client_labels = seen["gt"], seen["active"][: 2 * spec.count * spec.bitwidth]
        material = (gt.tables.nbytes + gt.const_labels.nbytes + client_labels.nbytes
                    + gt.decode.nbytes)
        assert [m.nbytes for m in t.messages if m.kind == "gc_material"] == [material]
        assert sum(m.nbytes for m in t.messages if m.kind == "ot") == seen["moved"]


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


def test_gc_backend_needs_the_servers_own_rng():
    # an OT receiver seeded from the garbler's rng would let the garbler
    # recompute the receiver's exponents and read the server's input bits
    spec = SecureFnSpec("relu", 16)
    zeros = np.zeros((2, 1), np.uint64)
    with pytest.raises(ValueError, match="rng_server"):
        eval_secure(spec, zeros, zeros, np.random.default_rng(213), backend="gc")


def test_unknown_backend_is_refused_before_any_work():
    # an unknown backend used to bill the stage's gates, tables and OTs and
    # log its messages before it was refused
    spec = SecureFnSpec("relu", 16)
    zeros = np.zeros((2, 1), np.uint64)
    rng = np.random.default_rng(214)
    report, transcript = CostReport(), Transcript()
    with pytest.raises(ValueError, match="unknown backend 'gcx'"):
        eval_secure(spec, zeros, zeros, rng, backend="gcx", report=report,
                    transcript=transcript, rng_server=np.random.default_rng(215))
    assert report.cells == {} and transcript.messages == []
    # no mask was drawn either
    assert rng.integers(0, 1 << 64, dtype=np.uint64) == \
        np.random.default_rng(214).integers(0, 1 << 64, dtype=np.uint64)
