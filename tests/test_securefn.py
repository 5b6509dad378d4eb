"""Secure nonpoly stages: circuits, backends, masking, domain checks."""

from dataclasses import fields

import numpy as np
import pytest

from privtrans import securefn
from privtrans.circuits import CircuitBuilder, CircuitOps, pack_bits, unpack_bits
from privtrans.costs import CostReport
from privtrans.model import (
    ACTIVATIONS,
    NORM_ORDERS,
    ModelConfig,
    act_spec,
    close_spec,
    norm_spec,
    softmax_spec,
)
from privtrans.ot import KAPPA, TOY_256, ExtReceiver, ExtSender
from privtrans.ring import DEFAULT_RING, RingParams
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


def ot_sides(seed=0):
    """A fresh session's OT: the client's and the server's sides, each with
    its own generator."""
    return dict(ot_sender=ExtSender(np.random.default_rng([seed, 0])),
                ot_receiver=ExtReceiver(np.random.default_rng([seed, 1])))


def logs(seed=0):
    """A fresh report, transcript, step and OT for one eval_secure call."""
    return dict(report=CostReport(), transcript=Transcript(), step="Others", **ot_sides(seed))


def pair_circuit(fn, w):
    """The circuit of the two-input stage fn(ops, x, y) at width w."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    b.mark_output(fn(ops, b.new_input(w), b.new_input(w)))
    return b.build()


def run_pair_circuit(circ, a, b, w):
    bits = np.concatenate([pack_bits(a, w), pack_bits(b, w)])
    return unpack_bits(eval_circuit(circ, bits))


def test_reconstruct_add_circuit_examples_and_exhaustive():
    c8 = pair_circuit(CircuitOps.add, 8)
    got = run_pair_circuit(c8, np.array([3, 255], np.uint64), np.array([4, 1], np.uint64), 8)
    assert got.tolist() == [7, 0]
    c6 = pair_circuit(CircuitOps.add, 6)
    a, b = np.meshgrid(np.arange(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))
    got = run_pair_circuit(c6, a.ravel(), b.ravel(), 6)
    assert np.array_equal(got, (a.ravel() + b.ravel()) % 64)
    assert c6.and_count == 5  # w-1 ANDs; the final carry is never used


def test_remask_sub_circuit_examples_and_exhaustive():
    c8 = pair_circuit(CircuitOps.sub, 8)
    got = run_pair_circuit(c8, np.array([10, 77], np.uint64), np.array([3, 0], np.uint64), 8)
    assert got.tolist() == [7, 77]
    c6 = pair_circuit(CircuitOps.sub, 6)
    y, r = np.meshgrid(np.arange(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))
    got = run_pair_circuit(c6, y.ravel(), r.ravel(), 6)
    assert np.array_equal(got, (y.ravel() - r.ravel()) % 64)


def share_raw(raw, rng):
    """Split raw words (lanes, k) into two uniform shares mod 2^64."""
    r = rng.integers(0, 1 << 64, raw.shape, dtype=np.uint64)
    return raw - r, r


def signed_dec(raw, frac):
    return raw.view(np.int64) / float(1 << frac)


DESK = dict(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
SPEC_FNS = (softmax_spec, act_spec, norm_spec,
            lambda cfg: close_spec(cfg, 3 * cfg.ring.frac_bits),
            lambda cfg: close_spec(cfg, cfg.ring.frac_bits))
# the distinct stages a desk-sized protocol runs, over both activations and
# both norm orders
EQUIV_SPECS = sorted(
    {fn(ModelConfig(**DESK, activation=a, norm=o))
     for fn in SPEC_FNS for a in ACTIVATIONS for o in NORM_ORDERS},
    key=repr,
)


def assert_backends_agree(spec, rng, lanes):
    """gc and semantic must reconstruct identically, and as plain_apply, on
    lanes lanes just inside or past the approximation domain and lanes
    uniform ring words."""
    edge = (spec.ring.value_limit() + 1) << spec.shift
    raw = np.concatenate([
        rng.integers(-edge, edge, (lanes, spec.count), dtype=np.int64).view(np.uint64),
        rng.integers(0, 1 << 64, (lanes, spec.count), dtype=np.uint64),
    ])
    xc, xs = share_raw(raw, rng)
    # equally seeded rngs draw the same client masks on both backends
    c_sem, s_sem = eval_secure(spec, xc, xs, np.random.default_rng(1), **logs(2))
    c_gc, s_gc = eval_secure(spec, xc, xs, np.random.default_rng(1), backend="gc", **logs(2))
    assert np.array_equal(c_sem, c_gc), spec
    assert np.array_equal(s_sem, s_gc), spec
    assert np.array_equal(c_sem + s_sem, plain_apply(spec, raw)), spec


def test_backends_agree_on_every_fn():
    assert {s.fn for s in EQUIV_SPECS} == set(FN_NAMES)
    rng = np.random.default_rng(200)
    for spec in EQUIV_SPECS:
        assert_backends_agree(spec, rng, 50)


@pytest.mark.parametrize("count", [1, 3, 5])
@pytest.mark.parametrize("fn, shift", [("softmax_row", 0), ("softmax_row", 4 * F),
                                       ("layernorm_row", 0), ("layernorm_row", F)])
def test_backends_agree_on_single_element_and_odd_rows(fn, shift, count):
    # row lengths the desk configs never run, unshifted or shifted as the
    # model's softmax and layer-norm stages are
    spec = SecureFnSpec(fn, count=count, shift=shift)
    assert_backends_agree(spec, np.random.default_rng([205, count, shift]), 10)


def test_relu_on_shares_of_negative_is_zero():
    rng = np.random.default_rng(201)
    spec = SecureFnSpec("relu")
    raw = np.array([[DEFAULT_RING.encode(-2.0)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng)
    c, s = eval_secure(spec, xc, xs, rng, **logs())
    assert DEFAULT_RING.decode((c + s)[0, 0]) == 0.0


def test_softmax_on_shares_matches_known_values():
    rng = np.random.default_rng(202)
    spec = SecureFnSpec("softmax_row", count=3, shift=0)
    raw = np.array([[DEFAULT_RING.encode(v) for v in (1.0, 2.0, 3.0)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng)
    c, s = eval_secure(spec, xc, xs, rng, **logs())
    got = signed_dec(c + s, F)[0]
    want = np.array([0.0900, 0.2447, 0.6652])
    assert np.max(np.abs(got - want)) <= 2.0 ** -5

    spec2 = SecureFnSpec("softmax_row", count=2)
    raw2 = np.zeros((1, 2), dtype=np.uint64)
    xc2, xs2 = share_raw(raw2, rng)
    c2, s2 = eval_secure(spec2, xc2, xs2, rng, **logs())
    got2 = signed_dec(c2 + s2, F)[0]
    assert np.max(np.abs(got2 - 0.5)) <= 2.0 ** -6


def test_64_bit_softmax_row_agrees_across_backends():
    # x - max on 64-bit lanes stays one 64-bit word in both backends, so a
    # row whose difference wraps the ring reconstructs the same on each
    spec = SecureFnSpec("softmax_row", count=2)
    raw = np.array([[2**63 - 1, 2**63]], dtype=np.uint64)
    xc, xs = share_raw(raw, np.random.default_rng(210))
    for backend in ("semantic", "gc"):
        c, s = eval_secure(spec, xc, xs, np.random.default_rng(211), backend=backend,
                           **logs(212))
        assert (c + s).tolist() == [[128, 128]], backend
    assert plain_apply(spec, raw).tolist() == [[128, 128]]


def test_shift_stage_truncates_before_fn():
    # shares carry 2f fraction bits; relu with shift=f must emit f bits
    rng = np.random.default_rng(203)
    spec = SecureFnSpec("relu", shift=F)
    vals = [-3.5, -0.125, 0.0, 7.25, 60.0]
    raw = np.array([[int(round(v * (1 << 2 * F))) % (1 << 64)] for v in vals], dtype=np.uint64)
    xc, xs = share_raw(raw, rng)
    c, s = eval_secure(spec, xc, xs, rng, **logs())
    got = signed_dec(c + s, F)[:, 0]
    assert got.tolist() == [0.0, 0.0, 0.0, 7.25, 60.0]


def test_fresh_masks_are_the_client_share():
    rng = np.random.default_rng(204)
    spec = SecureFnSpec("relu")
    raw = np.array([[DEFAULT_RING.encode(5.0)]], dtype=np.uint64)
    xc, xs = share_raw(raw, rng)
    # the client's new share is eval_secure's first draw from its rng
    want = np.random.default_rng(7).integers(0, 1 << 64, (1, 1), dtype=np.uint64)
    c, s = eval_secure(spec, xc, xs, np.random.default_rng(7), **logs())
    assert np.array_equal(c, want)
    assert (c + s)[0, 0] == raw[0, 0]


def test_strict_mode_flags_domain_violations():
    spec = SecureFnSpec("relu", shift=F)
    big = np.array([[int(100.0 * (1 << 2 * F))]], dtype=np.uint64)  # beyond +-64
    with pytest.raises(RangeViolation, match="relu"):
        check_domain(spec, big)
    # the bound holds after the shift: any low bits of the limit pass
    lim = DEFAULT_RING.value_limit()
    check_domain(spec, np.array([[((lim + 1) << F) - 1], [-lim << F]]).astype(np.uint64))
    with pytest.raises(RangeViolation):
        check_domain(spec, np.array([[(lim + 1) << F]], dtype=np.uint64))
    with pytest.raises(RangeViolation):
        check_domain(spec, np.array([[(-lim << F) - 1]]).astype(np.uint64))
    # the protocol stage itself saturates instead of refusing
    rng = np.random.default_rng(205)
    xc, xs = share_raw(big, rng)
    c, s = eval_secure(spec, xc, xs, rng, **logs())
    assert np.array_equal(c + s, plain_apply(spec, big))


def test_strict_mode_checks_unshifted_stages():
    # pre-norm layer norms run at shift 0 and cut each input to 20 bits at
    # d_emb=8, so 600000 and 600000 - 2^20 would give the same output
    pre_cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=32, d_ff=16, norm="pre")
    spec = norm_spec(pre_cfg)
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
    spec = SecureFnSpec("relu")
    raw = rng.integers(0, 1 << 64, (20, 1), dtype=np.uint64)
    xc, xs = share_raw(raw, rng)
    report = CostReport()
    t = Transcript()
    eval_secure(spec, xc, xs, rng, backend="gc", report=report, transcript=t, step="SoftMax",
                **ot_sides(205))
    circ = build_secure_circuit(spec)
    assert report.get("SoftMax", "offline", "gc_and_gates") == circ.and_count
    n_bits = 64 * 20
    assert report.get("SoftMax", "online", "ot_count") == n_bits
    # a fresh session: this stage runs, and counts, its KAPPA base OTs
    assert report.get("SoftMax", "online", "base_ot_count") == KAPPA
    material = report.get("SoftMax", "online", "gc_table_bytes")
    ot_bytes = sum(m.nbytes for m in t.messages if m.kind == "ot")
    assert t.bytes_sent("SoftMax", "online") == material + ot_bytes
    assert t.interactions("SoftMax") == 1


def test_logged_ot_bytes_equal_the_bytes_run_ot_moves(monkeypatch):
    # stage by stage and summed over one session: the first stage's OT also
    # carries the session's base OTs, a later stage only its extension
    moved = []
    real_run_ot = securefn.run_ot

    def spy(*args):
        labels, nbytes = real_run_ot(*args)
        moved.append(nbytes)
        return labels, nbytes

    monkeypatch.setattr(securefn, "run_ot", spy)
    rng = np.random.default_rng(208)
    t, session_ot = Transcript(), ot_sides(209)
    stages = ((SecureFnSpec("relu"), 20), (SecureFnSpec("trunc", shift=F), 3))
    for spec, lanes in stages:
        raw = rng.integers(0, 1 << 64, (lanes, 1), dtype=np.uint64)
        xc, xs = share_raw(raw, rng)
        before = len(t.messages)
        eval_secure(spec, xc, xs, rng, backend="gc", report=CostReport(), transcript=t,
                    step="Others", **session_ot)
        ot = [m for m in t.messages[before:] if m.kind == "ot"]
        assert [m.sender for m in ot] == ["client", "server"]
        assert sum(m.nbytes for m in ot) == moved[-1]
    assert len(moved) == len(stages)
    assert sum(m.nbytes for m in t.messages if m.kind == "ot") == sum(moved)
    base = TOY_256.element_bytes * (1 + KAPPA) + KAPPA * 32
    assert base == 8224
    per_transfer = KAPPA // 8 + 16  # a bit of each column u, a masked pair
    assert moved == [base + per_transfer * 64 * 20, per_transfer * 64 * 3]


def test_logged_gc_messages_equal_the_objects_that_cross(monkeypatch):
    # measured = modeled: the gc_material message against every field of the
    # GarbledTables garble made (tables, constant labels, output hashes) and
    # the client labels, and the OT messages against what run_ot moved, also
    # for a row stage of count 3
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
    for spec, lanes in ((SecureFnSpec("relu"), 20), (SecureFnSpec("softmax_row", count=3), 3),
                        (SecureFnSpec("trunc", shift=F), 3)):
        raw = rng.integers(0, 1 << 64, (lanes, spec.count), dtype=np.uint64)
        xc, xs = share_raw(raw, rng)
        t = Transcript()
        eval_secure(spec, xc, xs, rng, backend="gc", report=CostReport(), transcript=t,
                    step="Others", **ot_sides(211))
        gt, client_labels = seen["gt"], seen["active"][: 2 * spec.count * 64]
        material = sum(getattr(gt, f.name).nbytes for f in fields(gt)) + client_labels.nbytes
        assert [m.nbytes for m in t.messages if m.kind == "gc_material"] == [material]
        assert sum(m.nbytes for m in t.messages if m.kind == "ot") == seen["moved"]


def test_spec_refuses_a_fraction_beyond_the_stages_internal_one():
    # the softmax row's exp segments work at fixedfn.F2 = 12 fractional
    # bits; a direct caller got a bare AssertionError from exp_approx
    ring = RingParams(value_bits=16, frac_bits=13)
    with pytest.raises(ValueError, match=r"^frac_bits=13 exceeds 12"):
        plain_apply(SecureFnSpec("softmax_row", count=2, ring=ring), [[1, 2]])
    for fn in FN_NAMES:
        with pytest.raises(ValueError, match=r"^frac_bits=13"):
            SecureFnSpec(fn, ring=ring)
    SecureFnSpec("softmax_row", count=2, ring=RingParams(value_bits=16, frac_bits=12))


def test_spec_refuses_gelu_below_two_fractional_bits():
    # the GELU segments are indexed by the two bits above the point; at one
    # fractional bit the stage died with "negative shift count"
    with pytest.raises(ValueError, match=r"^frac_bits=1 is below 2"):
        SecureFnSpec("gelu", ring=RingParams(value_bits=16, frac_bits=1))
    SecureFnSpec("relu", ring=RingParams(value_bits=16, frac_bits=1))
    SecureFnSpec("gelu", ring=RingParams(value_bits=16, frac_bits=2))


def test_rejects_bad_shapes_and_unknown_fn():
    with pytest.raises(ValueError):
        SecureFnSpec("median")
    with pytest.raises(ValueError):
        SecureFnSpec("relu", count=3)
    # a negative shift would make the backends disagree (semantic 0, gc -1
    # for trunc), a fractional one die slicing, and count 0 die indexing
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match=r"^shift must be an integer >= 0"):
            SecureFnSpec("trunc", shift=bad)
    for bad in (0, -2, 2.0, True):
        with pytest.raises(ValueError, match=r"^count must be an integer >= 1"):
            SecureFnSpec("softmax_row", count=bad)
    # every share is 64 bits: a leftover positional width is refused, not
    # read as the row length
    with pytest.raises(TypeError):
        SecureFnSpec("softmax_row", 16)
    rng = np.random.default_rng(207)
    with pytest.raises(ValueError):
        eval_secure(
            SecureFnSpec("softmax_row", count=3),
            np.zeros((2, 2), np.uint64),
            np.zeros((2, 2), np.uint64),
            rng,
            **logs(),
        )


def test_gc_backend_needs_the_servers_own_rng():
    # an OT receiver seeded from the garbler's rng would let the garbler
    # recompute the receiver's exponents and read the server's input bits;
    # the server's side of the OT, with its own generator, is a required
    # argument of every call
    spec = SecureFnSpec("relu")
    zeros = np.zeros((2, 1), np.uint64)
    with pytest.raises(TypeError, match="ot_receiver"):
        eval_secure(spec, zeros, zeros, np.random.default_rng(213), backend="gc",
                    report=CostReport(), transcript=Transcript(), step="Others",
                    ot_sender=ExtSender(np.random.default_rng(213)))


def test_unknown_backend_is_refused_before_any_work():
    # an unknown backend used to bill the stage's gates, tables and OTs and
    # log its messages before it was refused
    spec = SecureFnSpec("relu")
    zeros = np.zeros((2, 1), np.uint64)
    rng = np.random.default_rng(214)
    report, transcript = CostReport(), Transcript()
    with pytest.raises(ValueError, match="unknown backend 'gcx'"):
        eval_secure(spec, zeros, zeros, rng, backend="gcx", report=report,
                    transcript=transcript, step="Others", **ot_sides(215))
    assert report.cells == {} and transcript.messages == []
    # no mask was drawn either
    assert rng.integers(0, 1 << 64, dtype=np.uint64) == \
        np.random.default_rng(214).integers(0, 1 << 64, dtype=np.uint64)
