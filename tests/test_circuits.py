"""Boolean circuit builder and the circuit/semantic equivalence guarantee."""

import numpy as np

from privtrans import fixedfn
from privtrans.circuits import (
    AND,
    CircuitBuilder,
    CircuitOps,
    WireVec,
    eval_circuit,
    pack_bits,
    unpack_bits,
)
from privtrans.fixedfn import SemanticOps, SemVal
from privtrans.ring import DEFAULT_RING

SEM = SemanticOps()


def build(fn, widths):
    """Emit the circuit for fn(ops, [v0, v1, ...])."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    ins = [ops.input(w) for w in widths]
    outs = fn(ops, ins)
    if isinstance(outs, WireVec):
        outs = [outs]
    for o in outs:
        b.mark_output(o)
    return b.build(), [o.width for o in outs]


def run_both(fn, widths, raws):
    """Run fn under both interpreters on the same raw inputs; return the
    (semantic, circuit) output bit patterns."""
    sem_out = fn(SEM, [SemVal(r, w) for r, w in zip(raws, widths)])
    if isinstance(sem_out, SemVal):
        sem_out = [sem_out]
    circ, out_widths = build(fn, widths)
    bits = np.concatenate([pack_bits(r, w) for r, w in zip(raws, widths)])
    got_bits = eval_circuit(circ, bits)
    got = []
    at = 0
    for w in out_widths:
        got.append(unpack_bits(got_bits[at : at + w]))
        at += w
    return [s.bits for s in sem_out], got


def rand_raw(rng, width, n=33):
    return rng.integers(0, 1 << min(width, 63), n, dtype=np.uint64) & np.uint64(
        (1 << width) - 1 if width < 64 else 0xFFFFFFFFFFFFFFFF
    )


def test_adder_exhaustive_w6():
    w = 6
    circ, _ = build(lambda ops, vs: ops.add(vs[0], vs[1]), [w, w])
    a, b = np.meshgrid(np.arange(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))
    bits = np.concatenate([pack_bits(a.ravel(), w), pack_bits(b.ravel(), w)])
    got = unpack_bits(eval_circuit(circ, bits))
    assert np.array_equal(got, (a.ravel() + b.ravel()) % 64)


def test_adder_uses_one_and_per_carry():
    for w in (4, 6, 16, 64):
        circ, _ = build(lambda ops, vs: ops.add(vs[0], vs[1]), [w, w])
        assert circ.and_count == w - 1


def test_sub_and_neg_match_semantics():
    rng = np.random.default_rng(60)
    for w in (5, 13, 64):
        raws = [rand_raw(rng, w), rand_raw(rng, w)]
        sem, got = run_both(lambda ops, vs: ops.sub(vs[0], vs[1]), [w, w], raws)
        assert np.array_equal(sem[0], got[0])
        sem, got = run_both(lambda ops, vs: ops.neg(vs[0]), [w], raws[:1])
        assert np.array_equal(sem[0], got[0])


def test_mul_matches_semantics():
    rng = np.random.default_rng(61)
    for wa, wb in ((4, 4), (11, 7), (21, 21), (32, 31)):
        raws = [rand_raw(rng, wa), rand_raw(rng, wb)]
        sem, got = run_both(lambda ops, vs: ops.mul(vs[0], vs[1]), [wa, wb], raws)
        assert np.array_equal(sem[0], got[0])


def test_shift_resize_bit_ops_match():
    rng = np.random.default_rng(62)
    w = 17

    def mixed(ops, vs):
        v = vs[0]
        return [
            ops.sar(v, 3),
            ops.shl(v, 2),
            ops.resize(v, 9),
            ops.resize(v, 24),
            ops.zext(v, 20),
            ops.bit(v, 5),
            ops.sign(v),
        ]

    sem, got = run_both(mixed, [w], [rand_raw(rng, w)])
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)


def test_ge_mux_lookup_match():
    rng = np.random.default_rng(63)
    w = 12
    table = [((37 * i) ^ 0x155) & 0x3FFF for i in range(64)]

    def mixed(ops, vs):
        a, b, idx = vs
        c = ops.ge(a, b)
        return [c, ops.mux(c, a, b), ops.lookup(table, idx, 14)]

    raws = [rand_raw(rng, w), rand_raw(rng, w), rand_raw(rng, 6)]
    sem, got = run_both(mixed, [w, w, 6], raws)
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)


# -- the equivalence guarantee, one case per nonpoly algorithm ---------------


def test_share_pipeline_equivalence_width_64():
    rng = np.random.default_rng(65)

    def pipeline(ops, vs):
        a, b, r = vs
        x = fixedfn.reconstruct_add(ops, a, b)
        t = fixedfn.trunc_sat(ops, x, DEFAULT_RING.frac_bits, DEFAULT_RING)
        return fixedfn.remask_sub(ops, ops.resize(t, 64), r)

    raws = [rand_raw(rng, 64), rand_raw(rng, 64), rand_raw(rng, 64)]
    raws[0] = (raws[0] << np.uint64(1)) | (raws[2] >> np.uint64(63))  # spread high bits
    sem, got = run_both(pipeline, [64, 64, 64], raws)
    assert np.array_equal(sem[0], got[0])


def test_relu_equivalence():
    rng = np.random.default_rng(66)
    sem, got = run_both(lambda ops, vs: fixedfn.relu(ops, vs[0]), [16], [rand_raw(rng, 16)])
    assert np.array_equal(sem[0], got[0])


def test_max_reduce_equivalence():
    rng = np.random.default_rng(67)
    raws = [rand_raw(rng, 16) for _ in range(5)]
    sem, got = run_both(lambda ops, vs: fixedfn.max_reduce(ops, vs), [16] * 5, raws)
    assert np.array_equal(sem[0], got[0])


def test_gelu_equivalence():
    rng = np.random.default_rng(73)
    sem, got = run_both(
        lambda ops, vs: fixedfn.gelu_approx(ops, vs[0], DEFAULT_RING), [16], [rand_raw(rng, 16)]
    )
    assert np.array_equal(sem[0], got[0])


def test_exp_equivalence():
    rng = np.random.default_rng(68)
    f = DEFAULT_RING.frac_bits
    sem, got = run_both(
        lambda ops, vs: fixedfn.exp_approx(ops, vs[0], f), [16], [rand_raw(rng, 16)]
    )
    assert np.array_equal(sem[0], got[0])


def test_reciprocal_equivalence():
    rng = np.random.default_rng(69)
    sem, got = run_both(
        lambda ops, vs: fixedfn.reciprocal(ops, vs[0]), [20], [rand_raw(rng, 20)]
    )
    assert np.array_equal(sem[0], got[0])


def test_rsqrt_equivalence():
    rng = np.random.default_rng(70)
    for w, frac in ((28, fixedfn.F2), (42, 2 * fixedfn.F2)):
        sem, got = run_both(
            lambda ops, vs: fixedfn.rsqrt(ops, vs[0], in_frac=frac), [w], [rand_raw(rng, w)]
        )
        assert np.array_equal(sem[0], got[0])


def test_softmax_row_equivalence():
    rng = np.random.default_rng(71)
    n = 3
    raws = [rand_raw(rng, 16) for _ in range(n)]
    sem, got = run_both(
        lambda ops, vs: fixedfn.softmax_row(ops, vs, DEFAULT_RING), [16] * n, raws
    )
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)


def test_layernorm_row_equivalence():
    rng = np.random.default_rng(72)
    d = 4
    raws = [rand_raw(rng, 16) for _ in range(d)]
    sem, got = run_both(
        lambda ops, vs: fixedfn.layernorm_row(ops, vs, DEFAULT_RING), [16] * d, raws
    )
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)
