"""Integer nonpoly algorithms against float oracles (semantic backend)."""

import math

import numpy as np
import pytest

from privtrans import fixedfn
from privtrans.fixedfn import (
    F2,
    SemanticOps,
    SemVal,
    exp_approx,
    gelu_approx,
    layernorm_row,
    normalize,
    reciprocal,
    relu,
    rsqrt,
    softmax_row,
    trunc_sat,
    wrap,
)
from privtrans.ring import DEFAULT_RING
from privtrans.securefn import SecureFnSpec, plain_apply

import oracles
from test_protocol_identity import STAGE_SPECS

OPS = SemanticOps()


def enc(x, frac: int, width: int) -> SemVal:
    """Encode floats (scalar or array) into width-bit values."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    scaled = arr * (1 << frac)
    q = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5)).astype(np.int64)
    return SemVal(wrap(q, width), width)


def dec(v: SemVal, frac: int) -> np.ndarray:
    return v.bits / float(1 << frac)


def stack(vals: list[SemVal]) -> SemVal:
    """Values of one width as one semantic row, laid out (count, lanes)."""
    return SemVal(np.stack([v.bits for v in vals]), vals[0].width)


def from_ring(words: np.ndarray) -> SemVal:
    """Raw ring words mod 2^64 as a 64-bit value."""
    return SemVal(words.view(np.int64), 64)


def to_ring(v: SemVal) -> np.ndarray:
    """A 64-bit value as its raw ring words."""
    return v.bits.view(np.uint64)


def test_exp_close_to_float():
    f = DEFAULT_RING.frac_bits
    u = np.concatenate([
        np.linspace(-16.0, 0.0, 2000),
        np.random.default_rng(40).uniform(-16, 0, 2000),
    ])
    got = dec(exp_approx(OPS, enc(u, f, 16), f), F2)
    # encoding to 2^-8 perturbs u by up to 2^-9, worth e^u * 2^-9 in output
    want = np.exp(np.round(u * (1 << f)) / (1 << f))
    assert np.max(np.abs(got - want)) <= 2.0 ** -6


def test_exp_of_zero_is_exactly_one():
    f = DEFAULT_RING.frac_bits
    got = exp_approx(OPS, enc(0.0, f, 16), f)
    assert int(got.bits[0]) == 1 << F2


def test_exp_clamps_below_minus_16():
    f = DEFAULT_RING.frac_bits
    got = dec(exp_approx(OPS, enc(-50.0, f, 16), f), F2)
    assert got[0] <= math.exp(-15.9) and got[0] >= 0.0


def test_reciprocal_close_to_float():
    rng = np.random.default_rng(41)
    v = np.concatenate([
        rng.uniform(0.5, 64.0, 3000),
        np.linspace(0.5, 64.0, 1000),
    ])
    got = dec(reciprocal(OPS, enc(v, F2, 20)), F2)
    want = 1.0 / (np.round(v * (1 << F2)) / (1 << F2))
    assert np.max(np.abs(got - want)) <= 2.0 ** -6


def test_reciprocal_exact_powers_of_two():
    for k in range(0, 6):
        got = dec(reciprocal(OPS, enc(float(1 << k), F2, 20)), F2)
        assert abs(got[0] - 2.0 ** -k) <= 2.0 ** -10


def normalize_inputs(w: int, seed: int) -> np.ndarray:
    """w-bit inputs for normalize, sign-extended in int64: every one up to
    w = 12; wider, 0, +-1, each power of two and its neighbours (both
    signs), the extremes, every shift count by a random value of each bit
    length, and uniform draws."""
    lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
    if w <= 12:
        return np.arange(lo, hi + 1, dtype=np.int64)
    edges = {0, 1, -1, lo, lo + 1, hi, hi - 1}
    for i in range(w - 1):
        p = 1 << i
        edges |= {p - 1, p, p + 1, -p - 1, -p, -p + 1}
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, w, 2000)
    by_length = rng.integers(1 << 61, 1 << 62, 2000) >> (62 - lengths)
    uniform = rng.integers(lo, hi, 2000, endpoint=True)
    return np.concatenate([np.array(sorted(edges), dtype=np.int64), by_length, uniform])


def stage_normalize_widths(monkeypatch) -> set:
    """The input widths the stages of the desk, sem-wide and sem-long
    configs hand to normalize, read off a run of each stage."""
    widths = set()

    def recording(ops, v):
        widths.add(v.width)
        return normalize(ops, v)

    monkeypatch.setattr(fixedfn, "normalize", recording)
    for spec in STAGE_SPECS.values():
        plain_apply(spec, np.zeros((1, spec.count), dtype=np.uint64))
    monkeypatch.undo()
    return widths


def test_normalize_matches_the_linear_oracle_at_every_stage_width(monkeypatch):
    # the softmax sums, one width per row length, and the layer norm's
    # variance
    stage_widths = stage_normalize_widths(monkeypatch)
    assert len(stage_widths) >= 2 and min(stage_widths) > 12
    for w in sorted(set(range(1, 13)) | stage_widths):
        v = SemVal(normalize_inputs(w, seed=w), w)
        m, e = normalize(OPS, v)
        want_m, want_e = oracles.normalize_linear(OPS, v)
        assert (m.width, e.width) == (want_m.width, want_e.width), w
        assert np.array_equal(m.bits, want_m.bits), w
        assert np.array_equal(e.bits, want_e.bits), w


def test_rsqrt_close_to_float():
    # accuracy floor: relative 2^-8 from two Newton steps, plus one output ulp
    rng = np.random.default_rng(42)
    v = np.concatenate([
        rng.uniform(2.0 ** -10, 4.0, 3000),
        np.exp(rng.uniform(np.log(2.0 ** -12), np.log(2.0 ** 14), 3000)),
    ])
    got = dec(rsqrt(OPS, enc(v, F2, 28)), F2)
    vq = np.maximum(np.round(v * (1 << F2)), 1) / (1 << F2)
    want = 1.0 / np.sqrt(vq)
    assert np.max(np.abs(got - want) - want * 2.0 ** -8) <= 2.0 ** -F2


def test_rsqrt_high_precision_input():
    rng = np.random.default_rng(52)
    v = np.exp(rng.uniform(np.log(2.0 ** -12), np.log(2.0 ** 13), 4000))
    frac = 2 * F2
    got = dec(rsqrt(OPS, enc(v, frac, 42), in_frac=frac), F2)
    vq = np.round(v * (1 << frac)) / (1 << frac)
    want = 1.0 / np.sqrt(vq)
    assert np.max(np.abs(got - want) - want * 2.0 ** -8) <= 2.0 ** -F2


def test_relu_and_row_max():
    rng = np.random.default_rng(43)
    x = rng.uniform(-8, 8, (5, 100))
    f = DEFAULT_RING.frac_bits
    vals = [enc(x[i], f, 16) for i in range(5)]
    for i in range(5):
        got = dec(relu(OPS, vals[i]), f)
        want = np.maximum(np.round(x[i] * 256) / 256, 0.0)
        assert np.array_equal(got, want)
    got_max = dec(OPS.max(stack(vals)), f)
    want_max = np.round(x * 256).max(axis=0) / 256
    assert np.array_equal(got_max, want_max)


def test_gelu_close_to_float():
    f = DEFAULT_RING.frac_bits
    xs = np.linspace(-12, 12, 4001)
    xq = np.round(xs * (1 << f)) / (1 << f)
    got = dec(gelu_approx(OPS, enc(xs, f, 16), DEFAULT_RING), f)
    want = 0.5 * xq * (1.0 + np.vectorize(math.erf)(xq / math.sqrt(2.0)))
    assert np.max(np.abs(got - want)) <= 2.0 ** -6


def test_gelu_tails_are_exact():
    f = DEFAULT_RING.frac_bits
    big = dec(gelu_approx(OPS, enc([9.0, 25.5, 63.0], f, 16), DEFAULT_RING), f)
    assert big.tolist() == [9.0, 25.5, 63.0]
    low = dec(gelu_approx(OPS, enc([-8.0, -20.0, -63.0], f, 16), DEFAULT_RING), f)
    assert low.tolist() == [0.0, 0.0, 0.0]


def test_reconstruct_and_remask_are_ring_exact():
    rng = np.random.default_rng(44)
    x = rng.integers(0, 1 << 64, 200, dtype=np.uint64)
    r = rng.integers(0, 1 << 64, 200, dtype=np.uint64)
    a = from_ring(x - r)
    got = OPS.add(a, from_ring(r))
    assert np.array_equal(to_ring(got), x)
    r2 = rng.integers(0, 1 << 64, 200, dtype=np.uint64)
    remasked = OPS.sub(got, from_ring(r2))
    assert np.array_equal(to_ring(remasked), x - r2)


def test_trunc_sat_matches_ring_oracle():
    rng = np.random.default_rng(45)
    raw = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    got = trunc_sat(OPS, from_ring(raw), DEFAULT_RING.frac_bits, DEFAULT_RING)
    want = [
        oracles.trunc_sat(int(v), 64, DEFAULT_RING.frac_bits, DEFAULT_RING.value_bits)
        for v in raw
    ]
    assert to_ring(got).tolist() == want


def test_softmax_row_close_to_float():
    f = DEFAULT_RING.frac_bits
    rng = np.random.default_rng(46)
    rows = 1000
    for n in (2, 3, 4, 8):
        x = rng.uniform(-8, 8, (n, rows))
        xq = np.round(x * (1 << f)) / (1 << f)
        xs = stack([enc(x[i], f, 16) for i in range(n)])
        got = dec(softmax_row(OPS, xs, DEFAULT_RING), f)
        want = np.stack([np.array(oracles.softmax(list(col))) for col in xq.T], axis=1)
        assert np.max(np.abs(got - want)) <= 2.0 ** -5
        sums = got.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= n * 2.0 ** -5


def test_softmax_known_triple():
    f = DEFAULT_RING.frac_bits
    xs = stack([enc(v, f, 16) for v in (1.0, 2.0, 3.0)])
    got = dec(softmax_row(OPS, xs, DEFAULT_RING), f)[:, 0].tolist()
    want = [0.0900, 0.2447, 0.6652]
    for g, w in zip(got, want):
        assert abs(g - w) <= 2.0 ** -5


def test_layernorm_row_close_to_float():
    f = DEFAULT_RING.frac_bits
    rng = np.random.default_rng(47)
    for d in (2, 4, 8, 16):
        x = rng.uniform(-8, 8, (d, 500))
        xq = np.round(x * (1 << f)) / (1 << f)
        xs = stack([enc(x[i], f, 16) for i in range(d)])
        got = dec(layernorm_row(OPS, xs, DEFAULT_RING), f)
        want = np.stack([np.array(oracles.layernorm(list(col))) for col in xq.T], axis=1)
        assert np.max(np.abs(got - want)) <= 2.0 ** -5


def test_layernorm_constant_row_is_zero():
    f = DEFAULT_RING.frac_bits
    xs = stack([enc(3.25, f, 16) for _ in range(8)])
    out = layernorm_row(OPS, xs, DEFAULT_RING)
    for p in out.bits:
        assert int(p[0]) == 0


def test_batching_matches_elementwise():
    # one batched call must equal many scalar calls, for either row function
    f = DEFAULT_RING.frac_bits
    rng = np.random.default_rng(48)
    for row_fn in (softmax_row, layernorm_row):
        x = rng.uniform(-8, 8, (3, 50))
        xs = stack([enc(x[i], f, 16) for i in range(3)])
        batched = dec(row_fn(OPS, xs, DEFAULT_RING), f)
        for j in range(50):
            single = row_fn(OPS, stack([enc(x[i, j], f, 16) for i in range(3)]), DEFAULT_RING)
            col = dec(single, f)[:, 0]
            assert np.array_equal(col, batched[:, j]), (row_fn.__name__, j)


@pytest.mark.parametrize("spec", [
    SecureFnSpec("softmax_row", count=5, shift=4 * DEFAULT_RING.frac_bits),
    SecureFnSpec("layernorm_row", count=3, shift=DEFAULT_RING.frac_bits),
], ids=lambda s: f"{s.fn}-{s.count}")
def test_shifted_plain_apply_batching_matches_lane_by_lane(spec):
    # each lane run alone through the truncation and the stage equals its
    # row of the batched run
    rng = np.random.default_rng(49)
    edge = (spec.ring.value_limit() + 1) << spec.shift
    raw = rng.integers(-edge, edge, (40, spec.count), dtype=np.int64).view(np.uint64)
    batched = plain_apply(spec, raw)
    assert batched.shape == raw.shape
    for j in range(len(raw)):
        assert np.array_equal(plain_apply(spec, raw[j : j + 1]), batched[j : j + 1]), j
