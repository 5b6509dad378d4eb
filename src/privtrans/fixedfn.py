"""Integer algorithms for the non-polynomial stages (softmax, layernorm,
relu, reciprocal) plus share reconstruct/remask.

Every algorithm is written once against a tiny ops interface: add, mul,
mux, shifts, table lookup, and the row ops `each` (a body applied to every
element), `count`, `sum` and `max`. `SemanticOps` interprets it over numpy
arrays; a boolean-circuit backend can interpret the exact same calls gate
by gate, so the two evaluations agree bit for bit by construction.

A row stage (softmax, layer norm) takes a row of count elements. Under
`SemanticOps` the row is one `SemVal` laid out (count, lanes), element
axis first: a row-wide (lanes,) value such as the max or the mean
broadcasts against it, so `each` is one call of its body on the whole row,
and `sum` and `max` reduce over axis 0. Under the circuit backend a row is
a list of count values: `each` pastes a copy of its body's gates for each
element (the gates of calling it element by element), `sum` is an adder
tree and `max` a mux chain.

Values are two's-complement integers of an explicit bit width, 0 to 64.
The semantic side holds each one sign-extended in int64, the integer its
circuit wires encode, so only an op whose result can leave its width
wraps. Internal fixed-point precision is F2 = 12 fractional bits; ring
values enter at the ring's own fraction (8 by default) and leave the same
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import RingParams

F2 = 12  # internal fraction bits for exp/reciprocal/rsqrt
COUNTER_WIDTH = 7  # bits of normalize's shift count, enough for w <= 64


def wrap(x: np.ndarray, w: int) -> np.ndarray:
    """x reduced to w bits and sign-extended back to int64."""
    return (x << (64 - w)) >> (64 - w)


@dataclass(frozen=True)
class SemVal:
    """A two's-complement value of `width` bits, sign-extended in int64; a
    1-bit true is -1. Lanes ride the last axis: a value is (lanes,), and a
    row of count elements is (count, lanes), element axis first."""

    bits: np.ndarray  # int64, in [-2^(width-1), 2^(width-1))
    width: int


class SemanticOps:
    """Numpy interpreter for the ops interface; all ops are elementwise
    and broadcast, so a constant is a scalar. add, sub, shl and a narrowing
    resize wrap; a product of m and n bits fits m + n <= 64, and
    the other ops cannot leave their width."""

    def each(self, body, row: SemVal, *shared) -> SemVal:
        """body on every element of a (count, lanes) row in one call; the
        row-wide (lanes,) values in shared broadcast over the elements."""
        return body(row, *shared)

    def count(self, row: SemVal) -> int:
        return len(row.bits)

    def sum(self, row: SemVal, width: int) -> SemVal:
        """Mod 2^width neither the order of the terms nor narrowing them
        first changes a row's sum, and int64 sums wrap mod 2^64."""
        return SemVal(wrap(row.bits.sum(axis=0), width), width)

    def max(self, row: SemVal) -> SemVal:
        return SemVal(row.bits.max(axis=0), row.width)

    def const(self, value: int, width: int) -> SemVal:
        half = (1 << width) >> 1
        return SemVal(np.int64((value + half) % (1 << width) - half), width)

    def add(self, a: SemVal, b: SemVal) -> SemVal:
        assert a.width == b.width
        return SemVal(wrap(a.bits + b.bits, a.width), a.width)

    def sub(self, a: SemVal, b: SemVal) -> SemVal:
        assert a.width == b.width
        return SemVal(wrap(a.bits - b.bits, a.width), a.width)

    def mul(self, a: SemVal, b: SemVal) -> SemVal:
        w = a.width + b.width
        assert w <= 64, "product would not fit a 64-bit word"
        return SemVal(a.bits * b.bits, w)

    def sar(self, a: SemVal, k: int) -> SemVal:
        return SemVal(a.bits >> k, a.width)

    def shl(self, a: SemVal, k: int) -> SemVal:
        return SemVal(wrap(a.bits << k, a.width), a.width)

    def resize(self, a: SemVal, w: int) -> SemVal:
        return SemVal(wrap(a.bits, w) if w < a.width else a.bits, w)

    def zext(self, a: SemVal, w: int) -> SemVal:
        assert w >= a.width
        return a if w == a.width else SemVal(a.bits & ((1 << a.width) - 1), w)

    def bit(self, a: SemVal, i: int) -> SemVal:
        return SemVal(wrap(a.bits >> i, 1), 1)

    def ge(self, a: SemVal, b: SemVal) -> SemVal:
        assert a.width == b.width
        return SemVal(-(a.bits >= b.bits).astype(np.int64), 1)

    def mux(self, c: SemVal, a: SemVal, b: SemVal) -> SemVal:
        """c ? a : b, elementwise; c has width 1."""
        assert a.width == b.width and c.width == 1
        return SemVal(np.where(c.bits != 0, a.bits, b.bits), a.width)

    def lookup(self, table: list[int], idx: SemVal, width: int) -> SemVal:
        """Index the unsigned pattern of idx into a constant table."""
        t = wrap(np.array(table, dtype=np.int64), width)
        return SemVal(t[idx.bits & ((1 << idx.width) - 1)], width)


# -- generic helpers ----------------------------------------------------------


def clamp(ops, v, lo: int, hi: int):
    cl = ops.const(lo, v.width)
    ch = ops.const(hi, v.width)
    v = ops.mux(ops.ge(v, ch), ch, v)
    return ops.mux(ops.ge(v, cl), v, cl)


def barrel_shl(ops, v, amount, max_shift: int):
    """v << amount for a secret amount in [0, max_shift]."""
    nbits = max(1, (max_shift).bit_length())
    assert amount.width >= nbits
    for i in range(nbits):
        v = ops.mux(ops.bit(amount, i), ops.shl(v, 1 << i), v)
    return v


def normalize(ops, v):
    """Shift v left until its top bit is set; returns (m, e) with
    m = v << e. A v below 1 counts as 1."""
    w = v.width
    floor = ops.const(1, w)
    v = ops.mux(ops.ge(v, floor), v, floor)
    e = ops.const(0, COUNTER_WIDTH)
    one = ops.const(1, COUNTER_WIDTH)
    for _ in range(w - 1):
        top = ops.bit(v, w - 1)
        v = ops.mux(top, v, ops.shl(v, 1))
        e = ops.mux(top, e, ops.add(e, one))
    return v, e


def trunc_sat(ops, v, shift: int, ring: RingParams):
    """Arithmetic shift then saturate to the value range: the rescale after
    a fixed-point multiply."""
    lim = ring.value_limit()
    t = ops.sar(v, shift)
    return clamp(ops, t, -lim, lim)


# -- relu / max ---------------------------------------------------------------


def relu(ops, v):
    return ops.mux(ops.bit(v, v.width - 1), ops.const(0, v.width), v)


def _gelu_real(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def gelu_tables(frac_bits: int) -> tuple[list[int], list[int]]:
    """Chord tables for gelu on [-8, 8], 64 segments of width 1/4."""
    base = [round(_gelu_real(-8 + k / 4) * (1 << frac_bits)) for k in range(64)]
    step = [round(_gelu_real(-8 + (k + 1) / 4) * (1 << frac_bits)) for k in range(64)]
    slope = [s - b for b, s in zip(base, step)]
    return base, slope


def gelu_approx(ops, v, ring: RingParams):
    """x * Phi(x) at the ring fraction, width 16 in and out.

    Chord-fit on [-8, 8]; below -8 the output is 0, above 8 it is x
    (the tails are within one ulp of those limits at f >= 8).
    """
    f = ring.frac_bits
    hi = 8 << f
    base_tab, slope_tab = gelu_tables(f)
    u = clamp(ops, v, -hi, hi - 1)
    t = ops.zext(ops.resize(ops.add(ops.resize(u, 17), ops.const(hi, 17)), 13), 14)
    k = ops.resize(ops.sar(t, f - 2), 6)
    dt = ops.zext(ops.resize(t, f - 2), f - 1)
    base = ops.lookup(base_tab, k, 14)
    slope = ops.lookup(slope_tab, k, 10)
    # slope tables hold the raw step over a quarter-wide segment, so the
    # correction is step * dt / 2^(f-2)
    corr = ops.sar(ops.mul(slope, dt), f - 2)
    y = ops.add(ops.resize(base, 15), ops.resize(corr, 15))
    return ops.mux(ops.ge(v, ops.const(hi, v.width)), v, ops.resize(y, 16))


# -- exp ----------------------------------------------------------------------
# Piecewise-linear e^u on [-16, 0]: 64 segments of width 1/4, chord fit, so
# e^0 stays exactly 1. Max chord error is h^2/8 * e^0 < 2^-7.

SEG_BITS = 6
SEG_SHIFT = F2 - 2  # segment width 2^-2 at F2 fraction bits

EXP_BASE = [round(math.exp(-k / 4) * (1 << F2)) for k in range(64)]
EXP_SLOPE = [
    round((math.exp(-k / 4) - math.exp(-(k + 1) / 4)) * 4 * (1 << F2)) for k in range(64)
]


def exp_approx(ops, u, in_frac: int):
    """e^u at F2 fraction bits for u <= 0 given at in_frac fraction bits.

    Output width 14, value in [0, 4096]. Inputs below -16 clamp to -16.
    """
    assert in_frac <= F2
    up = F2 - in_frac
    u = clamp(ops, u, -((16 << in_frac) - 1), 0)
    wl = (16 << F2).bit_length() + 1
    u2 = ops.shl(ops.resize(u, wl), up)
    t2 = ops.zext(ops.resize(ops.sub(ops.const(0, wl), u2), 17), 18)  # 0 .. 16*2^12 - 1
    k = ops.resize(ops.sar(t2, SEG_SHIFT), SEG_BITS)
    dt = ops.zext(ops.resize(t2, SEG_SHIFT), SEG_SHIFT + 1)
    base = ops.lookup(EXP_BASE, k, 14)
    slope = ops.lookup(EXP_SLOPE, k, 13)
    drop = ops.sar(ops.mul(slope, dt), F2)
    return ops.sub(base, ops.resize(drop, 14))


# -- reciprocal ---------------------------------------------------------------
# Normalize to [0.5, 1), linear init y0 = 48/17 - 32/17 m, two Newton steps
# y <- y (2 - m y): relative error about (1/17)^4, far below 2^-12.

_FM = 13  # mantissa fraction bits fed to Newton
_RCP_A = round(48 / 17 * (1 << F2))
_RCP_B = round(32 / 17 * (1 << F2))


def reciprocal(ops, v, out_width: int = 16):
    """1/v at F2 fraction bits for v > 0 given at F2 fraction bits.

    Exact enough for v_real in [2^-F2, 2^(w-F2)); callers keep v_real
    >= 0.5 so the result fits out_width.
    """
    w = v.width
    m, e = normalize(ops, v)
    # top mantissa bits, scale _FM, in [0.5, 1)
    mh = ops.resize(ops.sar(ops.zext(m, w + 1), w - _FM), _FM + 1)
    y = ops.sub(
        ops.const(_RCP_A, _FM + 2),
        ops.resize(ops.sar(ops.mul(ops.const(_RCP_B, _FM + 1), mh), _FM), _FM + 2),
    )
    two = ops.const(2 << F2, _FM + 2)
    for _ in range(2):
        t = ops.resize(ops.sar(ops.mul(mh, y), _FM), _FM + 2)
        y = ops.resize(ops.sar(ops.mul(y, ops.sub(two, t)), F2), _FM + 2)
    # v_real = m_real 2^(w-e-F2), so 1/v_real = y_real 2^(e+F2-w)
    y = ops.resize(y, _FM + 2 + w - 1)
    y = barrel_shl(ops, y, e, w - 1)
    return ops.resize(ops.sar(y, w - F2), out_width)


# -- reciprocal square root ---------------------------------------------------
# Same normalize trick; exponent halving needs the parity fold: when the
# exponent is odd the mantissa is halved to [0.25, 0.5) instead. Linear init
# y0 = 2.207 - 4/3 m on [0.25, 1), two Newton steps y <- y (3 - m y^2) / 2.

_FQ = 13  # y fraction bits
_RSQ_A = round(2.207 * (1 << _FQ))
_RSQ_B = round(4 / 3 * (1 << _FQ))


def rsqrt(ops, v, in_frac: int = F2):
    """1/sqrt(v) at F2 fraction bits, width 20, for v >= 1 raw, given at
    in_frac fraction bits."""
    w = v.width
    m, e = normalize(ops, v)
    # v_real = m_real 2^E with E = w - e - in_frac; fold E's parity into
    # the mantissa so the exponent shift E/2 is integral
    par = ops.bit(e, 0)
    if (w - in_frac) % 2:
        par = ops.sub(ops.const(1, 1), par)
    mh = ops.resize(ops.sar(ops.zext(m, w + 1), w - (_FM + 1)), _FM + 3)
    mq = ops.mux(par, mh, ops.shl(mh, 1))  # scale _FM+2, in [0.25, 1)
    y = ops.sub(
        ops.const(_RSQ_A, _FQ + 3),
        ops.resize(ops.sar(ops.mul(ops.const(_RSQ_B, _FQ + 2), mq), _FM + 2), _FQ + 3),
    )
    three = ops.const(3 << _FQ, _FQ + 3)
    for _ in range(2):
        t = ops.resize(ops.sar(ops.mul(mq, y), _FM + 2), _FQ + 3)
        t2 = ops.resize(ops.sar(ops.mul(t, y), _FQ), _FQ + 3)
        y = ops.resize(ops.sar(ops.mul(y, ops.sub(three, t2)), _FQ + 1), _FQ + 3)
    # 1/sqrt(v_real) = y_real 2^(-E'/2) with E' = w - in_frac - e + par
    # (even); bias the secret shift so it is never negative
    ew = 8
    half = ops.sar(
        ops.add(
            ops.sub(ops.const(w - in_frac, ew), ops.zext(e, ew)),
            ops.zext(par, ew),
        ),
        1,
    )
    bias = (w - in_frac + 1) // 2 + 1
    max_shift = bias + (in_frac + 1) // 2 + 1
    sbits = max(1, max_shift.bit_length())
    sh = ops.resize(ops.sub(ops.const(bias, ew), half), sbits)
    y = ops.resize(y, _FQ + 3 + max_shift)
    y = barrel_shl(ops, y, sh, max_shift)
    return ops.resize(ops.sar(y, bias + _FQ - F2), 20)


# -- softmax ------------------------------------------------------------------


def softmax_row(ops, xs, ring: RingParams):
    """Softmax over one row of values at the ring fraction, any width >= 16.

    Returns probabilities at the ring fraction, width 16. The running max
    is subtracted first, so one exp input is exactly 0 and the denominator
    is at least 1.
    """
    f = ring.frac_bits
    n = ops.count(xs)
    m = ops.max(xs)

    def exp_dev(x, m):
        w = min(x.width + 1, 64)  # a semantic value is one 64-bit word; circuits match it
        return exp_approx(ops, ops.sub(ops.resize(x, w), ops.resize(m, w)), f)

    es = ops.each(exp_dev, xs, m)
    s = ops.sum(es, 14 + max(1, (n - 1).bit_length()) + 1)
    r = reciprocal(ops, s, out_width=14)  # sum >= 1, so 1/sum <= 1
    return ops.each(lambda e, r: ops.resize(ops.sar(ops.mul(e, r), 2 * F2 - f), 16), es, r)


# -- layernorm ----------------------------------------------------------------

_LN_GUARD = 19  # fraction bits of the 1/d constant


def layernorm_row(ops, xs, ring: RingParams):
    """Normalize one row to zero mean, unit variance (no learned affine).

    Inputs at the ring fraction, width 16; outputs the same, saturated to
    the value range. The variance is carried at 2*F2 fraction bits so
    near-constant rows keep precision; its floor is 2^-F2.
    """
    f = ring.frac_bits
    d = ops.count(xs)
    up = F2 - f
    c_d = round((1 << _LN_GUARD) / d)
    cw = _LN_GUARD + 2
    sw = 16 + max(1, (d - 1).bit_length()) + 1
    total = ops.sum(xs, sw)
    mu = ops.resize(ops.sar(ops.mul(total, ops.const(c_d, cw)), _LN_GUARD - up), 20)
    devs = ops.each(
        lambda x, mu: ops.sub(ops.shl(ops.resize(x, 21), up), ops.resize(mu, 21)), xs, mu
    )
    # dev^2 / d summed at 2*F2 fraction bits; the 63-bit product just fits
    sqs = ops.each(
        lambda dev: ops.resize(
            ops.sar(ops.mul(ops.mul(dev, dev), ops.const(c_d, cw)), _LN_GUARD), 42
        ),
        devs,
    )
    var = ops.add(ops.sum(sqs, 42), ops.const(1 << F2, 42))  # + 2^-F2
    z = rsqrt(ops, var, in_frac=2 * F2)
    lim = ring.value_limit()

    def scale(dev, z):
        t = ops.sar(ops.mul(dev, z), 2 * F2 - f)
        return ops.resize(clamp(ops, ops.resize(t, 24), -lim, lim), 16)

    return ops.each(scale, devs, z)
