"""Boolean circuit builder and the circuit/semantic equivalence guarantee."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privtrans import ModelConfig, fixedfn, model, securefn
from privtrans.circuits import (
    AND,
    ONE,
    ZERO,
    CircuitBuilder,
    CircuitOps,
    WireVec,
    pack_bits,
    unpack_bits,
)
from privtrans.fixedfn import SemanticOps, SemVal, wrap
from privtrans.ring import DEFAULT_RING, RingParams
from privtrans.securefn import SecureFnSpec, build_secure_circuit

from oracles import eval_circuit

SEM = SemanticOps()


def build(fn, widths, ops_cls=CircuitOps):
    """Emit the circuit for fn(ops, [v0, v1, ...])."""
    b = CircuitBuilder()
    ops = ops_cls(b)
    ins = [b.new_input(w) for w in widths]
    outs = fn(ops, ins)
    if isinstance(outs, WireVec):
        outs = [outs]
    for o in outs:
        b.mark_output(o)
    return b.build(), [o.width for o in outs]


def run_both(fn, widths, raws, row=False):
    """Run fn under both interpreters on the same raw inputs; return the
    (semantic, circuit) output bit patterns. With row, fn is a row function:
    its semantic inputs, all of one width, are one np.stack'ed (count,
    lanes) row, and a semantic output row is read element by element."""
    sem_in = [SemVal(wrap(r.view(np.int64), w), w) for r, w in zip(raws, widths)]
    if row:
        assert len(set(widths)) == 1
        sem_in = SemVal(np.stack([v.bits for v in sem_in]), widths[0])
    sem_out = fn(SEM, sem_in)
    if isinstance(sem_out, SemVal):
        bits = sem_out.bits
        sem_out = [SemVal(b, sem_out.width) for b in bits] if bits.ndim == 2 else [sem_out]
    for s in sem_out:  # every semantic value stays sign-extended from its width
        assert np.array_equal(wrap(s.bits, s.width), s.bits)
    circ, out_widths = build(fn, widths)
    bits = np.concatenate([pack_bits(r, w) for r, w in zip(raws, widths)])
    got_bits = eval_circuit(circ, bits)
    got = []
    at = 0
    for w in out_widths:
        got.append(unpack_bits(got_bits[at : at + w]))
        at += w
    return [s.bits.view(np.uint64) & np.uint64((1 << s.width) - 1) for s in sem_out], got


def rand_raw(rng, width, n=33):
    return rng.integers(0, 1 << min(width, 63), n, dtype=np.uint64) & np.uint64(
        (1 << width) - 1 if width < 64 else 0xFFFFFFFFFFFFFFFF
    )


def test_both_backends_implement_one_op_set():
    def ops_of(cls):
        return {n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))}

    assert ops_of(SemanticOps) == ops_of(CircuitOps)


def test_adder_exhaustive_w6():
    w = 6
    circ, _ = build(lambda ops, vs: ops.add(vs[0], vs[1]), [w, w])
    a, b = np.meshgrid(np.arange(64, dtype=np.uint64), np.arange(64, dtype=np.uint64))
    bits = np.concatenate([pack_bits(a.ravel(), w), pack_bits(b.ravel(), w)])
    got = unpack_bits(eval_circuit(circ, bits))
    assert np.array_equal(got, (a.ravel() + b.ravel()) % 64)


def test_adder_uses_one_and_per_carry():
    for w in (4, 6, 16, 64):
        for fn in (lambda ops, vs: ops.add(vs[0], vs[1]), lambda ops, vs: ops.sub(vs[0], vs[1])):
            circ, _ = build(fn, [w, w])
            assert circ.and_count == w - 1
        # a - b one bit wider: its carry chain alone, one AND per bit of a
        circ, _ = build(lambda ops, vs: ops.ge(vs[0], vs[1]), [w, w])
        assert circ.and_count == w


def test_sub_and_neg_match_semantics():
    rng = np.random.default_rng(60)
    for w in (5, 13, 64):
        raws = [rand_raw(rng, w), rand_raw(rng, w)]
        sem, got = run_both(lambda ops, vs: ops.sub(vs[0], vs[1]), [w, w], raws)
        assert np.array_equal(sem[0], got[0])
        sem, got = run_both(lambda ops, vs: ops.add(vs[0], vs[1]), [w, w], raws)
        assert np.array_equal(sem[0], got[0])
        sem, got = run_both(lambda ops, vs: ops.sub(ops.const(0, w), vs[0]), [w], raws[:1])
        assert np.array_equal(sem[0], got[0])


def test_mul_matches_semantics():
    rng = np.random.default_rng(61)
    for wa, wb in ((4, 4), (11, 7), (21, 21), (32, 31)):
        raws = [rand_raw(rng, wa), rand_raw(rng, wb)]
        sem, got = run_both(lambda ops, vs: ops.mul(vs[0], vs[1]), [wa, wb], raws)
        assert np.array_equal(sem[0], got[0])


def exhaustive(*widths):
    """Every combination of raw values at these widths, one array per width."""
    grids = np.meshgrid(*[np.arange(1 << w, dtype=np.uint64) for w in widths], indexing="ij")
    return [g.ravel() for g in grids]


def partial_products(circ):
    """AND gates that read two input wires: a product's b_i & a_j terms."""
    top = 2 + circ.n_inputs
    return int(np.count_nonzero((circ.op == AND) & (circ.lhs < top) & (circ.rhs < top)))


def test_mul_exhaustive_squares_products_and_constants():
    for k in (1, 2, 3, 5):
        square = lambda ops, vs: ops.mul(vs[0], vs[0])  # noqa: E731
        sem, got = run_both(square, [k], exhaustive(k))
        assert np.array_equal(sem[0], got[0])
        # a_i & a_i folds to a_i and a_j & a_i is a_i & a_j
        assert partial_products(build(square, [k])[0]) == k * (k - 1) // 2
    for wa, wb in ((5, 5), (5, 3), (2, 6), (1, 4)):
        product = lambda ops, vs: ops.mul(vs[0], vs[1])  # noqa: E731
        sem, got = run_both(product, [wa, wb], exhaustive(wa, wb))
        assert np.array_equal(sem[0], got[0])
        # one term per bit pair: sign extension repeats a row's top term
        assert partial_products(build(product, [wa, wb])[0]) == wa * wb
    for c, wc in ((0, 4), (1, 4), (5, 4), (-1, 4), (-8, 4), (6, 3)):
        for const_first in (False, True):
            def by_const(ops, vs):
                k = ops.const(c, wc)
                return ops.mul(k, vs[0]) if const_first else ops.mul(vs[0], k)

            sem, got = run_both(by_const, [5], exhaustive(5))
            assert np.array_equal(sem[0], got[0])


# -- multipliers: Baugh-Wooley rows, the triangle squarer, shifted copies


def mul_cases(wa, wb):
    """Products of a wa-bit x and a wb-bit y whose operands are the inputs,
    a sign-extended copy (its top wire repeated), a zero-extended copy (its
    sign wire ZERO), or one that shares wires with the other operand."""
    return {
        "x*y": lambda ops, vs: ops.mul(vs[0], vs[1]),
        "y*x": lambda ops, vs: ops.mul(vs[1], vs[0]),
        "sext(x)*y": lambda ops, vs: ops.mul(ops.resize(vs[0], wa + 2), vs[1]),
        "zext(x)*y": lambda ops, vs: ops.mul(ops.zext(vs[0], wa + 1), vs[1]),
        "x*zext(y)": lambda ops, vs: ops.mul(vs[0], ops.zext(vs[1], wb + 1)),
        "zext(x)*zext(y)": lambda ops, vs: ops.mul(ops.zext(vs[0], wa + 1), ops.zext(vs[1], wb + 1)),
        "x*sext(x)": lambda ops, vs: ops.mul(vs[0], ops.resize(vs[0], wa + 1)),
        "sext(x)^2": lambda ops, vs: ops.mul(ops.resize(vs[0], wa + 2), ops.resize(vs[0], wa + 2)),
        "zext(y)^2": lambda ops, vs: ops.mul(ops.zext(vs[1], wb + 1), ops.zext(vs[1], wb + 1)),
    }


def test_mul_exhaustive_at_every_width_pair_up_to_6():
    for wa in range(1, 7):
        for wb in range(1, 7):
            raws = exhaustive(wa, wb)
            for name, fn in mul_cases(wa, wb).items():
                sem, got = run_both(fn, [wa, wb], raws)
                assert np.array_equal(sem[0], got[0]), (wa, wb, name)
    for k in range(1, 7):
        sem, got = run_both(lambda ops, vs: ops.mul(vs[0], vs[0]), [k], exhaustive(k))
        assert np.array_equal(sem[0], got[0]), k


def test_mul_by_sparse_and_dense_constants_on_either_side():
    # a non-negative constant with one or two one bits takes shifted
    # copies; any other, a negative one included, takes Baugh-Wooley rows
    consts = ((0, 4), (1, 4), (4, 4), (5, 4), (-1, 4), (-8, 4), (6, 3), (7, 3),
              (45, 7), (-45, 7), (1 << 12, 14), (7710, 15), (-7710, 15))
    for c, wc in consts:
        for const_first in (False, True):
            def by_const(ops, vs):
                k = ops.const(c, wc)
                return ops.mul(k, vs[0]) if const_first else ops.mul(vs[0], k)

            for wx in (1, 6):
                sem, got = run_both(by_const, [wx], exhaustive(wx))
                assert np.array_equal(sem[0], got[0]), (c, wc, const_first, wx)


def test_mul_matches_semantics_on_random_wide_operands():
    rng = np.random.default_rng(74)
    product = lambda ops, vs: ops.mul(vs[0], vs[1])  # noqa: E731
    square = lambda ops, vs: ops.mul(vs[0], vs[0])  # noqa: E731
    for fn, widths in ((product, [21, 20]), (square, [21]), (product, [16, 16]),
                       (product, [30, 33])):
        sem, got = run_both(fn, widths, [rand_raw(rng, w, 2000) for w in widths])
        assert np.array_equal(sem[0], got[0]), widths


def test_mul_and_counts_are_pinned():
    # layer norm's dev * z and dev * dev; sign-extended rows took 990 and 819
    product = build(lambda ops, vs: ops.mul(vs[0], vs[1]), [21, 20])[0]
    square = build(lambda ops, vs: ops.mul(vs[0], vs[0]), [21])[0]
    assert (product.and_count, square.and_count) == (819, 439)


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
            ops.bit(v, v.width - 1),
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
        # at width 12 some entries wrap, as a constant of that width does
        return [c, ops.mux(c, a, b), ops.lookup(table, idx, 14), ops.lookup(table, idx, 12)]

    raws = [rand_raw(rng, w), rand_raw(rng, w), rand_raw(rng, 6)]
    sem, got = run_both(mixed, [w, w, 6], raws)
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)


# -- the equivalence guarantee, one case per nonpoly algorithm ---------------


def test_share_pipeline_equivalence_width_64():
    rng = np.random.default_rng(65)

    def pipeline(ops, vs):
        a, b, r = vs
        x = ops.add(a, b)
        t = fixedfn.trunc_sat(ops, x, DEFAULT_RING.frac_bits, DEFAULT_RING)
        return ops.sub(ops.resize(t, 64), r)

    raws = [rand_raw(rng, 64), rand_raw(rng, 64), rand_raw(rng, 64)]
    raws[0] = (raws[0] << np.uint64(1)) | (raws[2] >> np.uint64(63))  # spread high bits
    sem, got = run_both(pipeline, [64, 64, 64], raws)
    assert np.array_equal(sem[0], got[0])


def test_relu_equivalence():
    rng = np.random.default_rng(66)
    sem, got = run_both(lambda ops, vs: fixedfn.relu(ops, vs[0]), [16], [rand_raw(rng, 16)])
    assert np.array_equal(sem[0], got[0])


def test_row_max_equivalence():
    rng = np.random.default_rng(67)
    raws = [rand_raw(rng, 16) for _ in range(5)]
    sem, got = run_both(lambda ops, vs: ops.max(vs), [16] * 5, raws, row=True)
    assert np.array_equal(sem[0], got[0])


def edge_raws(rng, in_width, width, count, lanes=33):
    """count rows of raw in_width-bit words for a sum at width: uniform
    lanes, then a lane whose elements all narrow to the largest width-bit
    value and one whose elements all narrow to the least, so a sum of two
    or more of them wraps when width <= in_width."""
    top = np.uint64((1 << (min(width, in_width) - 1)) - 1)
    return [np.concatenate([rand_raw(rng, in_width, lanes), [top, top + np.uint64(1)]])
            for _ in range(count)]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(count=st.sampled_from([1, 2, 3, 5]), in_width=st.sampled_from([8, 16, 21, 42, 64]),
       width=st.integers(2, 64), seed=st.integers(0, 2 ** 16))
def test_row_sum_and_max_match_the_circuit_tree_and_chain(count, in_width, width, seed):
    # the semantic element-axis sum and max against the circuit's adder
    # tree and mux chain, at sum widths below the inputs' (each element
    # narrowed first), at them and above them
    raws = edge_raws(np.random.default_rng(seed), in_width, width, count)
    widths = [in_width] * count
    sem, got = run_both(lambda ops, vs: ops.sum(vs, width), widths, raws, row=True)
    assert np.array_equal(sem[0], got[0])
    sem, got = run_both(lambda ops, vs: ops.max(vs), widths, raws, row=True)
    assert np.array_equal(sem[0], got[0])


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("in_width, width", [(16, 16), (16, 19), (64, 20), (64, 42), (64, 64)])
def test_row_sum_wraps_like_the_circuit_tree(count, in_width, width):
    # (64, 20) is the layer norm's mean sum on a 64-bit row (spec shift 0,
    # d = 8); at a width no wider than the inputs, a row of two or more
    # elements has a lane whose exact sum of the narrowed elements leaves
    # the width, while 5 x (2^15 - 1) fits 19 bits
    raws = edge_raws(np.random.default_rng(74), in_width, width, count)
    widths = [in_width] * count
    sem, got = run_both(lambda ops, vs: ops.sum(vs, width), widths, raws, row=True)
    assert np.array_equal(sem[0], got[0])
    exact = sum(int(wrap(np.int64(wrap(r.view(np.int64), in_width)[-2]), width)) for r in raws)
    wraps = not -(1 << (width - 1)) <= exact < 1 << (width - 1)
    assert wraps == (count > 1 and width <= in_width), exact


@pytest.mark.parametrize("count", [4, 8, 16, 17, 32])
@pytest.mark.parametrize("in_width, grows", [(14, True), (16, True), (42, False), (16, False)])
def test_row_sum_and_max_match_at_workload_row_lengths(count, in_width, grows):
    # the row lengths of the workloads' softmax and layer-norm rows, and 17,
    # whose odd element carries over at several tree levels; a sum widens by
    # ceil(log2 count) + 1 bits (softmax's 14-bit exps, the layer norm's
    # 16-bit inputs) or keeps its width (the layer norm's 42-bit squares)
    width = in_width + (max(1, (count - 1).bit_length()) + 1 if grows else 0)
    raws = edge_raws(np.random.default_rng(75), in_width, width, count)
    widths = [in_width] * count
    sem, got = run_both(lambda ops, vs: ops.sum(vs, width), widths, raws, row=True)
    assert np.array_equal(sem[0], got[0])
    sem, got = run_both(lambda ops, vs: ops.max(vs), widths, raws, row=True)
    assert np.array_equal(sem[0], got[0])


@pytest.mark.parametrize("frac_bits", range(2, fixedfn.F2 + 1))
def test_gelu_equivalence(frac_bits):
    # at frac_bits 2 the segment offset resizes to width 0
    ring = RingParams(value_bits=16, frac_bits=frac_bits)
    rng = np.random.default_rng(73)
    sem, got = run_both(
        lambda ops, vs: fixedfn.gelu_approx(ops, vs[0], ring), [16], [rand_raw(rng, 16)]
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
        lambda ops, vs: fixedfn.softmax_row(ops, vs, DEFAULT_RING), [16] * n, raws, row=True
    )
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)


def test_layernorm_row_equivalence():
    rng = np.random.default_rng(72)
    d = 4
    raws = [rand_raw(rng, 16) for _ in range(d)]
    sem, got = run_both(
        lambda ops, vs: fixedfn.layernorm_row(ops, vs, DEFAULT_RING), [16] * d, raws, row=True
    )
    for s, g in zip(sem, got):
        assert np.array_equal(s, g)


# -- gate counts and dead gates of the model's stages ------------------------

DESK = dict(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
DESK_CONFIGS = (ModelConfig(**DESK), ModelConfig(**DESK, norm="pre", activation="gelu"))
STAGE_SPECS = (
    model.softmax_spec, model.act_spec, model.norm_spec,
    lambda cfg: model.close_spec(cfg, 3 * cfg.ring.frac_bits),
    lambda cfg: model.close_spec(cfg, cfg.ring.frac_bits),
)
# AND gates of each distinct secure stage of the desk configs (post-relu and
# pre-gelu), keyed (fn, count, shift). Every run bills these as
# gc_and_gates, and each is one garbled table per lane, so a change in how
# circuits are emitted must show up here.
DESK_AND_COUNTS = {
    ("softmax_row", 4, 32): 6488,
    ("layernorm_row", 8, 24): 18077,
    ("layernorm_row", 8, 8): 18205,
    ("layernorm_row", 8, 0): 16261,
    ("relu", 1, 8): 339,
    ("gelu", 1, 8): 622,
    ("trunc", 1, 24): 308,
    ("trunc", 1, 8): 324,
}
DESK_SPECS = {
    (s.fn, s.count, s.shift): s for cfg in DESK_CONFIGS for s in (f(cfg) for f in STAGE_SPECS)
}


def test_desk_stage_and_counts_are_pinned():
    assert set(DESK_SPECS) == set(DESK_AND_COUNTS)
    got = {key: build_secure_circuit(spec).and_count for key, spec in DESK_SPECS.items()}
    assert got == DESK_AND_COUNTS


@pytest.mark.parametrize("key", sorted(DESK_AND_COUNTS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_every_gate_of_a_desk_stage_reaches_an_output(key):
    circ = build_secure_circuit(DESK_SPECS[key])
    base = 2 + circ.n_inputs
    live = set(circ.outputs)
    for g in range(circ.n_gates - 1, -1, -1):
        if base + g in live:
            live.update((int(circ.lhs[g]), int(circ.rhs[g])))
    assert all(base + g in live for g in range(circ.n_gates))


def operand_shape(a, b):
    """(a, b) with each wire that is not a constant numbered 2, 3, ... by
    first appearance, so equal wires stay equal."""
    fresh = {}
    number = lambda w: w if w in (ZERO, ONE) else fresh.setdefault(w, 2 + len(fresh))  # noqa: E731
    return tuple(map(number, a.wires)), tuple(map(number, b.wires))


def mul_and_count(shape, layout):
    """AND gates of one product of operands of this shape, every product
    bit an output."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    ins = b.new_input(max((*shape[0], *shape[1], 1)) - 1).wires
    a, y = (WireVec(tuple(w if w in (ZERO, ONE) else ins[w - 2] for w in s)) for s in shape)
    b.mark_output(layout(ops, a, y))
    return b.build().and_count


def sign_extended_rows(ops, a, b):
    """The row layout every product took before Baugh-Wooley rows, with
    each partial product emitted once: row i, b_i times a, fills columns
    i .. w - 1, repeating its top term past a's sign bit, and b's top bit
    weighs -2^(n-1), so the last row is subtracted."""
    terms = {}

    def term(x, y):
        key = (min(x, y), max(x, y))
        if key not in terms:
            terms[key] = ops.b.gate(AND, x, y)
        return terms[key]

    w = a.width + b.width
    acc = [ZERO] * w
    last = b.width - 1
    for i, bi in enumerate(b.wires):
        if bi == ZERO:
            continue
        row = [term(bi, aj) for aj in a.wires]
        hi = WireVec(tuple(acc[i:]))
        ext = WireVec(tuple(row) + (row[-1],) * (b.width - i))
        acc[i:] = (ops.add(hi, ext) if i < last else ops.sub(hi, ext)).wires
    return WireVec(tuple(acc))


def test_no_desk_multiply_costs_more_than_sign_extended_rows(monkeypatch):
    shapes = set()
    mul = CircuitOps.mul

    def recording(ops, a, b):
        shapes.add(operand_shape(a, b))
        return mul(ops, a, b)

    monkeypatch.setattr(CircuitOps, "mul", recording)
    for spec in DESK_SPECS.values():
        build_secure_circuit.__wrapped__(spec)  # the cached circuits emit nothing
    monkeypatch.undo()
    assert len(shapes) >= 10
    for shape in shapes:
        new = mul_and_count(shape, lambda ops, a, b: ops.mul(a, b))
        old = mul_and_count(shape, sign_extended_rows)
        assert new <= old, (shape, new, old)


@pytest.mark.parametrize("key", sorted(DESK_AND_COUNTS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_no_desk_stage_emits_an_and_gate_twice(key):
    circ = build_secure_circuit(DESK_SPECS[key])
    ands = circ.op == AND
    pairs = set(zip(circ.lhs[ands].tolist(), circ.rhs[ands].tolist()))
    assert len(pairs) == circ.and_count


def test_sparse_constant_products_cost_no_more_than_sign_extended_rows():
    # a non-negative constant with one or two one bits is one or two
    # shifted copies of the other operand; a power of two is wiring alone
    for wc in (3, 6, 14):
        for c in sorted({(1 << i) | (1 << j) for i in range(wc - 1) for j in range(wc - 1)}):
            k = tuple(ONE if c >> t & 1 else ZERO for t in range(wc))
            for wx in range(1, 25):
                x = tuple(range(2, 2 + wx))
                old = mul_and_count((x, k), sign_extended_rows)
                for shape in ((x, k), (k, x)):
                    new = mul_and_count(shape, lambda ops, a, b: ops.mul(a, b))
                    assert new <= old, (shape, new, old)
                if c & (c - 1) == 0:
                    for by in (lambda ops, vs: ops.mul(vs[0], ops.const(c, wc)),
                               lambda ops, vs: ops.mul(ops.const(c, wc), vs[0])):
                        assert build(by, [wx])[0].n_gates == 0, (c, wc, wx)


# -- `each` pastes copies of one body's gates ---------------------------------


class ElementwiseOps(CircuitOps):
    """`each` as the body called on each element in turn, which emits the
    gates that the pasted copies of `CircuitOps.each` must reproduce."""

    def each(self, body, row, *shared):
        return [body(x, *shared) for x in row]


def assert_same_gates(got, want):
    assert got.n_inputs == want.n_inputs
    assert got.outputs == want.outputs
    for name in ("op", "lhs", "rhs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("spec", [
    # sem-long's pre-norm layer norm: the mean shared with every element
    # holds a constant wire
    SecureFnSpec("layernorm_row", count=8),
    # sem-wide's post-norm layer norm
    SecureFnSpec("layernorm_row", count=32, shift=24),
    *(SecureFnSpec("softmax_row", count=n, shift=32) for n in (1, 3, 16)),
    SecureFnSpec("relu", shift=8),
    SecureFnSpec("gelu", shift=8),
    SecureFnSpec("trunc", shift=24),
], ids=lambda s: f"{s.fn}-{s.count}-{s.shift}")
def test_each_pastes_the_gates_of_an_element_by_element_each(spec, monkeypatch):
    pasted = build_secure_circuit.__wrapped__(spec)
    monkeypatch.setattr(securefn, "CircuitOps", ElementwiseOps)
    assert_same_gates(pasted, build_secure_circuit.__wrapped__(spec))


def test_each_pastes_bodies_on_aliased_constant_and_passed_through_wires():
    table = [(7 * k) % 61 for k in range(8)]

    def fn(ops, vs):
        s, x, y = vs  # s's wires come first, so pasting reorders lhs and rhs
        # elements of four wire patterns, one of them twice
        row = [x, ops.zext(y, 8), ops.sar(x, 3), ops.const(37, 8), x]
        ext = ops.resize(s, 10)  # repeats s's top wire
        wide = ops.zext(s, 10)  # ends in constant wires
        prods = ops.each(lambda v, e: ops.mul(ops.resize(v, 10), e), row, ext)
        sums = ops.each(lambda v, e, z: ops.add(ops.add(ops.resize(v, 10), e), z), row, ext, wide)
        picks = ops.each(
            lambda v, e: ops.mux(ops.bit(v, 0), ops.resize(v, 10), e), row, ext
        )
        # two lookups at one index share their picks within a copy; the
        # element given twice is left out, as two copies share none
        looked = ops.each(
            lambda v: ops.add(ops.lookup(table, ops.resize(v, 3), 6),
                              ops.lookup(table[::-1], ops.resize(v, 3), 6)), row[:-1]
        )
        same = ops.each(lambda v: v, row)
        shared = ops.each(lambda v, e: e, row, ext)
        return [*prods, *sums, *picks, *looked, *same, *shared]

    want, widths = build(fn, [6, 8, 5], ElementwiseOps)
    got, got_widths = build(fn, [6, 8, 5])
    assert got_widths == widths
    assert_same_gates(got, want)
    assert got.n_gates > 0
