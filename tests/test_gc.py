"""Oblivious transfer and garbled-circuit evaluation."""

import numpy as np
import pytest

from privtrans.circuits import (
    AND,
    ONE,
    XOR,
    ZERO,
    CircuitBuilder,
    CircuitOps,
    WireVec,
    pack_bits,
    unpack_bits,
)
from privtrans import ModelConfig, ot, random_weights, run_protocol, securefn
from privtrans.garble import CorruptTable, GarbledTables, evaluate, garble
from privtrans.ot import (
    KAPPA,
    TOY_256,
    ExtReceiver,
    ExtSender,
    FixedBase,
    OTCheatError,
    OTReceiver,
    OTSender,
    _exponent,
    _generator_table,
    run_ot,
)
from privtrans.costs import CostReport
from privtrans.securefn import SecureFnSpec, build_secure_circuit
from privtrans.transcript import Transcript

from oracles import active_by_gate, eval_circuit, evaluate_by_gate, garble_by_gate, wire_values


def miller_rabin(n: int, rounds: int, rng) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = int(rng.integers(2, 1 << 62))
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modp_constants_are_prime():
    rng = np.random.default_rng(80)
    assert TOY_256.p.bit_length() == TOY_256.bits
    assert miller_rabin(TOY_256.p, 12, rng)
    assert pow(TOY_256.g, TOY_256.p - 1, TOY_256.p) == 1
    # the toy group is a safe prime and g=4 sits in the prime-order subgroup
    q = (TOY_256.p - 1) // 2
    assert miller_rabin(q, 12, rng)
    assert pow(TOY_256.g, q, TOY_256.p) == 1


def test_ot_toy_group_roundtrip():
    rng_s = np.random.default_rng(93)
    rng_r = np.random.default_rng(94)
    m0 = rng_s.integers(0, 1 << 64, 8, dtype=np.uint64)
    m1 = rng_s.integers(0, 1 << 64, 8, dtype=np.uint64)
    choices = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
    got, _ = run_ot(m0, m1, choices, ExtSender(rng_s), ExtReceiver(rng_r))
    assert np.array_equal(got, np.where(choices.astype(bool), m1, m0))


def test_ot_delivers_chosen_message_only():
    rng_s = np.random.default_rng(81)
    rng_r = np.random.default_rng(82)
    n = 40
    m0 = rng_s.integers(0, 1 << 64, n, dtype=np.uint64)
    m1 = rng_s.integers(0, 1 << 64, n, dtype=np.uint64)
    choices = rng_r.integers(0, 2, n).astype(np.uint8)
    got, moved = run_ot(m0, m1, choices, ExtSender(rng_s), ExtReceiver(rng_r))
    want = np.where(choices.astype(bool), m1, m0)
    assert np.array_equal(got, want)
    other = np.where(choices.astype(bool), m0, m1)
    assert not np.any(got == other)
    # base OTs: KAPPA + 1 group elements and KAPPA sealed 16-byte seed pairs;
    # extension: KAPPA columns of ceil(n/8) bytes and a masked pair per transfer
    assert moved == TOY_256.element_bytes * (1 + KAPPA) + KAPPA * 32 + KAPPA * -(-n // 8) + n * 16


CHOICE_PATTERNS = {
    "zeros": lambda m, rng: np.zeros(m, np.uint8),
    "ones": lambda m, rng: np.ones(m, np.uint8),
    "alternating": lambda m, rng: (np.arange(m) % 2).astype(np.uint8),
    "random": lambda m, rng: rng.integers(0, 2, m).astype(np.uint8),
}


@pytest.mark.parametrize("m", [1, 7, 8, 9, 130, 2048])
@pytest.mark.parametrize("pattern", list(CHOICE_PATTERNS))
def test_ot_extension_delivers_the_chosen_message_only(pattern, m):
    rng_s = np.random.default_rng(100 + m)
    rng_r = np.random.default_rng(200 + m)
    m0 = rng_s.integers(0, 1 << 64, m, dtype=np.uint64)
    m1 = rng_s.integers(0, 1 << 64, m, dtype=np.uint64)
    choices = CHOICE_PATTERNS[pattern](m, rng_r)
    got, moved = run_ot(m0, m1, choices, ExtSender(rng_s), ExtReceiver(rng_r))
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.where(choices.astype(bool), m1, m0))
    assert not np.isin(np.where(choices.astype(bool), m0, m1), got).any()
    assert moved == TOY_256.element_bytes * (1 + KAPPA) + KAPPA * 32 + KAPPA * -(-m // 8) + m * 16


@pytest.mark.parametrize("m", [8, 64, 1000, 4096])
def test_word_level_transpose_matches_the_bit_array_transpose(m):
    # 1,000 bits fill 125 bytes: the last byte group is cut at m rows
    cols = np.random.default_rng(m).integers(0, 256, (KAPPA, -(-m // 8)), dtype=np.uint8)
    want = np.packbits(np.unpackbits(cols, axis=1, count=m).T, axis=1)
    got = ot._rows(cols, m)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_a_session_reuses_its_base_ots_and_expands_the_seeds_afresh(monkeypatch):
    # the second call of a session runs no base OTs: it draws nothing and
    # moves only the extension's bytes. It expands the seeds at a fresh call
    # index, so the same choices send different u columns, and its row-hash
    # tweaks continue the first call's, so no tweak repeats in the session
    us, tweaks = [], []
    real_columns, real_pads = ot._columns, ot._row_pads

    def spy_columns(*args):
        t, u = real_columns(*args)
        us.append(u)
        return t, u

    def spy_pads(rows, tw):
        tweaks.append(np.array(tw))
        return real_pads(rows, tw)

    monkeypatch.setattr(ot, "_columns", spy_columns)
    monkeypatch.setattr(ot, "_row_pads", spy_pads)
    rng_s, rng_r = np.random.default_rng(104), np.random.default_rng(105)
    sender, receiver = ExtSender(rng_s), ExtReceiver(rng_r)
    m = 130
    choices = rng_r.integers(0, 2, m).astype(np.uint8)
    moved = []
    for call in range(2):
        m0 = rng_s.integers(0, 1 << 64, m, dtype=np.uint64)
        m1 = rng_s.integers(0, 1 << 64, m, dtype=np.uint64)
        drawn = (rng_s.bit_generator.state, rng_r.bit_generator.state)
        got, nbytes = run_ot(m0, m1, choices, sender, receiver)
        assert np.array_equal(got, np.where(choices.astype(bool), m1, m0)), call
        assert not np.isin(np.where(choices.astype(bool), m0, m1), got).any(), call
        moved.append(nbytes)
    assert (rng_s.bit_generator.state, rng_r.bit_generator.state) == drawn
    base = TOY_256.element_bytes * (1 + KAPPA) + KAPPA * 32
    extension = KAPPA * -(-m // 8) + m * 16
    assert moved == [base + extension, extension]
    assert sender.calls == receiver.calls == 2
    assert sender.transfers == receiver.transfers == 2 * m
    # no column u^i of the second call repeats its first-call value
    assert not (us[0] == us[1]).all(axis=1).any()
    # a call hashes its rows three times (two sender pads, one receiver
    # pad), all with the call's tweaks; the session's tweaks are distinct
    assert len(tweaks) == 6
    for first in (0, 3):
        assert all(np.array_equal(tw, tweaks[first]) for tw in tweaks[first:first + 3])
    session = np.concatenate([tweaks[0], tweaks[3]])
    assert len(np.unique(session)) == len(session) == 2 * m


def test_a_gc_session_runs_its_base_ots_once(monkeypatch):
    # the desk f session garbles 4 stages; the first runs the session's base
    # OTs and is billed for them, the others reuse them; the semantic twin
    # bills the same counters and messages, and the logits agree
    setups = []
    real_setup = OTSender.setup.__func__

    def setup(cls, rng):
        setups.append(rng)
        return real_setup(cls, rng)

    monkeypatch.setattr(OTSender, "setup", classmethod(setup))
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    w = random_weights(cfg, np.random.default_rng(5))
    gc = run_protocol("f", cfg, w, [3, 1, 4, 1], seed=11, backend="gc")
    sem = run_protocol("f", cfg, w, [3, 1, 4, 1], seed=11)
    client_ot, server_ot = gc.session.client.ot, gc.session.server.ot
    assert len(setups) == 1 and setups[0] is gc.session.server.rng
    assert client_ot.calls == server_ot.calls == 4
    report = gc.merged_report()
    # post-norm: the first garbled stage is the first block's softmax
    assert report.total("base_ot_count") == report.get("SoftMax", "online", "base_ot_count")
    assert report.total("base_ot_count") == KAPPA
    assert report.to_dict() == sem.merged_report().to_dict()
    assert gc.transcript.summary() == sem.transcript.summary()
    assert np.array_equal(gc.reconstruct().data, sem.reconstruct().data)


def test_ot_rejects_degenerate_points():
    rng = np.random.default_rng(85)
    sender = OTSender.setup(rng)
    with pytest.raises(OTCheatError):
        OTReceiver.respond(1, np.array([0]), rng)
    with pytest.raises(OTCheatError):
        sender.respond([TOY_256.p - 1], np.zeros(1, np.uint64), np.zeros(1, np.uint64))


@pytest.mark.parametrize("bits", [256, 1024, 1536], ids=str)
def test_fixed_base_table_matches_pow(bits):
    # the protocol's group at 256 bits; the table itself works mod any odd
    # p, so random odd moduli of the standard MODP sizes check it wider
    rng = np.random.default_rng(95)
    p = TOY_256.p
    if bits != 256:
        p = int.from_bytes(rng.bytes(bits // 8), "little") | (1 << (bits - 1)) | 1
    base = pow(TOY_256.g, _exponent(rng), p)  # a random element, like the sender's A
    table = FixedBase(base, p)
    exps = [0, 1, (1 << 256) - 1] + [_exponent(rng) for _ in range(200)]
    assert [table.pow(e) for e in exps] == [pow(base, e, p) for e in exps]
    g_table = _generator_table()
    assert [g_table.pow(e) for e in exps[:6]] == [pow(TOY_256.g, e, TOY_256.p) for e in exps[:6]]


def test_fixed_base_rejects_exponents_outside_the_table():
    table = FixedBase(3, TOY_256.p)
    for e in (1 << 256, (1 << 300) + 5, -1):
        with pytest.raises(OverflowError):
            table.pow(e)


def gate_circuit(op):
    b = CircuitBuilder()
    x = b.new_input(1)
    y = b.new_input(1)
    b.mark_output(type(x)((b.gate(op, x.wires[0], y.wires[0]),)))
    return b.build()


def test_garbled_and_xor_not_truth_tables():
    rng = np.random.default_rng(86)
    cases = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)  # 4 lanes
    for op, want in ((AND, [0, 0, 0, 1]), (XOR, [0, 1, 1, 0])):
        circ = gate_circuit(op)
        gt, state = garble(circ, 4, rng)
        active = state.encode(cases)
        got = evaluate(circ, gt, active)
        assert got[0].tolist() == want
    b = CircuitBuilder()
    x = b.new_input(1)
    b.mark_output(type(x)((b.gate(XOR, x.wires[0], 1),)))  # NOT via the one-wire
    circ = b.build()
    gt, state = garble(circ, 2, rng)
    got = evaluate(circ, gt, state.encode(np.array([[0, 1]], dtype=np.uint8)))
    assert got[0].tolist() == [1, 0]


def adder_circuit(w):
    b = CircuitBuilder()
    ops = CircuitOps(b)
    x = b.new_input(w)
    y = b.new_input(w)
    b.mark_output(ops.add(x, y))
    return b.build()


def test_garbled_adder_matches_plain_eval():
    rng = np.random.default_rng(87)
    w, lanes = 8, 16
    circ = adder_circuit(w)
    a = rng.integers(0, 256, lanes, dtype=np.uint64)
    bvals = rng.integers(0, 256, lanes, dtype=np.uint64)
    bits = np.concatenate([pack_bits(a, w), pack_bits(bvals, w)])
    gt, state = garble(circ, lanes, rng)
    got_bits = evaluate(circ, gt, state.encode(bits))
    assert np.array_equal(got_bits, eval_circuit(circ, bits))
    assert np.array_equal(unpack_bits(got_bits), (a + bvals) % 256)


def xor_only_circuit(w=16):
    b = CircuitBuilder()
    x = b.new_input(w)
    y = b.new_input(w)
    b.mark_output(type(x)(tuple(b.gate(XOR, i, j) for i, j in zip(x.wires, y.wires))))
    return b.build()


def test_xor_only_circuit_has_no_tables():
    circ = xor_only_circuit()
    gt, state = garble(circ, 3, np.random.default_rng(88))
    assert circ.and_count == 0
    assert gt.tables.nbytes == 0
    bits = np.concatenate([pack_bits(np.array([5, 9, 250], np.uint64), 16)] * 2)
    got = evaluate(circ, gt, state.encode(bits))
    assert np.all(got == 0)  # x ^ x


def test_tampered_table_detected():
    rng = np.random.default_rng(89)
    circ = adder_circuit(6)
    bits = np.concatenate([pack_bits(np.array([3, 7], np.uint64), 6)] * 2)
    for word in (0, 1):  # every T_G, then every T_E
        gt, state = garble(circ, 2, rng)
        gt.tables[:, word] ^= np.uint64(1 << 40)
        with pytest.raises(CorruptTable, match=r"^output wire \d+ matches neither output hash$"):
            evaluate(circ, gt, state.encode(bits))
    gt, state = garble(circ, 2, rng)
    gt.out_hash[3, 1, 1] ^= np.uint64(1)  # a tampered output hash is caught too
    with pytest.raises(CorruptTable, match="^output wire 3 "):
        evaluate(circ, gt, state.encode(np.ones_like(bits)))  # 63 + 63 = 126: output bit 3 is 1


def gateless_circuit():
    b = CircuitBuilder()
    x = b.new_input(3)
    b.mark_output(x)
    return b.build()


def test_dead_gates_are_dropped_and_every_output_keeps_its_wire():
    b = CircuitBuilder()
    (x0, x1, x2), (y0, y1, y2) = b.new_input(3).wires, b.new_input(3).wires
    b.gate(AND, x0, y0)  # feeds nothing
    t = b.gate(XOR, x1, y1)
    b.gate(AND, t, y2)  # feeds nothing
    u = b.gate(AND, t, x2)
    b.gate(XOR, u, y0)  # reads a live gate, feeds nothing
    # constants, inputs and a repeated gate wire among the outputs
    b.mark_output(WireVec((ONE, u, x0, ZERO, u, t, y2, u)))
    circ = b.build()
    assert (circ.n_gates, circ.and_count) == (2, 1)
    assert circ.outputs[0] == ONE and circ.outputs[2] == x0 and circ.outputs[3] == ZERO
    assert circ.outputs[6] == y2
    # every pair of 3-bit inputs, one lane each
    x, y = (v.ravel() for v in np.meshgrid(np.arange(8, dtype=np.uint64),
                                            np.arange(8, dtype=np.uint64)))
    bits = np.concatenate([pack_bits(x, 3), pack_bits(y, 3)])
    xb, yb = bits[:3].astype(bool), bits[3:].astype(bool)
    tv = xb[1] ^ yb[1]
    uv = tv & xb[2]
    want = np.stack([np.ones_like(tv), uv, xb[0], np.zeros_like(tv), uv, tv, yb[2], uv])
    assert np.array_equal(eval_circuit(circ, bits), want)
    gt, state = garble(circ, 64, np.random.default_rng(95))
    assert np.array_equal(evaluate(circ, gt, state.encode(bits)), want)


ORACLE_CIRCUITS = {
    "softmax_row": lambda: build_secure_circuit(SecureFnSpec("softmax_row", count=4, shift=32)),
    "layernorm_row": lambda: build_secure_circuit(
        SecureFnSpec("layernorm_row", count=8, shift=24)
    ),
    "relu": lambda: build_secure_circuit(SecureFnSpec("relu", shift=8)),
    "gelu": lambda: build_secure_circuit(SecureFnSpec("gelu", shift=8)),
    "xor_only": xor_only_circuit,
    "no_gates": gateless_circuit,
}


@pytest.mark.parametrize("name", list(ORACLE_CIRCUITS))
def test_level_schedule_matches_gate_at_a_time_oracle(name):
    circ = ORACLE_CIRCUITS[name]()
    # every circuit above with AND gates has them at several depths
    assert circ.and_count == 0 or len(circ.levels.and_bounds) > 3
    for lanes in (1, 3, 16):
        gt, state = garble(circ, lanes, np.random.default_rng(96))
        ref_gt, ref_state = garble_by_gate(circ, lanes, np.random.default_rng(96))
        for got, want in (
            (gt.tables, ref_gt.tables),
            (gt.const_labels, ref_gt.const_labels),
            (gt.out_hash, ref_gt.out_hash),
            (state.delta, ref_state.delta),
            (state.input_zero, ref_state.input_zero),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want), lanes
        bits = np.random.default_rng(97).integers(0, 2, (circ.n_inputs, lanes), dtype=np.uint8)
        active = state.encode(bits)
        out = evaluate(circ, gt, active)
        assert out.dtype == np.uint8
        assert np.array_equal(out, evaluate_by_gate(circ, ref_gt, active)), lanes
        assert np.array_equal(out, eval_circuit(circ, bits)), lanes


def and_depths(circ) -> np.ndarray:
    """Each gate's AND depth, gate by gate: the most AND gates on a path
    from an input to its output."""
    depth = [0] * circ.n_wires
    for i in range(circ.n_gates):
        w = 2 + circ.n_inputs + i
        depth[w] = max(depth[circ.lhs[i]], depth[circ.rhs[i]]) + (circ.op[i] == AND)
    return np.array(depth[2 + circ.n_inputs :])


def plan_wires(circ) -> np.ndarray:
    """The wire at each label position of the plan: constants and inputs,
    then block by block its AND gates and its XOR gates, by gate id, where
    block k holds the gates of AND depth k. Checks the block sizes."""
    plan, base = circ.levels, 2 + circ.n_inputs
    depth = and_depths(circ)
    wires = list(range(base))
    ab, xb = plan.and_bounds, plan.xor_bounds
    assert len(ab) == len(xb) == len(plan.leaf_bounds) == depth.max(initial=0) + 2
    for k in range(len(ab) - 1):
        ands = np.flatnonzero((depth == k) & (circ.op == AND))
        xors = np.flatnonzero((depth == k) & (circ.op == XOR))
        assert plan.and_[0, ab[k] : ab[k + 1]].tolist() == (2 * ands).tolist()
        assert xb[k + 1] - xb[k] == len(xors)
        wires += (base + ands).tolist() + (base + xors).tolist()
    return np.array(wires)


def blocks(plan):
    ab, xb, lb = plan.and_bounds, plan.xor_bounds, plan.leaf_bounds
    return zip(ab, ab[1:], xb, xb[1:], lb, lb[1:])


@pytest.mark.parametrize("name", list(ORACLE_CIRCUITS))
def test_plan_reads_only_labels_set_before_their_pass(name):
    circ = ORACLE_CIRCUITS[name]()
    plan, base = circ.levels, 2 + circ.n_inputs
    wire = plan_wires(circ)
    assert sorted(wire.tolist()) == list(range(circ.n_wires))
    assert np.array_equal(wire[plan.outputs], circ.outputs)
    row = np.cumsum(circ.op == AND) - 1
    ready = np.zeros(circ.n_wires, bool)  # by label position
    ready[:base] = True
    at = base
    for s, e, xs, xe, ls, le in blocks(plan):
        g = plan.and_[:, s:e]
        gate = g[0] // 2
        assert np.array_equal(g[1], g[0] + 1) and np.array_equal(g[2], row[gate])
        assert np.array_equal(wire[g[3]], circ.lhs[gate])
        assert np.array_equal(wire[g[4]], circ.rhs[gate])
        assert ready[g[3:]].all()  # the AND pass reads only what is set
        ready[at : at + e - s] = True
        at += e - s
        starts = plan.starts[xs:xe]
        assert starts[:1].tolist() in ([], [0])
        assert np.all(np.diff(np.append(starts, le - ls)) >= 2)  # an XOR has two leaves or more
        assert ready[plan.leaves[ls:le]].all()  # so does the XOR reduction
        ready[at : at + xe - xs] = True
        at += xe - xs
    assert at == circ.n_wires and ready.all()


@pytest.mark.parametrize("name", list(ORACLE_CIRCUITS))
def test_plan_leaves_xor_to_each_xor_gates_value(name):
    circ = ORACLE_CIRCUITS[name]()
    plan = circ.levels
    wire = plan_wires(circ)
    bits = np.random.default_rng(105).integers(0, 2, (circ.n_inputs, 5), dtype=np.uint8)
    value = wire_values(circ, bits)[wire]  # by label position
    at = 2 + circ.n_inputs
    for s, e, xs, xe, ls, le in blocks(plan):
        at += e - s
        bounds = np.append(plan.starts[xs:xe], le - ls) + ls
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            leaves = value[plan.leaves[lo:hi]]
            assert np.array_equal(np.bitwise_xor.reduce(leaves, axis=0), value[at + j])
        at += xe - xs


def test_evaluate_refuses_material_of_the_wrong_shape():
    circ = adder_circuit(6)
    lanes = 3
    gt, state = garble(circ, lanes, np.random.default_rng(104))
    active = state.encode(np.zeros((circ.n_inputs, lanes), np.uint8))
    extra_lane = np.concatenate([gt.tables, gt.tables[..., :1]], axis=2)
    for field, bad in (
        ("tables", GarbledTables(extra_lane, gt.const_labels, gt.out_hash)),
        ("tables", GarbledTables(gt.tables[:-1], gt.const_labels, gt.out_hash)),
        ("out_hash", GarbledTables(gt.tables, gt.const_labels, gt.out_hash[:-1])),
        ("out_hash", GarbledTables(gt.tables, gt.const_labels, gt.out_hash[..., :2])),
    ):
        with pytest.raises(ValueError, match=f"GarbledTables.{field} "):
            evaluate(circ, bad, active)
    assert evaluate(circ, gt, active).shape == (len(circ.outputs), lanes)


def test_single_tampered_table_word_raises_exactly_where_a_lane_reads_it():
    circ = build_secure_circuit(SecureFnSpec("relu", shift=4))
    plan = circ.levels
    # the first AND column of the first and last blocks that have one
    firsts = [b for b, e in zip(plan.and_bounds, plan.and_bounds[1:]) if e > b]
    assert len(firsts) > 1
    lanes = 8
    rng = np.random.default_rng(98)
    bits = rng.integers(0, 2, (circ.n_inputs, lanes), dtype=np.uint8)
    gt, state = garble(circ, lanes, rng)
    active = state.encode(bits)
    clean = evaluate(circ, gt, active)
    labels = active_by_gate(circ, gt, active)
    outs = list(circ.outputs)
    seen = {True: 0, False: 0}
    for col in (firsts[0], firsts[-1]):
        gate, row = int(plan.and_[0, col]) >> 1, int(plan.and_[2, col])
        # T_G is read where the lhs label's low bit s_a is 1, T_E where s_b is 1
        for word, side in ((0, circ.lhs[gate]), (1, circ.rhs[gate])):
            for lane in range(lanes):
                gt.tables[row, word, lane] ^= np.uint64(1 << 40)
                read = bool(labels[side, lane] & np.uint64(1))
                seen[read] += 1
                if read:
                    # the lowest output wire whose label the flip changed
                    hit = active_by_gate(circ, gt, active)[outs] != labels[outs]
                    wire = int(np.flatnonzero(hit.any(axis=1))[0])
                    with pytest.raises(CorruptTable, match=f"^output wire {wire} matches"):
                        evaluate(circ, gt, active)
                else:
                    assert np.array_equal(evaluate(circ, gt, active), clean)
                gt.tables[row, word, lane] ^= np.uint64(1 << 40)
    assert seen[True] and seen[False]


def test_semantic_backend_never_computes_a_level_schedule(monkeypatch):
    built = []

    def fresh_circuit(spec):
        built.append(build_secure_circuit.__wrapped__(spec))
        return built[-1]

    monkeypatch.setattr(securefn, "build_secure_circuit", fresh_circuit)
    cfg = ModelConfig(N=1, d_emb=4, H=1, n=2, d_oh=4, d_ff=4, norm="pre", activation="gelu")
    weights = random_weights(cfg, np.random.default_rng(99))
    for mode in ("base", "f", "fp", "fpc"):
        run_protocol(mode, cfg, weights, [1, 3], seed=5)
    assert built and all("levels" not in c.__dict__ for c in built)
    # the check can fail: a garbled stage does compute the plan
    securefn.eval_secure(SecureFnSpec("relu"), np.zeros((1, 1), np.uint64),
                         np.zeros((1, 1), np.uint64), np.random.default_rng(0), backend="gc",
                         report=CostReport(), transcript=Transcript(), step="Others",
                         ot_sender=ExtSender(np.random.default_rng(0)),
                         ot_receiver=ExtReceiver(np.random.default_rng(1)))
    assert "levels" in built[-1].__dict__


def test_adder_with_ot_fed_inputs():
    # garbler supplies x directly, evaluator's y labels arrive through OT
    rng = np.random.default_rng(90)
    rng_r = np.random.default_rng(91)
    w, lanes = 8, 4
    circ = adder_circuit(w)
    gt, state = garble(circ, lanes, rng)
    x = np.array([1, 2, 200, 255], dtype=np.uint64)
    y = np.array([9, 250, 57, 1], dtype=np.uint64)
    active_x = state.encode(pack_bits(x, w), rows=slice(0, w))
    m0, m1 = state.pairs(slice(w, 2 * w))
    y_bits = pack_bits(y, w)
    labels, _ = run_ot(m0.ravel(), m1.ravel(), y_bits.ravel(), ExtSender(rng),
                       ExtReceiver(rng_r))
    active_y = labels.reshape(w, lanes)
    got = unpack_bits(evaluate(circ, gt, np.concatenate([active_x, active_y])))
    assert np.array_equal(got, (x + y) % 256)


def test_tampered_u_column_gives_wrong_labels_that_evaluate_rejects(monkeypatch):
    # the sender reads column u^i only where its string s has s_i = 1, so the
    # wire flips bits of such a column: exactly the transfers hit get wrong
    # labels, and garbled evaluation catches them
    rng = np.random.default_rng(102)
    rng_r = np.random.default_rng(103)
    w, lanes = 8, 4
    circ = adder_circuit(w)
    gt, state = garble(circ, lanes, rng)
    x = np.array([1, 2, 200, 255], dtype=np.uint64)
    y_bits = pack_bits(np.array([9, 250, 57, 1], dtype=np.uint64), w).ravel()
    m0, m1 = (pair.ravel() for pair in state.pairs(slice(w, 2 * w)))
    hit = [0, 6]  # bit 0 of lane 0 (it feeds the first carry AND) and bit 1 of lane 2
    seen_s = []
    real_respond, real_columns = ot.OTReceiver.respond, ot._columns

    def spy_respond(big_a, choices, rng_):
        seen_s.append(np.array(choices))
        return real_respond(big_a, choices, rng_)

    def tamper(*args):
        t, u = real_columns(*args)
        col = int(np.flatnonzero(seen_s[-1])[0])
        flip = np.zeros(len(y_bits), np.uint8)
        flip[hit] = 1
        u = u.copy()
        u[col] ^= np.packbits(flip)
        return t, u

    monkeypatch.setattr(ot.OTReceiver, "respond", staticmethod(spy_respond))
    monkeypatch.setattr(ot, "_columns", tamper)
    labels, _ = run_ot(m0, m1, y_bits, ExtSender(rng), ExtReceiver(rng_r))
    want = np.where(y_bits.astype(bool), m1, m0)
    assert np.flatnonzero(labels != want).tolist() == hit
    assert not np.isin(labels[hit], np.concatenate([m0, m1])).any()
    active = np.concatenate([state.encode(pack_bits(x, w), rows=slice(0, w)),
                             labels.reshape(w, lanes)])
    with pytest.raises(CorruptTable):
        evaluate(circ, gt, active)
