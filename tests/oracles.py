"""Independent brute-force oracles used to freeze expected test values.

Everything here is plain Python integer arithmetic or textbook float math,
deliberately sharing no code with the package under test (the one import
is the model's dataclasses, for the double-precision forward pass below).
The one-bit-step `normalize_linear` imports nothing either, but is written
against the fixed-point ops interface it is handed, so it runs on either
backend. The exceptions are at the end: the plain circuit evaluator reads the
package's circuit arrays, and the gate-at-a-time garbler and evaluator
reuse its label hash and table types, because they pin the garbled bytes
of the planned path, not the hash. The per-element diagonal masks take
the package's layout objects but read only their fields.
"""

import math

import numpy as np

LN_EPS = 2.0 ** -12


def to_signed(v: int, m: int) -> int:
    v %= 1 << m
    return v - (1 << m) if v >= 1 << (m - 1) else v


def to_unsigned(v: int, m: int) -> int:
    return v % (1 << m)


def matmul_mod(a, b, m: int):
    """Schoolbook matrix product of int lists, reduced mod 2^m."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            for j in range(cols):
                out[i][j] = (out[i][j] + aik * b[k][j]) % (1 << m)
    return out


def trunc_sat(v: int, m: int, frac_bits: int, value_bits: int) -> int:
    """Arithmetic shift right then saturate, on one ring element."""
    s = to_signed(v, m) >> frac_bits  # python >> floors, matching arithmetic shift
    lim = (1 << (value_bits - 1)) - 1
    s = max(-lim, min(lim, s))
    return to_unsigned(s, m)


def encode(x: float, frac_bits: int, m: int) -> int:
    scaled = x * (1 << frac_bits)
    q = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
    return to_unsigned(q, m)


def decode(v: int, frac_bits: int, m: int) -> float:
    return to_signed(v, m) / (1 << frac_bits)


def softmax(row):
    mx = max(row)
    es = [math.exp(x - mx) for x in row]
    s = sum(es)
    return [e / s for e in es]


def layernorm(row, eps=LN_EPS):
    n = len(row)
    mu = sum(row) / n
    var = sum((x - mu) ** 2 for x in row) / n
    inv = 1.0 / math.sqrt(var + eps)
    return [(x - mu) * inv for x in row]


def relu(row):
    return [max(x, 0.0) for x in row]


def normalize_linear(ops, v):
    """`fixedfn.normalize` as it was first written, one bit per step, w - 1
    steps: floor v at 1, then shift left by one while the top bit is clear,
    counting the shifts in a 7-bit e. Returns (m, e) with m = v << e: the
    reference for the halving steps."""
    w = v.width
    floor = ops.const(1, w)
    v = ops.mux(ops.ge(v, floor), v, floor)
    e = ops.const(0, 7)
    one = ops.const(1, 7)
    for _ in range(w - 1):
        top = ops.bit(v, w - 1)
        v = ops.mux(top, v, ops.shl(v, 1))
        e = ops.mux(top, e, ops.add(e, one))
    return v, e


# -- double-precision transformer forward --------------------------------
#
# Mirrors the fixed-point graph structurally (same norm placement, same
# encoded 1/sqrt(n) scale, same layernorm epsilon) but computes in float64
# with exact softmax/gelu, so any disagreement beyond the stated tolerance
# comes from the ring arithmetic under test.


def _softmax_rows(rows: np.ndarray) -> np.ndarray:
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layernorm_rows(rows: np.ndarray) -> np.ndarray:
    mu = rows.mean(axis=1, keepdims=True)
    var = ((rows - mu) ** 2).mean(axis=1, keepdims=True)
    return (rows - mu) / np.sqrt(var + LN_EPS)


def _act(cfg, x: np.ndarray) -> np.ndarray:
    if cfg.activation == "relu":
        return np.maximum(x, 0.0)
    erf = np.vectorize(math.erf)
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def float_forward(cfg, weights, tokens) -> np.ndarray:
    """Logits (n, d_out) from the decoded weights, in float64."""
    eta = cfg.eta / cfg.ring.scale
    x = weights.w_e.to_float()[np.asarray(tokens)] * cfg.delta + cfg.lam.to_float()
    for blk in weights.blocks:
        wq, wk, wv, wo = (t.to_float() for t in (blk.w_q, blk.w_k, blk.w_v, blk.w_o))
        wf1, wf2 = blk.w_f1.to_float(), blk.w_f2.to_float()

        def attention(inp):
            q, k, v = inp @ wq, inp @ wk, inp @ wv
            heads = []
            for h in range(cfg.H):
                sl = slice(h * cfg.d_head, (h + 1) * cfg.d_head)
                p = _softmax_rows(q[:, sl] @ k[:, sl].T * eta)
                heads.append(p @ v[:, sl])
            return np.concatenate(heads, axis=1) @ wo

        def ffn(inp):
            return _act(cfg, inp @ wf1) @ wf2

        if cfg.norm == "post":
            x = _layernorm_rows(x + attention(x))
            x = _layernorm_rows(x + ffn(x))
        else:
            x = x + attention(_layernorm_rows(x))
            x = x + ffn(_layernorm_rows(x))
    if cfg.norm == "pre":
        x = _layernorm_rows(x)
    return x @ weights.w_head.to_float()


# -- plain circuit evaluation -------------------------------------------------


def wire_values(circ, inputs: np.ndarray) -> np.ndarray:
    """Plain evaluation, one gate at a time: every wire's bit, (n_wires,
    batch) uint8, from input bits of shape (n_inputs, batch)."""
    from privtrans.circuits import AND, ONE

    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.uint8))
    if inputs.shape[0] != circ.n_inputs:
        raise ValueError(f"expected {circ.n_inputs} input bits, got {inputs.shape[0]}")
    batch = inputs.shape[1]
    wires = np.zeros((circ.n_wires, batch), dtype=np.uint8)
    wires[ONE] = 1
    wires[2 : 2 + circ.n_inputs] = inputs
    base = 2 + circ.n_inputs
    for i in range(circ.n_gates):
        a = wires[circ.lhs[i]]
        b = wires[circ.rhs[i]]
        wires[base + i] = (a & b) if circ.op[i] == AND else (a ^ b)
    return wires


def eval_circuit(circ, inputs: np.ndarray) -> np.ndarray:
    """The output bits, (n_outputs, batch) uint8, of plain evaluation."""
    return wire_values(circ, inputs)[list(circ.outputs)]


# -- gate-at-a-time garbling -------------------------------------------------
#
# Half-gates (Zahur-Rosulek-Evans, EUROCRYPT 2015) written out per gate in
# gate-id order, from the paper's equations: gate i hashes its lhs labels
# with tweak 2i and its rhs labels with 2i + 1, and output k's labels are
# hashed with tweak 2 * n_gates + k.


def garble_by_gate(circ, lanes: int, rng: np.random.Generator):
    """Garble one gate at a time: the reference for `garble.garble`."""
    from privtrans.circuits import AND
    from privtrans.garble import _ONE, GarbledTables, GarblerState, _hash

    def fresh(n):
        return rng.integers(0, 1 << 64, size=(n, lanes), dtype=np.uint64)

    delta = fresh(1)[0] | _ONE
    base = 2 + circ.n_inputs
    zero = np.zeros((circ.n_wires, lanes), dtype=np.uint64)
    zero[:base] = fresh(base)
    tables = np.zeros((circ.and_count, 2, lanes), dtype=np.uint64)
    j = 0
    for i in range(circ.n_gates):
        a0, b0 = zero[circ.lhs[i]], zero[circ.rhs[i]]
        if circ.op[i] != AND:
            zero[base + i] = a0 ^ b0
            continue
        pa, pb = a0 & _ONE, b0 & _ONE
        ha0, ha1 = _hash(a0, 2 * i), _hash(a0 ^ delta, 2 * i)
        hb0, hb1 = _hash(b0, 2 * i + 1), _hash(b0 ^ delta, 2 * i + 1)
        t_g = ha0 ^ ha1 ^ pb * delta  # generator half gate: a & p_b
        w_g = ha0 ^ pa * t_g
        t_e = hb0 ^ hb1 ^ a0  # evaluator half gate: a & (b ^ p_b)
        w_e = hb0 ^ pb * (t_e ^ a0)
        tables[j, 0], tables[j, 1] = t_g, t_e
        zero[base + i] = w_g ^ w_e
        j += 1
    out_hash = np.zeros((len(circ.outputs), 2, lanes), dtype=np.uint64)
    for k, w in enumerate(circ.outputs):
        out_hash[k, 0] = _hash(zero[w], 2 * circ.n_gates + k)
        out_hash[k, 1] = _hash(zero[w] ^ delta, 2 * circ.n_gates + k)
    const_labels = np.stack([zero[0], zero[1] ^ delta])
    return GarbledTables(tables, const_labels, out_hash), GarblerState(delta, zero[2:base])


def active_by_gate(circ, gt, active_inputs: np.ndarray) -> np.ndarray:
    """Every wire's active label, (n_wires, lanes), one gate at a time."""
    from privtrans.circuits import AND
    from privtrans.garble import _ONE, _hash

    lanes = gt.const_labels.shape[1]
    base = 2 + circ.n_inputs
    active = np.zeros((circ.n_wires, lanes), dtype=np.uint64)
    active[:2] = gt.const_labels
    active[2:base] = active_inputs
    j = 0
    for i in range(circ.n_gates):
        a, b = active[circ.lhs[i]], active[circ.rhs[i]]
        if circ.op[i] != AND:
            active[base + i] = a ^ b
            continue
        t_g, t_e = gt.tables[j]
        w_g = _hash(a, 2 * i) ^ (a & _ONE) * t_g
        w_e = _hash(b, 2 * i + 1) ^ (b & _ONE) * (t_e ^ a)
        active[base + i] = w_g ^ w_e
        j += 1
    return active


def evaluate_by_gate(circ, gt, active_inputs: np.ndarray) -> np.ndarray:
    """Evaluate one gate at a time, then read each output bit off the
    output hash its label matches: the reference for `garble.evaluate`."""
    from privtrans.garble import CorruptTable, _hash

    active = active_by_gate(circ, gt, active_inputs)
    bits = np.zeros((len(circ.outputs), active.shape[1]), dtype=np.uint8)
    for k, w in enumerate(circ.outputs):
        h = _hash(active[w], 2 * circ.n_gates + k)
        if not np.all((h == gt.out_hash[k, 0]) | (h == gt.out_hash[k, 1])):
            raise CorruptTable(f"output wire {k} matches neither output hash")
        bits[k] = h == gt.out_hash[k, 1]
    return bits


# -- per-element diagonal masks ----------------------------------------------


def diagonal_masks_by_element(layout_in, layout_out, w):
    """The packed matmul's masks built one contribution at a time, keyed
    (in ct, shift, out ct) -> (slots, weights): the reference for
    `packing._diagonal_masks`. Reads the layouts' strategy, n, d and slots
    only; the stream positions are written out here."""

    def slot_of(layout, h, j):
        if layout.strategy.value == "features_first":
            return divmod(h * layout.d + j, layout.slots)
        return divmod(j * layout.n + h, layout.slots)

    m = layout_in.slots
    masks = {}
    wd = w.data
    for h in range(layout_in.n):
        for j in range(layout_in.d):
            i_ct, s_in = slot_of(layout_in, h, j)
            for o in range(layout_out.d):
                wv = int(wd[j, o])
                if wv == 0:
                    continue
                t_ct, s_out = slot_of(layout_out, h, o)
                entry = masks.setdefault((i_ct, (s_in - s_out) % m, t_ct), ([], []))
                entry[0].append(s_out)
                entry[1].append(wv)
    return masks


# -- per-op packed matmul ------------------------------------------------------


def he_matmul_per_op(cts, layout, w, report):
    """The packed matmul one ciphertext and one op at a time: the reference
    for `packing.he_matmul`. Per input ciphertext i of the batch and per
    shift of `layout.shifts`, one rotation; per mask of (i, shift), in
    ascending out ct t, one plaintext product added onto t's sum. Returns
    one single ciphertext per output ciphertext; one no product reaches is
    the transparent zero (0, 0) with noise 0. Masks come from
    `diagonal_masks_by_element`."""
    from privtrans.she import Ciphertext, he_add, he_mul_plain, he_rotate

    layout_out = layout.with_features(w.cols)
    m = layout.slots
    masks, plan = diagonal_masks_by_element(layout, layout_out, w), {}
    for (i, shift, t), (slots, values) in sorted(masks.items()):
        mask = np.zeros(m, dtype=np.uint64)
        mask[slots] = values
        plan.setdefault((i, shift), []).append((t, mask))
    acc = [None] * layout_out.c
    for i in range(layout.c):
        ct = cts.row(i)
        for shift in layout.shifts:
            rot = he_rotate(ct, shift, report)
            for t, mask in plan.get((i, shift), ()):
                prod = he_mul_plain(rot, mask, report)
                acc[t] = prod if acc[t] is None else he_add(acc[t], prod, report)
    zero = np.zeros(m, dtype=np.uint64)
    return [a if a is not None else Ciphertext(zero, zero, cts.key_id, cts.params) for a in acc]
