"""Garbled evaluation of the boolean circuits (free-XOR, point-and-permute).

Labels are single uint64 words (toy security scale, keeps everything in
numpy). The lane axis batches independent evaluations of the same circuit,
so one garble pass covers, say, every row of a softmax step.

XOR gates are free: out = a ^ b under a global delta whose low bit is 1;
that low bit doubles as the permute bit. Each AND gate ships four rows of
(padded label, check word); a wrong or tampered row fails the check and
raises instead of decrypting garbage.

The two passes follow two schedules, each a plan computed on the
circuit's first garbling and kept on the circuit, so the per-level index
work is paid once per circuit rather than once per call.

The evaluator must learn each AND gate's output label from its table, so
it walks the topological levels (`BoolCircuit.levels`): the gates of a
level read only wires of earlier levels. It keeps its labels in level
order, so a level's outputs are two contiguous runs. Per level it does
one gather and one XOR for the XOR gates, then one gather of the AND
gates' input labels, shaped (lhs/rhs, gates, lanes), and one PRF pass
over (la, lb) and (lb, la) with tweaks 2g and 2g + 1. That pass yields
every key pad and every expected check word. One test of the check words
guards the level; a failed check names the lowest failing gate of that
level.

The garbler needs far fewer steps, because every AND output zero-label is
a fresh draw that depends on nothing. So it draws them all up front, and
an XOR label then waits only for XORs beneath it: the garbler groups the
XOR gates by XOR-only depth (`BoolCircuit.xor_groups`, with inputs,
constants and AND outputs at depth 0). The desk model's softmax, layer
norm and ReLU circuits have 101, 147 and 77 such groups against 1,546,
1,783 and 608 levels. It then encrypts every AND table in
batches, in gate order, with row t computed directly as the row whose
input labels have permute bits t. The AND draw is one
`integers(size=(n_and, lanes))` call made right after delta and the
input labels. A full-range uint64 draw takes one generator word per
value, in row order, so row j gets exactly the words the j-th AND gate
drew when gates were garbled one at a time. The same generator gives
the same tables, labels and decode bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import AND, BoolCircuit

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xBF58476D1CE4E5B9)
_K3 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
# permute bits (t_a, t_b) of the four rows of an AND table: row t = 2 t_a + t_b
_TA = np.array([0, 0, 1, 1], dtype=np.uint64)[:, None]
_TB = np.array([0, 1, 0, 1], dtype=np.uint64)[:, None]
# the key and check words of a row hash (la, lb) and (lb, la) with tweaks 2g, 2g + 1
_TWEAK = np.array([0, 1])[:, None]
# shift amounts as uint64 scalars, built once rather than on every PRF call
_SHIFT = {n: np.uint64(n) for n in (13, 27, 29, 30, 31, 32, 35, 51)}
_BATCH = 1 << 11  # AND gates x lanes garbled per batch; bounds the temporaries


class CorruptTable(RuntimeError):
    pass


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << _SHIFT[r]) | (x >> _SHIFT[64 - r])


def _prf(a: np.ndarray, b: np.ndarray, tweak, out: np.ndarray | None = None) -> np.ndarray:
    """Fixed-key ARX mix of two labels and a gate tweak (an int, or an
    array of them that broadcasts against the labels), written to out if
    given."""
    x = np.bitwise_xor(a, _rotl(b, 29), out=out)
    x ^= np.asarray(tweak, dtype=np.uint64) * _K1
    x ^= x >> _SHIFT[30]
    x *= _K2
    x ^= x >> _SHIFT[27]
    x *= _K3
    x += _rotl(a, 13)
    x += b
    x ^= x >> _SHIFT[31]
    x *= _K2
    x ^= x >> _SHIFT[32]
    return x


@dataclass
class GarbledTables:
    """Everything the evaluator sees."""

    tables: np.ndarray  # (n_and, 4, 2, lanes) uint64
    const_labels: np.ndarray  # (2, lanes): active labels for wires 0 and 1
    decode: np.ndarray  # (n_out, lanes) uint8 permute bits of output zero-labels


@dataclass
class GarblerState:
    """Stays with the garbler; leaks every input pair, so never send it."""

    delta: np.ndarray  # (lanes,)
    input_zero: np.ndarray  # (n_in, lanes) labels for bit value 0

    def encode(self, bits: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """Active labels for given input bits, shape (n, lanes)."""
        zero = self.input_zero if rows is None else self.input_zero[rows]
        return zero ^ (np.asarray(bits, dtype=np.uint64) * self.delta)

    def pairs(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """(label-for-0, label-for-1) of selected input wires, for OT."""
        zero = self.input_zero[rows]
        return zero, zero ^ self.delta


def garble(
    circ: BoolCircuit, lanes: int, rng: np.random.Generator
) -> tuple[GarbledTables, GarblerState]:
    def fresh(n):
        return rng.integers(0, 1 << 64, size=(n, lanes), dtype=np.uint64)

    # Both passes' plans are built on first use. Building the evaluator's
    # here too, before the label and table arrays exist, keeps the
    # temporaries of both out of the memory those arrays reuse later.
    groups, _ = circ.xor_groups, circ.levels
    base = 2 + circ.n_inputs
    delta = fresh(1)[0] | _ONE  # low bit set: free-XOR + permute bit
    zero = np.empty((circ.n_wires, lanes), dtype=np.uint64)
    zero[:base] = fresh(base)
    and_gate = np.flatnonzero(circ.op == AND)
    zero[base + and_gate] = fresh(len(and_gate))  # in gate order, as a gate-by-gate walk draws them
    for s, e in zip(groups.bounds, groups.bounds[1:]):
        g = groups.gates[s:e]
        out = zero[circ.lhs[g]]
        out ^= zero[circ.rhs[g]]
        zero[base + g] = out
    tables = np.empty((len(and_gate), 4, 2, lanes), dtype=np.uint64)
    ta, tb = _TA * delta, _TB * delta
    step = max(1, _BATCH // lanes)
    for s in range(0, len(and_gate), step):
        g = and_gate[s : s + step]
        za, zb = zero[circ.lhs[g]], zero[circ.rhs[g]]
        pa, pb = za & _ONE, zb & _ONE
        # (gates, row t, a/b, lanes): the labels whose permute bits are t,
        # each the zero-label xor delta times its value t_a ^ p_a (t_b ^ p_b)
        pair = np.empty((len(g), 4, 2, lanes), dtype=np.uint64)
        np.bitwise_xor((za ^ pa * delta)[:, None], ta, out=pair[:, :, 0])
        np.bitwise_xor((zb ^ pb * delta)[:, None], tb, out=pair[:, :, 1])
        part = _prf(pair, pair[:, :, ::-1], 2 * g[:, None, None, None] + _TWEAK,
                    out=tables[s : s + step])
        ones = (_TA ^ pa[:, None]) & (_TB ^ pb[:, None])
        part[:, :, 0] ^= zero[base + g][:, None] ^ ones * delta
    const_labels = np.stack([zero[0], zero[1] ^ delta])
    decode = (zero[list(circ.outputs)] & _ONE).astype(np.uint8)
    # a copy, so the whole wire array is freed when garbling returns
    return GarbledTables(tables, const_labels, decode), GarblerState(delta, zero[2:base].copy())


def evaluate(circ: BoolCircuit, gt: GarbledTables, active_inputs: np.ndarray) -> np.ndarray:
    """Walk the levels with active labels only; returns active output labels."""
    lanes = gt.const_labels.shape[1]
    if active_inputs.shape != (circ.n_inputs, lanes):
        raise ValueError("active input labels have the wrong shape")
    for field, want in (("tables", (circ.and_count, 4, 2, lanes)),
                        ("decode", (len(circ.outputs), lanes))):
        got = getattr(gt, field).shape
        if got != want:
            raise ValueError(f"GarbledTables.{field} has shape {got}; the circuit needs {want}")
    plan = circ.levels
    # labels in the plan's level order; a level writes its XOR outputs and
    # then its AND outputs as two runs starting at `at`
    active = np.empty((circ.n_wires, lanes), dtype=np.uint64)
    active[:2] = gt.const_labels
    active[2 : 2 + circ.n_inputs] = active_inputs
    at = 2 + circ.n_inputs
    # a view (key/check word, 2 x table row + t_a, t_b, lanes) of the tables
    words = gt.tables.reshape(-1, 2, 2, lanes).transpose(2, 0, 1, 3)
    lane_idx = np.arange(lanes)
    xor, and_, xb, ab = plan.xor, plan.and_, plan.xor_bounds, plan.and_bounds
    for xs, xe, s, e in zip(xb, xb[1:], ab, ab[1:]):
        if xe > xs:
            ins = active[xor[:, xs:xe]]
            np.bitwise_xor(ins[0], ins[1], out=active[at : at + xe - xs])
            at += xe - xs
        if e == s:
            continue
        ins = active[and_[3:, s:e]]  # (lhs/rhs, gates, lanes)
        pads = _prf(ins, ins[::-1], and_[:2, s:e, None])
        low = (ins & _ONE).view(np.int64)  # permute bits
        ct = words[:, and_[2, s:e, None] + low[0], low[1], lane_idx]
        ct ^= pads  # [output labels; check words ^ expected, all 0 if intact]
        if ct[1].any():
            bad = ct[1].any(axis=1)
            raise CorruptTable(f"check word mismatch at gate {and_[0, s:e][bad].min() >> 1}")
        active[at : at + e - s] = ct[0]
        at += e - s
    return active[plan.outputs]


def decode_outputs(gt: GarbledTables, active_outputs: np.ndarray) -> np.ndarray:
    return (active_outputs & _ONE).astype(np.uint8) ^ gt.decode
