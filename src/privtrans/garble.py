"""Garbled evaluation of the boolean circuits: half-gates over free-XOR.

Labels are single uint64 words (toy security scale, keeps everything in
numpy). The lane axis batches independent evaluations of the same circuit,
so one garble pass covers, say, every row of a softmax step.

XOR gates are free: out = a ^ b under a global delta whose low bit is 1;
that low bit doubles as the permute bit. Each AND gate is two half gates
(Zahur-Rosulek-Evans, EUROCRYPT 2015) and ships two words per lane,
T_G and T_E. Gate g hashes its lhs label with tweak 2g and its rhs label
with tweak 2g + 1. With zero-labels A, B, permute bits p_a, p_b and the
hash H:
    T_G = H(A) ^ H(A ^ delta) ^ p_b delta
    T_E = H(B) ^ H(B ^ delta) ^ A
    W   = H(A) ^ p_a T_G ^ H(B) ^ p_b (T_E ^ A)       (output zero-label)
The evaluator, holding active labels a, b with low bits s_a, s_b, gets
the active output label H(a) ^ s_a T_G ^ H(b) ^ s_b (T_E ^ a). So the
garbler makes 4 hash calls per gate and lane and the evaluator 2, and the
garbler draws only delta and the labels of the constants and inputs:
every other label follows from those. Tables are sent in AND-gate order.

Both passes walk one plan, `BoolCircuit.levels`, computed on first use
and kept on the circuit. It puts the gates in blocks by AND depth. Per
block, one hash pass covers every AND gate of the block and every lane;
then one `np.bitwise_xor.reduceat` over a flat array of leaf positions
sets all of the block's XOR outputs. Labels live in plan order, so a
block's outputs are two contiguous runs.

A half-gates table has no redundant word, so tampering is caught at the
outputs: the garbler sends `out_hash`, the hashes of both labels of every
output wire, with tweaks 2 * n_gates + k for output k, after every gate
tweak. The evaluator takes each output bit from the hash its active label
matches. A tampered word that some lane reads gives that lane a wrong
label, which spreads to the outputs it reaches; when a label matches
neither hash, `evaluate` raises `CorruptTable` naming the lowest such
output wire. This catches corruption of the material, not a malicious
garbler, which could garble a different circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import BoolCircuit, LevelSchedule

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xBF58476D1CE4E5B9)
_K3 = np.uint64(0x94D049BB133111EB)
_ZERO = np.uint64(0)
_ONE = np.uint64(1)
# shift amounts as uint64 scalars, built once rather than on every PRF call
_SHIFT = {n: np.uint64(n) for n in (13, 27, 29, 30, 31, 32, 35, 51)}


class CorruptTable(RuntimeError):
    pass


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << _SHIFT[r]) | (x >> _SHIFT[64 - r])


def _prf(a: np.ndarray, b: np.ndarray, tweak, out: np.ndarray | None = None) -> np.ndarray:
    """Fixed-key ARX mix of two words and a tweak (an int, or an array of
    them that broadcasts against the words), written to out if given."""
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


def _hash(x: np.ndarray, tweak) -> np.ndarray:
    """H(x, tweak) of one label."""
    return _prf(x, _ZERO, tweak)


def _out_tweaks(circ: BoolCircuit) -> np.ndarray:
    """The output hashes' tweaks, (n_out, 1): past every gate tweak."""
    return (2 * circ.n_gates + np.arange(len(circ.outputs), dtype=np.uint64))[:, None]


@dataclass
class GarbledTables:
    """Everything the evaluator sees."""

    tables: np.ndarray  # (n_and, 2, lanes) uint64: T_G and T_E of each AND gate
    const_labels: np.ndarray  # (2, lanes): active labels for wires 0 and 1
    out_hash: np.ndarray  # (n_out, 2, lanes) uint64: H(W^0), H(W^1) of each output wire


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


def _walk(plan: LevelSchedule, labels: np.ndarray, at: int):
    """Walk the plan's blocks over labels kept in plan order, from position
    at: yield each block's AND columns of `plan.and_` and where its AND run
    starts; once the caller has written that run, set the block's XOR run."""
    ab, xb, lb = plan.and_bounds, plan.xor_bounds, plan.leaf_bounds
    for s, e, xs, xe, ls, le in zip(ab, ab[1:], xb, xb[1:], lb, lb[1:]):
        if e > s:
            yield plan.and_[:, s:e], at
            at += e - s
        if xe > xs:
            np.bitwise_xor.reduceat(labels[plan.leaves[ls:le]], plan.starts[xs:xe], axis=0,
                                    out=labels[at : at + xe - xs])
            at += xe - xs


def garble(
    circ: BoolCircuit, lanes: int, rng: np.random.Generator
) -> tuple[GarbledTables, GarblerState]:
    def fresh(n):
        return rng.integers(0, 1 << 64, size=(n, lanes), dtype=np.uint64)

    # the plan is built on first use, before the label array exists, so its
    # temporaries do not add to that array's memory
    plan = circ.levels
    base = 2 + circ.n_inputs
    delta = fresh(1)[0] | _ONE  # low bit set: free-XOR + permute bit
    zero = np.empty((circ.n_wires, lanes), dtype=np.uint64)  # zero-labels, in plan order
    zero[:base] = fresh(base)
    tables = np.empty((circ.and_count, 2, lanes), dtype=np.uint64)
    for g, at in _walk(plan, zero, base):
        x = np.empty((2, 2, g.shape[1], lanes), dtype=np.uint64)  # (bit value, lhs/rhs, ...)
        np.take(zero, g[3:], axis=0, out=x[0])  # A and B
        np.bitwise_xor(x[0], delta, out=x[1])
        h = _hash(x, g[:2, :, None])
        p = x[0] & _ONE  # permute bits p_a, p_b
        t = h[0] ^ h[1]  # H(A) ^ H(A ^ delta), H(B) ^ H(B ^ delta)
        # W = H(A) ^ H(B) ^ p_b (T_E ^ A) ^ p_a T_G, where T_E ^ A is t[1]
        w = h[0, 0] ^ h[0, 1]
        w ^= p[1] * t[1]
        t[0] ^= p[1] * delta  # T_G
        t[1] ^= x[0, 0]  # T_E
        w ^= p[0] * t[0]
        tables[g[2]] = t.transpose(1, 0, 2)
        zero[at : at + g.shape[1]] = w
    out = zero[plan.outputs]
    out_hash = _hash(np.stack([out, out ^ delta], axis=1), _out_tweaks(circ)[:, :, None])
    const_labels = np.stack([zero[0], zero[1] ^ delta])
    # a copy, so the whole label array is freed when garbling returns
    return GarbledTables(tables, const_labels, out_hash), GarblerState(delta, zero[2:base].copy())


def evaluate(circ: BoolCircuit, gt: GarbledTables, active_inputs: np.ndarray) -> np.ndarray:
    """Walk the plan with active labels only; returns the output bits,
    (n_out, lanes) uint8, each read off the output hash its label matches."""
    lanes = gt.const_labels.shape[1]
    if active_inputs.shape != (circ.n_inputs, lanes):
        raise ValueError("active input labels have the wrong shape")
    for field, want in (("tables", (circ.and_count, 2, lanes)),
                        ("out_hash", (len(circ.outputs), 2, lanes))):
        got = getattr(gt, field).shape
        if got != want:
            raise ValueError(f"GarbledTables.{field} has shape {got}; the circuit needs {want}")
    plan = circ.levels
    base = 2 + circ.n_inputs
    active = np.empty((circ.n_wires, lanes), dtype=np.uint64)  # in plan order
    active[:2] = gt.const_labels
    active[2:base] = active_inputs
    for g, at in _walk(plan, active, base):
        ins = active[g[3:]]  # (lhs/rhs, gates, lanes): a and b
        t = gt.tables[g[2]]  # (gates, T_G/T_E, lanes)
        s = ins & _ONE  # s_a, s_b
        h = _hash(ins, g[:2, :, None])
        w = h[0] ^ h[1]
        w ^= s[0] * t[:, 0]
        w ^= s[1] * (t[:, 1] ^ ins[0])
        active[at : at + g.shape[1]] = w
    h = _hash(active[plan.outputs], _out_tweaks(circ))
    one = h == gt.out_hash[:, 1]
    bad = ~one & (h != gt.out_hash[:, 0])
    if bad.any():
        wire = int(np.flatnonzero(bad.any(axis=1))[0])
        raise CorruptTable(f"output wire {wire} matches neither output hash")
    return one.astype(np.uint8)
