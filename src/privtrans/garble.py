"""Garbled evaluation of the boolean circuits (free-XOR, point-and-permute).

Labels are single uint64 words (toy security scale, keeps everything in
numpy). The lane axis batches independent evaluations of the same circuit,
so one garble pass covers, say, every row of a softmax step.

XOR gates are free: out = a ^ b under a global delta whose low bit is 1;
that low bit doubles as the permute bit. Each AND gate ships four rows of
(padded label, check word); a wrong or tampered row fails the check and
raises instead of decrypting garbage.

Both passes follow the circuit's level schedule (`BoolCircuit.levels`,
computed on first use and kept on the circuit): the gates of one
topological level read only wires of earlier levels, so each level is a
few numpy ops over gates x lanes instead of one Python step per gate.
The evaluator does a level's XORs as one gather-XOR-scatter, then
decrypts and checks all its AND rows at once; a failed check names the
lowest failing gate of that level. The garbler needs no levels for its
AND gates: their output zero-labels are fresh draws, so it draws them
all up front, propagates the XORs level by level, and then encrypts
every AND table in batches in gate order. The draw is one
`integers(size=(n_and, lanes))` call made right after delta and the
input labels; a full-range uint64 draw takes one generator word per
value, in row order, so row j gets exactly the words the j-th AND gate
drew when gates were garbled one at a time, and the same generator
gives the same tables, labels and decode bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import AND, BoolCircuit

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xBF58476D1CE4E5B9)
_K3 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
# input values (a, b) of the four rows of an AND table, before permuting
_VA = np.array([0, 0, 1, 1], dtype=np.uint64)[:, None]
_VB = np.array([0, 1, 0, 1], dtype=np.uint64)[:, None]
_CHUNK = 128  # AND gates garbled per batch; bounds the temporaries


class CorruptTable(RuntimeError):
    pass


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _prf(a: np.ndarray, b: np.ndarray, tweak) -> np.ndarray:
    """Fixed-key ARX mix of two labels and a gate tweak (an int, or an
    array of them that broadcasts against the labels)."""
    x = a ^ _rotl(b, 29) ^ (np.asarray(tweak, dtype=np.uint64) * _K1)
    x = x ^ (x >> np.uint64(30))
    x = x * _K2
    x = x ^ (x >> np.uint64(27))
    x = x * _K3
    x = x + _rotl(a, 13) + b
    x = x ^ (x >> np.uint64(31))
    x = x * _K2
    return x ^ (x >> np.uint64(32))


def _perm_rows(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Table row an (a, b) label pair decrypts: its two permute bits."""
    return (((la & _ONE) << _ONE) | (lb & _ONE)).astype(np.intp)


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

    base = 2 + circ.n_inputs
    delta = fresh(1)[0] | _ONE  # low bit set: free-XOR + permute bit
    zero = np.zeros((circ.n_wires, lanes), dtype=np.uint64)
    zero[:base] = fresh(base)
    and_gate = np.flatnonzero(circ.op == AND)
    and_out = base + and_gate
    zero[and_out] = fresh(len(and_gate))  # in gate order, as a gate-by-gate walk draws them
    for xor, _ in circ.levels:
        zero[base + xor] = zero[circ.lhs[xor]] ^ zero[circ.rhs[xor]]
    tables = np.empty((len(and_gate), 4, 2, lanes), dtype=np.uint64)
    for s in range(0, len(and_gate), _CHUNK):
        g = and_gate[s : s + _CHUNK]
        part = tables[s : s + _CHUNK]
        # (gates, 4 rows, lanes): row r carries input values (_VA[r], _VB[r])
        la = zero[circ.lhs[g]][:, None, :] ^ (_VA * delta)
        lb = zero[circ.rhs[g]][:, None, :] ^ (_VB * delta)
        out_active = zero[and_out[s : s + _CHUNK]][:, None, :] ^ ((_VA & _VB) * delta)
        rows = _perm_rows(la, lb)
        tweak = 2 * g[:, None, None]
        np.put_along_axis(part[:, :, 0, :], rows, out_active ^ _prf(la, lb, tweak), axis=1)
        np.put_along_axis(part[:, :, 1, :], rows, _prf(lb, la, tweak + 1), axis=1)
    const_labels = np.stack([zero[0], zero[1] ^ delta])
    decode = (zero[list(circ.outputs)] & _ONE).astype(np.uint8)
    # a copy, so the whole wire array is freed when garbling returns
    return GarbledTables(tables, const_labels, decode), GarblerState(delta, zero[2:base].copy())


def evaluate(circ: BoolCircuit, gt: GarbledTables, active_inputs: np.ndarray) -> np.ndarray:
    """Walk the levels with active labels only; returns active output labels."""
    lanes = gt.const_labels.shape[1]
    if active_inputs.shape != (circ.n_inputs, lanes):
        raise ValueError("active input labels have the wrong shape")
    base = 2 + circ.n_inputs
    active = np.zeros((circ.n_wires, lanes), dtype=np.uint64)
    active[:2] = gt.const_labels
    active[2:base] = active_inputs
    lane_idx = np.arange(lanes)
    for xor, (gate, row) in circ.levels:
        active[base + xor] = active[circ.lhs[xor]] ^ active[circ.rhs[xor]]
        if not len(gate):
            continue
        la = active[circ.lhs[gate]]
        lb = active[circ.rhs[gate]]
        tweak = 2 * gate[:, None]
        ct = gt.tables[row[:, None], _perm_rows(la, lb), :, lane_idx]  # (gates, lanes, 2)
        bad = np.any(ct[:, :, 1] != _prf(lb, la, tweak + 1), axis=1)
        if bad.any():
            raise CorruptTable(f"check word mismatch at gate {gate[bad].min()}")
        active[base + gate] = ct[:, :, 0] ^ _prf(la, lb, tweak)
    return active[list(circ.outputs)]


def decode_outputs(gt: GarbledTables, active_outputs: np.ndarray) -> np.ndarray:
    return (active_outputs & _ONE).astype(np.uint8) ^ gt.decode
