"""Boolean circuits (AND/XOR only) with a width-aware builder.

Wires are numbered once (static single assignment): wire 0 is constant 0,
wire 1 constant 1, then the declared inputs, then one wire per gate. NOT
is XOR with wire 1, so garbling only ever needs AND tables.

`CircuitOps` implements the same ops interface as `fixedfn.SemanticOps`;
running an algorithm from that module under it emits the equivalent
circuit, which is what keeps the two backends bit-identical.

Ripple adders use the one-AND-per-bit full adder
    carry' = c ^ ((a ^ c) & (b ^ c))
and skip the final carry, so a w-bit add costs exactly w - 1 AND gates on
fresh inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO = 0
ONE = 1
AND = 0
XOR = 1


@dataclass(frozen=True)
class WireVec:
    """Little-endian bundle of wire ids; the circuit-side value type."""

    wires: tuple

    @property
    def width(self) -> int:
        return len(self.wires)


@dataclass
class BoolCircuit:
    n_inputs: int
    input_widths: tuple
    outputs: tuple
    op: np.ndarray  # uint8, AND or XOR
    lhs: np.ndarray  # int32 wire ids
    rhs: np.ndarray

    @property
    def n_gates(self) -> int:
        return len(self.op)

    @property
    def n_wires(self) -> int:
        return 2 + self.n_inputs + self.n_gates

    @property
    def and_count(self) -> int:
        return int(np.count_nonzero(self.op == AND))


class CircuitBuilder:
    def __init__(self):
        self.input_widths = []
        self._op = []
        self._lhs = []
        self._rhs = []
        self._outputs = []
        self._next = 2  # 0 and 1 are the constant wires

    def new_input(self, width: int) -> WireVec:
        if self._op:
            raise RuntimeError("declare all inputs before emitting gates")
        self.input_widths.append(width)
        wires = tuple(range(self._next, self._next + width))
        self._next += width
        return WireVec(wires)

    def gate(self, op: int, a: int, b: int) -> int:
        # local constant folding keeps adder/mux gate counts tight
        if op == XOR:
            if a == ZERO:
                return b
            if b == ZERO:
                return a
            if a == b:
                return ZERO
        else:
            if a == ZERO or b == ZERO:
                return ZERO
            if a == ONE:
                return b
            if b == ONE:
                return a
            if a == b:
                return a
        if a > b:
            a, b = b, a
        self._op.append(op)
        self._lhs.append(a)
        self._rhs.append(b)
        out = self._next
        self._next += 1
        return out

    def mark_output(self, v: WireVec) -> None:
        self._outputs.extend(v.wires)

    def build(self) -> BoolCircuit:
        return BoolCircuit(
            n_inputs=sum(self.input_widths),
            input_widths=tuple(self.input_widths),
            outputs=tuple(self._outputs),
            op=np.array(self._op, dtype=np.uint8),
            lhs=np.array(self._lhs, dtype=np.int32),
            rhs=np.array(self._rhs, dtype=np.int32),
        )


class CircuitOps:
    """Circuit emitter for the fixedfn ops interface."""

    def __init__(self, builder: CircuitBuilder):
        self.b = builder

    # value plumbing

    def input(self, width: int) -> WireVec:
        return self.b.new_input(width)

    def const(self, value: int, width: int, like=None) -> WireVec:
        return WireVec(tuple(ONE if (value >> i) & 1 else ZERO for i in range(width)))

    def resize(self, a: WireVec, w: int) -> WireVec:
        if w <= a.width:
            return WireVec(a.wires[:w])
        return WireVec(a.wires + (a.wires[-1],) * (w - a.width))

    def zext(self, a: WireVec, w: int) -> WireVec:
        assert w >= a.width
        return WireVec(a.wires + (ZERO,) * (w - a.width))

    def bit(self, a: WireVec, i: int) -> WireVec:
        return WireVec((a.wires[i],))

    def sign(self, a: WireVec) -> WireVec:
        return WireVec((a.wires[-1],))

    def sar(self, a: WireVec, k: int) -> WireVec:
        if k == 0:
            return a
        k = min(k, a.width - 1)
        return WireVec(a.wires[k:] + (a.wires[-1],) * k)

    def shl(self, a: WireVec, k: int) -> WireVec:
        if k == 0:
            return a
        k = min(k, a.width)
        return WireVec((ZERO,) * k + a.wires[: a.width - k])

    # arithmetic

    def _not(self, w: int) -> int:
        return self.b.gate(XOR, w, ONE)

    def _ripple(self, a: WireVec, b: WireVec, carry_in: int, invert_b: bool) -> WireVec:
        assert a.width == b.width
        g = self.b.gate
        c = carry_in
        out = []
        last = a.width - 1
        for i in range(a.width):
            bi = self._not(b.wires[i]) if invert_b else b.wires[i]
            ax = g(XOR, a.wires[i], c)
            out.append(g(XOR, ax, bi))
            if i != last:
                c = g(XOR, c, g(AND, ax, g(XOR, bi, c)))
        return WireVec(tuple(out))

    def add(self, a: WireVec, b: WireVec) -> WireVec:
        return self._ripple(a, b, ZERO, False)

    def sub(self, a: WireVec, b: WireVec) -> WireVec:
        return self._ripple(a, b, ONE, True)

    def neg(self, a: WireVec) -> WireVec:
        return self.sub(self.const(0, a.width), a)

    def mul(self, a: WireVec, b: WireVec) -> WireVec:
        w = a.width + b.width
        assert w <= 64
        ea = self.resize(a, w)
        acc = self.const(0, w)

        def row(i):
            bi = b.wires[i]
            return WireVec(
                (ZERO,) * i
                + tuple(self.b.gate(AND, bi, ea.wires[j]) for j in range(w - i))
            )

        for i in range(b.width - 1):
            acc = self.add(acc, row(i))
        # b's top bit weighs -2^(width-1) in two's complement
        return self.sub(acc, row(b.width - 1))

    # comparisons and selection

    def ge(self, a: WireVec, b: WireVec) -> WireVec:
        assert a.width == b.width
        d = self._ripple(self.resize(a, a.width + 1), self.resize(b, b.width + 1), ONE, True)
        return WireVec((self._not(d.wires[-1]),))

    def mux(self, c: WireVec, a: WireVec, b: WireVec) -> WireVec:
        assert c.width == 1 and a.width == b.width
        g = self.b.gate
        cw = c.wires[0]
        return WireVec(
            tuple(
                g(XOR, g(AND, cw, g(XOR, a.wires[i], b.wires[i])), b.wires[i])
                for i in range(a.width)
            )
        )

    def lookup(self, table: list, idx: WireVec, width: int) -> WireVec:
        size = 1 << idx.width
        assert len(table) <= size
        padded = list(table) + [0] * (size - len(table))
        level = [self.const(v, width) for v in padded]
        for i in range(idx.width):
            sel = self.bit(idx, i)
            level = [
                self.mux(sel, level[2 * j + 1], level[2 * j])
                for j in range(len(level) // 2)
            ]
        return level[0]


def eval_circuit(circ: BoolCircuit, inputs: np.ndarray) -> np.ndarray:
    """Plain evaluation; inputs and outputs are uint8 bit arrays of shape
    (n_bits, batch)."""
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
    return wires[list(circ.outputs)]


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """uint64 values (batch,) -> little-endian bits (width, batch)."""
    v = np.atleast_1d(np.asarray(values, dtype=np.uint64))
    return ((v[None, :] >> np.arange(width, dtype=np.uint64)[:, None]) & np.uint64(1)).astype(np.uint8)


def unpack_bits(bits: np.ndarray) -> np.ndarray:
    """(width, batch) bits -> uint64 values (batch,)."""
    bits = np.asarray(bits, dtype=np.uint64)
    return (bits << np.arange(bits.shape[0], dtype=np.uint64)[:, None]).sum(
        axis=0, dtype=np.uint64
    )
