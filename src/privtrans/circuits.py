"""Boolean circuits (AND/XOR only) with a width-aware builder.

Wires are numbered once (static single assignment): wire 0 is constant 0,
wire 1 constant 1, then the declared inputs, then one wire per gate. NOT
is XOR with wire 1, so garbling only ever needs AND tables.

`CircuitOps` implements the same ops interface as `fixedfn.SemanticOps`;
running an algorithm from that module under it emits the equivalent
circuit, which is what keeps the two backends bit-identical. A w-bit value
is w wires, least significant first, holding the two's-complement pattern
of the integer that the semantic side keeps sign-extended in int64. A row
is a list of values, where the semantic side holds one (count, lanes)
array; `sum` is an adder tree, `max` a mux chain. `each` runs its body
once per wire pattern of its arguments, on a builder of its own, and
pastes a renumbered copy of those gates for each element: the gates that
calling the body on each element in turn would emit, in the same order.

Ripple adders use the one-AND-per-bit full adder
    carry' = c ^ ((a ^ c) & (b ^ c))
and skip the final carry, so a w-bit add costs exactly w - 1 AND gates on
fresh inputs.

Every AND gate becomes a garbled table, so no AND is emitted twice where
an op can see the repeat, and none is kept that reaches no output:
- `mul` emits each partial product b_i & a_j once per unordered wire
  pair, and a square (a is b) folds a_i & a_i to a_i. A k-bit square
  thus has k(k - 1) / 2 partial products, an m x n product m n;
- `mux` selects each distinct (a_i, b_i) pair once, so sign extensions
  and constant halves cost one select, and (a_i, b_i) and (b_i, a_i)
  share their AND; the muxes of one `lookup` level, and the same level
  of every lookup at that index, share a select bit and their selects;
- `ge` reads the top bit of a full subtraction, and `build` drops the
  rest;
- `is_zero` ANDs the complements of its w wires pairwise, w - 1 ANDs at
  depth ceil(log2 w), where `ge` against 1 would be a w-AND carry chain;
- `build` drops the gates whose outputs no output depends on and
  renumbers the rest. This is local: there is no circuit-wide table of
  gates seen, which would cost a dict entry per gate at build time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class LevelSchedule:
    """The one plan that both garbling passes walk: a circuit's gates in
    blocks by AND depth, the most AND gates on any path from an input to
    the gate's output (inputs and constants are depth 0), so the AND gates
    of a block read only wires of earlier blocks.

    Both passes keep their labels in plan order: constants and inputs
    first, as numbered, then block by block that block's AND outputs and
    then its XOR outputs, each kind by gate id. A block thus writes two
    runs of that array: one pass over its AND gates, then one XOR
    reduction over the leaves of its XOR gates. An XOR's leaves are what
    it expands to inside its block: constants, inputs, AND outputs and
    XORs of earlier blocks, all set before the reduction runs (a leaf
    read twice cancels, as it should). Block k is columns
    and_bounds[k]:and_bounds[k + 1] of `and_`, entries
    xor_bounds[k]:xor_bounds[k + 1] of `starts` and
    leaf_bounds[k]:leaf_bounds[k + 1] of `leaves`, all flat int32:
    - and_: the hash tweaks 2g and 2g + 1 of gate g's lhs and rhs labels,
      its garbled-table row (its ordinal among the AND gates), and its lhs
      and rhs label positions;
    - leaves: label positions;
    - starts: each XOR's first leaf, counted from its block's first leaf,
      so a block's reduction is one `np.bitwise_xor.reduceat`.
    `outputs` holds the label positions of the circuit's output wires.
    """

    and_: np.ndarray  # int32 (5, n_and)
    leaves: np.ndarray  # int32 (n_leaves,)
    starts: np.ndarray  # int32 (n_xor,)
    outputs: np.ndarray  # int32 (n_out,)
    and_bounds: tuple
    xor_bounds: tuple
    leaf_bounds: tuple


@dataclass
class BoolCircuit:
    n_inputs: int
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

    @cached_property
    def levels(self) -> LevelSchedule:
        """Computed on first use and kept on the circuit."""
        base = 2 + self.n_inputs
        # gate by gate, the AND depth of every wire and the leaf count of
        # every XOR (each other wire is one leaf): compact int arrays and
        # memoryview walks keep this pass from materializing one Python int
        # per wire
        depth = array("i", bytes(4 * self.n_wires))
        count = array("i", [1]) * self.n_wires
        wires = zip(memoryview(self.lhs), memoryview(self.rhs), memoryview(self.op))
        for i, (a, b, op) in enumerate(wires, base):
            da, db = depth[a], depth[b]
            d = da if da > db else db
            if op == AND:
                depth[i] = d + 1
            else:
                depth[i] = d
                count[i] = (count[a] if da == d else 1) + (count[b] if db == d else 1)
        depth = np.frombuffer(depth, dtype=np.int32)
        count = np.frombuffer(count, dtype=np.int32)
        gate_depth = depth[base:]
        is_and = self.op == AND
        # block by block, its AND gates and then its XOR gates, by gate id
        order = np.lexsort((~is_and, gate_depth)).astype(np.int32)
        pos = np.arange(self.n_wires, dtype=np.int32)
        pos[base + order] = pos[base:].copy()
        ag = order[is_and[order]]
        xg = order[~is_and[order]]
        first = np.concatenate([[0], np.cumsum(count[base + xg])])
        leaves = np.empty(first[-1], dtype=np.int32)
        # expand every XOR into its leaves at once, round by round, starting
        # from the XOR itself: an XOR of the block being expanded gives way
        # to its two operands, the rhs's leaves placed after the lhs's; any
        # other wire is a leaf. `block` is an XOR's depth, -1 for a leaf.
        block = np.where(count > 1, depth, -1)
        wire, at, d = base + xg, first[:-1], gate_depth[xg]
        while wire.size:
            inner = block[wire] == d
            leaves[at[~inner]] = pos[wire[~inner]]
            g, at, d = wire[inner] - base, at[inner], d[inner]
            lhs = self.lhs[g]
            wire = np.concatenate([lhs, self.rhs[g]])
            at = np.concatenate([at, at + np.where(block[lhs] == d, count[lhs], 1)])
            d = np.concatenate([d, d])
        marks = np.arange(int(depth.max(initial=0)) + 2)
        xor_bounds = np.searchsorted(gate_depth[xg], marks)
        leaf_bounds = first[xor_bounds]
        and_row = np.cumsum(is_and, dtype=np.int32) - 1
        return LevelSchedule(
            np.stack([2 * ag, 2 * ag + 1, and_row[ag], pos[self.lhs[ag]], pos[self.rhs[ag]]]),
            leaves,
            (first[:-1] - leaf_bounds[gate_depth[xg]]).astype(np.int32),
            pos[list(self.outputs)],
            tuple(np.searchsorted(gate_depth[ag], marks).tolist()),
            tuple(xor_bounds.tolist()),
            tuple(leaf_bounds.tolist()),
        )


class CircuitBuilder:
    def __init__(self):
        self._n_inputs = 0
        # `gate` appends to the lists; they move into an (op, lhs, rhs)
        # chunk of uint8/int32 arrays before each `paste` adds its own
        self._op = []
        self._lhs = []
        self._rhs = []
        self._chunks = [(np.empty(0, np.uint8), np.empty(0, np.int32), np.empty(0, np.int32))]
        self._outputs = []
        self._next = 2  # 0 and 1 are the constant wires

    def new_input(self, width: int) -> WireVec:
        if self._next != 2 + self._n_inputs:
            raise RuntimeError("declare all inputs before emitting gates")
        self._n_inputs += width
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

    def paste(self, gates: tuple, out: WireVec, inputs: tuple) -> WireVec:
        """Emit a copy of another builder's gates, given as its (op, lhs,
        rhs) arrays, with its inputs wired to `inputs` and its gates to the
        next free wires; returns the copy's wires of that builder's `out`.
        Renumbered gates are put back in lhs <= rhs order, as `gate` emits
        them."""
        self._flush()
        op, lhs, rhs = gates
        base = 2 + len(inputs)
        wire = np.arange(self._next - base, self._next + len(op), dtype=np.int32)
        wire[:base] = (ZERO, ONE, *inputs)
        a, b = wire[lhs], wire[rhs]
        self._chunks.append((op, np.minimum(a, b), np.maximum(a, b)))
        self._next += len(op)
        return WireVec(tuple(wire[list(out.wires)].tolist()))

    def _flush(self) -> None:
        if self._op:
            self._chunks.append((
                np.array(self._op, dtype=np.uint8),
                np.array(self._lhs, dtype=np.int32),
                np.array(self._rhs, dtype=np.int32),
            ))
            self._op, self._lhs, self._rhs = [], [], []

    def gates(self) -> tuple:
        """op, lhs and rhs of every gate so far, in emission order, as
        arrays."""
        self._flush()
        if len(self._chunks) > 1:
            self._chunks = [tuple(map(np.concatenate, zip(*self._chunks)))]
        return self._chunks[0]

    def mark_output(self, v: WireVec) -> None:
        self._outputs.extend(v.wires)

    def build(self) -> BoolCircuit:
        """The circuit of the gates that reach an output, in emission order.

        Gates that no gate and no output reads are peeled off, round by
        round, until none is left; the kept gates are then renumbered,
        while constants, inputs and the outputs' order stay as they are."""
        base = 2 + self._n_inputs
        op, lhs, rhs = self.gates()
        outputs = np.array(self._outputs, dtype=np.int32)
        # per wire, the gate inputs and outputs that read it
        reads = np.bincount(np.concatenate([lhs, rhs, outputs]), minlength=self._next)
        live = np.ones(len(op), dtype=bool)
        dead = np.flatnonzero(reads[base:] == 0)
        while dead.size:
            live[dead] = False
            ins = np.concatenate([lhs[dead], rhs[dead]])
            np.subtract.at(reads, ins, 1)
            ins = ins[ins >= base]
            # once each, though two dead gates may have read it
            dead = np.unique(ins[reads[ins] == 0]) - base
        new_id = np.cumsum(np.concatenate([np.ones(base, dtype=bool), live]), dtype=np.int32) - 1
        return BoolCircuit(
            n_inputs=base - 2,
            outputs=tuple(new_id[outputs].tolist()),
            op=op[live],
            lhs=new_id[lhs[live]],
            rhs=new_id[rhs[live]],
        )


class CircuitOps:
    """Circuit emitter for the fixedfn ops interface."""

    def __init__(self, builder: CircuitBuilder):
        self.b = builder
        # per lookup select bit, the picks made on it (see `_select`), so
        # lookups of two tables at one index, as exp's and gelu's base and
        # slope, share them; wires are never reused, so a pick stays valid.
        # While `each` builds a body, a fresh dict stands in for this one
        self._picked = {}

    def each(self, body, row: list, *shared) -> list:
        """body on each element of a row, with the row-wide shared values.

        body runs once per wire pattern of its arguments on a fresh builder,
        and each element gets a pasted copy of its gates. `gate` decides by
        which wires are constant or equal, and the pattern keeps both, so a
        copy is the gates that body would emit on the element. A copy's
        lookups share picks with that copy only, so a select bit that two
        copies read (a shared value's, or an element's given twice) would
        cost its picks in each; no stage's body reads one."""
        templates = {}
        out = []
        for x in row:
            key, inputs = _pattern((x, *shared))
            if key not in templates:
                outer = self.b, self._picked
                self.b, self._picked = CircuitBuilder(), {}
                try:
                    self.b.new_input(len(inputs))
                    y = body(*map(WireVec, key))
                    templates[key] = self.b.gates(), y
                finally:
                    self.b, self._picked = outer
            out.append(self.b.paste(*templates[key], inputs))
        return out

    def count(self, row: list) -> int:
        return len(row)

    def sum(self, row: list, width: int) -> WireVec:
        """The row's elements, each resized to width, summed pairwise."""
        return _tree(self.add, [self.resize(v, width) for v in row])

    def max(self, row: list) -> WireVec:
        m = row[0]
        for v in row[1:]:
            m = self.mux(self.ge(v, m), v, m)
        return m

    # value plumbing

    def const(self, value: int, width: int) -> WireVec:
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
        """a + b + carry_in (b inverted if invert_b)."""
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

    def mul(self, a: WireVec, b: WireVec) -> WireVec:
        """The signed product, a.width + b.width bits wide: a square as a
        triangle, any other product as Baugh-Wooley rows (Baugh and Wooley,
        IEEE Trans. Computers, 1973), both non-negative rows that
        `_sum_rows` adds over a window about a row wide, except by a
        non-negative constant with one or two one bits, which is a shifted
        copy of a per one bit: no AND at all for a power of two, where
        Baugh-Wooley's complemented sign terms would cost a few."""
        w = a.width + b.width
        assert w <= 64
        m, n = a.width, b.width
        memo = {}

        def term(x: int, y: int) -> int:
            # one AND per unordered wire pair, however often it recurs
            key = (x, y) if x < y else (y, x)
            if key not in memo:
                memo[key] = self.b.gate(AND, x, y)
            return memo[key]

        if a.wires == b.wires:
            # triangle squarer: a_i & a_j (j < i) once at 2^(i+j+1), a_i at
            # 2^(2i); the sign bit's cross terms weigh -2^(i+j+1), so they
            # are complemented, and 2^m - 2^(2m-1) makes up for that
            rows = [
                (2 * j, [aj, ZERO] + [
                    self._not(term(ai, aj)) if i == m - 1 else term(ai, aj)
                    for i, ai in enumerate(a.wires[j + 1 :], j + 1)
                ])
                for j, aj in enumerate(a.wires)
            ]
            return self._sum_rows(rows, (1 << m) + (1 << (w - 1)), w)
        if {*a.wires} <= {ZERO, ONE}:
            a, b = b, a  # a constant's zero bits then add no row
            m, n = n, m
        if {*b.wires} <= {ZERO, ONE} and b.wires[-1] == ZERO and 0 < b.wires.count(ONE) <= 2:
            copies = [self.shl(self.resize(a, w), k) for k, x in enumerate(b.wires) if x == ONE]
            return copies[0] if len(copies) == 1 else self.add(*copies)
        # Baugh-Wooley rows: a term that carries exactly one sign bit weighs
        # -2^k, so it is complemented, which leaves every row non-negative,
        # and 2^(m-1) + 2^(n-1) - 2^(m+n-1) makes up for that. Unless it is
        # the sign row, row 0 takes the 2^(m-1) at once, as
        # ~p 2^(m-1) + 2^(m-1) = p 2^(m-1) + ~p 2^m
        const = (1 << (n - 1)) + (1 << (w - 1)) + (1 << (m - 1) if n == 1 else 0)
        rows = []
        for i, bi in enumerate(b.wires):
            row = [term(bi, aj) for aj in a.wires]
            if i == n - 1:
                row[:-1] = [self._not(t) for t in row[:-1]]
            elif i:
                row[-1] = self._not(row[-1])
            else:
                row.append(self._not(row[-1]))
            rows.append((i, row))
        return self._sum_rows(rows, const, w)

    def _sum_rows(self, rows: list, const: int, w: int) -> WireVec:
        """const plus the sum of non-negative rows, mod 2^w; row (lo, wires)
        holds wires[k] at column lo + k.

        A ONE term folds into const, and a row of ZEROs is skipped. const's
        bits then go where they cost no AND: into a vacant column inside a
        row, or as the carry into a later row's lowest column; only the rest
        is added as a constant, where a top bit costs the add's last column
        one XOR and no AND. Each add spans the columns a running upper bound
        on the sum allows, so no carry leaves them."""
        packed = []
        for lo, wires in rows:
            const += sum(1 << (lo + k) for k, x in enumerate(wires) if x == ONE)
            live = [k for k, x in enumerate(wires) if x not in (ZERO, ONE)]
            if live:
                row = [x if x != ONE else ZERO for x in wires[live[0] : live[-1] + 1]]
                packed.append([lo + live[0], row, ZERO])
        const %= 1 << w
        for r, (lo, row, _) in enumerate(packed):
            for k, x in enumerate(row):
                if x == ZERO and (const >> (lo + k)) & 1:
                    row[k] = ONE
                    const ^= 1 << (lo + k)
            if r and (const >> lo) & 1:
                packed[r][2] = ONE  # in the empty accumulator it would cost a carry chain
                const ^= 1 << lo
        acc = [ZERO] * w
        bound = 0
        for lo, row, carry in packed:
            bound += (carry == ONE) << lo
            bound += sum(1 << (lo + k) for k, x in enumerate(row) if x != ZERO)
            hi = min(w, bound.bit_length())
            addend = WireVec(tuple(row) + (ZERO,) * (hi - lo - len(row)))
            acc[lo:hi] = self._ripple(WireVec(tuple(acc[lo:hi])), addend, carry, False).wires
        if const:
            lo = (const & -const).bit_length() - 1
            hi = min(w, (bound + const).bit_length())
            acc[lo:hi] = self.add(WireVec(tuple(acc[lo:hi])), self.const(const >> lo, hi - lo)).wires
        return WireVec(tuple(acc))

    # comparisons and selection

    def ge(self, a: WireVec, b: WireVec) -> WireVec:
        assert a.width == b.width
        # a >= b iff a - b, one bit wider so it cannot overflow, is not
        # negative; build() drops the sum bits below the top one
        d = self.sub(self.resize(a, a.width + 1), self.resize(b, b.width + 1))
        return WireVec((self._not(d.wires[-1]),))

    def is_zero(self, a: WireVec) -> WireVec:
        """1 iff every bit of a is 0: the complements ANDed pairwise, a
        tree of a.width - 1 ANDs at depth ceil(log2 a.width)."""
        nots = [self._not(x) for x in a.wires]
        return WireVec((_tree(lambda x, y: self.b.gate(AND, x, y), nots),))

    def mux(self, c: WireVec, a: WireVec, b: WireVec) -> WireVec:
        assert c.width == 1 and a.width == b.width
        return self._select(c.wires[0], a, b, {})

    def _select(self, c: int, a: WireVec, b: WireVec, picked: dict) -> WireVec:
        """c ? a : b, bit by bit, as b_i ^ (c & (a_i ^ b_i)); picked maps
        each (a_i, b_i) pair already selected on c to its output, so alike
        pairs, such as sign extensions, select alike, and each unordered
        pair to its AND, which the mirrored pair (b_i, a_i) shares."""
        g = self.b.gate
        pairs = list(zip(a.wires, b.wires))
        for p in pairs:
            if p not in picked:
                key = frozenset(p)
                if key not in picked:
                    picked[key] = g(AND, c, g(XOR, *p))
                picked[p] = g(XOR, picked[key], p[1])
        return WireVec(tuple(picked[p] for p in pairs))

    def lookup(self, table: list, idx: WireVec, width: int) -> WireVec:
        size = 1 << idx.width
        assert len(table) <= size
        padded = list(table) + [0] * (size - len(table))
        level = [self.const(v, width) for v in padded]
        for c in idx.wires:
            # the muxes of one level share their select bit and their picks
            picked = self._picked.setdefault(c, {})
            level = [
                self._select(c, level[2 * j + 1], level[2 * j], picked)
                for j in range(len(level) // 2)
            ]
        return level[0]


def _tree(combine, items: list):
    """items combined pairwise, level by level, an odd last item passed up
    to the next level: a tree ceil(log2 len(items)) combines deep."""
    while len(items) > 1:
        nxt = [combine(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _pattern(values: tuple) -> tuple:
    """(key, inputs): key holds the values' wires with the constants kept
    and every other wire numbered 2, 3, ... by first occurrence, as a
    builder numbers its inputs; inputs lists the wires so numbered."""
    ids = {ZERO: ZERO, ONE: ONE}
    key = tuple(tuple(ids.setdefault(w, len(ids)) for w in v.wires) for v in values)
    return key, tuple(ids)[2:]


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
