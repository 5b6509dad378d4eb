"""Two-party secure evaluation of non-polynomial stages on additive shares.

Both parties hold shares in the ring Z_2^64. One circuit per call does
reconstruct -> (optional truncate) -> stage function -> subtract the
client's fresh mask, so truncation never happens share-locally. The
client garbles, the server evaluates with its input labels fetched via
OT and keeps the masked result as its new share; the client's new share
is the mask it chose. The semantic backend is the plaintext reference
remasked: it runs the identical stage code on the reconstructed words and
subtracts the same mask, so both backends agree bit for bit.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from functools import lru_cache

import numpy as np

from . import fixedfn
from .circuits import CircuitBuilder, CircuitOps, pack_bits, unpack_bits
from .costs import CostReport
from .fixedfn import SemanticOps, SemVal
from .garble import evaluate, garble
from .ot import KAPPA, SEED_BYTES, TOY_256, ExtReceiver, ExtSender, run_ot
from .ring import DEFAULT_RING, RingParams
from .transcript import Transcript

_SEM = SemanticOps()

# elementwise stages take one word per lane, row stages a whole row
_ONE_IN = ("trunc", "relu", "gelu")
_ROW_FNS = ("softmax_row", "layernorm_row")

FN_NAMES = _ONE_IN + _ROW_FNS
BACKENDS = ("semantic", "gc")


class RangeViolation(ValueError):
    """Reconstructed input falls outside the stage approximation domain."""


@dataclass(frozen=True)
class SecureFnSpec:
    """One secure stage on 64-bit ring shares: which function and scaling.

    shift > 0 inserts the truncate-and-saturate stage right after
    reconstruction (input fraction = ring fraction + shift). count is the
    row length for row functions and 1 for elementwise ones; a lane has
    count inputs and count outputs.
    """

    fn: str
    _: KW_ONLY
    count: int = 1
    shift: int = 0
    ring: RingParams = field(default=DEFAULT_RING)

    def __post_init__(self):
        if self.fn not in FN_NAMES:
            raise ValueError(f"unknown secure fn {self.fn!r}")
        for name, low in (("count", 1), ("shift", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.fn in _ONE_IN and self.count != 1:
            raise ValueError(f"{self.fn} is elementwise; use lanes, not count")
        check_frac_bits(self.fn, self.ring)


def check_frac_bits(fn: str, ring: RingParams) -> None:
    """Refuse a ring fraction the stage fn cannot carry, naming frac_bits."""
    f = ring.frac_bits
    if f > fixedfn.F2:
        raise ValueError(
            f"frac_bits={f} exceeds {fixedfn.F2}, the nonpoly stages' internal fraction"
        )
    if fn == "gelu" and f < 2:
        raise ValueError(f"frac_bits={f} is below 2, the least the gelu segments can index")


def _stage(ops, spec: SecureFnSpec, row):
    if spec.fn == "trunc":
        return row
    if spec.fn == "relu":
        return ops.each(lambda v: fixedfn.relu(ops, v), row)
    if spec.fn == "gelu":
        return ops.each(lambda v: fixedfn.gelu_approx(ops, v, spec.ring), row)
    if spec.fn == "softmax_row":
        return fixedfn.softmax_row(ops, row, spec.ring)
    return fixedfn.layernorm_row(ops, row, spec.ring)


def _apply(ops, spec: SecureFnSpec, row):
    """The stage on a row of reconstructed words, then resized to the ring
    width; shared verbatim by both backends."""
    if spec.shift:
        row = ops.each(
            lambda v: ops.resize(fixedfn.trunc_sat(ops, v, spec.shift, spec.ring), 16), row
        )
    return ops.each(lambda y: ops.resize(y, 64), _stage(ops, spec, row))


def plain_apply(spec: SecureFnSpec, values: np.ndarray) -> np.ndarray:
    """Run the stage on plain ring words (lanes, count) -> (lanes, count).

    This is the reference path: the circuit's code, without the shares.
    The words become one semantic row laid out (count, lanes), values.T,
    so each op of the stage acts on every element and lane at once; the
    result is read back transposed.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.uint64)).view(np.int64)
    return _apply(_SEM, spec, SemVal(values.T, 64)).bits.T.view(np.uint64)


# -- circuits -----------------------------------------------------------------


@lru_cache(maxsize=64)
def build_secure_circuit(spec: SecureFnSpec):
    """Inputs: client shares, client fresh masks, then server shares."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    xc = [b.new_input(64) for _ in range(spec.count)]
    masks = [b.new_input(64) for _ in range(spec.count)]
    xs = [b.new_input(64) for _ in range(spec.count)]
    ys = _apply(ops, spec, [ops.add(a, c) for a, c in zip(xc, xs)])
    for y, r in zip(ys, masks):
        b.mark_output(ops.sub(y, r))
    return b.build()


# -- domain checks of the plaintext reference ---------------------------------


def check_domain(spec: SecureFnSpec, reconstructed: np.ndarray) -> None:
    """Raise RangeViolation when a lane leaves the approximation domain:
    |v >> shift| <= value_limit, the bound the stage's narrow arithmetic
    assumes (at shift 0 the unshifted value)."""
    v = np.asarray(reconstructed, dtype=np.uint64).view(np.int64)
    lim = spec.ring.value_limit()
    t = v >> spec.shift
    if np.any(t > lim) or np.any(t < -lim):
        raise RangeViolation(
            f"{spec.fn}: value exceeds +-{lim} after the {spec.shift}-bit shift"
        )


# -- the two backends ---------------------------------------------------------


def _gc_message_bytes(spec: SecureFnSpec, lanes: int, and_count: int,
                      base_ots: bool) -> tuple[int, int, int]:
    """(garbled material, client OT, server OT) bytes for the cost model.

    Material = the half-gates tables (T_G and T_E, 2 x 8 B per AND gate and
    lane), the active labels of the two constant wires and of the client's
    inputs (8 B a label), and the output hashes (2 x 8 B per output bit and
    lane) from which the server reads its output bits. The server's m input
    bits arrive by IKNP OT extension (ot.py): the client sends a masked
    label pair per transfer, the server the KAPPA columns u of m/8 bytes.
    With base_ots, the stage also carries the session's KAPPA base OTs,
    roles reversed: the client sends KAPPA group elements, the server one
    group element and KAPPA sealed seed pairs.
    """
    m = spec.count * 64 * lanes
    tables = and_count * 2 * 8 * lanes
    const = 2 * 8 * lanes
    active = 2 * m * 8
    out_hash = 2 * 8 * m
    element = TOY_256.element_bytes
    client_ot = base_ots * KAPPA * element + 16 * m
    server_ot = base_ots * (element + KAPPA * 2 * SEED_BYTES) + KAPPA * (m // 8)
    return tables + const + active + out_hash, client_ot, server_ot


def eval_secure(
    spec: SecureFnSpec,
    client_vals: np.ndarray,
    server_vals: np.ndarray,
    rng: np.random.Generator,
    *,
    backend: str = "semantic",
    report: CostReport,
    transcript: Transcript,
    step: str,
    ot_sender: ExtSender,
    ot_receiver: ExtReceiver,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one secure stage over a batch of lanes.

    client_vals, server_vals: (lanes, count) raw shares mod 2^64.
    Returns (client_new, server_new), both (lanes, count): the client keeps
    its fresh masks, the server keeps F(x) - mask. The masks are the first
    draw from rng, before the backends branch, so equally seeded rngs give
    both backends the same masks; the semantic backend computes F(x) with
    plain_apply on the reconstructed words. ot_sender and ot_receiver are
    the client's and the server's sides of the session's OT; each draws
    from its own party's generator. Every stage is billed to report and
    logged to transcript under step.

    Phase split: the AND gates are billed offline, because garbling does not
    depend on the inputs and can run before they arrive; the garbled
    material (half-gates tables, the constant-wire and client input
    labels, output hashes) and the OT traffic are billed online, when the
    stage runs. The server reads its output bits off the output hashes,
    and `garble.CorruptTable` is raised if a label matches neither. The
    server's input labels come by IKNP OT extension. Its KAPPA base OTs
    run once per session, in the TOY_256 group, inside the session's
    first stage: that stage alone bills their bytes and bumps
    `base_ot_count` by KAPPA, in its own scope and interaction. Both
    backends count each stage as one OT call on both sides, so they bill
    alike. `ot_count` counts the m = lanes * count * 64 extension
    transfers of every stage.
    """
    client_vals = np.atleast_2d(np.asarray(client_vals, dtype=np.uint64))
    server_vals = np.atleast_2d(np.asarray(server_vals, dtype=np.uint64))
    if client_vals.shape != server_vals.shape or client_vals.shape[1] != spec.count:
        raise ValueError("share matrices must both be (lanes, count)")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    lanes = client_vals.shape[0]
    masks = rng.integers(0, 1 << 64, (lanes, spec.count), dtype=np.uint64)

    circ = build_secure_circuit(spec)
    m = spec.count * 64 * lanes
    base_ots = ot_receiver.calls == 0
    material_bytes, client_ot, server_ot = _gc_message_bytes(spec, lanes, circ.and_count,
                                                              base_ots)
    with report.at(step, "offline"):
        report.bump("gc_and_gates", circ.and_count)
    with report.at(step, "online"):
        report.bump("gc_table_bytes", material_bytes)
        report.bump("ot_count", m)
        if base_ots:
            report.bump("base_ot_count", KAPPA)
    transcript.send("client", step, "gc_material", material_bytes)
    transcript.send("client", step, "ot", client_ot)
    transcript.send("server", step, "ot", server_ot)
    transcript.interaction(step)

    if backend == "semantic":
        for side in (ot_sender, ot_receiver):
            side.next_call(m)
        return masks, plain_apply(spec, client_vals + server_vals) - masks

    gt, state = garble(circ, lanes, rng)
    client_bits = np.concatenate(
        [pack_bits(client_vals[:, i], 64) for i in range(spec.count)]
        + [pack_bits(masks[:, j], 64) for j in range(spec.count)]
    )
    n_client_rows = 2 * spec.count * 64
    active = np.empty((circ.n_inputs, lanes), dtype=np.uint64)
    active[:n_client_rows] = state.encode(client_bits, rows=slice(0, n_client_rows))
    m0, m1 = state.pairs(slice(n_client_rows, circ.n_inputs))
    server_bits = np.concatenate([pack_bits(server_vals[:, i], 64) for i in range(spec.count)])
    labels, _ = run_ot(m0.ravel(), m1.ravel(), server_bits.ravel(), ot_sender, ot_receiver)
    active[n_client_rows:] = labels.reshape(circ.n_inputs - n_client_rows, lanes)
    out_bits = evaluate(circ, gt, active)
    server_new = np.stack(
        [unpack_bits(out_bits[j * 64 : (j + 1) * 64]) for j in range(spec.count)], axis=1
    )
    return masks, server_new
