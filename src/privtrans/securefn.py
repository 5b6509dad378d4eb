"""Two-party secure evaluation of non-polynomial stages on additive shares.

Both parties hold shares mod 2^bitwidth. One circuit per call does
reconstruct -> (optional truncate) -> stage function -> subtract the
client's fresh mask, so truncation never happens share-locally. The
client garbles, the server evaluates with its input labels fetched via
OT and keeps the masked result as its new share; the client's new share
is the mask it chose. The semantic backend runs the identical stage code
on plain reconstructed words, so both backends agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fixedfn
from .circuits import CircuitBuilder, CircuitOps, pack_bits, unpack_bits
from .costs import CostReport
from .fixedfn import SemanticOps, SemVal, width_mask
from .garble import decode_outputs, evaluate, garble
from .ot import KAPPA, SEED_BYTES, TOY_256, run_ot
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
    """One secure stage: which function, share width, and scaling.

    shift > 0 inserts the truncate-and-saturate stage right after
    reconstruction (input fraction = ring fraction + shift). count is the
    row length for row functions and 1 for elementwise ones; a lane has
    count inputs and count outputs.
    """

    fn: str
    bitwidth: int = 64
    count: int = 1
    shift: int = 0
    ring: RingParams = field(default=DEFAULT_RING)

    def __post_init__(self):
        if self.fn not in FN_NAMES:
            raise ValueError(f"unknown secure fn {self.fn!r}")
        if not 2 <= self.bitwidth <= 64:
            raise ValueError("bitwidth must be in [2, 64]")
        if self.fn in _ONE_IN and self.count != 1:
            raise ValueError(f"{self.fn} is elementwise; use lanes, not count")


def _stage(ops, spec: SecureFnSpec, vs: list):
    if spec.fn == "trunc":
        return vs
    if spec.fn == "relu":
        return [fixedfn.relu(ops, vs[0])]
    if spec.fn == "gelu":
        return [fixedfn.gelu_approx(ops, vs[0], spec.ring)]
    if spec.fn == "softmax_row":
        return fixedfn.softmax_row(ops, vs, spec.ring)
    return fixedfn.layernorm_row(ops, vs, spec.ring)


def _apply(ops, spec: SecureFnSpec, xc: list, masks: list, xs: list) -> list:
    """The whole per-lane pipeline; shared verbatim by both backends."""
    vs = [fixedfn.reconstruct_add(ops, a, b) for a, b in zip(xc, xs)]
    if spec.shift:
        vs = [
            ops.resize(fixedfn.trunc_sat(ops, v, spec.shift, spec.ring), 16) for v in vs
        ]
    ys = _stage(ops, spec, vs)
    w = spec.bitwidth
    return [fixedfn.remask_sub(ops, ops.resize(y, w), r) for y, r in zip(ys, masks)]


def plain_apply(spec: SecureFnSpec, values: np.ndarray) -> np.ndarray:
    """Run the stage on plain ring words (lanes, count) -> (lanes, count).

    This is the reference path: identical code, zero co-share, zero mask.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.uint64))
    zero = [SemVal(np.zeros(values.shape[0], np.uint64), spec.bitwidth)] * spec.count
    xc = [SemVal(values[:, i].copy(), spec.bitwidth) for i in range(spec.count)]
    outs = _apply(_SEM, spec, xc, zero, zero)
    return np.stack([o.bits for o in outs], axis=1)


# -- circuits -----------------------------------------------------------------


@lru_cache(maxsize=64)
def build_secure_circuit(spec: SecureFnSpec):
    """Inputs: client shares, client fresh masks, then server shares."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    xc = [ops.input(spec.bitwidth) for _ in range(spec.count)]
    masks = [ops.input(spec.bitwidth) for _ in range(spec.count)]
    xs = [ops.input(spec.bitwidth) for _ in range(spec.count)]
    for out in _apply(ops, spec, xc, masks, xs):
        b.mark_output(out)
    return b.build()


# -- strict-mode domain checks ------------------------------------------------


def check_domain(spec: SecureFnSpec, reconstructed: np.ndarray) -> None:
    """Raise RangeViolation when a lane leaves the approximation domain:
    |v >> shift| <= value_limit, the bound the stage's narrow arithmetic
    assumes (at shift 0 the unshifted value)."""
    w = spec.bitwidth
    v = SemVal(np.asarray(reconstructed, dtype=np.uint64) & width_mask(w), w).signed()
    lim = spec.ring.value_limit()
    t = v >> spec.shift
    if np.any(t > lim) or np.any(t < -lim):
        raise RangeViolation(
            f"{spec.fn}: value exceeds +-{lim} after the {spec.shift}-bit shift"
        )


# -- the two backends ---------------------------------------------------------


def _columns(mat: np.ndarray, width: int) -> list[SemVal]:
    return [SemVal(mat[:, i].copy(), width) for i in range(mat.shape[1])]


def _gc_message_bytes(spec: SecureFnSpec, lanes: int, and_count: int) -> tuple[int, int, int]:
    """(garbled material, client OT, server OT) bytes for the cost model.

    Material = AND tables (4 rows x label+check word), the active labels of
    the two constant wires and of the client's inputs (8 B a label), and
    one decode byte per output wire. The server's m input bits arrive by
    IKNP OT extension over KAPPA base OTs with roles reversed (ot.py): the
    client sends KAPPA group elements and a masked label pair per transfer;
    the server sends one group element, KAPPA encrypted seed pairs and the
    KAPPA columns u of ceil(m/8) bytes.
    """
    m = spec.count * spec.bitwidth * lanes
    tables = and_count * 4 * 2 * 8 * lanes
    const = 2 * 8 * lanes
    active = 2 * m * 8
    decode = m
    element = TOY_256.element_bytes
    client_ot = KAPPA * element + 16 * m
    server_ot = element + KAPPA * 2 * SEED_BYTES + KAPPA * -(-m // 8)
    return tables + const + active + decode, client_ot, server_ot


def eval_secure(
    spec: SecureFnSpec,
    client_vals: np.ndarray,
    server_vals: np.ndarray,
    rng: np.random.Generator,
    *,
    backend: str = "semantic",
    strict: bool = False,
    report: CostReport | None = None,
    transcript: Transcript | None = None,
    step: str = "Others",
    rng_server: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one secure stage over a batch of lanes.

    client_vals, server_vals: (lanes, count) raw shares mod 2^bitwidth.
    Returns (client_new, server_new), both (lanes, count): the client keeps
    its fresh masks, the server keeps F(x) - mask. The masks are the first
    draw from rng, before the backends branch, so equally seeded rngs give
    both backends the same masks. The gc backend also needs rng_server, the
    server's own generator for its side of the OT.

    Phase split: the AND gates are billed offline, because garbling does not
    depend on the inputs and can run before they arrive; the garbled
    material (tables, the constant-wire and client input labels, decode
    bits) and the OT traffic are billed online, when the stage runs. The
    server's input labels come by IKNP OT extension, whose 128 base OTs
    run in the TOY_256 group on every call. The `ot_count` counter counts
    the m = lanes * count * bitwidth extension transfers only, not those
    128 base OTs.
    """
    client_vals = np.atleast_2d(np.asarray(client_vals, dtype=np.uint64))
    server_vals = np.atleast_2d(np.asarray(server_vals, dtype=np.uint64))
    if client_vals.shape != server_vals.shape or client_vals.shape[1] != spec.count:
        raise ValueError("share matrices must both be (lanes, count)")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "gc" and rng_server is None:
        raise ValueError("backend 'gc' needs rng_server, the evaluator's own generator")
    lanes = client_vals.shape[0]
    masks = rng.integers(0, 1 << 64, (lanes, spec.count), dtype=np.uint64)
    masks &= width_mask(spec.bitwidth)

    if strict:
        check_domain(spec, client_vals + server_vals)

    circ = build_secure_circuit(spec)
    material_bytes, client_ot, server_ot = _gc_message_bytes(spec, lanes, circ.and_count)
    if report is not None:
        with report.at(step, "offline"):
            report.bump("gc_and_gates", circ.and_count)
        with report.at(step, "online"):
            report.bump("gc_table_bytes", material_bytes)
            report.bump("ot_count", spec.count * spec.bitwidth * lanes)
    if transcript is not None:
        transcript.send("client", step, "gc_material", material_bytes)
        transcript.send("client", step, "ot", client_ot)
        transcript.send("server", step, "ot", server_ot)
        transcript.interaction(step)

    if backend == "semantic":
        outs = _apply(
            _SEM,
            spec,
            _columns(client_vals, spec.bitwidth),
            _columns(masks, spec.bitwidth),
            _columns(server_vals, spec.bitwidth),
        )
        server_new = np.stack([o.bits for o in outs], axis=1)
        return masks, server_new

    gt, state = garble(circ, lanes, rng)
    w = spec.bitwidth
    client_bits = np.concatenate(
        [pack_bits(client_vals[:, i], w) for i in range(spec.count)]
        + [pack_bits(masks[:, j], w) for j in range(spec.count)]
    )
    n_client_rows = 2 * spec.count * w
    active = np.empty((circ.n_inputs, lanes), dtype=np.uint64)
    active[:n_client_rows] = state.encode(client_bits, rows=slice(0, n_client_rows))
    m0, m1 = state.pairs(slice(n_client_rows, circ.n_inputs))
    server_bits = np.concatenate([pack_bits(server_vals[:, i], w) for i in range(spec.count)])
    labels, _ = run_ot(m0.ravel(), m1.ravel(), server_bits.ravel(), TOY_256, rng, rng_server)
    active[n_client_rows:] = labels.reshape(circ.n_inputs - n_client_rows, lanes)
    out_bits = decode_outputs(gt, evaluate(circ, gt, active))
    server_new = np.stack(
        [unpack_bits(out_bits[j * w : (j + 1) * w]) for j in range(spec.count)], axis=1
    )
    return masks, server_new
