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
from .fixedfn import F2, SemanticOps, SemVal
from .garble import decode_outputs, evaluate, garble
from .ot import TOY_256, ModpGroup, run_ot
from .ring import DEFAULT_RING, RingParams
from .transcript import Transcript

_SEM = SemanticOps()

# fn name -> (input count is spec.count, output count)
_ONE_IN = ("reconstruct_add", "remask_sub", "trunc", "relu", "gelu", "exp_approx", "reciprocal")
_ROW_FNS = ("softmax_row", "layernorm_row")

FN_NAMES = _ONE_IN + _ROW_FNS + ("max_reduce",)


class RangeViolation(ValueError):
    """Reconstructed input falls outside the stage approximation domain."""


@dataclass(frozen=True)
class SecureFnSpec:
    """One secure stage: which function, share width, and scaling.

    shift > 0 inserts the truncate-and-saturate stage right after
    reconstruction (input fraction = ring fraction + shift). count is the
    row length for row functions and the fan-in for max_reduce.
    """

    fn: str
    bitwidth: int = 64
    count: int = 1
    shift: int = 0
    ring: RingParams = field(default=DEFAULT_RING)
    in_frac: int = F2  # exp_approx input fraction
    out_width: int = 16  # reciprocal result width

    def __post_init__(self):
        if self.fn not in FN_NAMES:
            raise ValueError(f"unknown secure fn {self.fn!r}")
        if not 2 <= self.bitwidth <= 64:
            raise ValueError("bitwidth must be in [2, 64]")
        if self.fn in _ONE_IN and self.count != 1:
            raise ValueError(f"{self.fn} is elementwise; use lanes, not count")

    @property
    def n_in(self) -> int:
        return self.count

    @property
    def n_out(self) -> int:
        return 1 if self.fn == "max_reduce" else self.count


def _stage(ops, spec: SecureFnSpec, vs: list):
    if spec.fn in ("reconstruct_add", "remask_sub", "trunc"):
        return vs
    if spec.fn == "relu":
        return [fixedfn.relu(ops, vs[0])]
    if spec.fn == "gelu":
        return [fixedfn.gelu_approx(ops, vs[0], spec.ring)]
    if spec.fn == "exp_approx":
        return [fixedfn.exp_approx(ops, vs[0], spec.in_frac)]
    if spec.fn == "reciprocal":
        return [fixedfn.reciprocal(ops, vs[0], out_width=spec.out_width)]
    if spec.fn == "max_reduce":
        return [fixedfn.max_reduce(ops, vs)]
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
    """Run the stage on plain ring words (lanes, n_in) -> (lanes, n_out).

    This is the reference path: identical code, zero co-share, zero mask.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.uint64))
    zero = [SemVal(np.zeros(values.shape[0], np.uint64), spec.bitwidth)] * spec.n_out
    xc = [SemVal(values[:, i].copy(), spec.bitwidth) for i in range(spec.n_in)]
    outs = _apply(_SEM, spec, xc, zero, [zero[0]] * spec.n_in)
    return np.stack([o.bits for o in outs], axis=1)


# -- circuits -----------------------------------------------------------------


@lru_cache(maxsize=64)
def build_secure_circuit(spec: SecureFnSpec):
    """Inputs: client shares, client fresh masks, then server shares."""
    b = CircuitBuilder()
    ops = CircuitOps(b)
    xc = [ops.input(spec.bitwidth) for _ in range(spec.n_in)]
    masks = [ops.input(spec.bitwidth) for _ in range(spec.n_out)]
    xs = [ops.input(spec.bitwidth) for _ in range(spec.n_in)]
    for out in _apply(ops, spec, xc, masks, xs):
        b.mark_output(out)
    return b.build()


# -- strict-mode domain checks ------------------------------------------------


def _signed(vals: np.ndarray, width: int) -> np.ndarray:
    shift = np.uint64(64 - width)
    return (vals << shift).view(np.int64) >> np.int64(64 - width)


def check_domain(spec: SecureFnSpec, reconstructed: np.ndarray) -> None:
    """Raise RangeViolation when a lane leaves the approximation domain."""
    v = _signed(np.asarray(reconstructed, dtype=np.uint64), spec.bitwidth)
    lim = spec.ring.value_limit()
    if spec.shift:
        t = v >> spec.shift
        if np.any(t > lim) or np.any(t < -lim):
            raise RangeViolation(
                f"{spec.fn}: value exceeds +-{lim} after the {spec.shift}-bit shift"
            )
    if spec.fn == "exp_approx":
        if np.any(v > 0) or np.any(v < -(16 << spec.in_frac)):
            raise RangeViolation("exp_approx input outside [-16, 0]")
    if spec.fn == "reciprocal":
        if np.any(v < (1 << F2) // 2) or np.any(v > (64 << F2)):
            raise RangeViolation("reciprocal input outside [0.5, 64]")


# -- the two backends ---------------------------------------------------------


def _columns(mat: np.ndarray, width: int) -> list[SemVal]:
    return [SemVal(mat[:, i].copy(), width) for i in range(mat.shape[1])]


def _gc_message_bytes(
    spec: SecureFnSpec, lanes: int, and_count: int, group: ModpGroup
) -> tuple[int, int]:
    """(garbled material bytes, OT bytes) for the cost model.

    Material = AND tables (4 rows x label+check word) + the client's active
    input labels + one decode byte per output wire. OT moves one group
    element per choice bit each way plus the masked pair, and one group
    element for the sender point.
    """
    tables = and_count * 4 * 2 * 8 * lanes
    active = (spec.n_in + spec.n_out) * spec.bitwidth * lanes * 8
    decode = spec.n_out * spec.bitwidth * lanes
    n_bits = spec.n_in * spec.bitwidth * lanes
    ot = group.element_bytes * (1 + n_bits) + n_bits * 16
    return tables + active + decode, ot


def eval_secure(
    spec: SecureFnSpec,
    client_vals: np.ndarray,
    server_vals: np.ndarray,
    rng: np.random.Generator,
    *,
    masks: np.ndarray | None = None,
    backend: str = "semantic",
    strict: bool = False,
    report: CostReport | None = None,
    transcript: Transcript | None = None,
    step: str = "Others",
    ot_group: ModpGroup = TOY_256,
    rng_server: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one secure stage over a batch of lanes.

    client_vals, server_vals: (lanes, n_in) raw shares mod 2^bitwidth.
    Returns (client_new, server_new), both (lanes, n_out): the client keeps
    its fresh masks, the server keeps F(x) - mask.
    """
    client_vals = np.atleast_2d(np.asarray(client_vals, dtype=np.uint64))
    server_vals = np.atleast_2d(np.asarray(server_vals, dtype=np.uint64))
    if client_vals.shape != server_vals.shape or client_vals.shape[1] != spec.n_in:
        raise ValueError("share matrices must both be (lanes, n_in)")
    lanes = client_vals.shape[0]
    wmask = np.uint64(2**spec.bitwidth - 1) if spec.bitwidth < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    if masks is None:
        masks = rng.integers(0, 1 << 64, (lanes, spec.n_out), dtype=np.uint64) & wmask
    masks = np.atleast_2d(np.asarray(masks, dtype=np.uint64)) & wmask

    if strict:
        check_domain(spec, (client_vals + server_vals) & wmask)

    circ = build_secure_circuit(spec)
    material_bytes, _ = _gc_message_bytes(spec, lanes, circ.and_count, ot_group)
    n_bits = spec.n_in * spec.bitwidth * lanes
    if report is not None:
        with report.at(step, "offline"):
            report.bump("gc_and_gates", circ.and_count)
        with report.at(step, "online"):
            report.bump("gc_table_bytes", material_bytes)
            report.bump("ot_count", n_bits)
    if transcript is not None:
        transcript.send("client", step, "gc_material", material_bytes)
        transcript.send("client", step, "ot", ot_group.element_bytes + n_bits * 16)
        transcript.send("server", step, "ot", n_bits * ot_group.element_bytes)
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

    if backend != "gc":
        raise ValueError(f"unknown backend {backend!r}")

    if rng_server is None:
        rng_server = np.random.default_rng(int(rng.integers(0, 2**63, dtype=np.uint64)))
    gt, state = garble(circ, lanes, rng)
    w = spec.bitwidth
    client_bits = np.concatenate(
        [pack_bits(client_vals[:, i], w) for i in range(spec.n_in)]
        + [pack_bits(masks[:, j], w) for j in range(spec.n_out)]
    )
    n_client_rows = (spec.n_in + spec.n_out) * w
    active = np.empty((circ.n_inputs, lanes), dtype=np.uint64)
    active[:n_client_rows] = state.encode(client_bits, rows=slice(0, n_client_rows))
    m0, m1 = state.pairs(slice(n_client_rows, circ.n_inputs))
    server_bits = np.concatenate([pack_bits(server_vals[:, i], w) for i in range(spec.n_in)])
    labels, _ = run_ot(m0.ravel(), m1.ravel(), server_bits.ravel(), ot_group, rng, rng_server)
    active[n_client_rows:] = labels.reshape(circ.n_inputs - n_client_rows, lanes)
    out_bits = decode_outputs(gt, evaluate(circ, gt, active))
    server_new = np.stack(
        [unpack_bits(out_bits[j * w : (j + 1) * w]) for j in range(spec.n_out)], axis=1
    )
    return masks, server_new
