"""Output and protocol-property checks on one inference.

Everything here runs outside the timed region. Each check returns a list
of failure messages; an inference with any message counts as failed. The
expected counts are derived here from the config and from each call's
packing layout, not taken from the package's own predictions.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from privtrans import audit_server_ignorance
from privtrans.costs import PHASES, STEPS

import oracle

PREPARED_STEPS = ("Embed", "QKV", "Others")
PREFIX_STEPS = ("Embed", "QKV", "QxK")
COUNTERS = ("gc_and_gates", "gc_table_bytes", "ot_count")


def expected_prefix_interactions(model: dict, mode: str) -> int:
    """Online interactions of the Embed -> QKV -> QxK prefix.

    base/f/fp: two embedding modules, then one QKV and one QxK exchange
    per block, i.e. 4 + 2(N-1). fpc: one QxK exchange per block; with
    pre-norm the embedding cannot fuse into the first block (a layer norm
    sits between them), so its two modules stay online.
    """
    n_blocks = model["N"]
    if mode != "fpc":
        return 4 + 2 * (n_blocks - 1)
    return n_blocks + (2 if model.get("norm", "post") == "pre" else 0)


def expected_matmul_rotations(strategy: str, n: int, d: int, slots: int) -> int:
    """c*M rotations features-first, c*ceil(M/n) tokens-first."""
    c = -(-n * d // slots)
    if strategy == "tokens_first":
        return c * -(-slots // n)
    return c * slots


class MatmulRecorder:
    """Wraps engine.he_matmul to record each call's layout and rotations.

    The rotation count is read from the CostReport the engine passes in,
    before and after the call; the wrapper adds two counter sums per call.
    """

    def __init__(self, engine):
        self.engine = engine
        self.orig = engine.he_matmul
        self.calls: list[tuple] = []
        orig = self.orig

        def he_matmul(cts, layout, w, report=None, kernel="naive"):
            before = report.total("he_rotate") if report is not None else 0
            out = orig(cts, layout, w, report, kernel)
            after = report.total("he_rotate") if report is not None else 0
            self.calls.append((layout.strategy.value, layout.n, layout.d, layout.slots,
                               report is not None, after - before))
            return out

        engine.he_matmul = he_matmul

    def take(self) -> list[tuple]:
        calls, self.calls = self.calls, []
        return calls

    def restore(self) -> None:
        self.engine.he_matmul = self.orig


def step_counters(result) -> dict:
    """Per step and phase: the counters `privtrans-bench run` reports."""
    merged = result.merged_report()
    t = result.transcript
    out = {}
    for step in STEPS:
        out[step] = {}
        for phase in PHASES:
            cell = {
                "interactions": t.interactions(step, phase),
                "messages": t.message_count(step, phase),
                "bytes": t.bytes_sent(step, phase),
                "he_ops": merged.he_ops(step, phase),
            }
            cell.update({k: merged.get(step, phase, k) for k in COUNTERS})
            out[step][phase] = cell
    return out


def counter_signature(result) -> str:
    """Digest of every counter and every transcript tally of one run."""
    blob = json.dumps([result.merged_report().to_dict(), result.transcript.summary()],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def logits_float(ring, logits) -> np.ndarray:
    """Decode logits, which sit at twice the ring fraction."""
    return ring.to_signed(logits.data).astype(np.float64) / 2.0 ** (2 * ring.frac_bits)


def output_failures(wl, cfg, reference, float_weights, tokens, got) -> list[str]:
    out = []
    if not np.array_equal(got.data, reference.data):
        out.append("reconstructed logits differ from reference_forward")
    err = float(np.abs(logits_float(cfg.ring, got) - oracle.forward(wl.model, float_weights,
                                                                      tokens)).max())
    if not err <= wl.float_tol:
        out.append(f"float64 oracle error {err:.4f} exceeds {wl.float_tol}")
    return out


def protocol_failures(model: dict, mode: str, result, matmul_calls) -> list[str]:
    out = []
    merged = result.merged_report()
    online_he = sum(merged.he_ops(s, "online") for s in PREPARED_STEPS)
    if mode == "base" and online_he == 0:
        out.append("base did no online HE on Embed/QKV/Others")
    if mode != "base" and online_he != 0:
        out.append(f"{mode} did {online_he} online HE ops on Embed/QKV/Others")
    prefix = sum(result.transcript.interactions(s, "online") for s in PREFIX_STEPS)
    want = expected_prefix_interactions(model, mode)
    if prefix != want:
        out.append(f"online prefix took {prefix} interactions, expected {want}")
    if not matmul_calls:
        out.append("no he_matmul call was recorded")
    for strategy, n, d, slots, counted, rot in matmul_calls:
        want = expected_matmul_rotations(strategy, n, d, slots)
        if not counted or rot != want:
            out.append(f"he_matmul {strategy} n={n} d={d} M={slots}: {rot} rotations, "
                       f"expected {want}")
    leaked = audit_server_ignorance(result.session.server)
    if leaked:
        out.append(f"server holds logical plaintext: {leaked}")
    return out
