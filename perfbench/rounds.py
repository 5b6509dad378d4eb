"""Rounds of inferences inside one benchmark process, their checks and
the per-layer metrics of a traced run.

child.py imports this module only after it has loaded the package and
generated the weights, so none of it counts as set-up time.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from time import perf_counter

import numpy as np
import privtrans
from privtrans.cli import cmd_run, load_run_config

import checks
from probe import probe, scale
from workloads import WEIGHT_SCALE, inputs

HE_COUNTERS = ("he_rotate", "he_mul_plain", "he_add", "he_add_plain", "he_enc", "he_dec")

# span name -> per-layer metric holding its self time
SPAN_METRIC = {
    "engine.run_protocol": "engine.self_s",
    "engine.at": "engine.self_s",
    "packing.he_matmul": "packing.he_matmul_s",
    "packing.pack": "packing.pack_s",
    "packing.unpack": "packing.unpack_s",
    "packing.pack_plain": "packing.pack_plain_s",
    "sharing.enc_left_matmul": "sharing.enc_left_matmul_s",
    "sharing.plain_left_matmul": "sharing.plain_left_matmul_s",
    "sharing.make_product_triple": "sharing.triple_gen_s",
    "sharing.enc_rows": "sharing.rows_s",
    "sharing.dec_rows": "sharing.rows_s",
    "securefn.eval_secure": "securefn.eval_secure_self_s",
    "circuits.build_secure_circuit": "circuits.build_s",
    "garble.garble": "garble.garble_s",
    "garble.evaluate": "garble.evaluate_s",
    "ot.run_ot": "ot.run_ot_s",
}
LEAF_METRIC = {"she.he_rotate": "she.rotate_s"}  # every other she.* leaf -> she.op_s


class Run:
    """Inputs, checks and tallies of one process."""

    def __init__(self, wl, cfg, weights, float_weights, recorder, stages, tr, seed, stream):
        self.wl, self.cfg, self.weights = wl, cfg, weights
        self.float_weights = float_weights
        self.recorder, self.stages, self.tr, self.seed = recorder, stages, tr, seed
        self.inputs = inputs(wl.model, seed, stream)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.signatures: dict[str, str] = {}
        self.bytes = {"online": [], "offline": []}
        self.last: dict = {}  # entry key -> (entry, tokens, seed, counters, logits)
        self.round_tallies: list[tuple[str, dict]] = []  # (label, counter sums) per round
        self.probes: list[float] = []

    def round(self, label: str) -> dict:
        """One whole round; returns metric -> [(seconds, seconds at reference speed)]."""
        samples: dict[str, list[tuple[float, float]]] = {}
        tally = {k: 0 for k in HE_COUNTERS + ("gc_table_bytes", "ot_count")}
        tally.update(online_interactions=0, offline_interactions=0,
                     modeled_online_s=0.0, modeled_offline_s=0.0)
        for entry in self.wl.entries:
            for _ in range(entry.repeats):
                tokens, sess_seed = next(self.inputs)
                tracing = self.tr is not None and self.tr.installed
                self.stages.active = entry.backend != "semantic" and not tracing
                t0, t1, result = self._infer(entry, tokens, sess_seed, label)
                self.stages.active = False
                self.probes.append(probe())
                samples.setdefault(entry.metric, []).append(
                    scale(t0, t1, self.probes[-2], self.probes[-1], self.stages.take()))
                self._check(entry, tokens, sess_seed, result)
                self._tally(tally, result)
                del result
        self.round_tallies.append((label, tally))
        return samples

    def rounds(self, label: str, seconds: float) -> list[dict]:
        """Whole rounds until `seconds` of inference time have passed (at least one)."""
        out, spent = [], 0.0
        while not out or spent < seconds:
            samples = self.round(label)
            out.append(samples)
            spent += round_seconds(samples)
        return out

    def _infer(self, entry, tokens, sess_seed, label):
        self.recorder.take()
        root = nullcontext()
        if self.tr is not None and self.tr.installed:
            root = self.tr.span("engine.run_protocol", round=label, mode=entry.key,
                                inference=self.attempted)
        with root:
            t0 = perf_counter()
            result = privtrans.run_protocol(entry.mode, self.cfg, self.weights, tokens,
                                            sess_seed, backend=entry.backend)
            t1 = perf_counter()
        return t0, t1, result

    def _check(self, entry, tokens, sess_seed, result) -> None:
        self.attempted += 1
        calls = self.recorder.take()
        got = result.reconstruct()
        ref = privtrans.reference_forward(self.cfg, self.weights, tokens)
        bad = checks.output_failures(self.wl, self.cfg, ref, self.float_weights, tokens, got)
        bad += checks.protocol_failures(self.wl.model, entry.mode, result, calls)
        if entry.backend != "semantic":
            twin = privtrans.run_protocol(entry.mode, self.cfg, self.weights, tokens, sess_seed)
            self.recorder.take()
            if not np.array_equal(twin.reconstruct().data, got.data):
                bad.append(f"{entry.backend} logits differ from the semantic backend's")
        sig = checks.counter_signature(result)
        if self.signatures.setdefault(entry.key, sig) != sig:
            bad.append(f"{entry.key} counters differ from this mode's first inference")
        if bad:
            self.failed += 1
            self.failures.extend(f"{entry.key} #{self.attempted}: {m}" for m in bad)
        t = result.transcript
        for phase in checks.PHASES:
            self.bytes[phase].append(t.bytes_sent(None, phase))
        self.last[entry.key] = (entry, tokens, sess_seed, checks.step_counters(result),
                                self.cfg.ring.to_signed(got.data).tolist())

    def _tally(self, tally: dict, result) -> None:
        merged = result.merged_report()
        for k in HE_COUNTERS + ("gc_table_bytes", "ot_count"):
            tally[k] += merged.total(k)
        t = result.transcript
        lat = privtrans.estimate_latency(t, privtrans.ChannelModel())
        for phase in checks.PHASES:
            tally[f"{phase}_interactions"] += t.interactions(None, phase)
            tally[f"modeled_{phase}_s"] += lat[f"{phase}_s"]

    def cross_check(self) -> None:
        """Counters and logits of the last inference of each entry against
        the `privtrans-bench run` report for the same config and seed."""
        for entry, tokens, sess_seed, counters, logits in self.last.values():
            rc = load_run_config({
                "mode": entry.mode, "seed": sess_seed, "model": dict(self.wl.model),
                "weights_seed": self.seed, "weight_scale": WEIGHT_SCALE,
                "tokens": tokens, "backend": entry.backend,
            })
            rep = cmd_run(rc)
            self.attempted += 1
            bad = []
            if rep["equivalence"] != "exact":
                bad.append("cmd_run reports a reconstruction mismatch")
            if rep["steps"] != counters:
                bad.append("counters differ from the privtrans-bench run report")
            if rep["logits_signed"] != logits:
                bad.append("logits differ from the privtrans-bench run report")
            if bad:
                self.failed += 1
                self.failures.extend(f"{entry.key} cross-check: {m}" for m in bad)


def round_seconds(samples: dict, which: int = 0) -> float:
    """Inference seconds of one round: as measured (0) or at reference speed (1)."""
    return sum(pair[which] for pairs in samples.values() for pair in pairs)


def layer_metrics(tr, n_cold_spans: int, state: Run, plain: list, traced: list) -> dict:
    """Per-layer metrics of one traced round (medians and per-round means)."""
    rounds = len(traced)
    sums: dict[str, float] = {}
    for name in set(SPAN_METRIC.values()) | {"she.rotate_s", "she.op_s"}:
        sums[name] = 0.0
    steps = {f"step.{s}.{p}_s": 0.0 for s in checks.STEPS for p in checks.PHASES}
    stages = garble_lanes = ot_transfers = 0
    builds = and_gates = 0
    build_s = 0.0
    for i, span in enumerate(tr.spans):
        cold = i < n_cold_spans
        if span.name == "circuits.build_secure_circuit" and cold:
            build_s += span.self_s
            builds += span.extra["built"]
            and_gates += span.extra["and_gates"]
        if cold:
            continue
        sums[SPAN_METRIC[span.name]] += span.self_s
        for leaf, (_, secs) in span.leaves.items():
            sums[LEAF_METRIC.get(leaf, "she.op_s")] += secs
        if span.step is not None and not span.stepped:
            steps[f"step.{span.step[0]}.{span.step[1]}_s"] += span.end - span.start
        if span.name == "securefn.eval_secure":
            stages += 1
        elif span.name == "garble.garble":
            garble_lanes += span.extra["and_lanes"]
        elif span.name == "ot.run_ot":
            ot_transfers += span.extra["transfers"]

    traced_totals = [round_seconds(r) for r in traced]
    accounted = sum(sums.values())
    tallies = [t for label, t in state.round_tallies if label == "traced"]
    # the overhead compares rounds at reference speed, so that a change in
    # the machine's speed between the two kinds of round does not show as one
    traced_ref = statistics.median(round_seconds(r, 1) for r in traced)
    plain_ref = statistics.median(round_seconds(r, 1) for r in plain)

    def per_round(key):
        return sum(t[key] for t in tallies) / rounds

    out = {k: v / rounds for k, v in sums.items()}
    out["circuits.build_s"] = build_s
    out.update({k: v / rounds for k, v in steps.items()})
    out.update({
        "circuits.builds": builds,
        "circuits.and_gates": and_gates,
        "securefn.stages": stages / rounds,
        "garble.and_lanes_per_s": garble_lanes / sums["garble.garble_s"]
        if sums["garble.garble_s"] else 0.0,
        "garble.table_MB": per_round("gc_table_bytes") / 1e6,
        "ot.transfers": per_round("ot_count"),
        "ot.transfers_per_s": ot_transfers / sums["ot.run_ot_s"] if sums["ot.run_ot_s"] else 0.0,
        "transcript.online_interactions": per_round("online_interactions"),
        "transcript.offline_interactions": per_round("offline_interactions"),
        "transcript.modeled_online_s": per_round("modeled_online_s"),
        "transcript.modeled_offline_s": per_round("modeled_offline_s"),
        "trace.round_s": statistics.median(traced_totals),
        "trace.untraced_round_s": statistics.median(round_seconds(r) for r in plain),
        "trace.overhead_pct": 100.0 * (traced_ref / plain_ref - 1.0),
        "trace.accounted_pct": 100.0 * accounted / sum(traced_totals),
        "trace.spans": len(tr.spans),
    })
    out.update({f"she.{k}": per_round(k) for k in HE_COUNTERS})
    return out
