"""One run's cost log: per-step, per-phase counters, messages and
interactions, and the modeled latency.

A run's Transcript holds its one (step, phase) scope, its ordered message
log and its interaction tallies. Each party's CostReport(transcript)
tallies that party's operations into the scope of the transcript it was
made on, so a message and the counters of its step carry the same tag.
`CostReport.at` is the only way a scope opens; outside any, bumps,
messages and interactions land in ("Others", "online"), and a bare
CostReport() bills into its own transcript. An interaction is one
client/server exchange at a module boundary (the unit the protocol
optimizations try to reduce). Counters are plain ints so reports
serialize canonically. Wall-clock cost is never injected into runs;
estimate_latency turns a finished transcript into modeled seconds.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

STEPS = ("Embed", "QKV", "QxK", "SoftMax", "AttenValue", "Others")
PHASES = ("offline", "online")

HE_COUNTERS = ("he_enc", "he_dec", "he_add", "he_add_plain", "he_mul_plain", "he_rotate")

# interactions, messages and bytes are tallied by the Transcript, not here
ALL_COUNTERS = HE_COUNTERS + ("gc_and_gates", "gc_table_bytes", "ot_count", "base_ot_count")

KINDS = ("ciphertext", "share", "gc_material", "ot")

PARTIES = ("client", "server")


@dataclass(frozen=True, slots=True)
class Message:
    sender: str
    step: str
    phase: str
    kind: str
    nbytes: int


@dataclass(frozen=True)
class ChannelModel:
    """Network model: per-interaction delay plus byte-proportional transfer."""

    delay_s: float = 0.0023
    bandwidth_bps: float = 1e8  # bytes per second

    def __post_init__(self):
        # an int too large for a float fails these comparisons, where
        # math.isfinite would raise OverflowError
        if not 0 <= self.delay_s <= sys.float_info.max:
            raise ValueError(f"delay_s must be >= 0 and finite, got {self.delay_s}")
        if not 0 < self.bandwidth_bps <= sys.float_info.max:
            raise ValueError(f"bandwidth_bps must be > 0 and finite, got {self.bandwidth_bps}")


class Transcript:
    """Ordered message log between the two parties, interaction tallies,
    and the (step, phase) scope that every message, interaction and
    counter bump on it lands in."""

    def __init__(self):
        self.messages: list[Message] = []
        self._interactions: dict[tuple[str, str], int] = {}
        self.scope = ("Others", "online")

    def send(self, sender: str, kind: str, nbytes: int) -> None:
        if sender not in PARTIES:
            raise ValueError(f"unknown sender {sender!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if nbytes <= 0:
            raise ValueError("messages must carry bytes")
        self.messages.append(Message(sender, *self.scope, kind, int(nbytes)))

    def interaction(self) -> None:
        self._interactions[self.scope] = self._interactions.get(self.scope, 0) + 1

    # -- queries ------------------------------------------------------------

    def interactions(self, step: str | None = None, phase: str = "online") -> int:
        return sum(
            v
            for (s, p), v in self._interactions.items()
            if p == phase and (step is None or s == step)
        )

    def bytes_sent(self, step: str | None = None, phase: str | None = None) -> int:
        return sum(
            m.nbytes
            for m in self.messages
            if (step is None or m.step == step) and (phase is None or m.phase == phase)
        )

    def message_count(self, step: str | None = None, phase: str | None = None) -> int:
        return sum(
            1
            for m in self.messages
            if (step is None or m.step == step) and (phase is None or m.phase == phase)
        )

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "sender": m.sender,
                    "step": m.step,
                    "phase": m.phase,
                    "kind": m.kind,
                    "bytes": m.nbytes,
                },
                sort_keys=True,
            )
            for m in self.messages
        ]
        return "\n".join(lines)

    def summary(self) -> dict:
        out: dict = {}
        for step in STEPS:
            cell = {}
            for phase in PHASES:
                cell[phase] = {
                    "bytes": self.bytes_sent(step, phase),
                    "messages": self.message_count(step, phase),
                    "interactions": self.interactions(step, phase),
                }
            out[step] = cell
        return out


class CostReport:
    """One party's nested tally, (step, phase) -> counter name -> count,
    billed into the scope of its transcript (a fresh one if none is given)."""

    def __init__(self, transcript: Transcript | None = None):
        self.cells: dict[tuple[str, str], dict[str, int]] = {}
        self.transcript = Transcript() if transcript is None else transcript

    @contextmanager
    def at(self, step: str, phase: str):
        """Scope every bump, message and interaction on this report's
        transcript to one pipeline step and phase."""
        if step not in STEPS:
            raise ValueError(f"unknown step {step!r}")
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        t = self.transcript
        prev, t.scope = t.scope, (step, phase)
        try:
            yield self
        finally:
            t.scope = prev

    def bump(self, counter: str, n: int = 1) -> None:
        if counter not in ALL_COUNTERS:
            raise ValueError(f"unknown counter {counter!r}")
        cell = self.cells.setdefault(self.transcript.scope, {})
        cell[counter] = cell.get(counter, 0) + n

    # -- queries ----------------------------------------------------------

    def get(self, step: str, phase: str, counter: str) -> int:
        return self.cells.get((step, phase), {}).get(counter, 0)

    def phase_total(self, phase: str, counter: str) -> int:
        return sum(c.get(counter, 0) for (_, p), c in self.cells.items() if p == phase)

    def total(self, counter: str) -> int:
        return sum(c.get(counter, 0) for c in self.cells.values())

    def he_ops(self, step: str, phase: str) -> int:
        cell = self.cells.get((step, phase), {})
        return sum(cell.get(k, 0) for k in HE_COUNTERS)

    def merged(self, other: "CostReport") -> "CostReport":
        out = CostReport(self.transcript)
        for rep in (self, other):
            for key, cell in rep.cells.items():
                tgt = out.cells.setdefault(key, {})
                for k, v in cell.items():
                    tgt[k] = tgt.get(k, 0) + v
        return out

    def to_dict(self) -> dict:
        out: dict = {}
        for (step, phase), cell in sorted(self.cells.items()):
            out.setdefault(step, {})[phase] = {k: cell[k] for k in sorted(cell)}
        return out


def estimate_latency(
    t: Transcript,
    ch: ChannelModel,
    op_cost_table: dict[str, float] | None = None,
    report: CostReport | None = None,
) -> dict[str, float]:
    """Modeled seconds per phase: op costs + interaction delays + transfer.

    latency = sum(op_count * op_cost) + interactions * delay + bytes / bandwidth.
    The op cost table maps CostReport counter names to finite, non-negative
    seconds per op and defaults to empty (pure communication model); a
    table needs the report whose counts it prices.
    """
    table = op_cost_table or {}
    if table and report is None:
        raise ValueError("op_cost_table needs a report to price")
    for name, per_op in table.items():
        if name not in ALL_COUNTERS:
            raise ValueError(f"op_cost_table: unknown counter {name!r}")
        if not 0 <= per_op <= sys.float_info.max:
            raise ValueError(f"op_cost_table: cost of {name!r} must be finite and >= 0, "
                             f"got {per_op}")
    out = {}
    for phase in PHASES:
        secs = t.interactions(None, phase) * ch.delay_s
        secs += t.bytes_sent(None, phase) / ch.bandwidth_bps
        for name, per_op in table.items():
            secs += per_op * report.phase_total(phase, name)
        out[f"{phase}_s"] = secs
    return out
