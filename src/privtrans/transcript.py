"""Ordered message log between the two parties and the modeled latency.

Every message carries a pipeline step, a phase tag, and a byte count; an
interaction is one client/server exchange at a module boundary (the unit
the protocol optimizations try to reduce). Wall-clock cost is never
injected into runs; estimate_latency turns a finished transcript into
modeled seconds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .costs import ALL_COUNTERS, PHASES, STEPS, CostReport, check_scope

KINDS = ("ciphertext", "share", "gc_material", "ot")

PARTIES = ("client", "server")


@dataclass(frozen=True)
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
    def __init__(self):
        self.messages: list[Message] = []
        self._interactions: dict[tuple[str, str], int] = {}

    def send(self, sender: str, step: str, kind: str, nbytes: int, phase: str = "online"):
        if sender not in PARTIES:
            raise ValueError(f"unknown sender {sender!r}")
        check_scope(step, phase)
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if nbytes <= 0:
            raise ValueError("messages must carry bytes")
        self.messages.append(Message(sender, step, phase, kind, int(nbytes)))

    def interaction(self, step: str, phase: str = "online"):
        check_scope(step, phase)
        key = (step, phase)
        self._interactions[key] = self._interactions.get(key, 0) + 1

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
