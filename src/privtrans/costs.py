"""Per-step, per-phase operation tallies shared by every module.

A CostReport is owned by one party's state machine; merged copies feed the
benchmark report. Counters are plain ints so reports serialize canonically.
"""

from __future__ import annotations

from contextlib import contextmanager

STEPS = ("Embed", "QKV", "QxK", "SoftMax", "AttenValue", "Others")
PHASES = ("offline", "online")

HE_COUNTERS = ("he_enc", "he_dec", "he_add", "he_add_plain", "he_mul_plain", "he_rotate")

ALL_COUNTERS = HE_COUNTERS + (
    "gc_and_gates",
    "gc_table_bytes",
    "ot_count",
    "interactions",
    "bytes_sent",
    "messages",
)


class CostReport:
    """Nested tally: (step, phase) -> counter name -> count."""

    def __init__(self, owner: str = ""):
        self.owner = owner
        self.cells: dict[tuple[str, str], dict[str, int]] = {}
        self._step = "Others"
        self._phase = "online"

    @contextmanager
    def at(self, step: str, phase: str):
        """Scope subsequent bumps to one pipeline step and phase."""
        if step not in STEPS:
            raise ValueError(f"unknown step {step!r}")
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        prev = (self._step, self._phase)
        self._step, self._phase = step, phase
        try:
            yield self
        finally:
            self._step, self._phase = prev

    def bump(self, counter: str, n: int = 1) -> None:
        if counter not in ALL_COUNTERS:
            raise ValueError(f"unknown counter {counter!r}")
        cell = self.cells.setdefault((self._step, self._phase), {})
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
        out = CostReport(owner=f"{self.owner}+{other.owner}")
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
