"""The benchmark's workloads: model configs, the inferences of one round,
and how inputs are drawn from the seed.

A round is a fixed list of entries; each entry runs `repeats` inferences
in one protocol mode on one nonpoly backend. Every run attempts whole
rounds, so the number of inferences per run is a multiple of the round
size whatever the seed or run length.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("base", "f", "fp", "fpc")
WEIGHT_SCALE = 0.5


@dataclass(frozen=True)
class Entry:
    mode: str
    backend: str = "semantic"
    repeats: int = 1

    @property
    def metric(self) -> str:
        return f"{self.mode}_s"

    @property
    def key(self) -> str:
        return f"{self.mode}/{self.backend}"


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    entries: tuple
    # Largest max-abs difference allowed between the decoded logits and the
    # float64 oracle; README.md says how each value was chosen.
    float_tol: float
    # Fresh interpreters per run, each measuring its set-up time (the median
    # is setup_s) and then running its share of the warm rounds.
    setup_samples: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sem-wide",
            dict(N=1, d_emb=32, H=4, n=8, d_oh=32, d_ff=64, activation="relu", norm="post"),
            tuple(Entry(m) for m in MODES),
            float_tol=0.3,
        ),
        Workload(
            "sem-long",
            dict(N=2, d_emb=8, H=2, n=16, d_oh=16, d_ff=16, activation="gelu", norm="pre"),
            tuple(Entry(m) for m in MODES),
            float_tol=1.0,
        ),
        # f runs on the garbled-circuit backend. The semantic runs of the
        # other modes are cheap (about 0.05 s each), so each is repeated to
        # give their medians enough samples next to one GC inference.
        Workload(
            "gc-desk",
            dict(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8, activation="relu", norm="post"),
            (Entry("f", "gc"),) + tuple(Entry(m, repeats=8) for m in ("base", "fp", "fpc")),
            float_tol=0.07,
            setup_samples=2,
        ),
    )
}


def inputs(model: dict, seed: int, stream: int):
    """Endless (tokens, session seed) pairs for one process of one run.

    Tokens are uniform over [0, d_oh). stream separates the processes of
    one run so they do not replay each other's inputs.
    """
    import numpy as np

    rng = np.random.default_rng([seed, stream])
    while True:
        tokens = rng.integers(0, model["d_oh"], model["n"]).tolist()
        yield tokens, int(rng.integers(0, 2**31))
