"""Protocol identity: one sha256 per (config, mode) over everything a run
reports, so a refactor that must keep the protocol unchanged can show it.

Each digest covers both parties' CostReport.to_dict(), the transcript's
to_jsonl() and summary(), and both logit shares. The desk digests were
taken from the code before the HE key moved onto the client, the sem-wide
and sem-long ones (the models of perfbench/workloads.py) before the
four-term product was shared, and all of them held unchanged when Session
was split into a Client and a Server with each material record owned by
one party. They were re-pinned when the OT's 128 base OTs became once
per session: the first secure stage alone bills them (`base_ot_count`
and 8,224 B), and on the GC backend the client's generator no longer
draws base-OT secrets after that stage, so the GC runs' logit shares
moved too; every reconstructed logit stayed. They were re-pinned again
when the circuits stopped emitting repeated AND gates (in `mul`, `mux`
and `lookup`) and `CircuitBuilder.build` began dropping dead gates: every run
bills its circuits' AND gates, so `gc_and_gates`, `gc_table_bytes` and
the online bytes fell in all 18 runs; the semantic runs' logit shares
held, the GC runs' shares moved because `garble` draws one label per AND
gate from the client's generator, which later stages draw their masks
from, and every reconstructed logit stayed. The two fpc runs on the GC
backend, the fused prefix on garbled circuits, were pinned before the
server took ownership of the model weights and its fused-prefix merge,
and held through that move. All 20 were re-pinned when `mul` moved to
Baugh-Wooley rows and a triangle squarer and `mux`/`lookup` stopped
repeating selects: `gc_and_gates`, `gc_table_bytes` and the online bytes
fell in every run; the semantic runs' logit shares held, the GC runs'
moved with the labels `garble` draws, and every reconstructed logit
stayed. All 20 were re-pinned again when garbling moved to half-gates
with output hashes: `gc_table_bytes` and the online bytes fell in every
run (two words per AND gate and lane, not eight, and two output hashes
per output bit and lane in place of a decode byte); the GC runs' shares
moved too, because `garble` no longer draws a label per AND gate from
the client's generator, which later stages draw their masks from. The
semantic runs' shares, `gc_and_gates`, `ot_count` and every
reconstructed logit stayed. Any change to a counter,
message, byte or share of these runs changes a digest. A deliberate
protocol change updates the table and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from privtrans import ModelConfig, random_weights, run_protocol

DESK = dict(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
SEM_WIDE = ModelConfig(N=1, d_emb=32, H=4, n=8, d_oh=32, d_ff=64)
SEM_LONG = ModelConfig(N=2, d_emb=8, H=2, n=16, d_oh=16, d_ff=16, activation="gelu", norm="pre")
# name -> (model, tokens)
CONFIGS = {
    "post-relu": (ModelConfig(**DESK), [3, 1, 4, 1]),
    "pre-gelu": (ModelConfig(**DESK, norm="pre", activation="gelu"), [3, 1, 4, 1]),
    "sem-wide": (SEM_WIDE, [(3 + i) % SEM_WIDE.d_oh for i in range(SEM_WIDE.n)]),
    "sem-long": (SEM_LONG, [(3 + i) % SEM_LONG.d_oh for i in range(SEM_LONG.n)]),
}

DIGESTS = {
    ("post-relu", "base", "semantic"):
        "4d25da85d2ca366e920de3e895893cfee4651922f5cc1160f595737c49490d0b",
    ("post-relu", "f", "semantic"):
        "0231b61cad66deb58f2617bcf86ac30e3a1e4bc419254c5c48bdf8f1c7af274e",
    ("post-relu", "fp", "semantic"):
        "8f2165ba1d15f795403cd9f9065e7e76138ae9989eafb9fd452ff21922599c54",
    ("post-relu", "fpc", "semantic"):
        "6dc4b7b377fb4cae60db308ee8ee153cc28488fa4f8aff0c3b888d8cfd0e59be",
    ("post-relu", "f", "gc"):
        "f78d60c627182a92010d60283819af6467ea37d06fb2e7a50a86f96310b5011b",
    ("post-relu", "fpc", "gc"):
        "bdde63166173305bad2b83bebf400430dfee8491edee38999b4a5cb850b92863",
    ("pre-gelu", "base", "semantic"):
        "db9a8a415dee1aee7b9839cf5939dfa8ad81653514a4f8db38a99ed76abd097b",
    ("pre-gelu", "f", "semantic"):
        "36fccee9155c367421bc5b3a7d23d1da36a0944b9c2f4e24a171cd338217e561",
    ("pre-gelu", "fp", "semantic"):
        "3fe6d509e8a8950d115b6f7b2d59d1801bc66eba6c202d8f0bc1da7d6edf100b",
    ("pre-gelu", "fpc", "semantic"):
        "303624cd156bf781c4b49259cdff26648fe4e171ae92cfe29a931a79b22d2f60",
    ("pre-gelu", "f", "gc"):
        "0113ded75917d1e864e721652e2e319ed4980e636e9b6dfbef5b2013d4090657",
    ("pre-gelu", "fpc", "gc"):
        "0b96cafbfb8788c3451b5e747a3ec7b0570e8319b43d8c1d2dda9faf3dd0588a",
    ("sem-wide", "base", "semantic"):
        "411398fefa8a52342e285b78244a7f81536537b6ea019036f158029032ab9481",
    ("sem-wide", "f", "semantic"):
        "69648ef16dd3692eda3b36e303e3c07bf767678c00f245ac40467896bc03e868",
    ("sem-wide", "fp", "semantic"):
        "419d66c68219185202b827ff0d2af49663c0e82fe50cfad77e2706942de6e1a8",
    ("sem-wide", "fpc", "semantic"):
        "19b3665abfb87655e93bf61ead4d812a855963a296e1b22892e2e9c9b3e53db9",
    ("sem-long", "base", "semantic"):
        "8b73b6cb8a079eae279f9e8352a49c72351f8edd6fb52daccc9b4fa8a6fad877",
    ("sem-long", "f", "semantic"):
        "93286116df4b0ff7040511010b45891160bfc451a2d64c617ea7691ed2e6ee66",
    ("sem-long", "fp", "semantic"):
        "ce1c347e7b366cade8757480fecbe4c237b1c9b314e007cf42f59b0d4379181b",
    ("sem-long", "fpc", "semantic"):
        "563ea38565f687e14541b26aeca5a9095a46cfa90beaa8ba104e2da14d99d982",
}


def run_digest(cfg: ModelConfig, tokens, mode: str, backend: str) -> str:
    weights = random_weights(cfg, np.random.default_rng(5))
    res = run_protocol(mode, cfg, weights, tokens, seed=11, backend=backend)
    h = hashlib.sha256()
    for rep in (res.client_report, res.server_report):
        h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
    h.update(res.transcript.to_jsonl().encode())
    h.update(json.dumps(res.transcript.summary(), sort_keys=True).encode())
    for share in (res.client_logits, res.server_logits):
        h.update(np.ascontiguousarray(share.data, dtype=np.uint64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,mode,backend", sorted(DIGESTS),
                         ids=["-".join(key) for key in sorted(DIGESTS)])
def test_run_matches_pinned_digest(name, mode, backend):
    assert run_digest(*CONFIGS[name], mode, backend) == DIGESTS[name, mode, backend]
