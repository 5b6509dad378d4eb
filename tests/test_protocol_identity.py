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
stayed. Any change to a counter,
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
        "5146d60353eb53a7db11f301f449ffabc3dfe3c57db4f53840c64dd03128cd9b",
    ("post-relu", "f", "semantic"):
        "47063b13bf1d4edca2723b43ae9d42c2daafe12af3f974c36822748bf4800055",
    ("post-relu", "fp", "semantic"):
        "c2d78e75021d64ae94fb742b5b1c32ae785d4b2efa7494eb8b05ca6d0d423dca",
    ("post-relu", "fpc", "semantic"):
        "003bf3294ae48b2238957d187b62c3816dc71f1a1d4869213a67f168d168b6ac",
    ("post-relu", "f", "gc"):
        "fd991f792749875c3905df4f5f31a96bdd486067defc49dd986dc6b9717e0361",
    ("post-relu", "fpc", "gc"):
        "bbe7053da9cf9fe9847f05c3d61409799dc7fc2f65163f684d13cab365d361d1",
    ("pre-gelu", "base", "semantic"):
        "ea5130e0a36119cd6f4e7fb6f3174bc7b65a383f1ab0d49a7ae36b4a649848aa",
    ("pre-gelu", "f", "semantic"):
        "ac51e966e52b4e8fa2a3ca7cf1d3748ccfc27258eef44f351110ef26c51ee1d5",
    ("pre-gelu", "fp", "semantic"):
        "1f45fa76e69fc28e7c654856ef966a4efd723f60ba2777ced1c33c2ca8233f51",
    ("pre-gelu", "fpc", "semantic"):
        "71f273e5b7eea3ef34261c0946265cceb08f93b1870ea3c89e9f1a37602c8498",
    ("pre-gelu", "f", "gc"):
        "08e49b484ec7e31e4c795e967c5c84d557fee92130c485719a4cf2202c862033",
    ("pre-gelu", "fpc", "gc"):
        "6f4d26b290659b23322f2a295eae1b7c50b62ad879a022541583942d6019a12f",
    ("sem-wide", "base", "semantic"):
        "78afad8207af887d8067ba274c13c7a5b50ce827976591079bdf20657dd3d85e",
    ("sem-wide", "f", "semantic"):
        "91f6b60917f2425e873dc1ae012caa4831a529bd43061651bb29f563d10a1efa",
    ("sem-wide", "fp", "semantic"):
        "d3c5f174838d503bc54705c1d31e2988f7849a82662703e6349f0ba8c5d1cffe",
    ("sem-wide", "fpc", "semantic"):
        "b52012a6dd63f0b93796304f4143c8b094afdc8e0802bb47633b6e35ef24708e",
    ("sem-long", "base", "semantic"):
        "3a41e14a6e6f7ebf198e1b5b3feae1d0551731d536924fb71c953dad9c8ba7fd",
    ("sem-long", "f", "semantic"):
        "33b6263cee408cbf39d1468db0dea05965b2977633ff9d9b2b1b52d02724d134",
    ("sem-long", "fp", "semantic"):
        "257c0d3bc115fc79b6689f484c68e25ca7c171123216147461be842d74956528",
    ("sem-long", "fpc", "semantic"):
        "5d5f79dff8586b90db11e25ce289cd292c14c05ea5f2e7df6141d6e7a5675ca6",
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
