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
moved too; every reconstructed logit stayed. Any change to a counter,
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
        "7ddcdb48875007c78a5abfc5f0df7c3d2d2d9c82cea80db45a95e222ec002d54",
    ("post-relu", "f", "semantic"):
        "bdbd64b602741859e52bab72eb486011931622962f94af68e1ee38711e10a8b6",
    ("post-relu", "fp", "semantic"):
        "ebe43a981bb03ff8a74848618efc5e0fe12cd9bd2669c90c6ce68a35a64b67c4",
    ("post-relu", "fpc", "semantic"):
        "1c8aa886cdbcacc880ade6b23fa8f0553d56f641ba6b69d7aea9878f671e5a6a",
    ("post-relu", "f", "gc"):
        "ed46d4da4579848dcc1b23f7e535b466814e80fd61c9388eb6483630864c12fc",
    ("pre-gelu", "base", "semantic"):
        "ce6003114a639921534fab3f0fd4aa9e8c59ac95e3607afc4cb5583fe6bbe17f",
    ("pre-gelu", "f", "semantic"):
        "4df414b2d20efa772715e091e6eaf7d72ca08ee44fcbb45aebabe4095475b7ec",
    ("pre-gelu", "fp", "semantic"):
        "c8b52f8a262602681dad87ef29ca17edcb8793ae2518cd6dba1a73468e7a11e4",
    ("pre-gelu", "fpc", "semantic"):
        "8e3b7b73f87359c339a8967c422465f71a5b46850002dd613e0d2994cd15293b",
    ("pre-gelu", "f", "gc"):
        "e00b6f0731df1e34a79f926ea93895f13c5e79e28e8868d958c34ac7671df7ed",
    ("sem-wide", "base", "semantic"):
        "40a8167b81219e2ef2795f2c4b33558cfb64a44df980d012a527fdf207806de1",
    ("sem-wide", "f", "semantic"):
        "8cc15a34920bc92089550f407594efb34841c3d0e690a13947cbd9e7e8c7fc11",
    ("sem-wide", "fp", "semantic"):
        "2e028ed665f404f1b11643e6d9764fe32ead61200a6446495683cb724254ec6e",
    ("sem-wide", "fpc", "semantic"):
        "7d00ddc55b465be3e89d71617aab202aa1767f305027c5ffb41ec2886a16b443",
    ("sem-long", "base", "semantic"):
        "2718090e55d354f3f26f0f2f670b03277bf9e9b470599c8d0c57daf67eb3b720",
    ("sem-long", "f", "semantic"):
        "fda8dada556b86f9614108648ff8b7c7df2bd9aa6294163de78a6dfb305ff34e",
    ("sem-long", "fp", "semantic"):
        "aa170995ab33330b8eb750cebb2c4131e736aadd2b6c70f8a1ba870a52794ded",
    ("sem-long", "fpc", "semantic"):
        "5ae0b948bb8a2900878d3bee563079d69c7e4797382a3dd5069ab0d4e8d389fa",
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
