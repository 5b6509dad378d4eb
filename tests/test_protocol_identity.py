"""Protocol identity: one sha256 per (config, mode) over everything a run
reports, so a refactor that must keep the protocol unchanged can show it.

Each digest covers both parties' CostReport.to_dict(), the transcript's
to_jsonl() and summary(), and both logit shares. The desk digests were
taken from the code before the HE key moved onto the client, the sem-wide
and sem-long ones (the models of perfbench/workloads.py) before the
four-term product was shared, and all of them held unchanged when Session
was split into a Client and a Server with each material record owned by
one party; any change to a counter, message, byte or share of these runs
changes a digest. A deliberate protocol change updates the table and says
why in CHANGES.md.
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
        "2bb388b30ff7e95e957d316c4d3ead8549c6af80bed8d5b61e4d3ac78d9c5a3e",
    ("post-relu", "f", "semantic"):
        "b76cb5e5ff5c2cdb706ce8a66fed0f30f6bf85398ac2a46b6fed7b5b2f26f482",
    ("post-relu", "fp", "semantic"):
        "a13cf71adf9e4d0f244d18eed7ee788ec0fb9fd6b9575edbd9ae6dda0f58fd7f",
    ("post-relu", "fpc", "semantic"):
        "e2e1fdf337ce851f3b04e5e70e95b3c84de9c55fbb73d43a61a67baceb3ae11b",
    ("post-relu", "f", "gc"):
        "6584b897bc1cdd10ac964bf4610043344afd572bda0c6f1ff8205160d7e1d3b7",
    ("pre-gelu", "base", "semantic"):
        "99eff9668d39d6697d49c486a55be35397c28f63d468d9c1f9e9001821dfe44a",
    ("pre-gelu", "f", "semantic"):
        "2391d489c195356d3f5dd0c88d2fbe12bfeef5cbd8abd8fec4b535ac7d419115",
    ("pre-gelu", "fp", "semantic"):
        "25a2d8c7d23dbf6f7923a5ee51601fb0de775bb88daedefa46cc3845a53c43cf",
    ("pre-gelu", "fpc", "semantic"):
        "09b1931d01e5eb2deb15e584d4c020532770557ff34cd2d95a178254a4be48f6",
    ("pre-gelu", "f", "gc"):
        "2399d1c233cdb35cdf90202d1adb79d6f6cafc424ca9f5b1c0eac381569a67d5",
    ("sem-wide", "base", "semantic"):
        "b047886da14f44a21eabeb44041ae6dce66a62f6e315637543dd8f4a290f3cb0",
    ("sem-wide", "f", "semantic"):
        "cfe86fb208344f1d2aa040e5443e523335d3eff2b5828bf25d480d225574fd1c",
    ("sem-wide", "fp", "semantic"):
        "4a7184f16f8c666d7f73a20815af855a3c6d3cd5d59adc18e328024d6d57d9ab",
    ("sem-wide", "fpc", "semantic"):
        "aeb593f68c642f5a633632e98cfeb0583dba855f012425988fb76ab25b627f92",
    ("sem-long", "base", "semantic"):
        "bbd9b911edd4686dd590f20c402c84ba4f302957708f4224d7717c6df51d048c",
    ("sem-long", "f", "semantic"):
        "8268ecb46923eaddd576079c77816186de04e8902f7c41d4aab38aec011ba95e",
    ("sem-long", "fp", "semantic"):
        "2085beb8468ee35fcad27bd2285ef15fbf1b2c158cf519259790dc52a267a914",
    ("sem-long", "fpc", "semantic"):
        "4e56c74ee543549ebae112d798179dcc3cac1e79ee8993a40e4de88edde96b9d",
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
