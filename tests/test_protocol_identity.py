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
and held through that move. Any change to a counter,
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
        "0b3a69236c465f87ef6270b5a0b6aa120dc39178aee2daf0e459090e6db01225",
    ("post-relu", "f", "semantic"):
        "8f0574b8c2f08bebdf88c83c75333d44f75fff1af29358eb8e3d4cb6101bb700",
    ("post-relu", "fp", "semantic"):
        "e21fa4b64bae2a673d7b9f31679f536d9b8f9f3bee3a87b162107cb90dd8c798",
    ("post-relu", "fpc", "semantic"):
        "199f49e4c3dd3c4529711e423da2bd8e4991283371a0f4488463786640f7953a",
    ("post-relu", "f", "gc"):
        "8015ff493d6a3defd9782a7da9e5258c63780a7f2acb7be7772fda6fb84eae7e",
    ("post-relu", "fpc", "gc"):
        "e15c3ba9805d29324a4e8dcee10c0e437ec5ed5e27687831dad10ad78c728a46",
    ("pre-gelu", "base", "semantic"):
        "65cd19ef52b57c94aa501f0d700276d12265b658784d44463fd3debd02206557",
    ("pre-gelu", "f", "semantic"):
        "f242a121170ea81275f3e840e9bd77aec56406f1466e5465ae72c1c0d0973661",
    ("pre-gelu", "fp", "semantic"):
        "8b80936a710f650bac3318b7bc85099ed95879df7c9a13ece513c72d0b77e23b",
    ("pre-gelu", "fpc", "semantic"):
        "f5acb2524e2798b56db3ffa3b3f275f157bcf456cf3dd89b65d05b5199fc3a91",
    ("pre-gelu", "f", "gc"):
        "957387ae78bd51bb8d0b53115b1ce8b803fab2f7b24a76584c2530b6837d217e",
    ("pre-gelu", "fpc", "gc"):
        "a0456c012ad363749c19e32693157c05cf3a93476ce1a82da1c21db009c3dd65",
    ("sem-wide", "base", "semantic"):
        "1296999186980e781180711e1e6975120ccb0fa3eed118f0a779196b15fa0c44",
    ("sem-wide", "f", "semantic"):
        "e753d935cf8290df9e83ceb335b2005a27fe6c6ac09169952a2f325bbffa2cdc",
    ("sem-wide", "fp", "semantic"):
        "3d032e53a3bdbab5e99dc152c9cffd3f9368f70fc176b238d14169c162de7b8b",
    ("sem-wide", "fpc", "semantic"):
        "3386bf495422569e4abcf1650b89643d94b40ff5a2ac35d8f5b38b9c0a65a462",
    ("sem-long", "base", "semantic"):
        "bdc97c4b0b55bd5d2e373ce2ada2debade16e5a43c6532606adad5fee9e082dd",
    ("sem-long", "f", "semantic"):
        "19e4d4df3e743640594a3aa572ee624f3fa2de5116dfb202c37202762bb833bd",
    ("sem-long", "fp", "semantic"):
        "5d60e11f28fbefc8b93e1963cb5140f0f7473fcb25f802a3990ab61b20480b99",
    ("sem-long", "fpc", "semantic"):
        "d35599f647fba52de3a4ade93199d3d2e3d21b292528c699bc23b05fbd48578f",
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
