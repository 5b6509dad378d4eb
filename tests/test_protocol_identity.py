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
        "eb5d39dbbf3566075fcc2ecb1d9d8c2c4b748e80bcfe2d0b43a48279f068e89c",
    ("post-relu", "f", "semantic"):
        "4c9acc9bcac1bf76d789342c5c9d8cee850850cbeafefa57c74c4decbc4af3ce",
    ("post-relu", "fp", "semantic"):
        "1e7c18f5e47c5e91e880a91dfaa0b2cb21d9b01a232771e9cde040ebd27aebfb",
    ("post-relu", "fpc", "semantic"):
        "9db3f90c5bf00723d4c15978394fb707a2ce4ac933bc707a956292c2262acc84",
    ("post-relu", "f", "gc"):
        "a45adf0b58025fb75244db001a3e845bdef96c6d931deb96e04ab2f65276a3fd",
    ("pre-gelu", "base", "semantic"):
        "5ef66e558e71ac8d3ae9ceced14fa992a29502657382519bed7b3dfde2714266",
    ("pre-gelu", "f", "semantic"):
        "a49dc434aeff8b3eecdc3602fe762aa91306c6e1b68b3cbeb618856617349002",
    ("pre-gelu", "fp", "semantic"):
        "a054d5dd431750ac9da12f4a2fb397829c8df504b2857dd3c88fd04bd59ca6d8",
    ("pre-gelu", "fpc", "semantic"):
        "1642e4e445d48672016fae901e8277ba58a627be19bc1eb43e8a962d817655af",
    ("pre-gelu", "f", "gc"):
        "989f686407a1fa891af045626b39e4998829ac7a4b98b0c9f23f70d051febb11",
    ("sem-wide", "base", "semantic"):
        "c986a008f36ac6ba0e9d850ec01fb72cf84220368fd88e926b6aa6ceaf3e5cf4",
    ("sem-wide", "f", "semantic"):
        "0cfda46983f16e181ea645c41fbc40653d862849601690100519c8751c12462f",
    ("sem-wide", "fp", "semantic"):
        "d7ae69c2880f0d4825edeccde67c431919a0d1b95d5d66e8b927c7f4902565ac",
    ("sem-wide", "fpc", "semantic"):
        "b6b7c9de2fbc4781db2e39b9fc661f21b2452e9e82450d3e4b38d8fbbf5a3e41",
    ("sem-long", "base", "semantic"):
        "5e35a0e559e9cfc5cf808590f2e94f9e8d406680702862ec2970cbd7ff92a658",
    ("sem-long", "f", "semantic"):
        "25daf3ae806a4711b5690cf7b4844f33fcc900d3c72868cc6e5062c9add4943d",
    ("sem-long", "fp", "semantic"):
        "40851e56a564c2b88fee7573a14ca7eae3913dcfcd665275b76f6b3cf99dfd31",
    ("sem-long", "fpc", "semantic"):
        "0760243a43aaa66aae3f79b034897ac60bce8cee99b7908f584af9346984d817",
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
