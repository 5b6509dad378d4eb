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
reconstructed logit stayed. All 20 were re-pinned for message order
alone when every plaintext-weight module took one path (`_modules`) and
no material was made inside an online scope any more: Embed's second
mask exchange now follows its first remask, QKV's remask precedes QxK's
triples, and AttenValue's triples precede its products. The same recipe
with the `to_jsonl()` lines sorted was equal before and after in all 20
runs, so every counter, message, byte, interaction and logit share held.
The 6 fpc digests were re-pinned when the fused prefix began from
weights merged at set-up (each head's Enc(R_e B_h) is one product
Enc(Rc0) A_h, and a block with no input map multiplies by no identity)
and the first fused block sent its Enc(Rc0) once, for the values and X1
in one QKV exchange: offline HE counters, Embed's and QKV's offline
messages, bytes and interactions moved; each merged product gave the
words of the two-step product it replaced, both parties' rng draws, both
logit shares and every online cost held. Any change to a counter,
message, byte or share of these runs changes a digest. A deliberate
protocol change updates the table and says why in CHANGES.md.

The digests count gates but do not see their wiring, so STAGE_DIGESTS
pins each distinct secure-stage circuit of the four configs: one sha256
over its gates' op, lhs and rhs and its output wires. They were taken
before `mul` dropped its sign-extended rows for shifted copies, a
refactor that moved no gate. A change to how circuits are built that
must keep them gate for gate shows it here.
"""

import hashlib
import json

import numpy as np
import pytest

from privtrans import ModelConfig, model, random_weights, run_protocol
from privtrans.securefn import build_secure_circuit

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
        "803ede93f170a1a9d0d84de752a20c92abc25e3d6d624272282377f5fcfbfd2f",
    ("post-relu", "f", "semantic"):
        "d8c193b41a8738c79aab42c08533600798df568be2029bab0ff455c04f2ed901",
    ("post-relu", "fp", "semantic"):
        "c87aa5b8bc5e81b103847f60b164899c352c255198449db90a9d8f46f6c0dd03",
    ("post-relu", "fpc", "semantic"):
        "a84b7338fd0c50da1f36ca5192f7e0b2c9323ff24bd755d950f1157c035a7fbd",
    ("post-relu", "f", "gc"):
        "73d3ab129fbb15014f26afb6980304060d97f816a4bb8b48a270fcb5c5546a60",
    ("post-relu", "fpc", "gc"):
        "d984dcd5b22d2c46dd6d2ab6bba24218a894dd2fe515a0b29512116fbdc754b4",
    ("pre-gelu", "base", "semantic"):
        "e7cbea111fe79740c3258cff5e427da91e5f5bdc3fc0ec80bfd84d9a98b94885",
    ("pre-gelu", "f", "semantic"):
        "a5772cdb6f01d7ab013567bff040a50c07b8c32f959eedbeb6021d13fde1ea21",
    ("pre-gelu", "fp", "semantic"):
        "071a1a45be8281240e9b72841211ad14b0aa0417b5a712579bec2197876b0b84",
    ("pre-gelu", "fpc", "semantic"):
        "121417eb0c747737c28c0622cf7977df466ba4eb23947cff3a8b72afe77e5ddc",
    ("pre-gelu", "f", "gc"):
        "06578b6555aa2cc004fae39924b79133aef1c2229e9023d761327ed21f077c33",
    ("pre-gelu", "fpc", "gc"):
        "21b7ba965b4c43f55041b2c040790360fb04107d635237a2b76311e0735391e4",
    ("sem-wide", "base", "semantic"):
        "ce8090d9a76803305cdbc8603ecb175d21c81b9ba370824389f189421710ef4a",
    ("sem-wide", "f", "semantic"):
        "5b68bbfafb1d4340b01bc3b7346ce64ba2cea8859f74f58818e73ba0ccf79f6d",
    ("sem-wide", "fp", "semantic"):
        "8b2f827fa836fe589d6f7b1f9acb48683821371883e659b5211cc5f6b277446e",
    ("sem-wide", "fpc", "semantic"):
        "24003e6230ab5753001acccb25cf75717d1929101d2dc3cedf1d799b7c63d6f9",
    ("sem-long", "base", "semantic"):
        "c872f8bf3cf739a21d0a3ce9fc38c29964bd8d5a93903e66ba9423edce5e0439",
    ("sem-long", "f", "semantic"):
        "dbd70030ec2a53b68444b4bfc63ca2046a0ebcb0d16a3d00c124074455782786",
    ("sem-long", "fp", "semantic"):
        "38eff6080f2de785eebdf0e1fe4618118c735d170e257ac859d81068775e7051",
    ("sem-long", "fpc", "semantic"):
        "c51e13d868e58ff905510abfa86a5564ebbd5adfc555ee32f9bdaed299ad6ff5",
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


# (fn, count, shift) -> sha256 of the stage circuit
STAGE_DIGESTS = {
    ("gelu", 1, 8): "babc663fe3fc5f4825d92b2d7994056f8dc7234e46f9f703cb75191e2c296bff",
    ("layernorm_row", 8, 0): "95316b03cefea19e8a27c4990f5742e11c19f5453b6c72593ba165546ff0ed8b",
    ("layernorm_row", 8, 8): "6acc815deaf4a46a4ce5f3ce5a216dfb674765655f864ef52b572ae867c8f964",
    ("layernorm_row", 8, 24): "ecb2e4d8679b7f75ebc68cf6f58d969d4458f4087ed2530e764ae6615da6f92e",
    ("layernorm_row", 32, 0): "76b501ded67ef0ee07ca484f115f8488311b753b3eaf2ecc6d53d8f30084a187",
    ("layernorm_row", 32, 8): "ef245b24697274596eeedd63b02aed0d2fb10f72d06b3704fc3b745241456882",
    ("layernorm_row", 32, 24): "6566f7ff6fb080d5d95c3f78804c98ad16e7bbbb2aa002ccbbbd7832a6ea4232",
    ("relu", 1, 8): "ac98ca5fe414f612838039821712b107706784945d0fb75d21259d64a3219ef0",
    ("softmax_row", 4, 32): "79e9e2cd5f20a6f9009b14564513d6f67d4592e63e16b1a4db5fa018b7474805",
    ("softmax_row", 8, 32): "8341d9fb45d01f142106b782d42ade0bcc5963ce6129af0c02b704e1dbccbac8",
    ("softmax_row", 16, 32): "50ecd06e643f6cf5d8763a248aedf11fd39c1a2609e87afb271ca2cd71d3f1f6",
    ("trunc", 1, 8): "8a208f5f924a78da2037c44574cd25732c65a45d7bf8528f7f668c2ba9ca7497",
    ("trunc", 1, 24): "5a6ec55537c232155fa5f92ba2db5258e1ef0cad7244ebb693824cbf5f38fb5f",
}
STAGE_SPECS = {
    (s.fn, s.count, s.shift): s
    for cfg, _ in CONFIGS.values()
    for s in (f(cfg) for f in (model.softmax_spec, model.act_spec, model.ln_attn_spec,
                               model.ln_ffn_spec, model.trunc_attn_spec, model.trunc_ffn_spec,
                               model.final_ln_spec))
}


def test_stage_digests_cover_every_stage_of_the_configs():
    assert set(STAGE_SPECS) == set(STAGE_DIGESTS)


@pytest.mark.parametrize("key", sorted(STAGE_DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_stage_circuit_matches_pinned_digest(key):
    circ = build_secure_circuit(STAGE_SPECS[key])
    h = hashlib.sha256()
    for wires in (circ.op, circ.lhs, circ.rhs, np.array(circ.outputs, dtype=np.int32)):
        h.update(np.ascontiguousarray(wires).tobytes())
    assert h.hexdigest() == STAGE_DIGESTS[key]
