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
logit shares and every online cost held. All 20 were re-pinned for
online message counts alone when every attention product took one path
(`Server.product`, then `Session._reveal`): a block's QxK and AttenValue
each send all heads' rows in one server message, not one per head. Both
CostReports, the bytes per (sender, step, phase, kind), every interaction
and both logit shares were checked equal to the runs before. Any change
to a counter, message, byte or share of these runs changes a digest. A
deliberate protocol change updates the table and says why in CHANGES.md.

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
        "92cf6bbb2c302bc81cb37350a5fccb2edc3b5983fbf636d83adfd45d7a9a9d4d",
    ("post-relu", "f", "semantic"):
        "265aba54a26363bf339f1a136ff16312a88e25411d452e6cc5c71c52ce10b79c",
    ("post-relu", "fp", "semantic"):
        "8a415ed6bb9e3cdafe338886923c5871d582bcdef22fdbdc4734c579dad62dc9",
    ("post-relu", "fpc", "semantic"):
        "cfd6920f0642d794c35bc347a9321c721dcfc21b28d7883b5a1d7e6aee2af560",
    ("post-relu", "f", "gc"):
        "44645c2566dd535482d674a0939911b22baf449893fe35148d62bb9b78f5ea97",
    ("post-relu", "fpc", "gc"):
        "fbe11a6dcedb49c0e07b35d500728d2bb2ca7fd9dadd7a188e0a38a9195a2bcf",
    ("pre-gelu", "base", "semantic"):
        "e1bea6c83a97e71e209c60214b2b39b79af318190f43dff4f07392f8557e6375",
    ("pre-gelu", "f", "semantic"):
        "2b96c8f41b8953b65519097310950c9530bc0ed5f3f9eb4d6a4f66e6dbf59e59",
    ("pre-gelu", "fp", "semantic"):
        "b4922f8c536e51c94caf312cc5865157517e57bbc6351e4c2e7f365b977a5b7e",
    ("pre-gelu", "fpc", "semantic"):
        "a137aa186dd2359f900a62ebee9d7fbbd902782237d801413bd7b4f69fd83d55",
    ("pre-gelu", "f", "gc"):
        "1f81a18acf038b905fb95049b0c78fa9bea97ddbbf1a83558e31a633bb996988",
    ("pre-gelu", "fpc", "gc"):
        "bf94b9fe14e5cbf81b6591419da4c126f9b6ece8162697d8642e021a61dc6ec8",
    ("sem-wide", "base", "semantic"):
        "fb0bdbd5e1694179448fe0c669d5d808bed24619d7835407c1faab9817cf314b",
    ("sem-wide", "f", "semantic"):
        "86b08d5218ecebfe2e5821e166454bd0241db4364343d5726921fccbe7e07f63",
    ("sem-wide", "fp", "semantic"):
        "4c49b04309deff99f85b35a96add42417946af38c9d85a328d7b08cbf20aa259",
    ("sem-wide", "fpc", "semantic"):
        "6187038fe0845ca04df5ef4585bbdf5347e912ea5c02de3b92801be285effb58",
    ("sem-long", "base", "semantic"):
        "bdcfa7a276a87d572c32e0059402f3f6be55c7942f59b46882250ab31d3ebf0d",
    ("sem-long", "f", "semantic"):
        "2a2c2940cb501247150b921cd36fa255540a3a40ffb42f28bd3d58f7cf96bd57",
    ("sem-long", "fp", "semantic"):
        "1a3546a8dcbb0e479fdd89d7dae81d925cb96f9b8ce930e234657ee4145f0ca8",
    ("sem-long", "fpc", "semantic"):
        "092b249c9afe5312ee4a91abe8a40903fa058699ec46ca673e4b2d8809185c38",
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
