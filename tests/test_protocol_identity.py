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
and both logit shares were checked equal to the runs before. All 20
were re-pinned for HE counters alone when `sharing.enc_left_matmul`
moved to the diagonal method (D rotations, D plaintext products and D-1
additions per row, for the D nonzero diagonals of the plaintext, in
place of 2 log2 M + 3 ops per output entry): only `he_rotate`,
`he_mul_plain` and `he_add` moved, in QxK and AttenValue; both logit
shares, every message, the bytes per (sender, step, phase, kind) and
every interaction were checked equal to the runs before. All 20 were
re-pinned for AND gates alone when `fixedfn.normalize` moved from one-bit
steps to halving steps on `is_zero`: `gc_and_gates` and `gc_table_bytes`
fell in SoftMax and Others, and with them the online bytes; both logit
shares, every other counter, every message and every interaction were
checked equal to the runs before. Any change
to a counter, message, byte or share of these runs changes a digest. A
deliberate protocol change updates the table and says why in CHANGES.md.

The digests count gates but do not see their wiring, so STAGE_DIGESTS
pins each distinct secure-stage circuit of the four configs: one sha256
over its gates' op, lhs and rhs and its output wires. They were taken
before `mul` dropped its sign-extended rows for shifted copies, a
refactor that moved no gate. A change to how circuits are built that
must keep them gate for gate shows it here. The six layer-norm and three
softmax digests were re-pinned when `normalize` (inside `rsqrt` and
`reciprocal`) moved to halving steps; gelu, relu and both truncations
held.
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
        "32cef59b7db2073a7b42a880a02e6d929e84a551165149db53ada52a93bb38e0",
    ("post-relu", "f", "semantic"):
        "748cd06554867a5b610cbc464769c936052e62e396a6246defda1c36cd708702",
    ("post-relu", "fp", "semantic"):
        "401713f20865c28ec4968ad3beb074f5e3f34922e3c0876c36890e71bb183c71",
    ("post-relu", "fpc", "semantic"):
        "9f7ce8ab8d7e97ecb922517c913e544a43edc060727bcc3dc37919029defc3da",
    ("post-relu", "f", "gc"):
        "81ca6432e43f06e352908d522b8b32ae3cd90bf2b0157470636f668fbcbacaf8",
    ("post-relu", "fpc", "gc"):
        "3a12c566a01b89fedc0e5dd5f4199a446a6b52ff3887ba786ad3b7b839f95f06",
    ("pre-gelu", "base", "semantic"):
        "ff474315dd2e83d674bf990e5885045c5dbcfe520cb3eb8821280f9b13396e39",
    ("pre-gelu", "f", "semantic"):
        "2fb646f5061e8c2b657e80aed4ee819287c73db68fe60a894a6f5e035aa061d4",
    ("pre-gelu", "fp", "semantic"):
        "758d95146300fcec5f7746639a590338e53ab7bd9ae1b84b795cebc56b1cf976",
    ("pre-gelu", "fpc", "semantic"):
        "90fa71c9141107a7c3f1b38b2891d42816cb7d6c8740ef1bee88c2a5ae5702dc",
    ("pre-gelu", "f", "gc"):
        "f008db2a842dbf72748311a06bd0f8c01a7fb55a7735e507ba4db196c0b8f109",
    ("pre-gelu", "fpc", "gc"):
        "f3773fbdb7ebbadc44f6189eb58eb9ecc693073b5475a790db423b7a11dc947c",
    ("sem-wide", "base", "semantic"):
        "b618d849bd4d1465795a41d5867daad0f0b0157ee4b5c522f0577ebbf8b3cc79",
    ("sem-wide", "f", "semantic"):
        "58830f5ac13098ce5a6176baeb3449a6ef90a4ea96f65015000689e2367ebd8c",
    ("sem-wide", "fp", "semantic"):
        "06440aca87771de7205d9da01becc56c1939d0eb45d3baf5740de9ec8b305fbf",
    ("sem-wide", "fpc", "semantic"):
        "26821595e3407f23df7fd7a1efd7877c3057f9de2e03a50174d1770e8badd58c",
    ("sem-long", "base", "semantic"):
        "28ce34b542535d96821e44cfff1d6ee1b23b540fe28149c2622e513e6aa8920e",
    ("sem-long", "f", "semantic"):
        "c84ac18902139a033dd07c607bedf870a222412ba15c71bcbcfbe62e1136e504",
    ("sem-long", "fp", "semantic"):
        "a564c7532fed08821677669eb634fa9925c07d080c97c625ec2c7e35365b6a93",
    ("sem-long", "fpc", "semantic"):
        "193e998ba17d62953aae114b01d51749a14b0e075e474c47b17be1db502fd0bd",
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
    ("layernorm_row", 8, 0): "90d2d321138f96c00f3b7b5c83a25f849c50b076e26c9fffff984b5fce76ad81",
    ("layernorm_row", 8, 8): "fed5bae7497721b211ac4f8ab1768a1a58a414e686cb3bc4d6a60900345af7f3",
    ("layernorm_row", 8, 24): "229e4e121042057d15b9b839cd8f495c03d65ec6487d889ad9d7f2435e08f725",
    ("layernorm_row", 32, 0): "4473d00aa962bdd99235c5b0bfe68e6213fbdc3dcc5a3c8f5286032ba6eda8d5",
    ("layernorm_row", 32, 8): "94cd8fec5d2002beb9c2bb12db2a88b641aacb3f68e6560c6b1cf45d3f6d0530",
    ("layernorm_row", 32, 24): "1032dc91a93587fdc14b98b288cbe9ade6497c45c7c446c02a01090d0bd7f050",
    ("relu", 1, 8): "ac98ca5fe414f612838039821712b107706784945d0fb75d21259d64a3219ef0",
    ("softmax_row", 4, 32): "4119231e8056163e3e49308dc8f163bf4b7714920a3cddd269b7918e39b14f89",
    ("softmax_row", 8, 32): "18e4863738068583ed986cb02fa2835e7f5e642fc50abac19ae40268c45f4c64",
    ("softmax_row", 16, 32): "44a30ee7efc2f8aa40b303cfc61fbc51e62387c6dc3a352895031a7f0a719d74",
    ("trunc", 1, 8): "8a208f5f924a78da2037c44574cd25732c65a45d7bf8528f7f668c2ba9ca7497",
    ("trunc", 1, 24): "5a6ec55537c232155fa5f92ba2db5258e1ef0cad7244ebb693824cbf5f38fb5f",
}
STAGE_SPECS = {
    (s.fn, s.count, s.shift): s
    for cfg, _ in CONFIGS.values()
    for s in (model.softmax_spec(cfg), model.act_spec(cfg), model.norm_spec(cfg),
              model.close_spec(cfg, 3 * cfg.ring.frac_bits),
              model.close_spec(cfg, cfg.ring.frac_bits))
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
