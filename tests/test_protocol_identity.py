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
every interaction were checked equal to the runs before. Any change
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
        "00e6ba205b23f944b21674e3b2341870e5660df6bbbd7266bc6b058834f3d490",
    ("post-relu", "f", "semantic"):
        "3f3b0635424d1ea071d92f968e1a1687c4d352229d6053b8d8d521e9128d5acf",
    ("post-relu", "fp", "semantic"):
        "a6645ae7bdd008e0ac37187cdce7ff616db61bf4ba61fcf208e5c6443119a560",
    ("post-relu", "fpc", "semantic"):
        "56365d6f5c19b7d126147299d62cc021dde5e36a2855e89eeab7d73b115cbc17",
    ("post-relu", "f", "gc"):
        "e5d52aa4f823b60dc4d73a30759fa88ba151d96103c2f502fe253e0f74bcd652",
    ("post-relu", "fpc", "gc"):
        "8f1933e40b448b30497d11f0103fbbbd4e8acff43fd12520b57786ed9a80450c",
    ("pre-gelu", "base", "semantic"):
        "909acccd80b087465fa5cb76bd273c4216c3c01590b0f55c9b2cccbcc6bad0ab",
    ("pre-gelu", "f", "semantic"):
        "9071152ac1ef5b863636889bd9ec636db41babc2fdfac6b6ea90829731819784",
    ("pre-gelu", "fp", "semantic"):
        "952d01c54ced43c6682a21923b4ef4cbdec8d04b4a97754668929030e2817764",
    ("pre-gelu", "fpc", "semantic"):
        "72c770c9ca05173210f7c72fb7057c5fe43e425cdf550e06556ae9c2501d677d",
    ("pre-gelu", "f", "gc"):
        "257f1ee0e0f554b93f077bc56a616ea302b92b9bfb304187005c70f6f709da7f",
    ("pre-gelu", "fpc", "gc"):
        "2f905778f573039f6fd99426b5981bb5831d5bf9f0ae3b265dbd16e0b99482be",
    ("sem-wide", "base", "semantic"):
        "9b31c7a946bbb2fb56ee56f2e2fb8a1b45e03ae0ca3794edd5012bb0c0d8c7df",
    ("sem-wide", "f", "semantic"):
        "b3b5990f1b4166e6c7bf830828aeb92fe3695ce9488a053d7735adb79d12cce6",
    ("sem-wide", "fp", "semantic"):
        "612d5b77cdd64da878475de4b27329b22d63ba923943260384f89760b7da44fd",
    ("sem-wide", "fpc", "semantic"):
        "3f810b29156978923c2d6c9ad4bcf870b5eaf25d0f2aa4115a53a1ef69a87359",
    ("sem-long", "base", "semantic"):
        "761965e23b2cc2390a43a92f857e325febd9b64713f198e95908208f30d21582",
    ("sem-long", "f", "semantic"):
        "67cf40c83e99f876d83e9d9267f8638e4e6a94660a5621ec6336f85a74694a0b",
    ("sem-long", "fp", "semantic"):
        "5a9cc7144f991745e5ff3eecd0aff1ceaffaf763115c5cb9429436e91eabe473",
    ("sem-long", "fpc", "semantic"):
        "55d3ccf51afb0715837c4619a3cbc371d814975892abb42ec99b3993465bdc02",
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
