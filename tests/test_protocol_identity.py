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
