"""
Four protocol modes, one transformer block
==========================================

The engine runs the same transformer forward pass under four protocols
that differ only in where the masking work happens. This script runs a
toy model through all of them, checks every reconstruction against the
plaintext fixed-point reference, and compares what each mode pays
online.
"""

# %%
import numpy as np

from privtrans.engine import MODES, audit_server_ignorance, run_protocol
from privtrans.model import ModelConfig, random_weights, reference_forward
from privtrans.transcript import STEPS, ChannelModel, estimate_latency

cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
weights = random_weights(cfg, np.random.default_rng(5))
tokens = [3, 1, 4, 1]
ref = reference_forward(cfg, weights, tokens)
print(f"model: {cfg.N} block(s), d_emb={cfg.d_emb}, {cfg.H} heads, {cfg.n} tokens")

# %%
# Every mode reconstructs the same logits, bit for bit. The modes only
# move cost between the offline and online phases.
results = {}
for mode in MODES:
    res = run_protocol(mode, cfg, weights, tokens, seed=11)
    assert res.reconstruct() == ref, mode
    results[mode] = res
print("all four modes reconstruct the reference exactly")

# %%
# The online interaction bill per step. The fused embedding-to-attention
# prefix costs 4 interactions in mode f and collapses to 1 in mode fpc.
prefix = ("Embed", "QKV", "QxK")
header = f"{'step':12s}" + "".join(f"{m:>8s}" for m in MODES)
print(header)
for step in STEPS:
    row = [results[m].transcript.interactions(step, "online") for m in MODES]
    print(f"{step:12s}" + "".join(f"{v:8d}" for v in row))
for m in ("f", "fpc"):
    total = sum(results[m].transcript.interactions(s, "online") for s in prefix)
    print(f"prefix total in mode {m}: {total}")

# %%
# Online HE operations per step: the baseline generates masks with HE
# while the client waits; the other modes did that work offline.
print(f"{'step':12s}" + "".join(f"{m:>8s}" for m in MODES))
for step in STEPS:
    row = [results[m].merged_report().he_ops(step, "online") for m in MODES]
    print(f"{step:12s}" + "".join(f"{v:8d}" for v in row))

# %%
# Bytes on the wire feed a simple latency model: per-interaction delay
# plus transfer time. No wall clocks involved; every number is replayable
# from the transcript.
ch = ChannelModel()  # 2.3 ms round trip, 100 MB/s
print(f"{'mode':6s}{'online bytes':>14s}{'modeled online s':>18s}")
for mode in MODES:
    t = results[mode].transcript
    est = estimate_latency(t, ch)
    print(f"{mode:6s}{t.bytes_sent(None, 'online'):14d}{est['online_s']:18.6f}")

# %%
# The HE key lives on the client's state. The audit walks the server's
# state and returns the path of any key or client state it can reach, so
# empty means clean (every run also checks this before it returns).
for mode, res in results.items():
    assert audit_server_ignorance(res.session.server) == []
print("server-ignorance audit clean for all modes")
