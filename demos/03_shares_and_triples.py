"""
Additive shares and multiplication triples
==========================================

The protocol's workhorse is the additive share: x split into two uniform
ring words that only sum to x jointly. Linear ops happen share-locally;
products need a precomputed triple. This script shows both, ending with
the masked Q*K^T product used inside attention.
"""

# %%
import numpy as np

from privtrans.costs import CostReport, Transcript
from privtrans.engine import MaterialMissing, Server
from privtrans.model import ModelConfig, random_weights
from privtrans.ring import DEFAULT_RING, FixedTensor, mat_mul
from privtrans.sharing import make_product_triple, rand_ring
from privtrans.she import HEParams, keygen

rng = np.random.default_rng(42)
x = FixedTensor.from_float(np.array([[1.5, -2.0], [0.25, 8.0]]), DEFAULT_RING)

# %%
# One share is a uniform ring mask r; the other is x - r. Each share
# alone is indistinguishable from noise.
r = rand_ring(x.shape, rng, DEFAULT_RING)
a, b = x - r, r
print("client share:\n", a.data)
print("server share:\n", b.data)
print("reconstructed:\n", (a + b).to_float())

# %%
# Addition of shares is addition of secrets; no communication at all.
# Public scalars multiply share-locally the same way.
y = FixedTensor.from_float(np.array([[10.0, 10.0], [10.0, 10.0]]), DEFAULT_RING)
yr = rand_ring(y.shape, rng, DEFAULT_RING)
ya, yb = y - yr, yr
print("x + y:\n", ((a + ya) + (b + yb)).to_float())
print("3 * x:\n", (a.scalar_mul(3) + b.scalar_mul(3)).to_float())

# %%
# Products need help: a multiplication triple fixes masks (Rl, Rr) and
# carries Enc(Rl), Enc(Rr), Enc(Rl*Rr) so the cross terms of
# (Q - Rl)(K - Rr) can be assembled without ever multiplying two
# ciphertexts.
key = keygen(HEParams(slots=8), seed=1)
q = FixedTensor(rng.integers(0, 1 << 62, (3, 4), dtype=np.uint64), DEFAULT_RING)
k = FixedTensor(rng.integers(0, 1 << 62, (3, 4), dtype=np.uint64), DEFAULT_RING)
r = FixedTensor(rng.integers(0, 1 << 64, (3, 4), dtype=np.uint64), DEFAULT_RING)

report = CostReport()
with report.at("QxK", "offline"):
    triple = make_product_triple(r, r.transpose(), key, report=report)
print(f"triple built with {report.total('he_enc')} encryptions and no ct x ct product")

# %%
# The full masked product runs inside an engine session (see demo 05);
# here we just check the algebra the triple enables:
#   QK^T = (Q-R)(K-R)^T + R(K-R)^T + (Q-R)R^T + RR^T
qm, km = q - r, k - r
lhs = (
    mat_mul(qm, km.transpose())
    + mat_mul(r, km.transpose())
    + mat_mul(qm, r.transpose())
    + mat_mul(r, r.transpose())
)
assert lhs == mat_mul(q, k.transpose())
print("masked-product algebra reconstructs Q*K^T exactly")

# %%
# Triples are single-use: the mask would leak if two different masked
# values reused it. The server keeps each triple in its material store
# under a module id, and taking an item pops it, so a second take fails.
# The server is built from the model it serves: it holds the weights,
# and bills its work into the session's transcript.
cfg = ModelConfig(N=1, d_emb=4, H=1, n=3, d_oh=4, d_ff=4)
server = Server(np.random.default_rng(7), cfg, random_weights(cfg, np.random.default_rng(7)),
                Transcript())
server.keep("b0.qk.h0", triple)
print("server store holds:", sorted(server.material))
assert server.take("b0.qk.h0") is triple
try:
    server.take("b0.qk.h0")
except MaterialMissing as e:
    print("second take refused:", e)
else:
    raise AssertionError("a triple was taken twice")
