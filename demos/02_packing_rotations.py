"""
Ciphertext packing and the rotation bill
========================================

An encrypted matrix is a stream of slot vectors. How you lay the matrix
into slots decides how many homomorphic rotations a matmul costs:
features-first pays c*M rotations with the packed matmul, tokens-first
only c*ceil(M/n). This script packs the same matrix both ways and reads
the bill off the cost report.
"""

# %%
import numpy as np

from privtrans.costs import CostReport
from privtrans.packing import (
    PackingLayout,
    PackingStrategy,
    he_matmul,
    pack,
    plan_layout,
    predicted_rotations,
    unpack,
)
from privtrans.ring import DEFAULT_RING, FixedTensor
from privtrans.she import HEParams, keygen

n, d, slots = 8, 16, 64  # tokens, features, slots per ciphertext
key = keygen(HEParams(slots=slots), seed=7)
rng = np.random.default_rng(0)
x = FixedTensor(rng.integers(0, 1 << 10, (n, d), dtype=np.uint64), DEFAULT_RING)
w = FixedTensor(rng.integers(0, 1 << 10, (d, d), dtype=np.uint64), DEFAULT_RING)

# %%
# Both layouts need the same ciphertext count c = ceil(n*d / M); they
# differ only in which axis varies fastest inside a slot vector.
for strategy in PackingStrategy:
    layout = PackingLayout(strategy, n, d, slots)
    print(f"{strategy.value:15s} c={layout.c} predicted rotations={predicted_rotations(layout)}")

# %%
# Run the encrypted matmul under each layout and compare the measured
# rotation count against the prediction. Results decrypt identically.
results = {}
for strategy in PackingStrategy:
    layout = PackingLayout(strategy, n, d, slots)
    report = CostReport()
    with report.at("Others", "offline"):
        cts = pack(x, layout, key, report)
        out, layout_out = he_matmul(cts, layout, w, report)
        results[strategy] = unpack(out, layout_out, key.secret(), DEFAULT_RING, report)
    print(f"{strategy.value:15s} measured rotations={report.total('he_rotate')}")
assert results[PackingStrategy.FEATURES_FIRST] == results[PackingStrategy.TOKENS_FIRST]

# %%
# plan_layout picks whichever strategy predicts fewer rotations; with
# n <= M that is tokens-first whenever ceil(M/n) < M.
chosen = plan_layout(n, d, slots)
print(f"planner picks {chosen.strategy.value} "
      f"(saves {predicted_rotations(PackingLayout(PackingStrategy.FEATURES_FIRST, n, d, slots)) - predicted_rotations(chosen)} rotations)")
