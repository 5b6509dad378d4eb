"""
Nonpolynomial stages under garbled circuits
===========================================

Softmax, GELU, layer norm and truncation cannot be expressed as ring
polynomials, so the protocol evaluates them as boolean circuits: the
shares enter, a fresh mask comes out, and neither party sees the value
in between. A semantic backend runs the identical stage on plain words
for fast testing; the GC backend garbles, transfers labels by oblivious
transfer (IKNP extension over 128 base OTs, run once per session), and
must agree bit for bit.
"""

# %%
import numpy as np

from privtrans.costs import CostReport
from privtrans.ot import ExtReceiver, ExtSender
from privtrans.ring import DEFAULT_RING
from privtrans.securefn import SecureFnSpec, eval_secure, plain_apply

F = DEFAULT_RING.frac_bits
rng = np.random.default_rng(3)


def new_session_ot(client_rng, server_seed):
    """A fresh session's oblivious transfer: the client's side draws from
    the client's generator, the server's side from its own."""
    return dict(ot_sender=ExtSender(client_rng),
                ot_receiver=ExtReceiver(np.random.default_rng(server_seed)))


# %%
# A spec names the stage and how many ring words travel together per lane
# (a softmax row needs its whole row at once). Every share is a 64-bit ring
# word, so the circuit is 64 bits wide on each input.
spec = SecureFnSpec("softmax_row", count=4)
vals = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
raw = (vals * (1 << F)).astype(np.int64).view(np.uint64)

# %%
# Split into shares, evaluate, reconstruct. The secure path matches the
# stage run on plain words, which itself tracks real softmax closely. Every
# stage is billed: it takes the report it bills, whose transcript logs its
# messages, the pipeline step it belongs to, and both parties' sides of
# the session's oblivious transfer.
xc = rng.integers(0, 1 << 64, raw.shape, dtype=np.uint64)
xs = raw - xc
report = CostReport()
t, rng_c = report.transcript, np.random.default_rng(1)
c, s = eval_secure(spec, xc, xs, rng_c, report=report, step="SoftMax",
                   **new_session_ot(rng_c, 5))
got = DEFAULT_RING.to_signed(c + s).astype(np.float64) / (1 << F)
print("secure softmax:\n", got)
ref = np.exp(vals) / np.exp(vals).sum(axis=1, keepdims=True)
print("real softmax:\n", ref.round(4))
print("max error:", float(np.abs(got - ref).max()))

# %%
# The GC backend garbles the same stage as a circuit. The output masks are
# the first draw from the rng, so with equally seeded rngs semantic and
# garbled runs are indistinguishable. The evaluator's side of the oblivious
# transfer draws from its own generator: one derived from the garbler's
# would let the garbler recompute the evaluator's choice bits. A session
# runs its 128 base OTs in its first stage only; each run below is a
# fresh session, so each pays for them.
relu = SecureFnSpec("relu")
raw_r = rng.integers(0, 1 << 64, (6, 1), dtype=np.uint64)
xc_r = rng.integers(0, 1 << 64, raw_r.shape, dtype=np.uint64)
xs_r = raw_r - xc_r
rng_c = np.random.default_rng(2)
c_sem, s_sem = eval_secure(relu, xc_r, xs_r, rng_c, report=report, step="Others",
                           **new_session_ot(rng_c, 4))
report_gc, rng_c = CostReport(), np.random.default_rng(2)
t_gc = report_gc.transcript
c_gc, s_gc = eval_secure(relu, xc_r, xs_r, rng_c, backend="gc", report=report_gc,
                         step="Others", **new_session_ot(rng_c, 4))
assert np.array_equal(c_sem, c_gc) and np.array_equal(s_sem, s_gc)
print("gc backend == semantic backend on relu lanes")

# %%
# Each run leaves an audit trail: tables and OT messages land in the
# transcript and AND gates in the report, so the cost of a stage is
# measurable, not guessed. Both backends bill the same: the semantic
# backend models the garbled run's bytes.
print(f"gc bytes for 6 relu lanes: {t_gc.bytes_sent('Others', 'online')}")
assert t.bytes_sent("Others", "online") == t_gc.bytes_sent("Others", "online")
print(f"softmax AND gates: {report.get('SoftMax', 'offline', 'gc_and_gates')}")

# %%
# plain_apply is the reference path: the circuit's stage code on plain
# words, without shares or masks, useful for tolerance studies. The semantic backend
# is this reference on the reconstructed words, minus the client's mask.
plain = plain_apply(spec, raw)
assert np.array_equal(plain, c + s)
print("plain_apply agrees with the reconstructed secure run")
