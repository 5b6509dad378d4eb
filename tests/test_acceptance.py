"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Run with pytest -v; each verdict line below is the pass/fail report for
one claim. The claims, in test order:

 1. every protocol mode reconstructs the plaintext fixed-point reference
    bit-exactly on the small config grid, and on the GC backend too; the
    whole sweep finishes inside five minutes
 2. the masked Q*K^T product is exact over 100 seeds, and the HE layer
    offers no ct x ct product (he_add is its only two-ciphertext op)
 3. precomputation leaves the online phase HE-free for every weight
    layer; the baseline mode pays online HE on the same steps
 4. the fused embedding-to-attention prefix costs exactly 4 online
    interactions in mode f and exactly 1 in mode fpc
 5. naive-kernel rotations: features-first exactly c*M, tokens-first
    exactly c*ceil(M/n); the measured saving matches c*(M - M/n)
 6. secure softmax tracks real softmax within 2^-5 per element, rows
    sum to 1 within 2^-5 * n, and the GC backend reconstructs exactly
    what the semantic backend does at 16-bit lanes
 7. masked client messages are uniform mod 2^8 (chi-square, 1e5 samples)
 8. the server-ignorance audit is clean on every run in this file
 9. modeled latency is linear in bytes and interactions; the default
    channel prices one interaction plus 1 MB at exactly 0.0123 s
"""

import time

import numpy as np
from scipy import stats

from privtrans.costs import CostReport
from privtrans.engine import MODES, Session, audit_server_ignorance, run_protocol
from privtrans.model import ModelConfig, random_weights, reference_forward
from privtrans.ot import ExtReceiver, ExtSender
from privtrans.packing import PackingLayout, PackingStrategy, he_matmul, pack, unpack
from privtrans.ring import DEFAULT_RING, FixedTensor
from privtrans.securefn import SecureFnSpec, eval_secure
from privtrans.sharing import make_product_triple, rand_ring
from privtrans.she import HEParams, keygen
from privtrans.transcript import ChannelModel, Transcript, estimate_latency

import oracles
from test_she import ciphertext_pair_ops

F = DEFAULT_RING.frac_bits

GRID = [
    dict(N=N, d_emb=d, H=H, n=n, d_oh=24, d_ff=d)
    for N in (1, 2)
    for d in (8, 16)
    for H in (1, 2)
    for n in (1, 4, 8)
]

# every run in this file lands here as (label, audit findings); claim 8
# asserts the whole log is clean
_AUDIT_LOG: list[tuple[str, list]] = []


def _run(mode, cfg, weights, tokens, seed, **kw):
    res = run_protocol(mode, cfg, weights, tokens, seed, **kw)
    label = f"{mode} N={cfg.N} d={cfg.d_emb} H={cfg.H} n={cfg.n} {kw.get('backend', 'semantic')}"
    _AUDIT_LOG.append((label, audit_server_ignorance(res.session.server)))
    return res


def ot_sides(seed):
    """A fresh session's OT: the client's and the server's sides, each with
    its own generator."""
    return dict(ot_sender=ExtSender(np.random.default_rng([seed, 0])),
                ot_receiver=ExtReceiver(np.random.default_rng([seed, 1])))


def rand_mat(rng, shape):
    return FixedTensor(rng.integers(0, 1 << 64, size=shape, dtype=np.uint64), DEFAULT_RING)


def test_1_every_mode_matches_the_reference_on_the_grid():
    t0 = time.monotonic()
    for i, kw in enumerate(GRID):
        cfg = ModelConfig(**kw)
        rng = np.random.default_rng(1000 + i)
        w = random_weights(cfg, rng)
        tokens = rng.integers(0, cfg.d_oh, size=cfg.n).tolist()
        ref = reference_forward(cfg, w, tokens)
        for mode in MODES:
            got = _run(mode, cfg, w, tokens, seed=2000 + i).reconstruct()
            assert got == ref, (mode, kw)

    # GC backend on one representative config, every mode bit-exact
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    w = random_weights(cfg, np.random.default_rng(77))
    tokens = [5, 0, 11, 7]
    ref = reference_forward(cfg, w, tokens)
    for mode in MODES:
        got = _run(mode, cfg, w, tokens, seed=31, backend="gc").reconstruct()
        assert got == ref, (mode, "gc")

    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0, f"sweep took {elapsed:.1f}s, budget is 300s"
    print(f"pass: {len(GRID)} configs x 4 modes bit-exact, gc too; {elapsed:.1f}s")


def test_2_masked_qk_product_exact_over_100_seeds():
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    s = Session(cfg, random_weights(cfg, np.random.default_rng(0)), "f", seed=99)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, k = rand_mat(rng, (4, 6)), rand_mat(rng, (4, 6))
        rc = rand_mat(rng, (4, 6))
        s.server.keep(f"b{seed}.qk.h0", make_product_triple(rc, rc.transpose(), s.client.key,
                                                                  s.client.report))
        s_share, c_share = s._reveal([s.server.product(f"b{seed}.qk.h0", q - rc,
                                                       (k - rc).transpose())])
        want = oracles.matmul_mod(q.data.tolist(), k.transpose().data.tolist(), 64)
        assert (c_share + s_share).data.tolist() == want, seed
    pair_ops = ciphertext_pair_ops()
    assert pair_ops == ["he_add"], pair_ops
    _AUDIT_LOG.append(("fhgs_qk x100", audit_server_ignorance(s.server)))
    print("pass: 100 seeded 4x6 Q*K^T products exact, no ct x ct product in the HE layer")


def test_3_online_phase_is_he_free_for_weight_layers():
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    w = random_weights(cfg, np.random.default_rng(6))
    steps = ("Embed", "QKV", "Others")
    for mode in ("f", "fp", "fpc"):
        rep = _run(mode, cfg, w, [0, 1, 2, 3], seed=2).merged_report()
        for step in steps:
            assert rep.he_ops(step, "online") == 0, (mode, step)
    assert ciphertext_pair_ops() == ["he_add"]
    base = _run("base", cfg, w, [0, 1, 2, 3], seed=2).merged_report()
    counts = {step: base.he_ops(step, "online") for step in steps}
    assert all(v > 0 for v in counts.values()), counts
    print(f"pass: f/fp/fpc online HE = 0 on {steps}; base pays {counts}")


def test_4_fused_prefix_interaction_counts():
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    w = random_weights(cfg, np.random.default_rng(4))
    prefix = ("Embed", "QKV", "QxK")

    t_f = _run("f", cfg, w, [1, 2, 3, 4], seed=8).transcript
    got_f = sum(t_f.interactions(s, "online") for s in prefix)
    assert got_f == 4, got_f

    t_c = _run("fpc", cfg, w, [1, 2, 3, 4], seed=8).transcript
    got_c = sum(t_c.interactions(s, "online") for s in prefix)
    assert got_c == 1, got_c
    print("pass: prefix online interactions: mode f = 4, mode fpc = 1")


def test_5_naive_kernel_rotation_counts_and_saving():
    # d chosen so the first pair packs into c = 2 ciphertexts and the rest
    # into c = 1; n | M for all three, so the ceil slack is zero
    cases = [(16, 4, 8), (64, 8, 8), (4096, 32, 128)]
    lines = []
    for m, n, d in cases:
        key = keygen(HEParams(slots=m), seed=5)
        rng = np.random.default_rng(m + n)
        x = FixedTensor(rng.integers(0, 1 << 12, size=(n, d), dtype=np.uint64), DEFAULT_RING)
        w = FixedTensor(rng.integers(0, 1 << 12, size=(d, 4), dtype=np.uint64), DEFAULT_RING)
        want = FixedTensor(
            np.array(oracles.matmul_mod(x.data.tolist(), w.data.tolist(), 64), dtype=np.uint64),
            DEFAULT_RING,
        )

        rots = {}
        for strategy in PackingStrategy:
            layout = PackingLayout(strategy, n, d, m)
            report = CostReport()
            with report.at("Others", "online"):
                cts = pack(x, layout, key, report)
                out, layout_out = he_matmul(cts, layout, w, report)
                if m <= 64:  # decrypt the small cases as a correctness spot check
                    assert unpack(out, layout_out, key, DEFAULT_RING, report) == want
            rots[strategy] = (layout.c, report.total("he_rotate"))

        c_ff, got_ff = rots[PackingStrategy.FEATURES_FIRST]
        c_tf, got_tf = rots[PackingStrategy.TOKENS_FIRST]
        assert c_ff == c_tf
        c = c_ff
        assert got_ff == c * m, (m, n, got_ff)
        assert got_tf == c * (-(-m // n)), (m, n, got_tf)
        saving = got_ff - got_tf
        assert abs(saving - c * (m - m // n)) <= c, (m, n, saving)
        lines.append(f"M={m},n={n}: {got_ff} vs {got_tf} (saves {saving})")
    print("pass: rotations " + "; ".join(lines))


def test_6_secure_softmax_accuracy_and_gc_agreement():
    n = 8
    lanes = 1000
    rng = np.random.default_rng(66)
    vals = rng.uniform(-8.0, 8.0, size=(lanes, n))
    raw = FixedTensor.from_float(vals, DEFAULT_RING).data
    xc = rng.integers(0, 1 << 64, raw.shape, dtype=np.uint64)
    xs = raw - xc
    spec = SecureFnSpec("softmax_row", count=n)
    logs = dict(report=CostReport(), transcript=Transcript(), step="SoftMax")
    c, s = eval_secure(spec, xc, xs, np.random.default_rng(1), **logs, **ot_sides(4))
    got = DEFAULT_RING.to_signed(c + s).astype(np.float64) / (1 << F)
    want = np.exp(vals - vals.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    err = np.abs(got - want).max()
    assert err <= 2.0 ** -5, err
    sums = got.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 2.0 ** -5 * n

    # the two backends must reconstruct identically on the 64-bit shares
    spec4 = SecureFnSpec("softmax_row", count=4)
    raw4 = rng.integers(0, 1 << 64, (50, 4), dtype=np.uint64)
    xc4 = rng.integers(0, 1 << 64, raw4.shape, dtype=np.uint64)
    xs4 = raw4 - xc4
    # equally seeded rngs draw the same client masks on both backends
    c_sem, s_sem = eval_secure(spec4, xc4, xs4, np.random.default_rng(2), **logs,
                               **ot_sides(3))
    c_gc, s_gc = eval_secure(spec4, xc4, xs4, np.random.default_rng(2), backend="gc",
                             **logs, **ot_sides(3))
    assert np.array_equal(c_sem, c_gc) and np.array_equal(s_sem, s_gc)
    print(f"pass: softmax max err {err:.6f} <= 2^-5 over {lanes} rows; gc == semantic")


def test_7_masked_messages_are_uniform_mod_256():
    samples = 100_000
    pvals = []
    for seed, val in ((101, 0.0), (102, 1.5), (103, -63.996)):
        rng = np.random.default_rng(seed)
        x = FixedTensor.from_float(np.full((1, samples), val), DEFAULT_RING)
        masked = x - rand_ring(x.shape, rng, DEFAULT_RING)  # as Session._remask does
        buckets = (masked.data & np.uint64(0xFF)).ravel()
        counts = np.bincount(buckets.astype(np.int64), minlength=256)
        p = stats.chisquare(counts).pvalue
        assert p > 0.01, (val, p)
        pvals.append(float(p))
    print(f"pass: chi-square p-values {[round(p, 3) for p in pvals]} all > 0.01")


def test_8_server_ignorance_audit_clean_on_every_run():
    cfg = ModelConfig(N=1, d_emb=8, H=1, n=4, d_oh=16, d_ff=8)
    w = random_weights(cfg, np.random.default_rng(8))
    for mode in MODES:
        _run(mode, cfg, w, [3, 1, 4, 1], seed=88)
    assert _AUDIT_LOG, "no runs were recorded"
    dirty = [(label, names) for label, names in _AUDIT_LOG if names]
    assert not dirty, dirty
    print(f"pass: server-ignorance audit clean on all {len(_AUDIT_LOG)} recorded runs")


def test_9_modeled_latency_is_linear_and_exact():
    ch = ChannelModel()  # 2.3 ms delay, 100 MB/s
    one = Transcript()
    one.send("client", "Others", "share", 1_000_000)
    one.interaction("Others")
    est = estimate_latency(one, ch)
    assert est["online_s"] == 0.0123, est

    only_i = Transcript()
    for _ in range(3):
        only_i.interaction("Others")
    only_b = Transcript()
    only_b.send("server", "Others", "ciphertext", 5_000_000)
    both = Transcript()
    for _ in range(3):
        both.interaction("Others")
    both.send("server", "Others", "ciphertext", 5_000_000)
    a = estimate_latency(only_i, ch)["online_s"]
    b = estimate_latency(only_b, ch)["online_s"]
    assert a == 3 * ch.delay_s
    assert b == 5_000_000 / ch.bandwidth_bps
    assert estimate_latency(both, ch)["online_s"] == a + b

    double = Transcript()
    double.send("client", "Others", "share", 2_000_000)
    double.interaction("Others")
    double.interaction("Others")
    assert estimate_latency(double, ch)["online_s"] == 2 * est["online_s"]
    print("pass: latency model linear; 1 interaction + 1 MB = 0.0123 s exactly")
