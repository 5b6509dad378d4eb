"""Protocol engine: mode equivalence, module algebra, and cost structure."""

import numpy as np
import pytest

from privtrans.engine import (
    AuditError,
    HgsMaterial,
    MaterialMissing,
    PartyState,
    Session,
    audit_server_ignorance,
    gen_chgs_material,
    run_attention_value,
    run_chgs_block,
    run_fhgs_qk,
    run_hgs_layer,
    run_protocol,
)
from privtrans.model import BlockWeights, ModelConfig, ModelWeights, random_weights, reference_forward
from privtrans.packing import PackingStrategy
from privtrans.ring import DEFAULT_RING, FixedTensor, fx_encode, mat_mul
from privtrans.sharing import TripleReuse, make_product_triple, rand_ring

import oracles
from test_she import ciphertext_pair_ops

F = DEFAULT_RING.frac_bits


def mm64(a: FixedTensor, b: FixedTensor) -> list:
    return oracles.matmul_mod(a.data.tolist(), b.data.tolist(), 64)


def toy_cfg(**kw):
    base = dict(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    base.update(kw)
    return ModelConfig(**base)


def host_session(mode="f", **cfg_kw):
    """Small session used as a host for standalone op tests."""
    cfg = toy_cfg(**cfg_kw)
    w = random_weights(cfg, np.random.default_rng(0))
    return Session(cfg, w, mode, seed=99)


def rand_mat(rng, shape):
    return FixedTensor(rng.integers(0, 1 << 64, size=shape, dtype=np.uint64), DEFAULT_RING)


# -- whole-pipeline equivalence ------------------------------------------------


def test_all_modes_match_reference_bit_exact():
    rng = np.random.default_rng(21)
    for cfg in (
        toy_cfg(N=2, d_emb=16, H=2, n=8, d_oh=24),
        toy_cfg(norm="pre", activation="gelu", delta=2),
    ):
        w = random_weights(cfg, rng)
        tokens = list(rng.integers(0, cfg.d_oh, size=cfg.n))
        want = reference_forward(cfg, w, tokens)
        for mode in ("base", "f", "fp", "fpc"):
            got = run_protocol(mode, cfg, w, tokens, seed=5).reconstruct()
            assert np.array_equal(got.data, want.data), mode


def test_gc_backend_reconstructs_reference_exactly():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(3))
    tokens = [2, 0, 9, 7]
    want = reference_forward(cfg, w, tokens)
    res = Session(cfg, w, "f", seed=4, backend="gc").run(tokens)
    assert np.array_equal(res.reconstruct().data, want.data)
    assert res.client_report.total("ot_count") > 0
    assert res.client_report.total("gc_table_bytes") > 0


def test_same_seed_reproduces_run_different_seed_rerandomizes():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(1))
    tokens = [1, 5, 3, 3]
    a = Session(cfg, w, "fpc", seed=7).run(tokens)
    b = Session(cfg, w, "fpc", seed=7).run(tokens)
    c = Session(cfg, w, "fpc", seed=8).run(tokens)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
    assert a.merged_report().to_dict() == b.merged_report().to_dict()
    assert np.array_equal(a.client_logits.data, b.client_logits.data)
    # fresh masks move the shares but never the reconstruction
    assert not np.array_equal(a.client_logits.data, c.client_logits.data)
    assert np.array_equal(a.reconstruct().data, c.reconstruct().data)


# -- single HGS module -----------------------------------------------------------


def test_hgs_layer_identity_zero_masks_passes_through():
    rng = np.random.default_rng(2)
    x = rand_mat(rng, (5, 5))
    eye = FixedTensor(np.eye(5, dtype=np.uint64), DEFAULT_RING)
    zero = FixedTensor.zeros(5, 5, DEFAULT_RING)
    out = run_hgs_layer(eye, x, HgsMaterial("id", zero, zero, zero))
    assert out == x


def test_hgs_layer_matches_matmul_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, w = rand_mat(rng, (8, 8)), rand_mat(rng, (8, 8))
        rc, rs = rand_mat(rng, (8, 8)), rand_mat(rng, (8, 8))
        m_out = mat_mul(rc, w) + rs
        out = run_hgs_layer(w, x - rc, HgsMaterial("m", rc, rs, m_out))
        assert (out + m_out).data.tolist() == mm64(x, w)


def test_hgs_layer_online_phase_is_he_free_and_single_use():
    s = host_session()
    before = {k: s.server.report.total(k) for k in ("he_enc", "he_dec", "he_add",
                                                    "he_add_plain", "he_mul_plain", "he_rotate")}
    rng = np.random.default_rng(4)
    x, w = rand_mat(rng, (4, 8)), rand_mat(rng, (8, 8))
    rc, rs = rand_mat(rng, (4, 8)), rand_mat(rng, (4, 8))
    mat = HgsMaterial("once", rc, rs, mat_mul(rc, w) + rs)
    run_hgs_layer(w, x - rc, mat)
    after = {k: s.server.report.total(k) for k in before}
    assert before == after
    with pytest.raises(MaterialMissing):
        run_hgs_layer(w, x - rc, mat)


# -- score product (same-mask triple) -------------------------------------------


def test_fhgs_qk_unmasked_trivial_case():
    s = host_session()
    zero = FixedTensor.zeros(1, 1, DEFAULT_RING)
    triple = make_product_triple(zero, zero, s.key)
    q = FixedTensor(np.array([[1]], dtype=np.uint64), DEFAULT_RING)
    k = FixedTensor(np.array([[2]], dtype=np.uint64), DEFAULT_RING)
    c_share, s_share = run_fhgs_qk(q, k, triple, s)
    assert (c_share + s_share).data[0, 0] == 2


def test_fhgs_qk_mask_identity_one_by_one():
    # (q-r)(k-r) + r(k-r) + (q-r)r + r*r == q*k in the ring
    s = host_session()
    rng = np.random.default_rng(12)
    for _ in range(25):
        q, k, r = (int(v) for v in rng.integers(0, 1 << 64, size=3, dtype=np.uint64))
        rm = FixedTensor(np.array([[r]], dtype=np.uint64), DEFAULT_RING)
        triple = make_product_triple(rm, rm.transpose(), s.key)
        qm = FixedTensor(np.array([[(q - r) % (1 << 64)]], dtype=np.uint64), DEFAULT_RING)
        km = FixedTensor(np.array([[(k - r) % (1 << 64)]], dtype=np.uint64), DEFAULT_RING)
        c_share, s_share = run_fhgs_qk(qm, km, triple, s)
        assert int((c_share + s_share).data[0, 0]) == (q * k) % (1 << 64)


def test_fhgs_qk_random_shapes_hundred_seeds():
    s = host_session()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, k = rand_mat(rng, (4, 6)), rand_mat(rng, (4, 6))
        rc = rand_mat(rng, (4, 6))
        triple = make_product_triple(rc, rc.transpose(), s.key, triple_id=seed)
        c_share, s_share = run_fhgs_qk(q - rc, k - rc, triple, s)
        assert (c_share + s_share).data.tolist() == mm64(q, k.transpose())
    assert ciphertext_pair_ops() == ["he_add"]


def test_fhgs_triple_reuse_raises():
    s = host_session()
    rng = np.random.default_rng(9)
    rc = rand_mat(rng, (3, 4))
    triple = make_product_triple(rc, rc.transpose(), s.key)
    q, k = rand_mat(rng, (3, 4)), rand_mat(rng, (3, 4))
    run_fhgs_qk(q - rc, k - rc, triple, s)
    with pytest.raises(TripleReuse):
        run_fhgs_qk(q - rc, k - rc, triple, s)


# -- attention-value product ------------------------------------------------------


def test_attention_value_identity_rows_pass_value_through():
    s = host_session()
    rng = np.random.default_rng(14)
    v = rand_mat(rng, (4, 4))
    a = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 4))
    triple = make_product_triple(am, vm, s.key)
    c_share, s_share = run_attention_value(a - am, v - vm, triple, s)
    assert (c_share + s_share) == v


def test_attention_value_uniform_rows_give_row_mean():
    s = host_session()
    rng = np.random.default_rng(15)
    vf = rng.uniform(-4, 4, size=(4, 3))
    v = FixedTensor.from_float(vf, DEFAULT_RING)
    a = FixedTensor(np.full((4, 4), fx_encode(0.25), dtype=np.uint64), DEFAULT_RING)
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 3))
    triple = make_product_triple(am, vm, s.key)
    c_share, s_share = run_attention_value(a - am, v - vm, triple, s)
    got = DEFAULT_RING.to_signed((c_share + s_share).data).astype(np.float64) / (1 << (2 * F))
    assert np.max(np.abs(got - vf.mean(axis=0))) <= 2.0**-6


def test_attention_value_random_matches_oracle():
    s = host_session()
    for seed in range(30):
        rng = np.random.default_rng(seed + 300)
        a, v = rand_mat(rng, (5, 5)), rand_mat(rng, (5, 7))
        am, vm = rand_mat(rng, (5, 5)), rand_mat(rng, (5, 7))
        triple = make_product_triple(am, vm, s.key, triple_id=seed)
        c_share, s_share = run_attention_value(a - am, v - vm, triple, s)
        assert (c_share + s_share).data.tolist() == mm64(a, v)


# -- fused block prefix ------------------------------------------------------------


def test_chgs_identity_weights_give_gram_matrix():
    s = host_session(d_emb=4, H=1, n=4, d_oh=4, d_ff=4)
    rng = np.random.default_rng(17)
    x = rand_mat(rng, (4, 4))
    rc0 = rand_mat(rng, (4, 4))
    eye = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    zero = FixedTensor.zeros(4, 4, DEFAULT_RING)
    mat = gen_chgs_material(s, 0, rc0, eye, zero, eye, eye)
    p_s, c_share, s_share = run_chgs_block(x - rc0, mat, s)
    assert (c_share + s_share).data.tolist() == mm64(x, x.transpose())
    assert (p_s + mat_mul(rc0, eye)) == x


def test_chgs_material_single_use():
    s = host_session(d_emb=4, H=1, n=4, d_oh=4, d_ff=4)
    rng = np.random.default_rng(18)
    x, rc0 = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 4))
    eye = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    zero = FixedTensor.zeros(4, 4, DEFAULT_RING)
    mat = gen_chgs_material(s, 0, rc0, eye, zero, eye, eye)
    run_chgs_block(x - rc0, mat, s)
    with pytest.raises(MaterialMissing):
        run_chgs_block(x - rc0, mat, s)


# -- baseline mode -------------------------------------------------------------------


def test_base_mode_zero_weights_give_zero_logits_online_he_positive():
    cfg = toy_cfg()
    zw = lambda r, c: FixedTensor.zeros(r, c, cfg.ring)
    blocks = tuple(
        BlockWeights(zw(cfg.d_emb, cfg.d_emb), zw(cfg.d_emb, cfg.d_emb), zw(cfg.d_emb, cfg.d_emb),
                     zw(cfg.d_emb, cfg.d_emb), zw(cfg.d_emb, cfg.d_ff), zw(cfg.d_ff, cfg.d_emb))
        for _ in range(cfg.N)
    )
    w = ModelWeights(zw(cfg.d_oh, cfg.d_emb), blocks, zw(cfg.d_emb, cfg.d_out))
    res = run_protocol("base", cfg, w, [0, 1, 2, 3], seed=6)
    assert np.count_nonzero(res.reconstruct().data) == 0
    rep = res.merged_report()
    assert rep.phase_total("online", "he_mul_plain") > 0
    for step in ("Embed", "QKV", "Others"):
        assert rep.he_ops(step, "online") > 0


# -- cost and phase structure ----------------------------------------------------------


def test_fused_prefix_interaction_counts():
    cfg = toy_cfg(N=2, n=8, d_emb=8)
    w = random_weights(cfg, np.random.default_rng(5))
    tokens = list(range(8))
    runs = {m: run_protocol(m, cfg, w, tokens, seed=9) for m in ("base", "f", "fp", "fpc")}
    for mode in ("base", "f", "fp"):
        t = runs[mode].transcript
        prefix = t.interactions("Embed") + t.interactions("QKV") + t.interactions("QxK")
        # embed is two modules; later blocks re-enter at QKV
        assert t.interactions("Embed") == 2
        assert prefix == 4 + 2 * (cfg.N - 1)
    t = runs["fpc"].transcript
    assert t.interactions("Embed") == 0
    assert t.interactions("QKV") == 0
    assert t.interactions("QxK") == cfg.N  # one per block prefix
    assert t.interactions("SoftMax") == cfg.N
    assert t.interactions("AttenValue") == cfg.N


def test_offline_material_keeps_online_steps_he_free():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(6))
    for mode in ("f", "fp", "fpc"):
        rep = run_protocol(mode, cfg, w, [0, 1, 2, 3], seed=2).merged_report()
        for step in ("Embed", "QKV", "SoftMax", "Others"):
            assert rep.he_ops(step, "online") == 0, (mode, step)
        # the masked-result exchanges are the only online HE users
        assert rep.he_ops("QxK", "online") > 0
        assert rep.he_ops("AttenValue", "online") > 0
    assert ciphertext_pair_ops() == ["he_add"]


def test_share_message_byte_accounting():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(7))
    res = run_protocol("f", cfg, w, [1, 2, 3, 4], seed=13)
    t, he = res.transcript, res.session.he
    share_bytes = sum(m.nbytes for m in t.messages
                      if m.step == "QxK" and m.phase == "online" and m.kind == "share")
    ct_bytes = sum(m.nbytes for m in t.messages
                   if m.step == "QxK" and m.phase == "online" and m.kind == "ciphertext")
    assert share_bytes == 2 * cfg.n * cfg.d_emb * 8
    assert ct_bytes == cfg.H * cfg.n * he.ciphertext_bytes


def test_server_ignorance_audit_clean_run_and_poisoned_state():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(8))
    res = run_protocol("fpc", cfg, w, [3, 1, 0, 2], seed=1)
    assert audit_server_ignorance(res.session.server) == []
    res.session.server.put("oops", "logical-plaintext", res.reconstruct())
    assert audit_server_ignorance(res.session.server) == ["oops"]
    with pytest.raises(AuditError):
        res.session._audit()
    with pytest.raises(ValueError):
        res.session.server.put("x", "not-a-tag", None)


def test_session_packing_defaults_and_validation():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(9))
    assert Session(cfg, w, "f", 1).packing is PackingStrategy.FEATURES_FIRST
    assert Session(cfg, w, "fp", 1).packing is PackingStrategy.TOKENS_FIRST
    assert Session(cfg, w, "fpc", 1).packing is PackingStrategy.TOKENS_FIRST
    s = Session(cfg, w, "fpc", 1, packing=PackingStrategy.FEATURES_FIRST)
    assert s.packing is PackingStrategy.FEATURES_FIRST
    assert np.array_equal(s.run([0, 1, 2, 3]).reconstruct().data,
                          reference_forward(cfg, w, [0, 1, 2, 3]).data)
    with pytest.raises(ValueError):
        Session(cfg, w, "bogus", 1)
    cfg6 = toy_cfg(n=6, d_oh=8)
    w6 = random_weights(cfg6, np.random.default_rng(10))
    with pytest.raises(ValueError):
        Session(cfg6, w6, "fp", 1)  # 6 tokens do not divide 16 slots
