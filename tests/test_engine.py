"""Protocol engine: mode equivalence, module algebra, and cost structure."""

import dataclasses
import inspect
import re
from contextlib import contextmanager

import numpy as np
import pytest

from privtrans import engine, model, packing, securefn, sharing, she
from privtrans.engine import (
    MODES,
    AuditError,
    MaterialMissing,
    Session,
    audit_server_ignorance,
    run_protocol,
)
from privtrans.costs import CostReport
from privtrans.model import BlockWeights, ModelConfig, ModelWeights, random_weights, reference_forward
from privtrans.packing import PackingStrategy
from privtrans.ring import DEFAULT_RING, FixedTensor, mat_mul
from privtrans.sharing import make_product_triple, rand_ring
from privtrans.she import KeyPair, decrypt, encrypt, keygen

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


def with_weights(cfg, w_e=None, **block0):
    """Random weights for cfg with w_e and block 0's named tensors (w_q=...)
    replaced, for a server whose table must hold known weights."""
    w = random_weights(cfg, np.random.default_rng(0))
    blocks = (dataclasses.replace(w.blocks[0], **block0),) + w.blocks[1:]
    return dataclasses.replace(w, w_e=w.w_e if w_e is None else w_e, blocks=blocks)


def rand_mat(rng, shape):
    return FixedTensor(rng.integers(0, 1 << 64, size=shape, dtype=np.uint64), DEFAULT_RING)


def kept(s, left, right, mid="t"):
    """mid, after keeping a client-built triple of masks left, right in the
    server's store."""
    s.server.keep(mid, make_product_triple(left, right, s.client.key, s.client.report))
    return mid


def product(s, mid, left, right):
    """The (server, client) shares of one head's product under the triple
    kept under mid, revealed as the session reveals a block's heads."""
    return s._reveal([s.server.product(mid, left, right)])


# -- whole-pipeline equivalence ------------------------------------------------


def test_all_modes_match_reference_bit_exact():
    rng = np.random.default_rng(21)
    for cfg in (
        toy_cfg(N=2, d_emb=16, H=2, n=8, d_oh=24),
        toy_cfg(norm="pre", activation="gelu", delta=2),
        # four heads restacked by columns after AttenValue
        toy_cfg(N=2, d_emb=16, H=4, n=4, d_ff=8),
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


def _stage_case(N, norm, activation, mode, backend="semantic"):
    prefix = "" if N == 1 else f"N{N}-"
    return pytest.param(N, norm, activation, mode, backend,
                        id=f"{prefix}{norm}-{activation}-{mode}-{backend}")


@pytest.mark.parametrize("N,norm,activation,mode,backend", [
    *[_stage_case(1, norm, act, mode) for norm, act in (("post", "relu"), ("pre", "gelu"))
      for mode in MODES],
    _stage_case(1, "pre", "gelu", "f", "gc"),
    # later blocks (fpc's have no input map) and the post-gelu and pre-relu
    # crossings
    *[_stage_case(2, norm, act, mode) for norm in model.NORM_ORDERS
      for act in model.ACTIVATIONS for mode in MODES],
])
def test_every_stage_input_is_the_references(N, norm, activation, mode, backend, monkeypatch):
    # the reconstructed input of every secure stage equals, word for word,
    # the reference's input to the same stage; so the reference's range
    # check covers the protocol's stage inputs too
    cfg = toy_cfg(N=N, norm=norm, activation=activation)
    w = random_weights(cfg, np.random.default_rng(29))
    tokens = [3, 1, 4, 1]
    got, want = [], []
    real_eval, real_stage = engine.eval_secure, model._stage

    def spy_eval(spec, client_vals, server_vals, *args, **kwargs):
        got.append((spec, client_vals + server_vals))
        return real_eval(spec, client_vals, server_vals, *args, **kwargs)

    def spy_stage(spec, raw, strict):
        # the reference runs softmax head by head, the protocol stacks the
        # heads' rows into one stage; both hand spec.count words per lane
        lanes = raw.reshape(-1, spec.count)
        if spec.fn == "softmax_row" and want and want[-1][0] == spec:
            want[-1] = (spec, np.concatenate([want[-1][1], lanes]))
        else:
            want.append((spec, lanes.copy()))
        return real_stage(spec, raw, strict)

    monkeypatch.setattr(engine, "eval_secure", spy_eval)
    monkeypatch.setattr(model, "_stage", spy_stage)
    Session(cfg, w, mode, seed=6, backend=backend).run(tokens)
    reference_forward(cfg, w, tokens)
    assert [spec for spec, _ in got] == [spec for spec, _ in want]
    for i, ((spec, g), (_, r)) in enumerate(zip(got, want)):
        assert g.dtype == r.dtype == np.uint64
        assert np.array_equal(g, r), (i, spec.fn)


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
    cfg = toy_cfg()
    eye = FixedTensor(np.eye(8, dtype=np.uint64), DEFAULT_RING)
    server = engine.Server(np.random.default_rng(1), cfg, with_weights(cfg, w_q=eye))
    x = rand_mat(np.random.default_rng(2), (5, 8))
    server.keep("b0.wq", FixedTensor.zeros(5, 8, DEFAULT_RING))
    out = server.run_hgs_layer("b0.wq", x)
    assert out == x


def test_hgs_layer_matches_matmul_oracle():
    # the server's table holds any ring words as W, not only a model's range
    cfg = toy_cfg()
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, w = rand_mat(rng, (8, 8)), rand_mat(rng, (8, 8))
        rc, rs = rand_mat(rng, (8, 8)), rand_mat(rng, (8, 8))
        m_out = mat_mul(rc, w) + rs
        server = engine.Server(np.random.default_rng(1), cfg, with_weights(cfg, w_q=w))
        server.keep("b0.wq", rs)
        out = server.run_hgs_layer("b0.wq", x - rc)
        assert (out + m_out).data.tolist() == mm64(x, w)


def test_hgs_layer_online_phase_is_he_free_and_single_use():
    # the module's rs comes from the real offline exchange under its id;
    # the online step pays no HE and consumes rs, so a second step fails
    s = host_session()
    w, _ = s.server.weights["b0.wq"]
    rng = np.random.default_rng(4)
    x, rc = rand_mat(rng, (4, 8)), rand_mat(rng, (4, 8))
    m_out, = s._gen_hgs(["b0.wq"], rc)
    before = {k: s.server.report.total(k) for k in ("he_enc", "he_dec", "he_add",
                                                    "he_add_plain", "he_mul_plain", "he_rotate")}
    out = s.server.run_hgs_layer("b0.wq", x - rc)
    after = {k: s.server.report.total(k) for k in before}
    assert before == after
    assert (out + m_out).data.tolist() == mm64(x, w)
    assert s.server.material == {}
    with pytest.raises(MaterialMissing, match="'b0.wq'"):
        s.server.run_hgs_layer("b0.wq", x - rc)


# -- score product (same-mask triple) -------------------------------------------


def test_fhgs_qk_unmasked_trivial_case():
    s = host_session()
    zero = FixedTensor.zeros(1, 1, DEFAULT_RING)
    q = FixedTensor(np.array([[1]], dtype=np.uint64), DEFAULT_RING)
    k = FixedTensor(np.array([[2]], dtype=np.uint64), DEFAULT_RING)
    s_share, c_share = product(s, kept(s, zero, zero), q, k.transpose())
    assert (c_share + s_share).data[0, 0] == 2


def test_fhgs_qk_mask_identity_one_by_one():
    # (q-r)(k-r) + r(k-r) + (q-r)r + r*r == q*k in the ring
    s = host_session()
    rng = np.random.default_rng(12)
    for _ in range(25):
        q, k, r = (int(v) for v in rng.integers(0, 1 << 64, size=3, dtype=np.uint64))
        rm = FixedTensor(np.array([[r]], dtype=np.uint64), DEFAULT_RING)
        qm = FixedTensor(np.array([[(q - r) % (1 << 64)]], dtype=np.uint64), DEFAULT_RING)
        km = FixedTensor(np.array([[(k - r) % (1 << 64)]], dtype=np.uint64), DEFAULT_RING)
        s_share, c_share = product(s, kept(s, rm, rm.transpose()), qm, km.transpose())
        assert int((c_share + s_share).data[0, 0]) == (q * k) % (1 << 64)


def test_fhgs_qk_random_shapes_hundred_seeds():
    s = host_session()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, k = rand_mat(rng, (4, 6)), rand_mat(rng, (4, 6))
        rc = rand_mat(rng, (4, 6))
        mid = kept(s, rc, rc.transpose(), f"b{seed}.qk.h0")
        s_share, c_share = product(s, mid, q - rc, (k - rc).transpose())
        assert (c_share + s_share).data.tolist() == mm64(q, k.transpose())
    assert ciphertext_pair_ops() == ["he_add"]


def test_fhgs_triple_reuse_raises():
    s = host_session()
    rng = np.random.default_rng(9)
    rc = rand_mat(rng, (3, 4))
    s._gen_triple("b0.qk.h1", rc, rc.transpose())
    q, k = rand_mat(rng, (3, 4)), rand_mat(rng, (3, 4))
    product(s, "b0.qk.h1", q - rc, (k - rc).transpose())
    with pytest.raises(MaterialMissing, match="'b0.qk.h1'"):
        product(s, "b0.qk.h1", q - rc, (k - rc).transpose())


# -- attention-value product ------------------------------------------------------


def test_attention_value_identity_rows_pass_value_through():
    s = host_session()
    rng = np.random.default_rng(14)
    v = rand_mat(rng, (4, 4))
    a = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 4))
    s_share, c_share = product(s, kept(s, am, vm), a - am, v - vm)
    assert (c_share + s_share) == v


def test_attention_value_uniform_rows_give_row_mean():
    s = host_session()
    rng = np.random.default_rng(15)
    vf = rng.uniform(-4, 4, size=(4, 3))
    v = FixedTensor.from_float(vf, DEFAULT_RING)
    a = FixedTensor(np.full((4, 4), DEFAULT_RING.encode(0.25), dtype=np.uint64), DEFAULT_RING)
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 3))
    s_share, c_share = product(s, kept(s, am, vm), a - am, v - vm)
    got = DEFAULT_RING.to_signed((c_share + s_share).data).astype(np.float64) / (1 << (2 * F))
    assert np.max(np.abs(got - vf.mean(axis=0))) <= 2.0**-6


def test_attention_value_random_matches_oracle():
    s = host_session()
    for seed in range(30):
        rng = np.random.default_rng(seed + 300)
        a, v = rand_mat(rng, (5, 5)), rand_mat(rng, (5, 7))
        am, vm = rand_mat(rng, (5, 5)), rand_mat(rng, (5, 7))
        s_share, c_share = product(s, kept(s, am, vm, f"b{seed}.av.h0"), a - am, v - vm)
        assert (c_share + s_share).data.tolist() == mm64(a, v)


def test_attention_value_triple_reuse_raises():
    s = host_session()
    rng = np.random.default_rng(16)
    a, v = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 2))
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 2))
    s._gen_triple("b0.av.h0", am, vm)
    s_share, c_share = product(s, "b0.av.h0", a - am, v - vm)
    assert (c_share + s_share).data.tolist() == mm64(a, v)
    with pytest.raises(MaterialMissing, match="'b0.av.h0'"):
        product(s, "b0.av.h0", a - am, v - vm)


# -- fused block prefix ------------------------------------------------------------


def identity_chgs_session():
    """A session whose server merges identity weights into block 0's fused
    prefix: W_ed = W_E delta = I, lam = 0 and B_0 = W_Q W_K^T = I."""
    cfg = toy_cfg(d_emb=4, H=1, n=4, d_oh=4, d_ff=4)
    eye = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    return Session(cfg, with_weights(cfg, w_e=eye, w_q=eye, w_k=eye), "fpc", seed=99)


def test_chgs_identity_weights_give_gram_matrix():
    s = identity_chgs_session()
    rng = np.random.default_rng(17)
    x = rand_mat(rng, (4, 4))
    rc0 = rand_mat(rng, (4, 4))
    s.chgs_material("b0.qk", rc0)
    s_share, c_share = s._reveal(s.server.chgs_heads("b0.qk", x - rc0))
    assert (c_share + s_share).data.tolist() == mm64(x, x.transpose())
    assert s.server.material == {}


def test_chgs_material_single_use():
    s = identity_chgs_session()
    rng = np.random.default_rng(18)
    x, rc0 = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 4))
    s.chgs_material("b0.qk", rc0)
    s.server.chgs_heads("b0.qk", x - rc0)
    with pytest.raises(MaterialMissing, match="'b0.qk.h0'"):
        s.server.chgs_heads("b0.qk", x - rc0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("norm,activation", [("post", "relu"), ("pre", "gelu")])
def test_each_attention_step_reveals_in_one_server_message(norm, activation, mode):
    # per block, QxK and AttenValue each send one online server message,
    # which carries every head's rows: n ciphertexts per head
    cfg = toy_cfg(N=2, norm=norm, activation=activation)
    s = Session(cfg, random_weights(cfg, np.random.default_rng(29)), mode, seed=6)
    t = s.run([3, 1, 4, 1]).transcript
    for step in ("QxK", "AttenValue"):
        sent = [m for m in t.messages
                if (m.sender, m.step, m.phase) == ("server", step, "online")]
        assert [m.nbytes for m in sent] == [cfg.H * cfg.n * s.he.ciphertext_bytes] * cfg.N, step


@pytest.mark.parametrize("norm,activation", [("post", "relu"), ("pre", "gelu")])
def test_every_triple_the_server_uses_is_a_true_triple(norm, activation, monkeypatch):
    # every QxK and AttenValue product, the fused prefix's included, takes
    # its triple through Server.product, and each decrypts to a, b and a @ b
    # with zero padding slots
    cfg = toy_cfg(norm=norm, activation=activation)
    w = random_weights(cfg, np.random.default_rng(23))
    real, used = engine.Server.product, []

    def checked(server, mid, left, right):
        t = server.material[mid]
        dec = lambda ct: decrypt(ct, session.client.key, CostReport())
        k = t.right_ct.count
        assert np.array_equal(dec(t.product_ct), dec(t.left_ct)[:, :k] @ dec(t.right_ct)), mid
        used.append(mid)
        return real(server, mid, left, right)

    monkeypatch.setattr(engine.Server, "product", checked)
    for mode in MODES:
        used.clear()
        session = Session(cfg, w, mode, seed=3)
        session.run([3, 1, 4, 1])
        for kind in ("qk", "av"):
            want = {f"b{i}.{kind}.h{h}" for i in range(cfg.N) for h in range(cfg.H)}
            assert sorted(m for m in used if f".{kind}." in m) == sorted(want), (mode, kind)


def test_store_keeps_an_id_once_and_a_run_leaves_it_empty():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(19))
    tokens = [3, 1, 0, 2]
    s = Session(cfg, w, "f", seed=1)
    s.server.keep("b0.wq", FixedTensor.zeros(1, 1, DEFAULT_RING))
    with pytest.raises(ValueError, match="'b0.wq' is already held"):
        s.server.keep("b0.wq", FixedTensor.zeros(1, 1, DEFAULT_RING))
    with pytest.raises(MaterialMissing, match="'b9.wq'"):
        s.server.take("b9.wq")
    for mode in MODES:
        res = run_protocol(mode, cfg, w, tokens, seed=1)
        assert res.session.server.material == {}, mode
        # an item no module consumes fails the run, named by its id
        s = Session(cfg, w, mode, seed=1)
        s.server.keep("b7.planted", FixedTensor.zeros(1, 1, DEFAULT_RING))
        with pytest.raises(RuntimeError, match=r"left unused: \['b7.planted'\]"):
            s.run(tokens)


@pytest.mark.parametrize("mode", ["base", "fpc"])
@pytest.mark.parametrize("tokens", [[3, 1, 4], [3, 1, 4, 1, 5]], ids=["3", "5"])
def test_wrong_token_count_is_refused_before_any_work(mode, tokens):
    # 3 or 5 tokens on an n=4 model used to fail in numpy broadcasting only
    # after the offline HE work and its messages
    cfg = toy_cfg()
    s = Session(cfg, random_weights(cfg, np.random.default_rng(21)), mode, seed=1)
    with pytest.raises(ValueError, match=f"n=4 tokens, got {len(tokens)}"):
        s.run(tokens)
    assert s.transcript.messages == [] and s.transcript.interactions(None, "offline") == 0
    assert s.client.report.cells == {} and s.server.report.cells == {}


def test_unknown_backend_is_refused_before_any_run(monkeypatch):
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(20))
    runs = []
    monkeypatch.setattr(Session, "run", lambda self, tokens: runs.append(self))
    with pytest.raises(ValueError, match="backend must be one of .*'GC'"):
        run_protocol("f", cfg, w, [3, 1, 0, 2], seed=1, backend="GC")
    assert runs == []


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


@pytest.mark.parametrize("norm,activation", [("post", "relu"), ("pre", "gelu")])
def test_fused_prefix_offline_he_counts_follow_the_shapes(norm, activation):
    # per block and head, one n x d_emb product Enc(Rc0) A_h, whose n rows
    # each cost D rotations and D plaintext products for the D = min(M,
    # d_in + d_emb - 1) diagonals of the d_in x d_emb A_h (none is zero
    # for random weights), and one strip, G_h Enc(Rc0^T), with no rotation;
    # only the block that folds the embedding adds the n x d_oh rows
    # Enc(Rc0) W_M_h and W_ed^T Enc(Rc0^T)
    cfg = toy_cfg(N=2, norm=norm, activation=activation)
    res = run_protocol("fpc", cfg, random_weights(cfg, np.random.default_rng(5)),
                       [3, 1, 4, 1], seed=11)
    m = res.session.he.slots
    n, d_emb, d_oh, heads = cfg.n, cfg.d_emb, cfg.d_oh, cfg.H
    rotate = mul_plain = 0
    for i in range(cfg.N):
        fused = i == 0 and norm == "post"
        d_in = d_oh if fused else d_emb  # the columns of Rc0
        diags = min(m, d_in + d_emb - 1)
        rotate += heads * n * diags
        mul_plain += heads * (n * diags + n * d_in)
        if fused:
            diags = min(m, 2 * d_oh - 1)
            rotate += heads * n * diags
            mul_plain += heads * n * diags + d_emb * d_oh
    cell = res.merged_report().cells["QxK", "offline"]
    assert (cell["he_rotate"], cell["he_mul_plain"]) == (rotate, mul_plain)


def test_first_fused_block_sends_its_input_mask_once_offline():
    # each fpc block packs and sends its Enc(Rc0) once: in the block that
    # folds the embedding it serves both the values' module and X1's, in
    # one QKV exchange; Embed has no message at all
    cfg = toy_cfg(N=2)
    res = run_protocol("fpc", cfg, random_weights(cfg, np.random.default_rng(5)),
                       [3, 1, 4, 1], seed=11)
    t = res.transcript
    sent = [m.step for m in t.messages if m.phase == "offline" and m.sender == "client"
            and m.kind == "ciphertext" and m.step in ("Embed", "QKV")]
    assert sent == ["QKV"] * cfg.N
    assert t.message_count("Embed") == 0
    assert t.interactions("QKV", "offline") == cfg.N + 1


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


@pytest.mark.parametrize("norm,activation", [("post", "relu"), ("pre", "gelu")])
def test_material_is_never_made_inside_an_online_step(norm, activation, monkeypatch):
    # no material scope (prep=True) opens while an online one is open, so
    # every step's material can be made before its online half begins
    cfg = toy_cfg(norm=norm, activation=activation)
    w = random_weights(cfg, np.random.default_rng(5))
    at, flags, preps, nested = Session._at, [], [], []

    @contextmanager
    def guarded(self, step, prep=False):
        if prep:
            preps.append(step)
            if False in flags:
                nested.append(step)
        flags.append(prep)
        try:
            with at(self, step, prep):
                yield
        finally:
            flags.pop()

    monkeypatch.setattr(Session, "_at", guarded)
    for mode in MODES:
        preps.clear()
        run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11)
        assert preps and not flags, mode
        assert nested == [], mode


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
    # a ciphertext message is sized by its arrays, a and b, which are the
    # modeled 16 bytes per slot
    ct = encrypt([1], keygen(he), CostReport())
    assert ct.a.nbytes + ct.b.nbytes == he.ciphertext_bytes
    assert ct_bytes == cfg.H * cfg.n * he.ciphertext_bytes


@pytest.mark.parametrize("cfg_kw", [dict(norm="post", activation="relu"),
                                    dict(N=2, norm="pre", activation="gelu")])
def test_ciphertext_accounting_closes(cfg_kw, monkeypatch):
    # per (step, phase) cell the client sends every ciphertext it encrypts
    # and decrypts every ciphertext the server sends, and a ciphertext
    # message, singles and batches alike, is its ciphertext count times
    # the modeled ciphertext size
    sent, real = {}, Session._send

    def send(session, sender, payload):
        real(session, sender, payload)
        if isinstance(payload, list):
            msg, count = session.transcript.messages[-1], sum(ct.count for ct in payload)
            assert msg.kind == "ciphertext"
            assert msg.nbytes == count * session.he.ciphertext_bytes, (msg.step, msg.phase)
            cell = (sender, msg.step, msg.phase)
            sent[cell] = sent.get(cell, 0) + count

    monkeypatch.setattr(Session, "_send", send)
    cfg = toy_cfg(**cfg_kw)
    w = random_weights(cfg, np.random.default_rng(5))
    for mode in MODES:
        sent.clear()
        res = run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11)
        rep = res.client_report
        assert sent, mode
        for step, phase in set(rep.cells) | {(st, ph) for _, st, ph in sent}:
            where = (mode, step, phase)
            assert sent.get(("client", step, phase), 0) == rep.get(step, phase, "he_enc"), where
            assert sent.get(("server", step, phase), 0) == rep.get(step, phase, "he_dec"), where
        assert res.server_report.total("he_enc") == res.server_report.total("he_dec") == 0


@pytest.mark.parametrize("norm,activation", [("post", "relu"), ("pre", "gelu")])
def test_every_message_shares_a_cell_with_its_work(norm, activation):
    # a message and the counters of its step carry the same phase tag: each
    # ciphertext message lands in a (step, phase) cell with HE ops, each
    # garbled-material or OT message in one with garbled-table bytes
    cfg = toy_cfg(norm=norm, activation=activation)
    w = random_weights(cfg, np.random.default_rng(5))
    for mode in ("base", "f", "fp", "fpc"):
        res = run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11)
        merged = res.merged_report()
        kinds = set()
        for m in res.transcript.messages:
            kinds.add(m.kind)
            if m.kind == "ciphertext":
                assert merged.he_ops(m.step, m.phase) > 0, (mode, m)
            elif m.kind in ("gc_material", "ot"):
                assert merged.get(m.step, m.phase, "gc_table_bytes") > 0, (mode, m)
        assert kinds == {"ciphertext", "share", "gc_material", "ot"}, mode


# Each she leaf and the counter it bumps; HE_LEAVES lists the namespaces
# that call each leaf, where perfbench's tracer wraps them too.
LEAF_COUNTERS = {"encrypt": "he_enc", "decrypt": "he_dec", "he_add": "he_add",
                 "he_add_plain": "he_add_plain", "he_mul_plain": "he_mul_plain",
                 "he_rotate": "he_rotate"}
HE_LEAVES = [(module, name) for module in (engine, packing, sharing)
             for name in LEAF_COUNTERS if hasattr(module, name)]
COUNTED = {
    she: ("encrypt", "decrypt", "he_add", "he_add_plain", "he_mul_plain", "he_rotate"),
    sharing: ("enc_rows", "dec_rows", "plain_left_matmul", "enc_left_matmul",
              "make_product_triple"),
    packing: ("pack", "unpack", "he_matmul"),
}


@pytest.mark.parametrize("norm,activation", [("post", "relu"), ("pre", "gelu")])
def test_every_he_call_in_a_run_is_one_counter_bump(norm, activation, monkeypatch):
    # each leaf call bumps its one counter once, by the ciphertexts it acts
    # on: the count of its result (of its argument, for decrypt); summed,
    # those counts are the run's totals, and no HE bump happens elsewhere
    calls, billed, bumps = {}, dict.fromkeys(LEAF_COUNTERS, 0), []
    for module, name in HE_LEAVES:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            out = _real(*args, **kwargs)
            billed[_name] += (args[0] if _name == "decrypt" else out).count
            return out

        monkeypatch.setattr(module, name, counted)
    real_bump = CostReport.bump

    def bump(report, counter, n=1):
        if counter in LEAF_COUNTERS.values():
            bumps.append(counter)
        real_bump(report, counter, n)

    monkeypatch.setattr(CostReport, "bump", bump)
    cfg = toy_cfg(norm=norm, activation=activation)
    w = random_weights(cfg, np.random.default_rng(5))
    for mode in MODES:
        calls.clear()
        bumps.clear()
        billed.update(dict.fromkeys(billed, 0))
        merged = run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11).merged_report()
        assert {name: merged.total(c) for name, c in LEAF_COUNTERS.items()} == billed, mode
        assert len(bumps) == sum(calls.values()), mode
        assert calls["encrypt"] and calls["he_rotate"], mode


def test_counting_and_logging_arguments_are_required():
    # a call site cannot leave its work out of the counters: no HE primitive
    # or matrix helper has an uncounted mode, and every secure stage is
    # billed and logged under an explicit step
    for module, names in COUNTED.items():
        for name in names:
            report = inspect.signature(getattr(module, name)).parameters["report"]
            assert report.default is report.empty, f"{module.__name__}.{name}"
    # perfbench passes he_matmul's report and kernel positionally
    assert list(inspect.signature(packing.he_matmul).parameters)[3:] == ["report", "kernel"]
    params = inspect.signature(securefn.eval_secure).parameters
    for name in ("report", "transcript", "step", "ot_sender", "ot_receiver"):
        assert params[name].default is params[name].empty, name
        assert params[name].kind is params[name].KEYWORD_ONLY, name


def test_server_ignorance_audit_clean_run_and_poisoned_state():
    # the audit walks the server's state: every run leaves nothing of the
    # client's on it, and the session keeps no key outside the client
    tokens = [3, 1, 0, 2]
    for norm, activation in (("post", "relu"), ("pre", "gelu")):
        cfg = toy_cfg(norm=norm, activation=activation)
        w = random_weights(cfg, np.random.default_rng(8))
        for mode in MODES:
            res = run_protocol(mode, cfg, w, tokens, seed=1)
            assert audit_server_ignorance(res.session.server) == [], (norm, mode)
            assert not hasattr(res.session, "key")
        # a garbled session: the server holds both OT seed rows, and only
        # the client its string s and the seeds s chose
        res = run_protocol("f", cfg, w, tokens, seed=1, backend="gc")
        assert audit_server_ignorance(res.session.server) == [], (norm, "gc")
        client_ot, server_ot = res.session.client.ot, res.session.server.ot
        assert server_ot.seeds is not None and client_ot.s is not None
        assert not {"s", "chosen"} & set(vars(server_ot))
        chosen = server_ot.seeds[client_ot.s, np.arange(len(client_ot.s))]
        assert np.array_equal(client_ot.chosen, chosen)
    # the key pair, the client state or the client's side of the OT planted
    # on the server, directly or inside a list, a dict or a nested
    # attribute, is named by its path and fails the run
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(8))
    secrets = {
        "key pair": lambda s: s.client.key,
        "client state": lambda s: s.client,
        "client OT state": lambda s: s.client.ot,
    }
    plantings = [
        (lambda srv, v: setattr(srv, "leak", v), "server.leak"),
        (lambda srv, v: setattr(srv, "leak", [0, v]), "server.leak[1]"),
        (lambda srv, v: setattr(srv, "leak", {"k": v}), "server.leak['k']"),
        (lambda srv, v: setattr(srv.report, "leak", ({"k": [v]},)),
         "server.report.leak[0]['k'][0]"),
        (lambda srv, v: srv.keep("b0.leak", v), "server.material['b0.leak']"),
    ]
    for what, secret in secrets.items():
        for plant, path in plantings:
            s = Session(cfg, w, "f", seed=1)
            plant(s.server, secret(s))
            assert audit_server_ignorance(s.server) == [path], what
            with pytest.raises(AuditError, match=re.escape(path)):
                s.run(tokens)


def test_server_code_never_receives_client_secrets(monkeypatch):
    # every Server method is wrapped, and each call's
    # arguments are walked like the server's state in the audit: no call
    # may carry the Client, a KeyPair, the key's secret scalar s (a bare int,
    # a numpy scalar or a word of any tensor), or a tensor holding any word
    # of a tensor the client's random draws returned (its masks and its GC
    # output masks) or the client decrypted (its shares such as m_out), so
    # slices and transposes of a mask count too; the walk covers self, and
    # so the server's material store, on every call
    drawn, keys, leaks, calls = [], [], [], set()

    def record(fn, pick):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            drawn.append(pick(out))
            return out
        return recorded

    def recorded_keygen(*args, **kwargs):
        key = she.keygen(*args, **kwargs)
        keys.append(int(key.s))
        return key

    def is_secret(obj):
        if isinstance(obj, (engine.Client, KeyPair)):
            return True
        if isinstance(obj, (int, np.integer)):
            return int(obj) % 2**64 in keys
        words = obj.data if isinstance(obj, FixedTensor) else obj
        return isinstance(words, np.ndarray) and bool(np.isin(words, np.concatenate(
            [d.data.ravel() for d in drawn] + [np.array(keys, dtype=np.uint64)])).any())

    def walk(obj, path, seen):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if is_secret(obj):
            leaks.append(path)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}[{k!r}]", seen)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]", seen)
        elif isinstance(getattr(obj, "__dict__", None), dict):
            for k, v in vars(obj).items():
                walk(v, f"{path}.{k}", seen)

    def audited(name, fn):
        def call(*args, **kwargs):
            calls.add(name)
            walk((args, kwargs), name, set())
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(engine, "keygen", recorded_keygen)
    monkeypatch.setattr(engine.Client, "rand", record(engine.Client.rand, lambda t: t))
    monkeypatch.setattr(Session, "_gc", record(Session._gc, lambda chain: chain[1]))
    for name in ("unpack", "dec_rows"):
        monkeypatch.setattr(engine, name, record(getattr(engine, name), lambda t: t))
    server_fns = [n for n, f in vars(engine.Server).items() if inspect.isfunction(f)]
    for name in server_fns:
        monkeypatch.setattr(engine.Server, name,
                            audited(f"Server.{name}", getattr(engine.Server, name)))
    for norm, activation in (("post", "relu"), ("pre", "gelu")):
        cfg = toy_cfg(norm=norm, activation=activation)
        w = random_weights(cfg, np.random.default_rng(5))
        for mode in MODES:
            drawn.clear()
            keys.clear()
            run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11)
            assert drawn and keys and leaks == [], (norm, mode, leaks)
    assert calls == {f"Server.{n}" for n in server_fns}


def test_server_owns_the_weights_and_the_session_passes_only_module_ids(monkeypatch):
    # the Server is handed the weights once, at set-up, and merges the fused
    # prefix there; after that no Server method receives the ModelWeights,
    # a block's weights or, by identity or as a view, any weight tensor,
    # and the Session's own state (its Server aside) reaches none of them
    arrays, found, calls = [], [], set()

    def walk(obj, path, seen):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        words = obj.data if isinstance(obj, FixedTensor) else obj
        if isinstance(obj, (ModelWeights, BlockWeights)) or (
                isinstance(words, np.ndarray)
                and any(np.shares_memory(words, a) for a in arrays)):
            found.append(path)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}[{k!r}]", seen)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]", seen)
        elif isinstance(getattr(obj, "__dict__", None), dict):
            for k, v in vars(obj).items():
                walk(v, f"{path}.{k}", seen)

    def audited(name, fn):
        def call(self, *args, **kwargs):
            calls.add(name)
            walk((args, kwargs), name, set())
            return fn(self, *args, **kwargs)
        return call

    server_fns = [n for n, f in vars(engine.Server).items()
                  if inspect.isfunction(f) and n != "__init__"]
    for name in server_fns:
        monkeypatch.setattr(engine.Server, name,
                            audited(f"Server.{name}", getattr(engine.Server, name)))
    for norm, activation in (("post", "relu"), ("pre", "gelu")):
        cfg = toy_cfg(norm=norm, activation=activation)
        w = random_weights(cfg, np.random.default_rng(5))
        arrays[:] = [t.data for _, t in model.weight_items(w)]
        for mode in MODES:
            session = run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11).session
            walk({k: v for k, v in vars(session).items() if k != "server"}, "session", set())
            assert found == [], (norm, mode, found)
    assert calls == {f"Server.{n}" for n in server_fns}



def test_server_table_holds_each_heads_fused_prefix_product():
    # the fused prefix's mask weights are products of weights only: the
    # server computes them once, at set-up. The block that folds the
    # embedding holds A_h = W_ed B_h and W_M_h = W_ed B_h W_ed^T; every other
    # block has no input map, so A_h = B_h, fuse_v = W_V and the table
    # holds no identity matrix at all
    for norm in ("post", "pre"):
        cfg = toy_cfg(N=2, norm=norm)
        w = random_weights(cfg, np.random.default_rng(5))
        server = engine.Server(np.random.default_rng(1), cfg, w)
        for i, blk in enumerate(w.blocks):
            fused = i == 0 and norm == "post"
            assert (f"b{i}.qk" in server.weights) == fused, (norm, i)
            if fused:
                w_ed, _ = server.weights[f"b{i}.qk"]
                assert np.array_equal(w_ed.data, w.w_e.scalar_mul(cfg.delta).data)
            else:
                w_v, bias = server.weights[f"b{i}.fuse_v"]
                assert bias is None and np.array_equal(w_v.data, blk.w_v.data), (norm, i)
            for h in range(cfg.H):
                mid, cols = f"b{i}.qk.h{h}", slice(h * cfg.d_head, (h + 1) * cfg.d_head)
                b_h, _ = server.weights[mid]
                q_h, k_h = (FixedTensor(t.data[:, cols], cfg.ring) for t in (blk.w_q, blk.w_k))
                assert np.array_equal(b_h.data, mat_mul(q_h, k_h.transpose()).data)
                a_h, bias = server.weights[f"{mid}.a"]
                assert bias is None
                if fused:
                    assert np.array_equal(a_h.data, mat_mul(w_ed, b_h).data), (norm, i, h)
                    w_m, bias = server.weights[f"{mid}.wm"]
                    want = mat_mul(mat_mul(w_ed, b_h), w_ed.transpose())
                    assert bias is None and np.array_equal(w_m.data, want.data), (norm, i, h)
                else:
                    assert np.array_equal(a_h.data, b_h.data), (norm, i, h)
                    assert f"{mid}.wm" not in server.weights, (norm, i, h)
        for mid, (t, _) in server.weights.items():
            if isinstance(t, FixedTensor) and t.rows == t.cols:
                assert not np.array_equal(t.data, np.eye(t.rows)), (norm, mid)


def test_only_the_client_key_decrypts():
    # a key pair that server code forges under the client's key id, with
    # any other seed, turns a client ciphertext into words that all differ
    # from the plaintext; the client's own key round-trips
    s = Session(toy_cfg(), random_weights(toy_cfg(), np.random.default_rng(3)), "f", seed=4)
    key, report = s.client.key, CostReport()
    v = np.arange(s.he.slots, dtype=np.uint64)
    ct = encrypt(v, key, report)
    assert np.array_equal(decrypt(ct, key, report), v)
    for seed in range(20):
        forged = keygen(s.he, seed=seed)
        forged.key_id = key.key_id
        assert (decrypt(ct, forged, report) != v).all(), seed


def test_each_session_has_its_own_key_id():
    # two sessions' ciphertexts do not mix: adding them, or decrypting one
    # under the other session's key, raises instead of giving garbage
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(3))
    k1, k2 = (Session(cfg, w, "f", seed=seed).client.key for seed in (1, 2))
    assert k1.key_id != k2.key_id
    v = np.arange(k1.params.slots, dtype=np.uint64)
    report = CostReport()
    c1, c2 = encrypt(v, k1, report), encrypt(v, k2, report)
    with pytest.raises(she.KeyMismatch):
        she.he_add(c1, c2, report)
    with pytest.raises(she.KeyMismatch):
        decrypt(c1, k2, report)


def test_session_packing_defaults_and_validation():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(9))
    assert Session(cfg, w, "f", 1).packing is PackingStrategy.FEATURES_FIRST
    assert Session(cfg, w, "fp", 1).packing is PackingStrategy.TOKENS_FIRST
    assert Session(cfg, w, "fpc", 1).packing is PackingStrategy.TOKENS_FIRST
    # Session takes only the protocol's inputs: packing follows the mode
    assert list(inspect.signature(Session).parameters) == [
        "cfg", "weights", "mode", "seed", "backend"]
    with pytest.raises(ValueError):
        Session(cfg, w, "bogus", 1)
    cfg6 = toy_cfg(n=6, d_oh=8)
    w6 = random_weights(cfg6, np.random.default_rng(10))
    with pytest.raises(ValueError):
        Session(cfg6, w6, "fp", 1)  # 6 tokens do not divide 16 slots
