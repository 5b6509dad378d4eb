"""Protocol engine: mode equivalence, module algebra, and cost structure."""

import inspect
import re

import numpy as np
import pytest

from privtrans import engine
from privtrans.engine import (
    MODES,
    AuditError,
    MaterialMissing,
    Session,
    audit_server_ignorance,
    run_protocol,
)
from privtrans.model import BlockWeights, ModelConfig, ModelWeights, random_weights, reference_forward
from privtrans.packing import PackingStrategy
from privtrans.ring import DEFAULT_RING, FixedTensor, mat_mul
from privtrans.sharing import make_product_triple, rand_ring
from privtrans.she import KeyPair, SecretKey

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


def kept(s, left, right, mid="t"):
    """mid, after keeping a client-built triple of masks left, right in the
    server's store."""
    s.server.keep(mid, make_product_triple(left, right, s.client.key))
    return mid


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
    server = host_session().server
    rng = np.random.default_rng(2)
    x = rand_mat(rng, (5, 5))
    eye = FixedTensor(np.eye(5, dtype=np.uint64), DEFAULT_RING)
    server.keep("id", FixedTensor.zeros(5, 5, DEFAULT_RING))
    out = server.run_hgs_layer("id", eye, x)
    assert out == x


def test_hgs_layer_matches_matmul_oracle():
    server = host_session().server
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, w = rand_mat(rng, (8, 8)), rand_mat(rng, (8, 8))
        rc, rs = rand_mat(rng, (8, 8)), rand_mat(rng, (8, 8))
        m_out = mat_mul(rc, w) + rs
        server.keep("m", rs)
        out = server.run_hgs_layer("m", w, x - rc)
        assert (out + m_out).data.tolist() == mm64(x, w)


def test_hgs_layer_online_phase_is_he_free_and_single_use():
    # the module's rs comes from the real offline exchange under its id;
    # the online step pays no HE and consumes rs, so a second step fails
    s = host_session()
    rng = np.random.default_rng(4)
    x, w = rand_mat(rng, (4, 8)), rand_mat(rng, (8, 8))
    rc = rand_mat(rng, (4, 8))
    m_out = s._gen_hgs("b0.wq", w, rc)
    before = {k: s.server.report.total(k) for k in ("he_enc", "he_dec", "he_add",
                                                    "he_add_plain", "he_mul_plain", "he_rotate")}
    out = s.server.run_hgs_layer("b0.wq", w, x - rc)
    after = {k: s.server.report.total(k) for k in before}
    assert before == after
    assert (out + m_out).data.tolist() == mm64(x, w)
    assert s.server.material == {}
    with pytest.raises(MaterialMissing, match="'b0.wq'"):
        s.server.run_hgs_layer("b0.wq", w, x - rc)


# -- score product (same-mask triple) -------------------------------------------


def test_fhgs_qk_unmasked_trivial_case():
    s = host_session()
    zero = FixedTensor.zeros(1, 1, DEFAULT_RING)
    q = FixedTensor(np.array([[1]], dtype=np.uint64), DEFAULT_RING)
    k = FixedTensor(np.array([[2]], dtype=np.uint64), DEFAULT_RING)
    c_share, s_share = s.triple_product(kept(s, zero, zero), q, k.transpose())
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
        c_share, s_share = s.triple_product(kept(s, rm, rm.transpose()), qm, km.transpose())
        assert int((c_share + s_share).data[0, 0]) == (q * k) % (1 << 64)


def test_fhgs_qk_random_shapes_hundred_seeds():
    s = host_session()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, k = rand_mat(rng, (4, 6)), rand_mat(rng, (4, 6))
        rc = rand_mat(rng, (4, 6))
        mid = kept(s, rc, rc.transpose(), f"b{seed}.qk.h0")
        c_share, s_share = s.triple_product(mid, q - rc, (k - rc).transpose())
        assert (c_share + s_share).data.tolist() == mm64(q, k.transpose())
    assert ciphertext_pair_ops() == ["he_add"]


def test_fhgs_triple_reuse_raises():
    s = host_session()
    rng = np.random.default_rng(9)
    rc = rand_mat(rng, (3, 4))
    s._gen_triple("b0.qk.h1", rc, rc.transpose())
    q, k = rand_mat(rng, (3, 4)), rand_mat(rng, (3, 4))
    s.triple_product("b0.qk.h1", q - rc, (k - rc).transpose())
    with pytest.raises(MaterialMissing, match="'b0.qk.h1'"):
        s.triple_product("b0.qk.h1", q - rc, (k - rc).transpose())


# -- attention-value product ------------------------------------------------------


def test_attention_value_identity_rows_pass_value_through():
    s = host_session()
    rng = np.random.default_rng(14)
    v = rand_mat(rng, (4, 4))
    a = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 4))
    c_share, s_share = s.triple_product(kept(s, am, vm), a - am, v - vm)
    assert (c_share + s_share) == v


def test_attention_value_uniform_rows_give_row_mean():
    s = host_session()
    rng = np.random.default_rng(15)
    vf = rng.uniform(-4, 4, size=(4, 3))
    v = FixedTensor.from_float(vf, DEFAULT_RING)
    a = FixedTensor(np.full((4, 4), DEFAULT_RING.encode(0.25), dtype=np.uint64), DEFAULT_RING)
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 3))
    c_share, s_share = s.triple_product(kept(s, am, vm), a - am, v - vm)
    got = DEFAULT_RING.to_signed((c_share + s_share).data).astype(np.float64) / (1 << (2 * F))
    assert np.max(np.abs(got - vf.mean(axis=0))) <= 2.0**-6


def test_attention_value_random_matches_oracle():
    s = host_session()
    for seed in range(30):
        rng = np.random.default_rng(seed + 300)
        a, v = rand_mat(rng, (5, 5)), rand_mat(rng, (5, 7))
        am, vm = rand_mat(rng, (5, 5)), rand_mat(rng, (5, 7))
        c_share, s_share = s.triple_product(kept(s, am, vm, f"b{seed}.av.h0"), a - am, v - vm)
        assert (c_share + s_share).data.tolist() == mm64(a, v)


def test_attention_value_triple_reuse_raises():
    s = host_session()
    rng = np.random.default_rng(16)
    a, v = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 2))
    am, vm = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 2))
    s._gen_triple("b0.av.h0", am, vm)
    c_share, s_share = s.triple_product("b0.av.h0", a - am, v - vm)
    assert (c_share + s_share).data.tolist() == mm64(a, v)
    with pytest.raises(MaterialMissing, match="'b0.av.h0'"):
        s.triple_product("b0.av.h0", a - am, v - vm)


# -- fused block prefix ------------------------------------------------------------


def test_chgs_identity_weights_give_gram_matrix():
    s = host_session(d_emb=4, H=1, n=4, d_oh=4, d_ff=4)
    rng = np.random.default_rng(17)
    x = rand_mat(rng, (4, 4))
    rc0 = rand_mat(rng, (4, 4))
    eye = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    zero = FixedTensor.zeros(4, 4, DEFAULT_RING)
    s.chgs_material("b0.prefix", rc0, eye, zero, eye, eye)
    s_share, c_share = s.chgs_scores("b0.prefix", x - rc0)
    assert (c_share + s_share).data.tolist() == mm64(x, x.transpose())
    assert s.server.material == {}


def test_chgs_material_single_use():
    s = host_session(d_emb=4, H=1, n=4, d_oh=4, d_ff=4)
    rng = np.random.default_rng(18)
    x, rc0 = rand_mat(rng, (4, 4)), rand_mat(rng, (4, 4))
    eye = FixedTensor(np.eye(4, dtype=np.uint64), DEFAULT_RING)
    zero = FixedTensor.zeros(4, 4, DEFAULT_RING)
    s.chgs_material("b0.prefix", rc0, eye, zero, eye, eye)
    s.chgs_scores("b0.prefix", x - rc0)
    with pytest.raises(MaterialMissing, match="'b0.prefix'"):
        s.chgs_scores("b0.prefix", x - rc0)


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
    # a key pair, a secret key or the client state planted on the server,
    # directly or inside a list, a dict or a nested attribute, is named by
    # its path and fails the run
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(8))
    secrets = {
        "key pair": lambda s: s.client.key,
        "secret key": lambda s: s.client.key.secret(),
        "client state": lambda s: s.client,
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
    # may carry the Client, a KeyPair, a SecretKey, or a tensor holding any
    # word of a tensor the client's random draws returned (its masks and its
    # GC output masks) or the client decrypted (its shares such as m_out),
    # so slices and transposes of a mask count too; the walk covers self,
    # and so the server's material store, on every call
    drawn, leaks, calls = [], [], set()

    def record(fn, pick):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            drawn.append(pick(out))
            return out
        return recorded

    def is_secret(obj):
        if isinstance(obj, (engine.Client, KeyPair, SecretKey)):
            return True
        return isinstance(obj, FixedTensor) and bool(
            np.isin(obj.data, np.concatenate([d.data.ravel() for d in drawn])).any())

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
            run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11)
            assert drawn and leaks == [], (norm, mode, leaks)
    assert calls == {f"Server.{n}" for n in server_fns}


def test_session_packing_defaults_and_validation():
    cfg = toy_cfg()
    w = random_weights(cfg, np.random.default_rng(9))
    assert Session(cfg, w, "f", 1).packing is PackingStrategy.FEATURES_FIRST
    assert Session(cfg, w, "fp", 1).packing is PackingStrategy.TOKENS_FIRST
    assert Session(cfg, w, "fpc", 1).packing is PackingStrategy.TOKENS_FIRST
    # Session takes only the protocol's inputs: packing follows the mode
    assert list(inspect.signature(Session).parameters) == [
        "cfg", "weights", "mode", "seed", "backend", "strict"]
    with pytest.raises(ValueError):
        Session(cfg, w, "bogus", 1)
    cfg6 = toy_cfg(n=6, d_oh=8)
    w6 = random_weights(cfg6, np.random.default_rng(10))
    with pytest.raises(ValueError):
        Session(cfg6, w6, "fp", 1)  # 6 tokens do not divide 16 slots
