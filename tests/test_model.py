"""Model config, weight plumbing, and the fixed-point reference forward."""

import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from privtrans.model import (
    BlockWeights,
    ModelConfig,
    ModelWeights,
    _attention,
    config_from_dict,
    config_to_dict,
    embed,
    load_weights,
    one_hot,
    random_weights,
    reference_forward,
    save_weights,
    softmax_spec,
)
from privtrans.ring import DEFAULT_RING, FixedTensor, RingParams, mat_mul
from privtrans.securefn import RangeViolation, plain_apply

F = DEFAULT_RING.frac_bits


def toy_cfg(**kw):
    base = dict(N=1, d_emb=8, H=2, n=4, d_oh=32, d_ff=16)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        toy_cfg(d_emb=9)  # not divisible by H
    with pytest.raises(ValueError):
        toy_cfg(activation="tanh")
    with pytest.raises(ValueError):
        toy_cfg(norm="sandwich")
    with pytest.raises(ValueError):
        toy_cfg(delta=0)
    with pytest.raises(ValueError):
        toy_cfg(n=0)
    with pytest.raises(ValueError):
        toy_cfg(lam=np.zeros((3, 8)))
    cfg = toy_cfg()
    assert cfg.d_head == 4
    assert cfg.lam.shape == (4, 8)
    assert cfg.eta == int(DEFAULT_RING.encode(0.5))  # 1/sqrt(4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.0**60, 10**400],
                         ids=["nan", "inf", "past-2**63", "huge-int"])
def test_lam_without_a_ring_encoding_is_refused(value):
    # 10**400, an int too large for a float (JSON reads a long integer
    # literal as one), ended in OverflowError
    lam = [[0.0] * 8 for _ in range(4)]
    lam[1][2] = value
    with pytest.raises(ValueError, match="lam must be finite"):
        toy_cfg(lam=lam)
    d = config_to_dict(toy_cfg())
    with pytest.raises(ValueError, match="lam must be finite"):
        config_from_dict({**d, "lam": lam})


def test_config_dict_round_trip():
    lam = np.arange(32).reshape(4, 8) / 64.0
    cfg = toy_cfg(activation="gelu", norm="pre", delta=2, lam=lam, d_out=3,
                  ring=RingParams(value_bits=16, frac_bits=10))
    d = config_to_dict(cfg)
    assert d["ring"] == {"value_bits": 16, "frac_bits": 10}
    assert config_from_dict(d) == cfg
    with pytest.raises(ValueError):
        config_from_dict({**d, "flux": 1})
    with pytest.raises(ValueError):
        config_from_dict({"N": 1, "d_emb": 8})
    with pytest.raises(ValueError, match="modulus_bits"):
        config_from_dict({**d, "ring": {"modulus_bits": 64, "value_bits": 15, "frac_bits": 8}})
    with pytest.raises(ValueError, match="value_bits"):
        config_from_dict({**d, "ring": {"value_bits": 17, "frac_bits": 8}})


def test_embed_row_lookup():
    rng = np.random.default_rng(300)
    cfg = toy_cfg(n=1)
    w = random_weights(cfg, rng)
    x1 = embed(cfg, w, [0])
    assert np.array_equal(x1.data[0], w.w_e.data[0])  # delta=1, lam=0

    lam = rng.uniform(-1, 1, (1, 8))
    cfg2 = toy_cfg(n=1, delta=3, lam=lam)
    x2 = embed(cfg2, w, [5])
    want = w.w_e.data[5] * np.uint64(3) + cfg2.lam.data
    assert np.array_equal(x2.data, want)
    with pytest.raises(ValueError):
        one_hot([64], 64)


def test_zero_query_key_gives_row_mean_attention():
    # softmax of all-zero scores is exactly uniform, and 1/4 is exact at f,
    # so attention reduces to the exact ring row-mean of V times W_O
    rng = np.random.default_rng(302)
    cfg = toy_cfg(H=1)
    w = random_weights(cfg, rng)
    blk = w.blocks[0]
    zero = FixedTensor.zeros(8, 8)
    blk = type(blk)(zero, zero, blk.w_v, blk.w_o, blk.w_f1, blk.w_f2)
    x1 = embed(cfg, w, rng.integers(0, 32, 4))
    got = _attention(cfg, blk, x1, strict=False)
    v = mat_mul(x1, blk.w_v).data
    uniform = np.full((4, 4), DEFAULT_RING.encode(0.25), dtype=np.uint64)
    want = (uniform @ v) @ blk.w_o.data
    assert np.array_equal(got, want)


def test_single_token_attention_passes_value_row_through():
    # n=1: the softmax weight is exactly 1.0, so attention is V @ W_O
    rng = np.random.default_rng(303)
    cfg = toy_cfg(n=1)
    w = random_weights(cfg, rng)
    x1 = embed(cfg, w, [7])
    got = _attention(cfg, w.blocks[0], x1, strict=False)
    v = mat_mul(x1, w.blocks[0].w_v).data
    want = (v << np.uint64(F)) @ w.blocks[0].w_o.data
    assert np.array_equal(got, want)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(304)
    cfg = toy_cfg(n=8)
    spec = softmax_spec(cfg)
    raw = DEFAULT_RING.from_signed(
        rng.integers(-(6 << 5 * F), 6 << 5 * F, (50, 8), dtype=np.int64)
    )
    p = plain_apply(spec, raw)
    sums = DEFAULT_RING.decode(p).sum(axis=1) * (1 << F) / (1 << F)
    assert np.abs(sums - 1.0).max() <= 2.0 ** -5 * 8


def test_reference_matches_float_oracle():
    rng = np.random.default_rng(305)
    for norm in ("post", "pre"):
        for act in ("relu", "gelu"):
            cfg = ModelConfig(N=2, d_emb=8, H=2, n=4, d_oh=32, d_ff=16,
                              activation=act, norm=norm)
            w = random_weights(cfg, rng, scale=0.5)
            toks = rng.integers(0, cfg.d_oh, cfg.n)
            got = reference_forward(cfg, w, toks).to_float() / (1 << F)
            want = oracles.float_forward(cfg, w, toks)
            assert np.abs(got - want).max() <= 2.0 ** -4, (norm, act)


# sha256 of the reference's logit words per (N, norm, activation) on the desk
# dims, weights seed 5, tokens [3, 1, 4, 1]; taken before both norm orders
# shared one block path, so a change that moves the reference shows here
# even where it moves the protocol with it
REFERENCE_DIGESTS = {
    (1, "post", "relu"): "73af5e22d9124aa48eb718328f74237fe73f7762c960de946533b90df572379f",
    (1, "post", "gelu"): "92c2405d30bb1def2fe186c93c82901f2ef661f455020b1071eaa6695e03398f",
    (1, "pre", "relu"): "780361b09c7a160655119d3bb8c5f8bb64de59e094886e7c3d7203a65e4dabd4",
    (1, "pre", "gelu"): "e3b0911701451fa34f0f76528707bb616ce4c5fefc680f5c635713289f8aed95",
    (2, "post", "relu"): "03126537f067ff26327136b8d0f9184344a2a805b90c103bb275a0903f45f9ae",
    (2, "post", "gelu"): "2a2c7aecabd566ce65373f09cdf66e3813fd0e9a54c5c04dacaa4d38d1ef9f86",
    (2, "pre", "relu"): "3128fc59def15d5b2fcbae100d73cf6b7e018faa02967081d704b42ee4dcc271",
    (2, "pre", "gelu"): "215f4fae67d20adaef574a9dcc5b7497adef1d47659ae0f8b204ea20d9878b1f",
}


@pytest.mark.parametrize("key", sorted(REFERENCE_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_reference_forward_matches_pinned_digest(key):
    N, norm, act = key
    cfg = ModelConfig(N=N, d_emb=8, H=2, n=4, d_oh=16, d_ff=8, norm=norm, activation=act)
    w = random_weights(cfg, np.random.default_rng(5))
    logits = reference_forward(cfg, w, [3, 1, 4, 1])
    got = hashlib.sha256(logits.data.astype("<u8").tobytes()).hexdigest()
    assert got == REFERENCE_DIGESTS[key]


def test_multi_head_slicing_is_column_blocks():
    # H=2 must equal two independent half-width attentions stitched together
    rng = np.random.default_rng(306)
    cfg = toy_cfg(H=2)
    w = random_weights(cfg, rng)
    blk = w.blocks[0]
    x1 = embed(cfg, w, rng.integers(0, 32, 4))
    got = _attention(cfg, blk, x1, strict=False)
    q = mat_mul(x1, blk.w_q).data
    k = mat_mul(x1, blk.w_k).data
    v = mat_mul(x1, blk.w_v).data
    parts = []
    for sl in (slice(0, 4), slice(4, 8)):
        s = (q[:, sl] @ k[:, sl].T) * np.uint64(cfg.eta)
        parts.append(plain_apply(softmax_spec(cfg), s) @ v[:, sl])
    want = np.concatenate(parts, axis=1) @ blk.w_o.data
    assert np.array_equal(got, want)


def test_strict_mode_raises_on_overflow():
    rng = np.random.default_rng(307)
    cfg = toy_cfg()
    lim = cfg.ring.value_limit() / cfg.ring.scale

    def saturated(rows, cols):  # weights far outside the range, clipped to it
        return FixedTensor.from_float(np.clip(rng.uniform(50, 80, (rows, cols)), -lim, lim))

    w_e = saturated(32, 8)
    block = BlockWeights(*(saturated(8, 8) for _ in range(4)), saturated(8, 16), saturated(16, 8))
    w = ModelWeights(w_e, (block,), saturated(8, 2))
    toks = rng.integers(0, 32, 4)
    with pytest.raises(RangeViolation):
        reference_forward(cfg, w, toks, strict=True)
    reference_forward(cfg, w, toks, strict=False)  # saturates instead


def test_weight_file_round_trip(tmp_path):
    rng = np.random.default_rng(308)
    cfg = toy_cfg(N=2)
    w = random_weights(cfg, rng)
    path = tmp_path / "toy.ptw"
    save_weights(path, w)
    w2, ring = load_weights(path)
    assert ring == DEFAULT_RING
    assert w2 == w
    toks = rng.integers(0, 32, 4)
    assert reference_forward(cfg, w2, toks) == reference_forward(cfg, w, toks)


def test_weight_file_rejects_damage(tmp_path):
    rng = np.random.default_rng(309)
    w = random_weights(toy_cfg(), rng)
    path = tmp_path / "toy.ptw"
    save_weights(path, w)
    blob = path.read_bytes()
    (tmp_path / "trunc.ptw").write_bytes(blob[: len(blob) - 10])
    with pytest.raises(ValueError, match="truncated"):
        load_weights(tmp_path / "trunc.ptw")
    (tmp_path / "magic.ptw").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_weights(tmp_path / "magic.ptw")
    (tmp_path / "extra.ptw").write_bytes(blob + b"\0" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_weights(tmp_path / "extra.ptw")
    # the header pins the ring to Z_2^64; any other modulus is refused
    hlen = struct.unpack("<I", blob[4:8])[0]
    header = json.loads(blob[8 : 8 + hlen])
    assert header["modulus_bits"] == 64
    for bits in (32, None):
        raw = json.dumps({**header, "modulus_bits": bits}).encode()
        (tmp_path / "ring.ptw").write_bytes(
            blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + hlen :])
        with pytest.raises(ValueError, match="modulus_bits"):
            load_weights(tmp_path / "ring.ptw")
    # every tensor the header lists must be one the model uses, listed once:
    # an unused name, or a second w_head, is refused by name
    data = blob[8 + hlen :]
    w_head = header["tensors"][-1]
    assert w_head["name"] == "w_head"
    head_bytes = data[len(data) - 8 * w_head["rows"] * w_head["cols"] :]
    for name, entry, words in (
        ("w_extra", {"name": "w_extra", "rows": 1, "cols": 1}, b"\0" * 8),
        ("w_head", w_head, head_bytes),
    ):
        raw = json.dumps({**header, "tensors": header["tensors"] + [entry]}).encode()
        (tmp_path / "names.ptw").write_bytes(
            blob[:4] + struct.pack("<I", len(raw)) + raw + data + words)
        with pytest.raises(ValueError, match=f"'{name}'"):
            load_weights(tmp_path / "names.ptw")


def test_weights_validate_shapes_and_range():
    rng = np.random.default_rng(311)
    cfg = toy_cfg()
    w = random_weights(cfg, rng)
    with pytest.raises(ValueError, match="blocks"):
        w.validate(toy_cfg(N=2))
    with pytest.raises(ValueError, match="shape"):
        w.validate(toy_cfg(d_ff=32))
    bad = type(w)(FixedTensor.from_signed(np.full((32, 8), 1 << 20)), w.blocks, w.w_head)
    with pytest.raises(ValueError, match="range"):
        bad.validate(cfg)
    # a tensor in another ring is refused by name, not left to fail every
    # mode with a bare "ring params mismatch"
    other = RingParams(value_bits=15, frac_bits=6)
    head = FixedTensor(w.w_head.data, other)
    with pytest.raises(ValueError, match="^w_head: ring"):
        type(w)(w.w_e, w.blocks, head).validate(cfg)
