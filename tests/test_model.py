"""Model config, weight plumbing, and the fixed-point reference forward."""

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from privtrans.model import (
    ModelConfig,
    _attention,
    config_from_dict,
    config_to_dict,
    embed,
    import_pretrained,
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


def test_one_hot_matmul_equals_row_lookup():
    rng = np.random.default_rng(301)
    cfg = toy_cfg(d_oh=64, lam=rng.uniform(-0.5, 0.5, (4, 8)), delta=2)
    w = random_weights(cfg, rng)
    toks = rng.integers(0, 64, cfg.n)
    via_lookup = reference_forward(cfg, w, toks)
    via_matmul = reference_forward(cfg, w, one_hot(toks, 64))
    assert via_lookup == via_matmul
    with pytest.raises(ValueError):
        one_hot([64], 64)
    bad = np.zeros((4, 64), dtype=np.uint64)
    bad[:, 3] = 2  # not 0/1
    with pytest.raises(ValueError):
        reference_forward(cfg, w, bad)


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
    with pytest.warns(UserWarning):
        w, _ = import_pretrained(
            {name: rng.uniform(50, 80, (8 if "w_e" not in name else 32, 8))
             if name in ("w_e",) or name.endswith(("w_q", "w_k", "w_v", "w_o"))
             else rng.uniform(50, 80, (8, 16) if name.endswith("w_f1") else
                              (16, 8) if name.endswith("w_f2") else (8, 2))
             for name, _ in (("w_e", 0), ("block0.w_q", 0), ("block0.w_k", 0),
                             ("block0.w_v", 0), ("block0.w_o", 0),
                             ("block0.w_f1", 0), ("block0.w_f2", 0), ("w_head", 0))}
        )
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


def test_import_pretrained_quantization_error_bound():
    rng = np.random.default_rng(310)
    cfg = toy_cfg()
    desc = {}
    shapes = {"w_e": (32, 8), "w_head": (8, 2),
              "block0.w_q": (8, 8), "block0.w_k": (8, 8), "block0.w_v": (8, 8),
              "block0.w_o": (8, 8), "block0.w_f1": (8, 16), "block0.w_f2": (16, 8)}
    for name, shape in shapes.items():
        desc[name] = rng.uniform(-1, 1, shape)
    w, max_err = import_pretrained(desc)
    assert max_err <= 2.0 ** -9
    w.validate(cfg)


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
