"""Encoder transformer over the fixed-point ring: config, weights, reference.

The reference forward pass is the single source of truth for what every
protocol mode must reconstruct. It runs entirely on ring words and calls
the same nonpoly stage specs (softmax, layernorm, activation, truncation)
through plain_apply, so reference and protocol agree bit for bit by
construction rather than by tolerance.

Scale ladder (f = frac_bits, post-norm): the one-hot input is raw, so
X1 = X0 W_E delta + lambda sits at f. Q/K/V at 2f, scores at 4f, times
the encoded 1/sqrt(n) at 5f; the softmax stage truncates by 4f and emits
probabilities at f. P V at 3f, times W_O at 4f, plus the residual shifted
up by 3f; layernorm truncates back to f. FFN products at 2f with the
activation truncating by f; the final layernorm returns the block to f.
Pre-norm instead normalizes with shift 0 before each sublayer and spends
a dedicated truncation stage on each residual sum.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ring import DEFAULT_RING, FixedTensor, RingParams, mat_mul
from .securefn import SecureFnSpec, check_domain, plain_apply

ACTIVATIONS = ("relu", "gelu")
NORM_ORDERS = ("post", "pre")

WEIGHT_MAGIC = b"PTW1"
WEIGHT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus the positional terms delta (integer coefficient,
    applied at raw scale so the embedding stays at f) and lam, an encoded
    n x d_emb bias matrix added to the scaled embedding."""

    N: int
    d_emb: int
    H: int
    n: int
    d_oh: int
    d_ff: int
    activation: str = "relu"
    norm: str = "post"
    delta: int = 1
    lam: FixedTensor | None = None
    d_out: int = 2
    ring: RingParams = DEFAULT_RING

    def __post_init__(self):
        for name in ("N", "d_emb", "H", "n", "d_oh", "d_ff", "d_out", "delta"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.d_emb % self.H != 0:
            raise ValueError(f"d_emb={self.d_emb} not divisible by H={self.H}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.norm not in NORM_ORDERS:
            raise ValueError(f"norm must be one of {NORM_ORDERS}")
        lam = self.lam
        if lam is None:
            lam = FixedTensor.zeros(self.n, self.d_emb, self.ring)
        elif not isinstance(lam, FixedTensor):
            lam = FixedTensor.from_float(lam, self.ring)
        if lam.shape != (self.n, self.d_emb):
            raise ValueError(f"lam must be {self.n}x{self.d_emb}, got {lam.shape}")
        object.__setattr__(self, "lam", lam)

    @property
    def d_head(self) -> int:
        return self.d_emb // self.H

    @property
    def eta(self) -> int:
        """Encoded attention scale 1/sqrt(n), a ring word at f."""
        return int(self.ring.encode(1.0 / math.sqrt(self.n)))


@dataclass(frozen=True)
class BlockWeights:
    w_q: FixedTensor
    w_k: FixedTensor
    w_v: FixedTensor
    w_o: FixedTensor
    w_f1: FixedTensor
    w_f2: FixedTensor


@dataclass(frozen=True)
class ModelWeights:
    w_e: FixedTensor
    blocks: tuple[BlockWeights, ...]
    w_head: FixedTensor

    def validate(self, cfg: ModelConfig) -> None:
        if len(self.blocks) != cfg.N:
            raise ValueError(f"weights carry {len(self.blocks)} blocks, config wants {cfg.N}")
        lim = cfg.ring.value_limit()
        for name, t in weight_items(self):
            want = _expected_shapes(cfg)[name]
            if t.shape != want:
                raise ValueError(f"{name}: shape {t.shape}, config wants {want}")
            if np.abs(t.signed()).max(initial=0) > lim:
                raise ValueError(f"{name}: values exceed the {cfg.ring.value_bits}-bit range")


def _expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    shapes = {"w_e": (cfg.d_oh, cfg.d_emb), "w_head": (cfg.d_emb, cfg.d_out)}
    for i in range(cfg.N):
        shapes[f"block{i}.w_q"] = (cfg.d_emb, cfg.d_emb)
        shapes[f"block{i}.w_k"] = (cfg.d_emb, cfg.d_emb)
        shapes[f"block{i}.w_v"] = (cfg.d_emb, cfg.d_emb)
        shapes[f"block{i}.w_o"] = (cfg.d_emb, cfg.d_emb)
        shapes[f"block{i}.w_f1"] = (cfg.d_emb, cfg.d_ff)
        shapes[f"block{i}.w_f2"] = (cfg.d_ff, cfg.d_emb)
    return shapes


def weight_items(weights: ModelWeights):
    """Canonical (name, tensor) order used by the file format."""
    yield "w_e", weights.w_e
    for i, blk in enumerate(weights.blocks):
        for part in ("w_q", "w_k", "w_v", "w_o", "w_f1", "w_f2"):
            yield f"block{i}.{part}", getattr(blk, part)
    yield "w_head", weights.w_head


def _weights_from_map(tensors: Mapping[str, FixedTensor]) -> ModelWeights:
    block_ids = sorted(
        {int(k.split(".")[0][len("block"):]) for k in tensors if k.startswith("block")}
    )
    if block_ids != list(range(len(block_ids))):
        raise ValueError("block indices must be contiguous from 0")
    try:
        blocks = tuple(
            BlockWeights(*(tensors[f"block{i}.{p}"] for p in ("w_q", "w_k", "w_v", "w_o", "w_f1", "w_f2")))
            for i in block_ids
        )
        return ModelWeights(tensors["w_e"], blocks, tensors["w_head"])
    except KeyError as e:
        raise ValueError(f"missing weight tensor {e.args[0]}") from None


def random_weights(cfg: ModelConfig, rng: np.random.Generator, scale: float = 0.5) -> ModelWeights:
    """Uniform floats in [-scale, scale] quantized onto the ring."""
    tensors = {
        name: FixedTensor.from_float(rng.uniform(-scale, scale, shape), cfg.ring)
        for name, shape in _expected_shapes(cfg).items()
    }
    return _weights_from_map(tensors)


# -- weight files --------------------------------------------------------


def save_weights(path, weights: ModelWeights) -> None:
    ring = weights.w_e.ring
    items = list(weight_items(weights))
    header = {
        "version": WEIGHT_VERSION,
        "modulus_bits": 64,
        "value_bits": ring.value_bits,
        "frac_bits": ring.frac_bits,
        "tensors": [{"name": n, "rows": t.rows, "cols": t.cols} for n, t in items],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, t in items:
            f.write(t.data.astype("<u8").tobytes())


def load_weights(path) -> tuple[ModelWeights, RingParams]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != WEIGHT_MAGIC:
        raise ValueError("not a weight file (bad magic)")
    if len(raw) < 8:
        raise ValueError("truncated weight file")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + hlen:
        raise ValueError("truncated weight file")
    try:
        header = json.loads(raw[8 : 8 + hlen])
    except json.JSONDecodeError as e:
        raise ValueError(f"corrupt weight header: {e}") from None
    if header.get("version") != WEIGHT_VERSION:
        raise ValueError(f"unsupported weight file version {header.get('version')}")
    if header.get("modulus_bits") != 64:
        raise ValueError(f"unsupported modulus_bits {header.get('modulus_bits')}; the ring is Z_2^64")
    ring = RingParams(header["value_bits"], header["frac_bits"])
    tensors = {}
    off = 8 + hlen
    for entry in header["tensors"]:
        nbytes = entry["rows"] * entry["cols"] * 8
        if off + nbytes > len(raw):
            raise ValueError("truncated weight file")
        words = np.frombuffer(raw[off : off + nbytes], dtype="<u8")
        tensors[entry["name"]] = FixedTensor(
            words.astype(np.uint64).reshape(entry["rows"], entry["cols"]), ring
        )
        off += nbytes
    if off != len(raw):
        raise ValueError("trailing bytes after weight data")
    return _weights_from_map(tensors), ring


_CONFIG_KEYS = ("N", "d_emb", "H", "n", "d_oh", "d_ff")
_CONFIG_OPT = ("activation", "norm", "delta", "lam", "d_out", "ring")


def config_to_dict(cfg: ModelConfig) -> dict:
    d = {k: getattr(cfg, k) for k in _CONFIG_KEYS}
    d.update(activation=cfg.activation, norm=cfg.norm, delta=cfg.delta, d_out=cfg.d_out)
    if np.any(cfg.lam.data):
        d["lam"] = cfg.lam.to_float().tolist()
    if cfg.ring != DEFAULT_RING:
        d["ring"] = {"value_bits": cfg.ring.value_bits, "frac_bits": cfg.ring.frac_bits}
    return d


def config_from_dict(d: Mapping) -> ModelConfig:
    unknown = set(d) - set(_CONFIG_KEYS) - set(_CONFIG_OPT)
    if unknown:
        raise ValueError(f"unknown model config fields: {sorted(unknown)}")
    missing = [k for k in _CONFIG_KEYS if k not in d]
    if missing:
        raise ValueError(f"missing model config fields: {missing}")
    kwargs = dict(d)
    if "ring" in kwargs:
        unknown = set(kwargs["ring"]) - {"value_bits", "frac_bits"}
        if unknown:
            raise ValueError(f"unknown ring config fields: {sorted(unknown)}")
        kwargs["ring"] = RingParams(**kwargs["ring"])
    if kwargs.get("lam") is not None:
        ring = kwargs.get("ring", DEFAULT_RING)
        kwargs["lam"] = FixedTensor.from_float(np.asarray(kwargs["lam"]), ring)
    return ModelConfig(**kwargs)


# -- nonpoly stage specs (shared verbatim with the protocol engine) ------


def softmax_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec("softmax_row", 64, count=cfg.n, shift=4 * cfg.ring.frac_bits, ring=cfg.ring)


def act_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec(cfg.activation, 64, shift=cfg.ring.frac_bits, ring=cfg.ring)


def ln_attn_spec(cfg: ModelConfig) -> SecureFnSpec:
    shift = 3 * cfg.ring.frac_bits if cfg.norm == "post" else 0
    return SecureFnSpec("layernorm_row", 64, count=cfg.d_emb, shift=shift, ring=cfg.ring)


def ln_ffn_spec(cfg: ModelConfig) -> SecureFnSpec:
    shift = cfg.ring.frac_bits if cfg.norm == "post" else 0
    return SecureFnSpec("layernorm_row", 64, count=cfg.d_emb, shift=shift, ring=cfg.ring)


def trunc_attn_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec("trunc", 64, shift=3 * cfg.ring.frac_bits, ring=cfg.ring)


def trunc_ffn_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec("trunc", 64, shift=cfg.ring.frac_bits, ring=cfg.ring)


def _stage_rows(spec: SecureFnSpec, raw: np.ndarray, strict: bool) -> np.ndarray:
    if strict:
        check_domain(spec, raw)
    return plain_apply(spec, raw)


def _stage_elem(spec: SecureFnSpec, raw: np.ndarray, strict: bool) -> np.ndarray:
    return _stage_rows(spec, raw.reshape(-1, 1), strict).reshape(raw.shape)


# -- forward pass --------------------------------------------------------


def one_hot(tokens, d_oh: int) -> np.ndarray:
    """Raw 0/1 words (n, d_oh) selecting one vocabulary row per position."""
    idx = np.asarray(tokens)
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("tokens must be a non-empty 1-D index list")
    if idx.min() < 0 or idx.max() >= d_oh:
        raise ValueError(f"token ids must lie in [0, {d_oh})")
    x0 = np.zeros((idx.size, d_oh), dtype=np.uint64)
    x0[np.arange(idx.size), idx] = 1
    return x0


def embed(cfg: ModelConfig, weights: ModelWeights, tokens) -> FixedTensor:
    """Row-lookup path: X1[t] = W_E[token t] * delta + lam[t], at f."""
    idx = np.asarray(tokens)
    rows = weights.w_e.data[idx]
    return FixedTensor(rows * np.uint64(cfg.delta) + cfg.lam.data, cfg.ring)


def _attention(cfg: ModelConfig, blk: BlockWeights, x: FixedTensor, strict: bool) -> np.ndarray:
    """Scores through softmax to P V concat W_O; raw output at 4f."""
    q = mat_mul(x, blk.w_q).data
    k = mat_mul(x, blk.w_k).data
    v = mat_mul(x, blk.w_v).data
    sm = softmax_spec(cfg)
    heads = []
    for h in range(cfg.H):
        sl = slice(h * cfg.d_head, (h + 1) * cfg.d_head)
        s = (q[:, sl] @ k[:, sl].T) * np.uint64(cfg.eta)
        p = _stage_rows(sm, s, strict)
        heads.append(p @ v[:, sl])
    return np.concatenate(heads, axis=1) @ blk.w_o.data


def _ffn(cfg: ModelConfig, blk: BlockWeights, x: np.ndarray, strict: bool) -> np.ndarray:
    hidden = _stage_elem(act_spec(cfg), x @ blk.w_f1.data, strict)
    return hidden @ blk.w_f2.data


def _block_forward(cfg: ModelConfig, blk: BlockWeights, x: FixedTensor, strict: bool) -> FixedTensor:
    f = cfg.ring.frac_bits
    if cfg.norm == "post":
        attn = _attention(cfg, blk, x, strict)
        mid = _stage_rows(ln_attn_spec(cfg), (x.data << np.uint64(3 * f)) + attn, strict)
        ffn = _ffn(cfg, blk, FixedTensor(mid, cfg.ring).data, strict)
        out = _stage_rows(ln_ffn_spec(cfg), (mid << np.uint64(f)) + ffn, strict)
        return FixedTensor(out, cfg.ring)
    normed = FixedTensor(_stage_rows(ln_attn_spec(cfg), x.data, strict), cfg.ring)
    attn = _attention(cfg, blk, normed, strict)
    mid = _stage_elem(trunc_attn_spec(cfg), (x.data << np.uint64(3 * f)) + attn, strict)
    normed2 = _stage_rows(ln_ffn_spec(cfg), mid, strict)
    ffn = _ffn(cfg, blk, normed2, strict)
    out = _stage_elem(trunc_ffn_spec(cfg), (mid << np.uint64(f)) + ffn, strict)
    return FixedTensor(out, cfg.ring)


def final_ln_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec("layernorm_row", 64, count=cfg.d_emb, shift=0, ring=cfg.ring)


def reference_forward(cfg: ModelConfig, weights: ModelWeights, tokens, strict: bool = False) -> FixedTensor:
    """Plaintext fixed-point forward pass from a 1-D token index list
    (embedding by row lookup); logits at 2f."""
    weights.validate(cfg)
    tok = np.asarray(tokens)
    if tok.size != cfg.n:
        raise ValueError(f"expected {cfg.n} tokens, got {tok.size}")
    one_hot(tok, cfg.d_oh)
    x = embed(cfg, weights, tok)
    for blk in weights.blocks:
        x = _block_forward(cfg, blk, x, strict)
    if cfg.norm == "pre":
        x = FixedTensor(_stage_rows(final_ln_spec(cfg), x.data, strict), cfg.ring)
    return mat_mul(x, weights.w_head)
