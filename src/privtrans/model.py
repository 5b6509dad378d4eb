"""Encoder transformer over the fixed-point ring: config, weights, reference.

The reference forward pass is the single source of truth for what every
protocol mode must reconstruct. It runs entirely on ring words and calls
the same nonpoly stage specs (softmax, layernorm, activation, truncation)
through plain_apply, so reference and protocol agree bit for bit by
construction rather than by tolerance.

Scale ladder (f = frac_bits): the one-hot input is raw, so
X1 = X0 W_E delta + lambda sits at f. Both norm orders run one block
shape: each sublayer is normalize (pre-norm only, a shift-0 layernorm),
sublayer, close. Q/K/V at 2f, scores at 4f, times the encoded 1/sqrt(n)
at 5f; the softmax stage truncates by 4f and emits probabilities at f.
P V at 3f, times W_O at 4f, plus the residual shifted up by 3f. FFN
products at 2f with the activation truncating by f, plus the residual
shifted up by f. Each close brings its sum back to f: a layernorm in a
post-norm model, a truncation in a pre-norm one. A pre-norm model
normalizes once more before the head.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ring import DEFAULT_RING, FixedTensor, RingParams, mat_mul
from .securefn import SecureFnSpec, check_domain, check_frac_bits, plain_apply

ACTIVATIONS = ("relu", "gelu")
NORM_ORDERS = ("post", "pre")

WEIGHT_MAGIC = b"PTW1"
WEIGHT_VERSION = 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
            if not _is_int(v) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.delta >= 2**64:
            raise ValueError(f"delta must be below 2**64, a ring word, got {self.delta}")
        if self.d_emb % self.H != 0:
            raise ValueError(f"d_emb={self.d_emb} not divisible by H={self.H}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.norm not in NORM_ORDERS:
            raise ValueError(f"norm must be one of {NORM_ORDERS}")
        check_frac_bits(self.activation, self.ring)
        lam = self.lam
        if lam is None:
            lam = FixedTensor.zeros(self.n, self.d_emb, self.ring)
        elif not isinstance(lam, FixedTensor):
            # NaN fails the test too; a word past 2^63 would wrap to INT64_MIN,
            # and an int too large for a float has no float to test
            try:
                ok = (np.abs(np.asarray(lam, dtype=np.float64)) * self.ring.scale < 2.0**63).all()
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError(f"lam must be finite with |lam| * 2**{self.ring.frac_bits} below "
                                 "2**63: larger, NaN or inf has no ring encoding")
            lam = FixedTensor.from_float(lam, self.ring)
        elif lam.ring != self.ring:
            raise ValueError(f"lam is in ring {lam.ring}, the config's is {self.ring}")
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
            if t.ring != cfg.ring:
                raise ValueError(f"{name}: ring {t.ring}, config wants {cfg.ring}")
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


_BLOCK_PARTS = ("w_q", "w_k", "w_v", "w_o", "w_f1", "w_f2")
_BLOCK_NAME = re.compile(r"block(0|[1-9][0-9]*)\.(" + "|".join(_BLOCK_PARTS) + ")")


def weight_items(weights: ModelWeights):
    """Canonical (name, tensor) order used by the file format."""
    yield "w_e", weights.w_e
    for i, blk in enumerate(weights.blocks):
        for part in _BLOCK_PARTS:
            yield f"block{i}.{part}", getattr(blk, part)
    yield "w_head", weights.w_head


def _weights_from_map(tensors: Mapping[str, FixedTensor]) -> ModelWeights:
    block_ids = set()
    for name in tensors:
        m = _BLOCK_NAME.fullmatch(name)
        if m:
            block_ids.add(int(m.group(1)))
        elif name not in ("w_e", "w_head"):
            raise ValueError(f"unknown weight tensor {name!r}")
    block_ids = sorted(block_ids)
    if block_ids != list(range(len(block_ids))):
        raise ValueError("block indices must be contiguous from 0")
    try:
        blocks = tuple(
            BlockWeights(*(tensors[f"block{i}.{p}"] for p in _BLOCK_PARTS))
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


def _check_header(header) -> None:
    """Raise a ValueError naming the first field of a weight header that is
    missing or of the wrong type."""
    if not isinstance(header, dict):
        raise ValueError("weight header must be a JSON object")
    for name in ("value_bits", "frac_bits"):
        if not _is_int(header.get(name)):
            raise ValueError(f"weight header field {name!r} must be an integer")
    tensors = header.get("tensors")
    if not isinstance(tensors, list):
        raise ValueError("weight header field 'tensors' must be a list")
    for i, entry in enumerate(tensors):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and all(_is_int(entry.get(k)) and entry[k] >= 1 for k in ("rows", "cols"))):
            raise ValueError(f"weight header field 'tensors[{i}]' must be "
                             "{name: str, rows: int >= 1, cols: int >= 1}")


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
    _check_header(header)
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
        if entry["name"] in tensors:
            raise ValueError(f"weight tensor {entry['name']!r} appears twice")
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
    return ModelConfig(**kwargs)


# -- nonpoly stage specs (shared verbatim with the protocol engine) ------


def softmax_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec("softmax_row", count=cfg.n, shift=4 * cfg.ring.frac_bits, ring=cfg.ring)


def act_spec(cfg: ModelConfig) -> SecureFnSpec:
    return SecureFnSpec(cfg.activation, shift=cfg.ring.frac_bits, ring=cfg.ring)


def norm_spec(cfg: ModelConfig) -> SecureFnSpec:
    """Shift-0 layer norm: opens each pre-norm sublayer and ends the model."""
    return SecureFnSpec("layernorm_row", count=cfg.d_emb, shift=0, ring=cfg.ring)


def close_spec(cfg: ModelConfig, shift: int) -> SecureFnSpec:
    """The stage that brings a residual sum at f + shift back to f: a layer
    norm in a post-norm model, a truncation in a pre-norm one."""
    if cfg.norm == "post":
        return SecureFnSpec("layernorm_row", count=cfg.d_emb, shift=shift, ring=cfg.ring)
    return SecureFnSpec("trunc", shift=shift, ring=cfg.ring)


def _stage(spec: SecureFnSpec, raw: np.ndarray, strict: bool) -> np.ndarray:
    """The stage on raw words, spec.count words per lane."""
    lanes = raw.reshape(-1, spec.count)
    if strict:
        check_domain(spec, lanes)
    return plain_apply(spec, lanes).reshape(raw.shape)


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
        p = _stage(sm, s, strict)
        heads.append(p @ v[:, sl])
    return np.concatenate(heads, axis=1) @ blk.w_o.data


def _ffn(cfg: ModelConfig, blk: BlockWeights, x: FixedTensor, strict: bool) -> np.ndarray:
    hidden = _stage(act_spec(cfg), mat_mul(x, blk.w_f1).data, strict)
    return hidden @ blk.w_f2.data


def _norm(cfg: ModelConfig, x: FixedTensor, strict: bool) -> FixedTensor:
    """norm_spec in a pre-norm model, the identity in a post-norm one."""
    return x if cfg.norm == "post" else FixedTensor(_stage(norm_spec(cfg), x.data, strict), cfg.ring)


def _close(cfg: ModelConfig, x: FixedTensor, y: np.ndarray, shift: int, strict: bool) -> FixedTensor:
    """The residual sum x * 2^shift + y through close_spec, back at f."""
    return FixedTensor(_stage(close_spec(cfg, shift), x.lshift(shift).data + y, strict), cfg.ring)


def _block_forward(cfg: ModelConfig, blk: BlockWeights, x: FixedTensor, strict: bool) -> FixedTensor:
    f = cfg.ring.frac_bits
    mid = _close(cfg, x, _attention(cfg, blk, _norm(cfg, x, strict), strict), 3 * f, strict)
    return _close(cfg, mid, _ffn(cfg, blk, _norm(cfg, mid, strict), strict), f, strict)


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
    return mat_mul(_norm(cfg, x, strict), weights.w_head)
