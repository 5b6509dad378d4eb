"""Float64 transformer forward pass, independent of the package under test.

It follows the same graph as the fixed-point model (norm placement, a
1/sqrt(n) attention scale, layer norm without affine terms and with the
2^-12 variance floor), but every number is a float64 and softmax, GELU
and the inverse square root are exact. The only package code the
benchmark feeds it is the decoding of weights and logits, done by the
caller. A disagreement larger than the workload's tolerance therefore
comes from the ring arithmetic or the protocol.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 2.0 ** -12


def _softmax(rows: np.ndarray) -> np.ndarray:
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layernorm(rows: np.ndarray) -> np.ndarray:
    mu = rows.mean(axis=1, keepdims=True)
    var = ((rows - mu) ** 2).mean(axis=1, keepdims=True)
    return (rows - mu) / np.sqrt(var + LN_EPS)


_erf = np.vectorize(math.erf)


def _act(name: str, x: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(x, 0.0)
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


def forward(model: dict, w: dict, tokens) -> np.ndarray:
    """Logits (n, d_out) in float64.

    model: the workload's plain config dict (N, d_emb, H, n, activation,
    norm). w: float64 arrays "w_e", "w_head" and "block<i>.w_q" ... as
    decoded from the ring; the positional terms are the defaults
    (delta = 1, lam = 0).
    """
    n, heads = model["n"], model["H"]
    d_head = model["d_emb"] // heads
    scale = 1.0 / math.sqrt(n)
    act, norm = model.get("activation", "relu"), model.get("norm", "post")
    x = w["w_e"][np.asarray(tokens)]
    for i in range(model["N"]):
        b = {k.split(".", 1)[1]: v for k, v in w.items() if k.startswith(f"block{i}.")}

        def attention(inp):
            q, k, v = inp @ b["w_q"], inp @ b["w_k"], inp @ b["w_v"]
            outs = []
            for h in range(heads):
                sl = slice(h * d_head, (h + 1) * d_head)
                outs.append(_softmax(q[:, sl] @ k[:, sl].T * scale) @ v[:, sl])
            return np.concatenate(outs, axis=1) @ b["w_o"]

        def ffn(inp):
            return _act(act, inp @ b["w_f1"]) @ b["w_f2"]

        if norm == "post":
            x = _layernorm(x + attention(x))
            x = _layernorm(x + ffn(x))
        else:
            x = x + attention(_layernorm(x))
            x = x + ffn(_layernorm(x))
    if norm == "pre":
        x = _layernorm(x)
    return x @ w["w_head"]
