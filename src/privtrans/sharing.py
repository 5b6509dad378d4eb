"""Ring masks, encrypted-row matrix ops, and HE-backed matrix triples.

Masks are sampled uniformly over the WHOLE ring (not the value range): a
masked message x - r is then itself ring-uniform, which is what the
chi-square acceptance test checks.

Row-encrypted matrices hold one ciphertext per row. `plain_left_matmul`
(plaintext @ rows) takes additive ops only; `enc_left_matmul` (rows @
plaintext) takes the diagonal method, one rotation per row and nonzero
diagonal of the plaintext.

A MatTriple carries the row-encrypted Enc(L), Enc(R) and Enc(L @ R) of
the client's masks L, R, and no plaintext mask: it is the server's
material, kept under a module id, and the client keeps L and R. For the attention-score product
Q @ K^T the two masks are the same matrix and its transpose, so the
product ciphertext decrypts to mask @ mask.T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostReport
from .ring import FixedTensor, RingParams, mat_mul
from .she import Ciphertext, KeyPair, decrypt, encrypt, he_add, he_mul_plain, he_rotate


def rand_ring(shape, rng: np.random.Generator, ring: RingParams) -> FixedTensor:
    return FixedTensor(rng.integers(0, 1 << 64, size=shape, dtype=np.uint64), ring)


# -- row-encrypted matrices -------------------------------------------------


def enc_rows(x: FixedTensor, key: KeyPair, report: CostReport) -> list[Ciphertext]:
    if x.cols > key.params.slots:
        raise ValueError(f"{x.cols} columns exceed {key.params.slots} slots")
    return [encrypt(x.data[i], key, report) for i in range(x.rows)]


def dec_rows(
    cts: list[Ciphertext], cols: int, key: KeyPair, ring: RingParams, report: CostReport
) -> FixedTensor:
    rows = [decrypt(ct, key, report)[:cols] for ct in cts]
    return FixedTensor(np.stack(rows), ring)


def plain_left_matmul(
    p: FixedTensor, rows_ct: list[Ciphertext], report: CostReport
) -> list[Ciphertext]:
    """Enc rows of p @ B from plaintext p [a x b] and Enc(B) rows [b of them].

    Row i is a scalar combination sum_j p[i,j] * Enc(B[j]); additive ops
    only, no rotations.
    """
    if p.cols != len(rows_ct):
        raise ValueError("inner dimension mismatch")
    out = []
    for i in range(p.rows):
        acc = None
        for j in range(p.cols):
            term = he_mul_plain(rows_ct[j], int(p.data[i, j]), report)
            acc = term if acc is None else he_add(acc, term, report)
        out.append(acc)
    return out


def enc_left_matmul(
    rows_ct: list[Ciphertext], r_plain: FixedTensor, report: CostReport
) -> list[Ciphertext]:
    """Enc rows of L @ r_plain from Enc(L) rows [a x b] and plaintext R [b x c].

    The diagonal method of Halevi and Shoup: with R zero-padded to M x M,
    row i is sum_s rot(Enc(L[i]), s) * d_s for the diagonals d_s[o] =
    R[(o+s) mod M, o]. Only the D nonzero diagonals are used, D <=
    min(M, b+c-1), so a row costs D rotations, D plaintext products and
    D-1 additions. An all-zero R keeps diagonal 0 (D = 1), so every row is
    still a ciphertext, of zeros.
    """
    slots = rows_ct[0].params.slots
    if max(r_plain.shape) > slots:
        raise ValueError(f"a {r_plain.rows} x {r_plain.cols} plaintext exceeds {slots} slots")
    padded = np.zeros((slots, r_plain.cols), dtype=np.uint64)
    padded[: r_plain.rows] = r_plain.data
    o = np.arange(r_plain.cols)
    diags = padded[(np.arange(slots)[:, None] + o) % slots, o]
    shifts = np.flatnonzero(diags.any(axis=1)) if diags.any() else np.zeros(1, dtype=np.intp)
    masks = np.zeros((len(shifts), slots), dtype=np.uint64)
    masks[:, : r_plain.cols] = diags[shifts]
    out = []
    for ct in rows_ct:
        acc = None
        for shift, mask in zip(shifts.tolist(), masks):
            term = he_mul_plain(he_rotate(ct, shift, report), mask, report)
            acc = term if acc is None else he_add(acc, term, report)
        out.append(acc)
    return out


# -- matrix triples ----------------------------------------------------------


@dataclass
class MatTriple:
    """Offline material for one masked matrix product L-shape @ R-shape."""

    left_ct: list[Ciphertext]
    right_ct: list[Ciphertext]
    product_ct: list[Ciphertext]


def make_product_triple(
    left: FixedTensor,
    right: FixedTensor,
    key: KeyPair,
    report: CostReport,
) -> MatTriple:
    """Client-side triple from given masks: encrypt L, R, and L @ R rows."""
    if left.cols != right.rows:
        raise ValueError("mask shapes do not chain")
    return MatTriple(
        left_ct=enc_rows(left, key, report),
        right_ct=enc_rows(right, key, report),
        product_ct=enc_rows(mat_mul(left, right), key, report),
    )
