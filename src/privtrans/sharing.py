"""Ring masks, encrypted-row matrix ops, and HE-backed matrix triples.

Masks are sampled uniformly over the WHOLE ring (not the value range): a
masked message x - r is then itself ring-uniform, which is what the
chi-square acceptance test checks.

A row-encrypted matrix is one ciphertext batch with one ciphertext per
row, and each kernel call acts on all its rows at once. For a [a x b]
plaintext-left product `plain_left_matmul` (plaintext @ rows) makes b
plaintext products and b-1 additions, billed a each: a*b and a*(b-1) ops,
no rotations. `enc_left_matmul` (rows [a x b] @ plaintext [b x c]) takes
the diagonal method: D rotations, D products and D-1 additions for the D
nonzero diagonals of the plaintext, billed a each.

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


def enc_rows(x: FixedTensor, key: KeyPair, report: CostReport) -> Ciphertext:
    return encrypt(x.data, key, report)


def dec_rows(
    ct: Ciphertext, cols: int, key: KeyPair, ring: RingParams, report: CostReport
) -> FixedTensor:
    return FixedTensor(decrypt(ct, key, report)[:, :cols], ring)


def plain_left_matmul(p: FixedTensor, rows_ct: Ciphertext, report: CostReport) -> Ciphertext:
    """Enc rows of p @ B from plaintext p [a x b] and Enc(B) rows [b of them].

    Row i is a scalar combination sum_j p[i,j] * Enc(B[j]): per j, one
    product of Enc(B[j]) by the column p[:, j] spread over the slots makes
    all a rows at once. b products and b-1 additions, billed a each;
    additive ops only, no rotations.
    """
    if p.cols != rows_ct.count:
        raise ValueError("inner dimension mismatch")
    shape = (p.rows, rows_ct.params.slots)
    acc = None
    for j in range(p.cols):
        term = he_mul_plain(rows_ct.row(j), np.broadcast_to(p.data[:, j, None], shape), report)
        acc = term if acc is None else he_add(acc, term, report)
    return acc


def enc_left_matmul(rows_ct: Ciphertext, r_plain: FixedTensor, report: CostReport) -> Ciphertext:
    """Enc rows of L @ r_plain from Enc(L) rows [a x b] and plaintext R [b x c].

    The diagonal method of Halevi and Shoup: with R zero-padded to M x M,
    row i is sum_s rot(Enc(L[i]), s) * d_s for the diagonals d_s[o] =
    R[(o+s) mod M, o]. Only the D nonzero diagonals are used, D <=
    min(M, b+c-1), so the kernel makes D rotations, D plaintext products
    and D-1 additions, each on all a rows and billed a. An all-zero R keeps
    diagonal 0 (D = 1), so every row is still a ciphertext, of zeros.
    """
    slots = rows_ct.params.slots
    if max(r_plain.shape) > slots:
        raise ValueError(f"a {r_plain.rows} x {r_plain.cols} plaintext exceeds {slots} slots")
    padded = np.zeros((slots, r_plain.cols), dtype=np.uint64)
    padded[: r_plain.rows] = r_plain.data
    o = np.arange(r_plain.cols)
    diags = padded[(np.arange(slots)[:, None] + o) % slots, o]
    shifts = np.flatnonzero(diags.any(axis=1)) if diags.any() else np.zeros(1, dtype=np.intp)
    masks = np.zeros((len(shifts), slots), dtype=np.uint64)
    masks[:, : r_plain.cols] = diags[shifts]
    acc = None
    for shift, mask in zip(shifts.tolist(), masks):
        term = he_mul_plain(he_rotate(rows_ct, shift, report), mask, report)
        acc = term if acc is None else he_add(acc, term, report)
    return acc


# -- matrix triples ----------------------------------------------------------


@dataclass
class MatTriple:
    """Offline material for one masked matrix product L-shape @ R-shape."""

    left_ct: Ciphertext
    right_ct: Ciphertext
    product_ct: Ciphertext


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
