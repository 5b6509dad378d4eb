"""Ring masks, encrypted-row matrix ops, and HE-backed matrix triples.

Masks are sampled uniformly over the WHOLE ring (not the value range): a
masked message x - r is then itself ring-uniform, which is what the
chi-square acceptance test checks.

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
from .she import Ciphertext, KeyPair, SecretKey, decrypt, encrypt, he_add, he_mul_plain, he_rotate


def rand_ring(shape, rng: np.random.Generator, ring: RingParams) -> FixedTensor:
    return FixedTensor(rng.integers(0, 1 << 64, size=shape, dtype=np.uint64), ring)


# -- row-encrypted matrices -------------------------------------------------
# One ciphertext per matrix row; enough for triple algebra, which only ever
# multiplies encrypted rows by plaintext scalars / vectors.


def enc_rows(x: FixedTensor, key: KeyPair, report: CostReport | None = None) -> list[Ciphertext]:
    if x.cols > key.params.slots:
        raise ValueError(f"{x.cols} columns exceed {key.params.slots} slots")
    return [encrypt(x.data[i], key, report) for i in range(x.rows)]


def dec_rows(
    cts: list[Ciphertext], cols: int, sk: SecretKey, ring: RingParams, report: CostReport | None = None
) -> FixedTensor:
    rows = [decrypt(ct, sk, report)[:cols] for ct in cts]
    return FixedTensor(np.stack(rows), ring)


def plain_left_matmul(
    p: FixedTensor, rows_ct: list[Ciphertext], report: CostReport | None = None
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


def rotate_reduce_sum(ct: Ciphertext, report: CostReport | None = None) -> Ciphertext:
    """Leave the sum of all M slots in every slot (log2 M rotations)."""
    step = ct.params.slots // 2
    while step >= 1:
        ct = he_add(ct, he_rotate(ct, step, report), report)
        step //= 2
    return ct


def enc_left_matmul(
    rows_ct: list[Ciphertext], r_plain: FixedTensor, report: CostReport | None = None
) -> list[Ciphertext]:
    """Enc rows of L @ r_plain from Enc(L) rows [a x b] and plaintext [b x c].

    Each output entry is an encrypted inner product: mask the row with the
    plaintext column, rotate-reduce, then select the destination slot. The
    inner dimension b is r_plain.rows; slots of Enc(L) past it must be zero,
    as enc_rows leaves them.
    """
    slots = rows_ct[0].params.slots
    out = []
    for ct in rows_ct:
        acc = None
        for k in range(r_plain.cols):
            col = np.zeros(slots, dtype=np.uint64)
            col[: r_plain.rows] = r_plain.data[:, k]
            total = rotate_reduce_sum(he_mul_plain(ct, col, report), report)
            sel = np.zeros(slots, dtype=np.uint64)
            sel[k] = 1
            term = he_mul_plain(total, sel, report)
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
    report: CostReport | None = None,
) -> MatTriple:
    """Client-side triple from given masks: encrypt L, R, and L @ R rows."""
    if left.cols != right.rows:
        raise ValueError("mask shapes do not chain")
    return MatTriple(
        left_ct=enc_rows(left, key, report),
        right_ct=enc_rows(right, key, report),
        product_ct=enc_rows(mat_mul(left, right), key, report),
    )
