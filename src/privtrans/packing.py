"""SIMD slot packing for encrypted matrices and the packed HE matmul.

Two layouts for an n x d matrix over M slots (c = ceil(n*d/M) ciphertexts
either way):

  features_first  slot stream g = h*d + j   (token h's features contiguous)
  tokens_first    slot stream g = j*n + h   (feature j's n token values
                                             contiguous, feature-major)

The matmul kernel moves data with cyclic rotations only and is the
accounting baseline: features_first rotates every ciphertext M times,
tokens_first once per multiple of n in [0, M), i.e. ceil(M/n) per
ciphertext.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costs import CostReport
from .ring import FixedTensor, RingParams
from .she import Ciphertext, KeyPair, SecretKey, decrypt, encrypt, he_add, he_mul_plain, he_rotate


class PackingStrategy(Enum):
    FEATURES_FIRST = "features_first"
    TOKENS_FIRST = "tokens_first"


@dataclass(frozen=True)
class PackingLayout:
    strategy: PackingStrategy
    n: int
    d: int
    slots: int

    def __post_init__(self):
        if not (1 <= self.n and 1 <= self.d):
            raise ValueError("n and d must be positive")
        if self.n > self.slots:
            raise ValueError("token count cannot exceed slot count")

    @property
    def c(self) -> int:
        """Ciphertext count: ceil(n*d / M) for both strategies."""
        return -(-self.n * self.d // self.slots)

    def stream_index(self, h: int, j: int) -> int:
        if self.strategy is PackingStrategy.FEATURES_FIRST:
            return h * self.d + j
        return j * self.n + h

    def slot_of(self, h: int, j: int) -> tuple[int, int]:
        """(ciphertext index, slot) for element (token h, feature j)."""
        return divmod(self.stream_index(h, j), self.slots)

    def with_features(self, d: int) -> "PackingLayout":
        return PackingLayout(self.strategy, self.n, d, self.slots)


def plan_layout(n: int, d: int, slots: int) -> PackingLayout:
    """Pick the strategy with strictly fewer predicted naive rotations.

    tokens_first wins iff c*ceil(M/n) < c*M; ties (n = 1) keep
    features_first. Either layout refuses n > M.
    """
    if -(-slots // n) < slots:
        return PackingLayout(PackingStrategy.TOKENS_FIRST, n, d, slots)
    return PackingLayout(PackingStrategy.FEATURES_FIRST, n, d, slots)


def predicted_rotations(layout: PackingLayout) -> int:
    """Naive-kernel rotation count for one matmul over this layout."""
    if layout.strategy is PackingStrategy.TOKENS_FIRST:
        return layout.c * -(-layout.slots // layout.n)
    return layout.c * layout.slots


# -- pack / unpack ---------------------------------------------------------


def pack_plain(x: FixedTensor, layout: PackingLayout) -> list[np.ndarray]:
    """Arrange x into c slot vectors (zero padding in unused slots)."""
    if x.shape != (layout.n, layout.d):
        raise ValueError(f"tensor {x.shape} does not match layout ({layout.n}, {layout.d})")
    stream = np.zeros(layout.c * layout.slots, dtype=np.uint64)
    if layout.strategy is PackingStrategy.FEATURES_FIRST:
        stream[: layout.n * layout.d] = x.data.reshape(-1)
    else:
        stream[: layout.n * layout.d] = x.data.T.reshape(-1)
    return [stream[i * layout.slots : (i + 1) * layout.slots].copy() for i in range(layout.c)]


def unpack_plain(vecs: list[np.ndarray], layout: PackingLayout, ring: RingParams) -> FixedTensor:
    stream = np.concatenate([np.asarray(v, dtype=np.uint64) for v in vecs])
    body = stream[: layout.n * layout.d]
    if layout.strategy is PackingStrategy.FEATURES_FIRST:
        data = body.reshape(layout.n, layout.d)
    else:
        data = body.reshape(layout.d, layout.n).T
    return FixedTensor(data, ring)


def pack(
    x: FixedTensor, layout: PackingLayout, key: KeyPair, report: CostReport | None = None
) -> list[Ciphertext]:
    return [encrypt(v, key, report) for v in pack_plain(x, layout)]


def unpack(
    cts: list[Ciphertext], layout: PackingLayout, sk: SecretKey, ring: RingParams,
    report: CostReport | None = None,
) -> FixedTensor:
    vecs = [decrypt(ct, sk, report) for ct in cts]
    return unpack_plain(vecs, layout, ring)


# -- packed matmul ---------------------------------------------------------


def _diagonal_masks(layout_in: PackingLayout, layout_out: PackingLayout, w: FixedTensor):
    """Group contributions X[h,j]*W[j,o] -> out[h,o] by (in ct, shift, out ct).

    Rotating input ciphertext i left by `shift` aligns source slot s_in
    onto s_out = (s_in - shift) mod M; the plaintext mask carries W[j,o] at
    every aligned output slot. Stored sparse; one (slot, weight) pair per
    contribution, no slot collisions because the layouts are bijections.
    """
    m = layout_in.slots
    masks: dict[tuple[int, int, int], tuple[list[int], list[int]]] = {}
    wd = w.data
    for h in range(layout_in.n):
        for j in range(layout_in.d):
            i_ct, s_in = layout_in.slot_of(h, j)
            row = wd[j]
            for o in range(layout_out.d):
                wv = int(row[o])
                if wv == 0:
                    continue
                t_ct, s_out = layout_out.slot_of(h, o)
                shift = (s_in - s_out) % m
                entry = masks.get((i_ct, shift, t_ct))
                if entry is None:
                    entry = masks[(i_ct, shift, t_ct)] = ([], [])
                entry[0].append(s_out)
                entry[1].append(wv)
    return masks


def _zero_like(ct: Ciphertext) -> Ciphertext:
    # transparent zero accumulator: no HE op, decrypts to zeros under any key
    z = np.zeros(ct.params.slots, dtype=np.uint64)
    return Ciphertext(z.copy(), z.copy(), ct.key_id, ct.params)


def he_matmul(
    cts: list[Ciphertext],
    layout: PackingLayout,
    w: FixedTensor,
    report: CostReport | None = None,
    kernel: str = "naive",
) -> tuple[list[Ciphertext], PackingLayout]:
    """Encrypted X [n x d1] times plaintext W [d1 x d2], packed in, packed out.

    Reproduces the baseline rotation counts exactly; see the module
    docstring. "naive" is the only kernel; the argument stays for callers
    that pass it through.
    """
    if kernel != "naive":
        raise ValueError(f"unknown kernel {kernel!r}")
    if w.rows != layout.d:
        raise ValueError(f"weight rows {w.rows} != layout features {layout.d}")
    if len(cts) != layout.c:
        raise ValueError(f"expected {layout.c} ciphertexts, got {len(cts)}")
    layout_out = layout.with_features(w.cols)
    m = layout.slots
    if layout.strategy is PackingStrategy.TOKENS_FIRST:
        if m % layout.n:
            raise ValueError("tokens_first kernel needs n | M")
        shifts = range(0, m, layout.n)  # ceil(M/n) rotations per ciphertext
    else:
        shifts = range(m)  # baseline one-slot-at-a-time loop: M per ciphertext
    masks = _diagonal_masks(layout, layout_out, w)
    acc: list[Ciphertext | None] = [None] * layout_out.c
    for i, ct in enumerate(cts):
        for shift in shifts:
            rot = he_rotate(ct, shift, report)
            for t in range(layout_out.c):
                entry = masks.get((i, shift, t))
                if entry is None:
                    continue
                mask = np.zeros(m, dtype=np.uint64)
                mask[entry[0]] = np.array(entry[1], dtype=np.uint64)
                prod = he_mul_plain(rot, mask, report)
                acc[t] = prod if acc[t] is None else he_add(acc[t], prod, report)
    return [a if a is not None else _zero_like(cts[0]) for a in acc], layout_out
