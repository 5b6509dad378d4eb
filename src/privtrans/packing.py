"""SIMD slot packing for encrypted matrices and the packed HE matmul.

Two layouts for an n x d matrix over M slots (c = ceil(n*d/M) ciphertexts
either way), defined in one place, `PackingLayout.positions`, as the stream
position g of element (token h, feature j); g sits in ciphertext g // M,
slot g % M:

  features_first  g = h*d + j   (token h's features contiguous)
  tokens_first    g = j*n + h   (feature j's n token values contiguous)

The matmul kernel moves data with cyclic rotations only and is the
accounting baseline. Its rotation schedule, and so the rotation bill, is
`PackingLayout.shifts`: every shift in [0, M) features_first (M per
ciphertext), every multiple of n in [0, M) tokens_first (ceil(M/n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costs import CostReport
from .ring import FixedTensor, RingParams
from .she import Ciphertext, KeyPair, decrypt, encrypt, he_add, he_mul_plain, he_rotate


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

    @property
    def positions(self) -> np.ndarray:
        """(n, d) stream position of every element (token h, feature j)."""
        if self.strategy is PackingStrategy.FEATURES_FIRST:
            return np.arange(self.n * self.d).reshape(self.n, self.d)
        return np.arange(self.d * self.n).reshape(self.d, self.n).T

    @property
    def shifts(self) -> range:
        """The naive kernel's left rotations of each input ciphertext."""
        if self.strategy is PackingStrategy.FEATURES_FIRST:
            return range(self.slots)
        return range(0, self.slots, self.n)

    def with_features(self, d: int) -> "PackingLayout":
        return PackingLayout(self.strategy, self.n, d, self.slots)


def predicted_rotations(layout: PackingLayout) -> int:
    """Naive-kernel rotation count for one matmul over this layout."""
    return layout.c * len(layout.shifts)


def plan_layout(n: int, d: int, slots: int) -> PackingLayout:
    """The strategy with the fewest predicted naive rotations that the
    kernel runs (tokens_first only if n divides M); ties (n = 1) keep
    features_first, the first listed. Either layout refuses n > M."""
    layouts = (PackingLayout(s, n, d, slots) for s in PackingStrategy)
    return min((lo for lo in layouts if slots % lo.shifts.step == 0), key=predicted_rotations)


# -- pack / unpack ---------------------------------------------------------


def pack_plain(x: FixedTensor, layout: PackingLayout) -> list[np.ndarray]:
    """Arrange x into c slot vectors (zero padding in unused slots)."""
    if x.shape != (layout.n, layout.d):
        raise ValueError(f"tensor {x.shape} does not match layout ({layout.n}, {layout.d})")
    stream = np.zeros(layout.c * layout.slots, dtype=np.uint64)
    stream[layout.positions] = x.data
    return list(stream.reshape(layout.c, layout.slots))


def unpack_plain(vecs: list[np.ndarray], layout: PackingLayout, ring: RingParams) -> FixedTensor:
    stream = np.concatenate([np.asarray(v, dtype=np.uint64) for v in vecs])
    return FixedTensor(stream[layout.positions], ring)


def pack(
    x: FixedTensor, layout: PackingLayout, key: KeyPair, report: CostReport
) -> list[Ciphertext]:
    return [encrypt(v, key, report) for v in pack_plain(x, layout)]


def unpack(
    cts: list[Ciphertext], layout: PackingLayout, key: KeyPair, ring: RingParams,
    report: CostReport,
) -> FixedTensor:
    vecs = [decrypt(ct, key, report) for ct in cts]
    return unpack_plain(vecs, layout, ring)


# -- packed matmul ---------------------------------------------------------


def _diagonal_masks(layout_in: PackingLayout, layout_out: PackingLayout, w: FixedTensor):
    """The mask plan {i*M + shift: [(t, mask), ...]}, ascending in (in ct,
    shift, out ct), for contributions X[h,j]*W[j,o] -> out[h,o].

    Rotating input ciphertext i left by `shift` aligns source slot s_in
    onto s_out = (s_in - shift) mod M; the dense mask of output ciphertext
    t carries W[j,o] at every aligned output slot. Only masks with a
    nonzero weight exist; no slot collides because the layouts are
    bijections.
    """
    m, c_out = layout_in.slots, layout_out.c
    h, j, o = np.nonzero(np.broadcast_to(w.data != 0, (layout_in.n, *w.shape)))
    i_ct, s_in = np.divmod(layout_in.positions[h, j], m)
    t_ct, s_out = np.divmod(layout_out.positions[h, o], m)
    keys, group = np.unique((i_ct * m + (s_in - s_out) % m) * c_out + t_ct, return_inverse=True)
    masks = np.zeros((len(keys), m), dtype=np.uint64)
    masks[group, s_out] = w.data[j, o]
    plan: dict[int, list] = {}
    for key, mask in zip(keys.tolist(), masks):
        rot, t = divmod(key, c_out)
        plan.setdefault(rot, []).append((t, mask))
    return plan


def _zero_like(ct: Ciphertext) -> Ciphertext:
    # transparent zero accumulator (0, 0): no HE op, decrypts to zeros under any key
    z = np.zeros(ct.params.slots, dtype=np.uint64)
    return Ciphertext(z, z, ct.key_id, ct.params)


def he_matmul(
    cts: list[Ciphertext],
    layout: PackingLayout,
    w: FixedTensor,
    report: CostReport,
    kernel: str = "naive",
) -> tuple[list[Ciphertext], PackingLayout]:
    """Encrypted X [n x d1] times plaintext W [d1 x d2], packed in, packed out.

    Rotates each ciphertext by every shift of `layout.shifts`, which
    reproduces the baseline rotation counts exactly; see the module
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
    m, c_out, shifts = layout.slots, layout_out.c, layout.shifts
    if m % shifts.step:
        # tokens_first: a shift aligns a token's slots only if n | M
        raise ValueError(f"{layout.strategy.value} kernel needs n={layout.n} to divide M={m}")
    plan = _diagonal_masks(layout, layout_out, w)
    acc: list[Ciphertext | None] = [None] * c_out
    for i, ct in enumerate(cts):
        for shift in shifts:
            rot = he_rotate(ct, shift, report)
            for t, mask in plan.get(i * m + shift, ()):
                prod = he_mul_plain(rot, mask, report)
                acc[t] = prod if acc[t] is None else he_add(acc[t], prod, report)
    return [a if a is not None else _zero_like(cts[0]) for a in acc], layout_out
