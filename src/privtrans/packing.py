"""SIMD slot packing for encrypted matrices and the packed HE matmul.

Two layouts for an n x d matrix over M slots (c = ceil(n*d/M) ciphertexts
either way), defined in one place, `PackingLayout.positions`, as the stream
position g of element (token h, feature j); g sits in ciphertext g // M,
slot g % M:

  features_first  g = h*d + j   (token h's features contiguous)
  tokens_first    g = j*n + h   (feature j's n token values contiguous)

A packed matrix is one `she.Ciphertext` batch of its c ciphertexts:
`pack` is one encrypt and `unpack` one decrypt, each billed c.

The matmul kernel moves data with cyclic rotations only and is the
accounting baseline. Its rotation schedule, and so the rotation bill, is
`PackingLayout.shifts`: every shift in [0, M) features_first (M per
ciphertext), every multiple of n in [0, M) tokens_first (ceil(M/n)). It
bills what one op per ciphertext, per mask and per addition would (c
rotations per shift, K plaintext products for the K masks, one addition
fewer than its products per output), but makes few op calls, each on a
batch: |shifts| rotations, one product and k_max - 1 additions, for
k_max the most products any one output ciphertext sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


def pack_plain(x: FixedTensor, layout: PackingLayout) -> np.ndarray:
    """Arrange x into the (c, M) slot matrix, zero padding in unused slots."""
    if x.shape != (layout.n, layout.d):
        raise ValueError(f"tensor {x.shape} does not match layout ({layout.n}, {layout.d})")
    stream = np.zeros(layout.c * layout.slots, dtype=np.uint64)
    stream[layout.positions] = x.data
    return stream.reshape(layout.c, layout.slots)


def unpack_plain(vecs: np.ndarray, layout: PackingLayout, ring: RingParams) -> FixedTensor:
    """x back from its (c, M) slot matrix."""
    stream = np.asarray(vecs, dtype=np.uint64).reshape(-1)
    return FixedTensor(stream[layout.positions], ring)


def pack(x: FixedTensor, layout: PackingLayout, key: KeyPair, report: CostReport) -> Ciphertext:
    """x as one batch of c ciphertexts: one encrypt, billed c."""
    return encrypt(pack_plain(x, layout), key, report)


def unpack(
    cts: Ciphertext, layout: PackingLayout, key: KeyPair, ring: RingParams, report: CostReport,
) -> FixedTensor:
    """The packed batch decrypted: one decrypt, billed c."""
    return unpack_plain(decrypt(cts, key, report), layout, ring)


# -- packed matmul ---------------------------------------------------------


class MaskPlan(NamedTuple):
    """The diagonal masks of one packed matmul, one entry per (out ct, in
    ct, shift) with a nonzero weight.

    Entries are grouped by output ciphertext, groups ordered largest
    first (ties by out ct), and laid out rank-major: the first product of
    every group, then the second of every group that has one, and so on.
    The groups that still have a product at rank r are therefore the
    first live[r]; inside a group, (in ct, shift) ascends.
    """

    live: np.ndarray  # (k_max,) groups with a product at each rank
    out_ct: np.ndarray  # (K,) per entry
    in_ct: np.ndarray  # (K,)
    shift: np.ndarray  # (K,)
    masks: np.ndarray  # (K, M)


def _diagonal_masks(
    layout_in: PackingLayout, layout_out: PackingLayout, w: FixedTensor
) -> MaskPlan:
    """The mask plan for contributions X[h,j]*W[j,o] -> out[h,o].

    Rotating input ciphertext i left by `shift` aligns source slot s_in
    onto s_out = (s_in - shift) mod M; the dense mask of output ciphertext
    t carries W[j,o] at every aligned output slot. Only masks with a
    nonzero weight exist; no slot collides because the layouts are
    bijections.
    """
    m, c_in, c_out = layout_in.slots, layout_in.c, layout_out.c
    i_ct, s_in = (a[:, :, None] for a in np.divmod(layout_in.positions, m))
    t_ct, s_out = (a[:, None, :] for a in np.divmod(layout_out.positions, m))
    nonzero = np.broadcast_to(w.data != 0, (layout_in.n, *w.shape))
    # M is a power of two (HEParams), so & (M - 1) is the shift mod M
    key = ((t_ct * c_in + i_ct) * m + ((s_in - s_out) & (m - 1)))[nonzero]
    # one entry per distinct key, ascending in (out ct, in ct, shift), so
    # each group is a run; a table over every possible key finds them
    # without a sort
    hit = np.zeros(c_out * c_in * m, dtype=bool)
    hit[key] = True
    keys = np.flatnonzero(hit)
    t, rest = np.divmod(keys, c_in * m)
    i, shift = np.divmod(rest, m)
    size = np.bincount(t, minlength=c_out)
    rank = np.arange(len(keys)) - (np.cumsum(size) - size)[t]
    place = np.empty_like(size)
    place[np.argsort(-size, kind="stable")] = np.arange(c_out)
    order = np.lexsort((place[t], rank))
    at = np.zeros(len(hit), dtype=np.intp)
    at[keys[order]] = np.arange(len(keys))
    masks = np.zeros((len(keys), m), dtype=np.uint64)
    slot = at[key] * m + np.broadcast_to(s_out, nonzero.shape)[nonzero]
    masks.reshape(-1)[slot] = np.broadcast_to(w.data, nonzero.shape)[nonzero]
    return MaskPlan(np.bincount(rank), t[order], i[order], shift[order], masks)


def he_matmul(
    cts: Ciphertext,
    layout: PackingLayout,
    w: FixedTensor,
    report: CostReport,
    kernel: str = "naive",
) -> tuple[Ciphertext, PackingLayout]:
    """Encrypted X [n x d1] times plaintext W [d1 x d2]: a packed batch of
    c ciphertexts in, one of c_out out.

    The bill is the per-ciphertext baseline's: every ciphertext rotated
    by every shift of `layout.shifts` (c*|shifts|, shift 0 included), one
    plaintext product per planned mask (K) and, per output, one addition
    fewer than its products. The op calls are few and act on batches:
    one `he_rotate` of the whole batch per shift; one `he_mul_plain` of
    the K gathered rotations by the (K, M) masks; one `he_add` per rank of
    the plan, on the groups still live (k_max - 1 calls). An output no
    product reaches is a transparent zero (0, 0). The batch carries one
    noise_used, the largest of its outputs'. "naive" is the only kernel;
    the argument stays for callers that pass it through.
    """
    if kernel != "naive":
        raise ValueError(f"unknown kernel {kernel!r}")
    if w.rows != layout.d:
        raise ValueError(f"weight rows {w.rows} != layout features {layout.d}")
    if cts.a.shape != (layout.c, layout.slots):
        raise ValueError(f"expected a batch of {layout.c} ciphertexts, got {cts.count}")
    layout_out = layout.with_features(w.cols)
    m, shifts = layout.slots, layout.shifts
    if m % shifts.step:
        # tokens_first: a shift aligns a token's slots only if n | M
        raise ValueError(f"{layout.strategy.value} kernel needs n={layout.n} to divide M={m}")
    plan = _diagonal_masks(layout, layout_out, w)
    # one rotation of the whole batch per shift, stacked shift-major: an
    # entry's rotated input is one row of the stack, and every rotation
    # carries the same noise
    rots = [he_rotate(cts, shift, report) for shift in shifts]
    at = plan.shift // shifts.step * layout.c + plan.in_ct
    rows_a = np.concatenate([r.a for r in rots])[at]
    rows_b = np.concatenate([r.b for r in rots])[at]
    out_a = np.zeros((layout_out.c, m), dtype=np.uint64)
    out_b, noise = out_a.copy(), 0
    if len(plan.live):
        rows = Ciphertext(rows_a, rows_b, cts.key_id, cts.params, rots[0].noise_used)
        prods = he_mul_plain(rows, plan.masks, report)
        # rank 0 of every group starts its sum; each later rank adds onto
        # the live prefix, and a group that drops out of it is final
        groups = plan.out_ct[:plan.live[0]]
        acc, start = prods.row(slice(0, len(groups))), len(groups)
        for live in plan.live[1:].tolist():
            if live < acc.count:
                done = groups[live:acc.count]
                out_a[done], out_b[done] = acc.a[live:], acc.b[live:]
            acc = he_add(acc.row(slice(0, live)), prods.row(slice(start, start + live)), report)
            start += live
        done = groups[:acc.count]
        out_a[done], out_b[done], noise = acc.a, acc.b, acc.noise_used
    return Ciphertext(out_a, out_b, cts.key_id, cts.params, noise), layout_out
