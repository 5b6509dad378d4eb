"""Packing layouts, rotation accounting, and packed-matmul correctness."""

import numpy as np
import pytest

from privtrans.costs import CostReport
from privtrans.packing import (
    PackingLayout,
    PackingStrategy,
    _diagonal_masks,
    he_matmul,
    pack,
    pack_plain,
    plan_layout,
    predicted_rotations,
    unpack,
    unpack_plain,
)
from privtrans.ring import DEFAULT_RING, FixedTensor
from privtrans.she import HEParams, keygen

import oracles


def rand_ring_tensor(rng, rows, cols):
    return FixedTensor(rng.integers(0, 2 ** 64, size=(rows, cols), dtype=np.uint64))


def test_tokens_first_slot_order_example():
    # n=2, d=2, M=4: feature-major stream [x(t0,f0), x(t1,f0), x(t0,f1), x(t1,f1)]
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 2, 2, 4)
    x = FixedTensor(np.array([[10, 11], [20, 21]], dtype=np.uint64))
    vecs = pack_plain(x, layout)
    assert len(vecs) == 1
    assert list(vecs[0]) == [10, 20, 11, 21]


def test_features_first_slot_order():
    layout = PackingLayout(PackingStrategy.FEATURES_FIRST, 2, 2, 4)
    x = FixedTensor(np.array([[10, 11], [20, 21]], dtype=np.uint64))
    assert list(pack_plain(x, layout)[0]) == [10, 11, 20, 21]


@pytest.mark.parametrize("strategy", list(PackingStrategy))
@pytest.mark.parametrize("n,d,m", [(2, 3, 8), (3, 5, 4), (4, 4, 16), (1, 7, 8), (8, 2, 8)])
def test_pack_unpack_bijection(strategy, n, d, m):
    layout = PackingLayout(strategy, n, d, m)
    assert layout.c == -(-n * d // m)
    rng = np.random.default_rng(n * 100 + d)
    x = rand_ring_tensor(rng, n, d)
    vecs = pack_plain(x, layout)
    # zero padding in unused tail slots
    used = n * d - (layout.c - 1) * m
    assert not vecs[-1][used:].any()
    back = unpack_plain(vecs, layout, DEFAULT_RING)
    assert back == x


def test_pack_unpack_encrypted_roundtrip():
    params = HEParams(slots=8)
    key = keygen(params, seed=9)
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 2, 6, 8)
    rng = np.random.default_rng(4)
    x = rand_ring_tensor(rng, 2, 6)
    report = CostReport()
    cts = pack(x, layout, key, report)
    assert report.total("he_enc") == layout.c == 2
    assert unpack(cts, layout, key, DEFAULT_RING, report) == x


def test_plan_layout_large_example():
    # 30 tokens do not divide 4096 slots, so tokens_first is not a choice
    layout = plan_layout(30, 30522, 4096)
    assert layout.strategy is PackingStrategy.FEATURES_FIRST
    assert layout.c == 224
    layout = plan_layout(32, 30522, 4096)
    assert layout.strategy is PackingStrategy.TOKENS_FIRST
    assert layout.c == 239
    assert predicted_rotations(layout) == 30_592


def test_he_matmul_runs_every_planned_layout():
    # every layout the planner proposes is one the kernel accepts, and its
    # rotation bill is the predicted one
    key = keygen(HEParams(slots=8), seed=33)
    rng = np.random.default_rng(35)
    for n in range(1, 9):
        for d in (1, 3, 8):
            layout = plan_layout(n, d, 8)
            assert (layout.strategy is PackingStrategy.TOKENS_FIRST) == (n > 1 and 8 % n == 0)
            x, w = rand_ring_tensor(rng, n, d), rand_ring_tensor(rng, d, 2)
            report = CostReport()
            cts = pack(x, layout, key, CostReport())
            out, layout_out = he_matmul(cts, layout, w, report)
            assert report.total("he_rotate") == predicted_rotations(layout)
            got = unpack(out, layout_out, key, DEFAULT_RING, report)
            assert got.data.tolist() == oracles.matmul_mod(
                x.data.tolist(), w.data.tolist(), 64), (n, d)


def test_plan_layout_degenerate_n1():
    # n=1: both layouts identical, predicted counts tie, keep features_first
    layout = plan_layout(1, 64, 16)
    assert layout.strategy is PackingStrategy.FEATURES_FIRST


@pytest.mark.parametrize("strategy", list(PackingStrategy))
def test_he_matmul_matches_ring_oracle(strategy):
    params = HEParams(slots=16)
    key = keygen(params, seed=11)
    rng = np.random.default_rng(13)
    report = CostReport()
    for n, d1, d2 in [(4, 8, 4), (2, 16, 3), (4, 4, 8), (1, 8, 2)]:
        layout = PackingLayout(strategy, n, d1, 16)
        x = rand_ring_tensor(rng, n, d1)
        w = rand_ring_tensor(rng, d1, d2)
        cts = pack(x, layout, key, report)
        out_cts, layout_out = he_matmul(cts, layout, w, report)
        got = unpack(out_cts, layout_out, key, DEFAULT_RING, report)
        want = oracles.matmul_mod(
            [[int(v) for v in row] for row in x.data],
            [[int(v) for v in row] for row in w.data],
            64,
        )
        assert got.data.tolist() == want


def test_he_matmul_has_only_the_naive_kernel():
    key, report = keygen(HEParams(slots=16), seed=15), CostReport()
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 4, 8, 16)
    cts = pack(FixedTensor(np.ones((4, 8), dtype=np.uint64)), layout, key, report)
    w = FixedTensor(np.ones((8, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="kernel"):
        he_matmul(cts, layout, w, report, "log")
    out, lo = he_matmul(cts, layout, w, report, "naive")
    assert unpack(out, lo, key, DEFAULT_RING, report).data.tolist() == [[8, 8]] * 4


@pytest.mark.parametrize(
    "m,n,d1,d2",
    [(16, 4, 8, 4), (64, 8, 16, 4)],
)
def test_naive_rotation_counts_exact(m, n, d1, d2):
    params = HEParams(slots=m)
    key = keygen(params, seed=19)
    rng = np.random.default_rng(21)
    x = rand_ring_tensor(rng, n, d1)
    w = rand_ring_tensor(rng, d1, d2)

    counts = {}
    for strategy in PackingStrategy:
        layout = PackingLayout(strategy, n, d1, m)
        report = CostReport()
        cts = pack(x, layout, key, CostReport())
        he_matmul(cts, layout, w, report)
        counts[strategy] = report.total("he_rotate")
        assert counts[strategy] == predicted_rotations(layout)

    c = PackingLayout(PackingStrategy.TOKENS_FIRST, n, d1, m).c
    assert counts[PackingStrategy.FEATURES_FIRST] == c * m
    assert counts[PackingStrategy.TOKENS_FIRST] == c * (m // n)
    saving = counts[PackingStrategy.FEATURES_FIRST] - counts[PackingStrategy.TOKENS_FIRST]
    assert saving == c * (m - m // n)


def test_tokens_first_kernel_requires_divisibility():
    params = HEParams(slots=16)
    key = keygen(params, seed=27)
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 3, 4, 16)
    x, report = FixedTensor(np.ones((3, 4), dtype=np.uint64)), CostReport()
    cts = pack(x, layout, key, report)
    with pytest.raises(ValueError):
        he_matmul(cts, layout, FixedTensor(np.ones((4, 2), dtype=np.uint64)), report)


def _weights_with_zeros(rng, rows, cols, case):
    w = rng.integers(0, 2 ** 64, size=(rows, cols), dtype=np.uint64)
    if case == "zero_rows":
        w[::2] = 0
    elif case == "zero_cols":
        w[:, 1::3] = 0
    elif case == "all_zero":
        w[:] = 0
    return FixedTensor(w)


@pytest.mark.parametrize("strategy", list(PackingStrategy))
@pytest.mark.parametrize("case", ["dense", "zero_rows", "zero_cols", "all_zero"])
@pytest.mark.parametrize("n,d1,d2,m", [(4, 8, 12, 16), (2, 16, 9, 8), (4, 5, 7, 8), (1, 8, 2, 16)])
def test_diagonal_masks_match_the_per_element_oracle(strategy, case, n, d1, d2, m):
    layout = PackingLayout(strategy, n, d1, m)
    layout_out = layout.with_features(d2)
    w = _weights_with_zeros(np.random.default_rng(n * d1 + d2), d1, d2, case)
    want = oracles.diagonal_masks_by_element(layout, layout_out, w)
    plan = _diagonal_masks(layout, layout_out, w)
    # the plan lists (in ct, shift, out ct) in ascending order, the order
    # he_matmul's ops take
    got = [(*divmod(rot, m), t, mask) for rot, entries in plan.items() for t, mask in entries]
    assert [g[:3] for g in got] == sorted(want)
    for i, shift, t, mask in got:
        slots, values = want[i, shift, t]
        want_mask = np.zeros(m, dtype=np.uint64)
        want_mask[slots] = values
        assert np.array_equal(mask, want_mask)

    # zero weights decide the op count: one plaintext product per mask
    key = keygen(HEParams(slots=m), seed=29)
    rng = np.random.default_rng(31)
    cts = pack(rand_ring_tensor(rng, n, d1), layout, key, CostReport())
    report = CostReport()
    he_matmul(cts, layout, w, report)
    assert report.total("he_mul_plain") == len(want)
