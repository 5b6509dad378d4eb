"""Packing layouts, rotation accounting, and packed-matmul correctness."""

import numpy as np
import pytest

from privtrans.costs import CostReport
from privtrans.packing import (
    PackingLayout,
    PackingStrategy,
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
    key = keygen(params, 0, 9)
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 2, 6, 8)
    rng = np.random.default_rng(4)
    x = rand_ring_tensor(rng, 2, 6)
    report = CostReport()
    cts = pack(x, layout, key, report)
    assert report.total("he_enc") == layout.c == 2
    assert unpack(cts, layout, key.secret(), DEFAULT_RING) == x


def test_plan_layout_large_example():
    layout = plan_layout(30, 30522, 4096)
    assert layout.strategy is PackingStrategy.TOKENS_FIRST
    assert layout.c == 224


def test_plan_layout_degenerate_n1():
    # n=1: both layouts identical, predicted counts tie, keep features_first
    layout = plan_layout(1, 64, 16)
    assert layout.strategy is PackingStrategy.FEATURES_FIRST


@pytest.mark.parametrize("strategy", list(PackingStrategy))
def test_he_matmul_matches_ring_oracle(strategy):
    params = HEParams(slots=16)
    key = keygen(params, 0, 11)
    rng = np.random.default_rng(13)
    for n, d1, d2 in [(4, 8, 4), (2, 16, 3), (4, 4, 8), (1, 8, 2)]:
        layout = PackingLayout(strategy, n, d1, 16)
        x = rand_ring_tensor(rng, n, d1)
        w = rand_ring_tensor(rng, d1, d2)
        cts = pack(x, layout, key)
        out_cts, layout_out = he_matmul(cts, layout, w)
        got = unpack(out_cts, layout_out, key.secret(), DEFAULT_RING)
        want = oracles.matmul_mod(
            [[int(v) for v in row] for row in x.data],
            [[int(v) for v in row] for row in w.data],
            64,
        )
        assert got.data.tolist() == want


def test_he_matmul_has_only_the_naive_kernel():
    key = keygen(HEParams(slots=16), 0, 15)
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 4, 8, 16)
    cts = pack(FixedTensor(np.ones((4, 8), dtype=np.uint64)), layout, key)
    w = FixedTensor(np.ones((8, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="kernel"):
        he_matmul(cts, layout, w, None, "log")
    out, lo = he_matmul(cts, layout, w, None, "naive")
    assert unpack(out, lo, key.secret(), DEFAULT_RING).data.tolist() == [[8, 8]] * 4


@pytest.mark.parametrize(
    "m,n,d1,d2",
    [(16, 4, 8, 4), (64, 8, 16, 4)],
)
def test_naive_rotation_counts_exact(m, n, d1, d2):
    params = HEParams(slots=m)
    key = keygen(params, 0, 19)
    rng = np.random.default_rng(21)
    x = rand_ring_tensor(rng, n, d1)
    w = rand_ring_tensor(rng, d1, d2)

    counts = {}
    for strategy in PackingStrategy:
        layout = PackingLayout(strategy, n, d1, m)
        report = CostReport()
        cts = pack(x, layout, key)
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
    key = keygen(params, 0, 27)
    layout = PackingLayout(PackingStrategy.TOKENS_FIRST, 3, 4, 16)
    x = FixedTensor(np.ones((3, 4), dtype=np.uint64))
    cts = pack(x, layout, key)
    with pytest.raises(ValueError):
        he_matmul(cts, layout, FixedTensor(np.ones((4, 2), dtype=np.uint64)))
