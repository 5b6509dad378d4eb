"""Packing layouts, rotation accounting, and packed-matmul correctness."""

import numpy as np
import pytest

from privtrans import packing
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
    # rank-major: rank r's block holds the first live[r] groups in the
    # plan's group order, so the groups still live form a prefix at every
    # rank and no group outlives a larger one
    assert np.all(np.diff(plan.live) <= 0)
    assert plan.live.sum() == len(plan.out_ct) == len(plan.masks) == len(want)
    groups = plan.out_ct[:plan.live[0]] if len(plan.live) else plan.out_ct
    assert len(set(groups.tolist())) == len(groups)
    by_group = {t: [] for t in groups.tolist()}
    start = 0
    for live in plan.live.tolist():
        block = range(start, start + live)
        assert plan.out_ct[block].tolist() == groups[:live].tolist()
        for e in block:
            by_group[int(plan.out_ct[e])].append((int(plan.in_ct[e]), int(plan.shift[e]), e))
        start += live
    # inside each group (in ct, shift) ascends, the order of the per-op loop
    for entries in by_group.values():
        assert entries == sorted(entries)
    got = sorted((i, shift, t) for t, entries in by_group.items() for i, shift, _ in entries)
    assert got == sorted(want)
    for t, entries in by_group.items():
        for i, shift, e in entries:
            slots, values = want[i, shift, t]
            want_mask = np.zeros(m, dtype=np.uint64)
            want_mask[slots] = values
            assert np.array_equal(plan.masks[e], want_mask)

    # zero weights decide the op count: one plaintext product per mask
    key = keygen(HEParams(slots=m), seed=29)
    rng = np.random.default_rng(31)
    cts = pack(rand_ring_tensor(rng, n, d1), layout, key, CostReport())
    report = CostReport()
    he_matmul(cts, layout, w, report)
    assert report.total("he_mul_plain") == len(want)


def _group_sizes(layout, layout_out, w):
    # products per output ciphertext, from the per-element oracle
    sizes = {}
    for _, _, t in oracles.diagonal_masks_by_element(layout, layout_out, w):
        sizes[t] = sizes.get(t, 0) + 1
    return sizes


# (n, d1, d2, m, case): d1 and d2 above M wrap over several ciphertexts;
# n = 1; n = M fills a tokens_first ciphertext with one feature; an
# all-zero W has an empty plan; zeroing columns 16.. of a one-token W
# leaves output ciphertext 1 without a product; n*d2 = 28 over M = 8
# gives groups of unequal size
MATMUL_CASES = [
    (4, 24, 20, 16, "dense"),
    (1, 8, 2, 16, "dense"),
    (16, 3, 2, 16, "dense"),
    (4, 8, 12, 16, "all_zero"),
    (1, 8, 24, 16, "zero_block"),
    (4, 5, 7, 8, "dense"),
]


@pytest.mark.parametrize("strategy", list(PackingStrategy))
@pytest.mark.parametrize("n,d1,d2,m,case", MATMUL_CASES)
def test_he_matmul_matches_the_per_op_oracle(strategy, n, d1, d2, m, case):
    # the batched kernel gives every output the ciphertext, and the report
    # the counters, of one op per rotation, product and addition; its one
    # noise_used is the largest the per-op loop reaches
    layout = PackingLayout(strategy, n, d1, m)
    layout_out = layout.with_features(d2)
    rng = np.random.default_rng(n * d1 * d2)
    if case == "zero_block":
        w = rand_ring_tensor(rng, d1, d2)
        w.data[:, 16:] = 0
    else:
        w = _weights_with_zeros(rng, d1, d2, case)
    sizes = _group_sizes(layout, layout_out, w)
    if case == "zero_block":
        assert len(sizes) < layout_out.c
    if (n, d1, d2, m) == (4, 5, 7, 8):
        assert len(set(sizes.values())) > 1
    key = keygen(HEParams(slots=m), seed=37)
    x = rand_ring_tensor(rng, n, d1)
    cts = pack(x, layout, key, CostReport())
    report, want_report = CostReport(), CostReport()
    out, lo = he_matmul(cts, layout, w, report)
    want = oracles.he_matmul_per_op(cts, layout, w, want_report)
    assert lo == layout_out and out.a.shape == (layout_out.c, m) == (len(want), m)
    for t, ct in enumerate(want):
        assert np.array_equal(out.a[t], ct.a) and np.array_equal(out.b[t], ct.b), t
    assert report.to_dict() == want_report.to_dict()
    assert report.total("he_rotate") == predicted_rotations(layout)
    assert out.noise_used == max(ct.noise_used for ct in want)
    if case == "all_zero":
        assert out.noise_used == 0 and not out.a.any() and not out.b.any()
    got = unpack(out, lo, key, DEFAULT_RING, CostReport())
    assert got.data.tolist() == oracles.matmul_mod(x.data.tolist(), w.data.tolist(), 64)


@pytest.mark.parametrize("strategy", list(PackingStrategy))
@pytest.mark.parametrize("n,d1,d2,m,case", MATMUL_CASES)
def test_he_matmul_leaves_its_inputs_untouched(strategy, n, d1, d2, m, case):
    # the kernel sums its outputs in place; neither the input batch nor
    # the weights change, and the output shares no memory with them
    layout = PackingLayout(strategy, n, d1, m)
    rng = np.random.default_rng(n * d1 * d2 + 1)
    w = rand_ring_tensor(rng, d1, d2)
    if case == "zero_block":
        w.data[:, 16:] = 0
    elif case == "all_zero":
        w.data[:] = 0
    key = keygen(HEParams(slots=m), seed=43)
    cts = pack(rand_ring_tensor(rng, n, d1), layout, key, CostReport())
    before = (cts.a.copy(), cts.b.copy(), w.data.copy())
    out, _ = he_matmul(cts, layout, w, CostReport())
    for now, was in zip((cts.a, cts.b, w.data), before):
        assert np.array_equal(now, was)
    for got in (out.a, out.b):
        assert not any(np.shares_memory(got, given) for given in (cts.a, cts.b, w.data))


def test_packed_kernels_make_one_call_per_step_on_all_ciphertexts(monkeypatch):
    # a packed tensor is one batch: pack and unpack make one call, and
    # he_matmul one rotation per shift, one product and one addition per
    # rank of its plan, however many ciphertexts and masks there are
    calls = {}
    for name in ("encrypt", "decrypt", "he_add", "he_mul_plain", "he_rotate"):
        def counted(*args, _real=getattr(packing, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(packing, name, counted)
    rng = np.random.default_rng(39)
    key = keygen(HEParams(slots=8), seed=41)
    for strategy in PackingStrategy:
        layout = PackingLayout(strategy, 4, 5, 8)
        w = rand_ring_tensor(rng, 5, 7)
        sizes = _group_sizes(layout, layout.with_features(7), w)
        calls.clear()
        cts = pack(rand_ring_tensor(rng, 4, 5), layout, key, CostReport())
        assert calls == {"encrypt": 1} and cts.count == layout.c == 3
        calls.clear()
        out, lo = he_matmul(cts, layout, w, CostReport())
        assert calls == {"he_rotate": len(layout.shifts), "he_mul_plain": 1,
                         "he_add": max(sizes.values()) - 1}, strategy
        calls.clear()
        unpack(out, lo, key, DEFAULT_RING, CostReport())
        assert calls == {"decrypt": 1}
