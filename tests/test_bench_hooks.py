"""The benchmark's hooks still see the calls they time.

perfbench/tracer.py and perfbench/checks.MatmulRecorder time the package
from outside by replacing names in its module namespaces (engine.he_matmul,
securefn.garble, CostReport.at, ...). Code that stops calling through one
of those names would silently move time between per-layer metrics; these
tests fail instead. The perfbench files are only imported, never changed.
"""

from pathlib import Path

import numpy as np
import pytest

from privtrans import MODES, ModelConfig, engine, random_weights, run_protocol, securefn
from privtrans.costs import STEPS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DESK = dict(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)

SPANS = {
    "packing.he_matmul", "packing.pack", "packing.unpack", "packing.pack_plain",
    "sharing.enc_left_matmul", "sharing.plain_left_matmul", "sharing.enc_rows",
    "sharing.dec_rows", "sharing.make_product_triple",
    "securefn.eval_secure", "circuits.build_secure_circuit", "engine.at",
    "garble.garble", "garble.evaluate", "ot.run_ot",
}
LEAVES = {"she.encrypt", "she.decrypt", "she.he_add", "she.he_add_plain",
          "she.he_mul_plain", "she.he_rotate"}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracer

    return tracer, checks


def test_every_bench_hook_fires_and_uninstalls(bench):
    tracer_mod, checks = bench
    tr = tracer_mod.Tracer()
    tracer_mod.install(tr)
    patched = list(tr._undo)  # (owner, attr, original) per replaced name
    calls = {}
    shims = []
    try:
        # count the calls through each replaced name, on top of the tracer
        for owner, attr, _ in patched:
            traced = getattr(owner, attr)

            def shim(*args, _key=(owner, attr), _fn=traced, **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            shims.append((owner, attr, traced))
            setattr(owner, attr, shim)
        recorder = checks.MatmulRecorder(engine)
        try:
            cfg = ModelConfig(**DESK)
            w = random_weights(cfg, np.random.default_rng(5))
            for mode in MODES:
                with tr.span("engine.run_protocol", round="hooks", mode=mode):
                    res = run_protocol(mode, cfg, w, [3, 1, 4, 1], seed=11)
                assert checks.protocol_failures(DESK, mode, res, recorder.take()) == [], mode
            spec = securefn.SecureFnSpec("relu")
            rng = np.random.default_rng(3)
            vals = rng.integers(0, 1 << 64, (4, 1), dtype=np.uint64)
            with tr.span("engine.run_protocol", round="hooks", mode="gc"):
                engine.eval_secure(spec, vals, vals, rng, backend="gc", step="SoftMax",
                                   report=engine.CostReport(), transcript=engine.Transcript(),
                                   ot_sender=engine.ExtSender(rng),
                                   ot_receiver=engine.ExtReceiver(np.random.default_rng(4)))
        finally:
            recorder.restore()
    finally:
        for owner, attr, traced in shims:
            setattr(owner, attr, traced)
        tr.uninstall()

    missed = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in patched
              if not calls.get((owner, attr))]
    assert missed == []
    names = {s.name for s in tr.spans}
    assert SPANS <= names, SPANS - names
    leaves = set().union(*(s.leaves for s in tr.spans))
    assert leaves == LEAVES
    # eval_secure's step is read from its keyword argument
    steps = {s.step for s in tr.spans if s.name == "securefn.eval_secure"}
    assert {("SoftMax", "online"), ("Others", "online")} <= steps
    assert all(step in STEPS for step, _ in steps)
    assert tr.stack == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
