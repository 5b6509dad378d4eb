"""One benchmark process: set up, run whole rounds, check every inference.

Started by run.py in a fresh interpreter, from the root of the checkout,
so its set-up time starts at `import privtrans`. Prints one JSON object
as its last line of standard output.

Set-up time is the import, the weight generation and the first (cold)
inference of each entry of the round; checks are not included. The warm
rounds that follow are timed one inference at a time. With --trace 1 the
cold round and the later traced rounds run with the layers patched (see
tracer.py); the untraced rounds in between give the overhead baseline.
Every inference is also bracketed by machine-speed probes (probe.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WEIGHT_SCALE, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, default=0)
    ap.add_argument("--warm-seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t_import = perf_counter()
    import numpy as np
    import privtrans
    from privtrans import engine

    cfg = privtrans.ModelConfig(**wl.model)
    weights = privtrans.random_weights(cfg, np.random.default_rng(args.seed), WEIGHT_SCALE)
    t_ready = perf_counter()

    import checks
    import tracer as tracing
    from privtrans.model import weight_items
    from probe import StageProbes, probe, scale
    from rounds import Run, layer_metrics

    first_probe = probe()
    float_weights = {name: t.to_float() for name, t in weight_items(weights)}
    recorder = checks.MatmulRecorder(engine)
    stages = StageProbes(engine)
    tr = tracing.Tracer() if args.trace else None
    state = Run(wl, cfg, weights, float_weights, recorder, stages, tr, args.seed, args.stream)
    state.probes.append(first_probe)

    if tr is not None:
        tracing.install(tr)
    cold = state.round("cold")
    # set-up: import and weights, then the first inference of every entry
    setup, setup_ref = scale(t_import, t_ready, first_probe, first_probe)
    for samples in cold.values():
        setup += samples[0][0]
        setup_ref += samples[0][1]
    out = {"setup_s": setup, "setup_ref_s": setup_ref, "warm": {}, "warm_ref": {}}

    if args.trace:
        tr.uninstall()
        plain = state.rounds("warm", args.warm_seconds / 2)
        n_cold_spans = len(tr.spans)
        tracing.install(tr)
        traced = state.rounds("traced", args.warm_seconds / 2)
        tr.uninstall()
        state.cross_check()
        layer = layer_metrics(tr, n_cold_spans, state, plain, traced)
        if args.trace_out:
            tr.write_jsonl(args.trace_out, t_import)
        out["layers"] = layer
    elif args.warm_seconds > 0:
        for samples in state.rounds("warm", args.warm_seconds):
            for metric, pairs in samples.items():
                out["warm"].setdefault(metric, []).extend(raw for raw, _ in pairs)
                out["warm_ref"].setdefault(metric, []).extend(ref for _, ref in pairs)
    recorder.restore()
    stages.restore()

    out.update(
        attempted=state.attempted,
        failed=state.failed,
        failures=state.failures[:20],
        signatures=state.signatures,
        online_bytes=state.bytes["online"],
        offline_bytes=state.bytes["offline"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
