"""privtrans benchmark: wall-clock cost of private inference, per protocol mode.

    python3 perfbench/run.py --workload sem-wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. One client, one inference at a time
(closed loop, both parties in one process as `Session` runs them). Each
run starts fresh interpreters (child.py) one after another: each measures
its set-up time, then runs whole warm rounds for its share of --seconds
of inference time. Every inference is checked outside the timed region.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run, and writes its spans to perfbench/traces/. The last
line of standard output is the result as one JSON object. --smoke runs
every workload briefly and checks the output against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 175.0  # a run must end within 180 s
WARM_METRICS = ("base_s", "f_s", "fp_s", "fpc_s")

END_TO_END = {
    "setup_s": "s",
    "base_s": "s",
    "f_s": "s",
    "fp_s": "s",
    "fpc_s": "s",
    "online_MB": "MB",
    "offline_MB": "MB",
    "peak_rss_MB": "MB",
}

PER_LAYER = {
    "packing.he_matmul_s": "s",
    "packing.pack_s": "s",
    "packing.unpack_s": "s",
    "packing.pack_plain_s": "s",
    "sharing.enc_left_matmul_s": "s",
    "sharing.plain_left_matmul_s": "s",
    "sharing.triple_gen_s": "s",
    "sharing.rows_s": "s",
    "she.rotate_s": "s",
    "she.op_s": "s",
    "she.he_rotate": "count",
    "she.he_mul_plain": "count",
    "she.he_add": "count",
    "she.he_add_plain": "count",
    "she.he_enc": "count",
    "she.he_dec": "count",
    "securefn.eval_secure_self_s": "s",
    "securefn.stages": "count",
    "circuits.build_s": "s",
    "circuits.builds": "count",
    "circuits.and_gates": "count",
    "garble.garble_s": "s",
    "garble.evaluate_s": "s",
    "garble.and_lanes_per_s": "1/s",
    "garble.table_MB": "MB",
    "ot.run_ot_s": "s",
    "ot.transfers": "count",
    "ot.transfers_per_s": "1/s",
    "engine.self_s": "s",
    "transcript.online_interactions": "count",
    "transcript.offline_interactions": "count",
    "transcript.modeled_online_s": "s",
    "transcript.modeled_offline_s": "s",
    # SoftMax has no offline work in any mode, so it has only an online time
    **{f"step.{s}.{p}_s": "s"
       for s in ("Embed", "QKV", "QxK", "SoftMax", "AttenValue", "Others")
       for p in ("offline", "online") if (s, p) != ("SoftMax", "offline")},
    "trace.round_s": "s",
    "trace.untraced_round_s": "s",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    pass


def run_child(deadline: float, workload: str, seed: int, stream: int, warm_seconds: float,
              trace: int, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--stream", str(stream), "--warm-seconds", str(warm_seconds), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} process {stream} ran past the deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} process {stream} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(deadline: float, workload: str, seed: int, seconds: int) -> dict:
    wl = WORKLOADS[workload]
    children, spent = [], 0.0
    for j in range(wl.setup_samples):
        # each process takes an equal share of the warm time still to run
        # (at least one round when there is any), so the warm samples
        # spread over the whole run
        share = max(0.0, (seconds - spent) / (wl.setup_samples - j))
        c = run_child(deadline, workload, seed, j, share, 0)
        children.append(c)
        spent += sum(sum(ts) for ts in c["warm"].values())
    warm = {m: [t for c in children for t in c["warm"].get(m, [])] for m in WARM_METRICS}
    ref = {m: [t for c in children for t in c["warm_ref"].get(m, [])] for m in WARM_METRICS}
    online = [b for c in children for b in c["online_bytes"]]
    offline = [b for c in children for b in c["offline_bytes"]]
    values = {
        "setup_s": statistics.median(c["setup_ref_s"] for c in children),
        **{m: statistics.median(ts) for m, ts in ref.items() if ts},
        "online_MB": statistics.fmean(online) / 1e6,
        "offline_MB": statistics.fmean(offline) / 1e6,
        "peak_rss_MB": max(c["peak_rss_mb"] for c in children),
    }
    for m, ts in warm.items():
        if ts:
            print(f"{workload}: {m} median of {len(ts)} warm inferences: "
                  f"{statistics.median(ts):.4f} s wall, {values[m]:.4f} s at reference speed")
    print(f"{workload}: setup_s of {len(children)} processes, wall: "
          + ", ".join(f"{c['setup_s']:.3f}" for c in children)
          + "; at reference speed: " + ", ".join(f"{c['setup_ref_s']:.3f}" for c in children))
    return finish(children, values, END_TO_END)


def traced(deadline: float, workload: str, seed: int, seconds: int) -> dict:
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.jsonl"
    child = run_child(deadline, workload, seed, 0, float(seconds), 1, path)
    print(f"{workload}: {child['layers']['trace.spans']} spans written to "
          f"{path.relative_to(ROOT)}")
    return finish([child], child["layers"], PER_LAYER)


def finish(children: list[dict], values: dict, wanted: dict) -> dict:
    failures = [f for c in children for f in c["failures"]]
    correct = True
    for c in children[1:]:
        if c["signatures"] != children[0]["signatures"]:
            correct = False
            failures.append("counters differ between processes of one run")
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for f in failures:
        print("FAILED", f)
    failed = sum(c["failed"] for c in children)
    return {
        "correct": correct and failed == 0,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in wanted.items()},
    }


def smoke() -> int:
    """Run every workload briefly, untraced and traced, through the command."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def check(name: str, cond: bool) -> None:
        nonlocal ok
        ok &= bool(cond)
        print(f"{'pass' if cond else 'FAIL'}  {name}", flush=True)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            check(f"{name} trace={trace}: exit 0", proc.returncode == 0)
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            check(f"{name} trace={trace}: every {key} metric printed with its unit", got == want)
            check(f"{name} trace={trace}: attempted and failed reported",
                  isinstance(res["attempted"], int) and res["attempted"] >= 1
                  and isinstance(res["failed"], int))
            check(f"{name} trace={trace}: correct, {res['failed']} of {res['attempted']} failed",
                  res["correct"] and res["failed"] == 0)
            if trace:
                path = HERE / "traces" / f"{name}-seed0.jsonl"
                lines = path.read_text().splitlines() if path.is_file() else []
                check(f"{name}: traced run wrote {len(lines)} spans", len(lines) > 0
                      and all("parent" in json.loads(line) for line in lines[:100]))
    print("smoke:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "privtrans" / "__init__.py").is_file():
        print(f"no privtrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = monotonic() + DEADLINE_S
    try:
        run = traced if args.trace else end_to_end
        result = run(deadline, args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
