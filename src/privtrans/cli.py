"""Benchmark driver: configure a model and protocol mode, run a session,
emit cost reports, and check reconstruction against the plaintext
reference.

Run configs are JSON with these keys (flags override the file):

    mode          "base" | "f" | "fp" | "fpc"        (default "f")
    seed          int, required
    model         inline model-config object, required
    weights_path  path to a saved weight file, which excludes weights_seed
                  and weight_scale; if absent, weights are generated from
                  weights_seed (default: seed) at weight_scale (default 0.5)
    tokens        list of vocabulary indices (default 0..n-1 mod d_oh)
    backend       "semantic" | "gc" nonpoly backend (default semantic)
    strict        bool, range-check every nonpoly stage input of the
                  plaintext reference, which the protocol reproduces
                  bit-exactly; the check runs before the protocol, and an
                  out-of-domain input ends the command with "range error"
    channel       {"delay_s": float, "bandwidth_bps": float}
    report        output path for the structured report

The structured JSON report (sorted keys) is the canonical artifact; the
stdout table is a convenience view. All latencies are modeled from the
channel constants, never measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import PHASES, STEPS, ChannelModel, estimate_latency
from .engine import MODES, PackingError, Session
from .model import (
    ModelConfig,
    config_from_dict,
    config_to_dict,
    load_weights,
    random_weights,
    reference_forward,
)
from .packing import PackingLayout, PackingStrategy, plan_layout, predicted_rotations
from .securefn import BACKENDS, RangeViolation
from .she import HEParams

class ConfigError(ValueError):
    """Bad run config or plan argument; the message names the field or
    argument."""


@dataclass
class RunConfig:
    mode: str
    seed: int
    model: ModelConfig
    weights: object
    tokens: list
    backend: str = "semantic"
    strict: bool = False
    channel: ChannelModel = field(default_factory=ChannelModel)
    report_path: str | None = None


def _check_keys(obj: dict, known: tuple, where: str = "") -> None:
    for k in obj:
        if k not in known:
            raise ConfigError(f"config field {where + k!r}: unknown")


def _field(obj: dict, name: str, typ, default=None, required=False, where: str = ""):
    if name not in obj:
        if required:
            raise ConfigError(f"config field {where + name!r}: required")
        return default
    v = obj[name]
    if isinstance(v, bool) and typ is not bool or not isinstance(v, typ):
        want = " or ".join(t.__name__ for t in typ) if isinstance(typ, tuple) else typ.__name__
        raise ConfigError(f"config field {where + name!r}: expected {want}, got {type(v).__name__}")
    return v


def _seed(obj: dict, name: str, **kw) -> int:
    seed = _field(obj, name, int, **kw)
    if seed < 0:
        raise ConfigError(f"config field {name!r}: must be >= 0, got {seed}")
    return seed


def load_run_config(obj: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a parsed JSON object (plus flag overrides) into a RunConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("config root: expected an object")
    _check_keys(obj, ("mode", "seed", "model", "weights_path", "weights_seed",
                      "weight_scale", "tokens", "backend", "strict", "channel", "report"))
    obj = dict(obj)
    for k, v in (overrides or {}).items():
        if v is not None:
            obj[k] = v

    mode = _field(obj, "mode", str, default="f")
    if mode not in MODES:
        raise ConfigError(f"config field 'mode': must be one of {MODES}")
    seed = _seed(obj, "seed", required=True)

    model_obj = _field(obj, "model", dict, required=True)
    try:
        cfg = config_from_dict(model_obj)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"config field 'model': {e}") from e

    if "weights_path" in obj:
        for k in ("weights_seed", "weight_scale"):
            if k in obj:
                raise ConfigError(f"config field {k!r}: ignored next to 'weights_path'")
        wfield, path = "weights_path", _field(obj, "weights_path", str)
        try:
            weights, ring = load_weights(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"config field 'weights_path': {e}") from None
        if ring != cfg.ring:
            raise ConfigError("config field 'weights_path': ring does not match the model")
    else:
        wfield = "weight_scale"
        wseed = _seed(obj, "weights_seed", default=seed)
        scale = _field(obj, "weight_scale", (int, float), default=0.5)
        if not 0 <= scale <= sys.float_info.max:
            raise ConfigError(f"config field 'weight_scale': must be finite and >= 0, got {scale}")
        weights = random_weights(cfg, np.random.default_rng(wseed), scale=float(scale))
    try:
        weights.validate(cfg)
    except ValueError as e:
        raise ConfigError(f"config field {wfield!r}: {e}") from None

    tokens = _field(obj, "tokens", list, default=[i % cfg.d_oh for i in range(cfg.n)])
    if len(tokens) != cfg.n or not all(type(t) is int and 0 <= t < cfg.d_oh for t in tokens):
        raise ConfigError(f"config field 'tokens': need {cfg.n} indices in [0, {cfg.d_oh})")

    backend = _field(obj, "backend", str, default="semantic")
    if backend not in BACKENDS:
        raise ConfigError("config field 'backend': must be 'semantic' or 'gc'")
    strict = _field(obj, "strict", bool, default=False)

    channel = ChannelModel()
    if "channel" in obj:
        c = _field(obj, "channel", dict)
        keys = ("delay_s", "bandwidth_bps")
        _check_keys(c, keys, "channel.")
        kw = {k: _field(c, k, (int, float), default=getattr(channel, k), where="channel.")
              for k in keys}
        try:
            channel = ChannelModel(**kw)
        except ValueError as e:
            raise ConfigError(f"config field 'channel': {e}") from None

    return RunConfig(mode, seed, cfg, weights, list(tokens), backend, strict, channel,
                     _field(obj, "report", str))


def read_config_file(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config file {path!r}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal past Python's digit limit
        raise ConfigError(f"config file {path!r}: {e}") from None
    return load_run_config(obj, overrides)


# -- commands -----------------------------------------------------------------


def _session(rc: RunConfig) -> Session:
    """The run's session; a token count the mode's packing cannot use
    raises ConfigError naming model.n."""
    try:
        return Session(rc.model, rc.weights, rc.mode, rc.seed, backend=rc.backend)
    except PackingError as e:
        raise ConfigError(f"config field 'model.n': {e} (mode {rc.mode!r})") from None


def cmd_run(rc: RunConfig) -> dict:
    """One session; returns the structured report."""
    return cmd_compare(rc, (rc.mode,))["reports"][rc.mode]


def _report(rc: RunConfig, session: Session, want) -> dict:
    result = session.run(rc.tokens)
    got = result.reconstruct()
    merged = result.merged_report()
    t = result.transcript

    steps = t.summary()
    for step in STEPS:
        for phase in PHASES:
            cell = steps[step][phase]
            cell["he_ops"] = merged.he_ops(step, phase)
            for k in ("gc_and_gates", "gc_table_bytes", "ot_count"):
                cell[k] = merged.get(step, phase, k)
    totals = {
        phase: {k: sum(steps[s][phase][k] for s in STEPS)
                for k in ("interactions", "messages", "bytes", "he_ops")}
        for phase in PHASES
    }
    latency = estimate_latency(t, rc.channel)
    return {
        "schema": "bench-report/1",
        "mode": rc.mode,
        "seed": rc.seed,
        "backend": rc.backend,
        "strict": rc.strict,
        "packing": session.packing.value,
        "he_slots": session.he.slots,
        "ciphertext_bytes": session.he.ciphertext_bytes,
        "model": config_to_dict(rc.model),
        "tokens": rc.tokens,
        "equivalence": "exact" if np.array_equal(got.data, want.data) else "mismatch",
        "logits_signed": rc.model.ring.to_signed(got.data).tolist(),
        "steps": steps,
        "totals": totals,
        "modeled_latency_s": latency,
    }


def cmd_compare(rc: RunConfig, modes=MODES) -> dict:
    """Same model, weights, seed, and input across protocol modes. Every
    mode's session is built, and so its packing checked, and the reference
    run once, range-checked under rc.strict, before any mode runs."""
    rcs = [replace(rc, mode=mode, report_path=None) for mode in modes]
    sessions = [_session(r) for r in rcs]
    want = reference_forward(rc.model, rc.weights, rc.tokens, strict=rc.strict)
    reports = {r.mode: _report(r, s, want) for r, s in zip(rcs, sessions)}
    return {"schema": "bench-compare/1", "modes": list(modes), "reports": reports}


def cmd_verify(rc: RunConfig) -> tuple[bool, list[str]]:
    """Reconstruction and invariant checks across all four modes."""
    cmp = cmd_compare(rc)
    lines, ok = [], True

    def check(name: str, cond: bool):
        nonlocal ok
        ok &= cond
        lines.append(f"{'pass' if cond else 'FAIL'}  {name}")

    for mode in MODES:
        rep = cmp["reports"][mode]
        check(f"{mode}: reconstruction equals reference", rep["equivalence"] == "exact")
    for mode in ("f", "fp", "fpc"):
        rep = cmp["reports"][mode]
        free = all(rep["steps"][s]["online"]["he_ops"] == 0 for s in ("Embed", "QKV", "Others"))
        check(f"{mode}: prepared steps are HE-free online", free)
    prefix = lambda rep: sum(rep["steps"][s]["online"]["interactions"]
                             for s in ("Embed", "QKV", "QxK"))
    n_blocks = rc.model.N
    check("f: fused prefix online interactions = 4",
          prefix(cmp["reports"]["f"]) == 4 + 2 * (n_blocks - 1))
    # pre-norm puts a layer norm between the embedding and the first block,
    # so the embedding's two modules cannot fuse and stay online
    pre = rc.model.norm == "pre"
    check("fpc: fused prefix online interactions = 1 per block"
          + (" + 2 embedding" if pre else ""),
          prefix(cmp["reports"]["fpc"]) == n_blocks + (2 if pre else 0))
    check("base: online HE present",
          cmp["reports"]["base"]["totals"]["online"]["he_ops"] > 0)
    return ok, lines


def cmd_plan(n: int, d: int, slots: int) -> dict:
    """Packing decision and predicted naive-kernel rotation counts. Raises
    ConfigError naming the argument for a slot count HEParams refuses, a
    non-positive n or d, or more tokens than slots."""
    try:
        HEParams(slots=slots)
    except ValueError as e:
        raise ConfigError(f"argument 'slots': {e}") from None
    for name, value in (("n", n), ("d", d)):
        if value < 1:
            raise ConfigError(f"argument {name!r}: must be positive, got {value}")
    if n > slots:
        raise ConfigError(f"argument 'n': {n} tokens exceed the {slots} slots")
    layout = plan_layout(n, d, slots)
    rot_ff = predicted_rotations(PackingLayout(PackingStrategy.FEATURES_FIRST, n, d, slots))
    rot_chosen = predicted_rotations(layout)
    return {
        "schema": "bench-plan/1",
        "n": n,
        "d": d,
        "slots": slots,
        "strategy": layout.strategy.value,
        "ciphertexts": layout.c,
        "rotations": rot_chosen,
        "rotations_features_first": rot_ff,
        "rotation_saving": rot_ff - rot_chosen,
    }


# -- rendering ------------------------------------------------------------------


def render_report(rep: dict) -> str:
    head = (f"mode={rep['mode']} seed={rep['seed']} packing={rep['packing']} "
            f"backend={rep['backend']} equivalence={rep['equivalence']}")
    rows = [head, f"{'step':<12}{'phase':<9}{'inter':>6}{'msgs':>6}{'bytes':>12}{'he_ops':>8}"]
    for step in STEPS:
        for phase in PHASES:
            c = rep["steps"][step][phase]
            rows.append(f"{step:<12}{phase:<9}{c['interactions']:>6}{c['messages']:>6}"
                        f"{c['bytes']:>12}{c['he_ops']:>8}")
    for phase in PHASES:
        tot = rep["totals"][phase]
        rows.append(f"{'total':<12}{phase:<9}{tot['interactions']:>6}{tot['messages']:>6}"
                    f"{tot['bytes']:>12}{tot['he_ops']:>8}")
    lat = rep["modeled_latency_s"]
    rows.append(f"modeled latency (s): offline={lat['offline_s']:.6f} online={lat['online_s']:.6f}")
    return "\n".join(rows)


def render_compare(cmp: dict) -> str:
    modes = cmp["modes"]
    rows = ["online costs per step (interactions / HE ops / bytes), modes: " + " ".join(modes)]
    rows.append(f"{'step':<12}" + "".join(f"{m:>22}" for m in modes))
    for step in STEPS:
        cells = []
        for m in modes:
            c = cmp["reports"][m]["steps"][step]["online"]
            cells.append(f"{c['interactions']:>5}/{c['he_ops']:>6}/{c['bytes']:>9}")
        rows.append(f"{step:<12}" + "".join(f"{c:>22}" for c in cells))
    rows.append("modeled online s: " + "  ".join(
        f"{m}={cmp['reports'][m]['modeled_latency_s']['online_s']:.6f}" for m in modes))
    return "\n".join(rows)


def write_report(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- entry point ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--mode", choices=MODES, help="override protocol mode")
    p.add_argument("--seed", type=int, help="override seed")
    p.add_argument("--report", help="override structured report output path")
    p.add_argument("--strict", action="store_true", default=None,
                   help="range-check the reference's stage inputs before the protocol")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="privtrans-bench",
                                 description="two-party inference benchmark driver")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("run", "compare", "verify"):
        _add_common(sub.add_parser(name))
    plan = sub.add_parser("plan")
    plan.add_argument("n", type=int, help="token count")
    plan.add_argument("d", type=int, help="feature width")
    plan.add_argument("slots", type=int, help="HE slot count")
    args = ap.parse_args(argv)

    if args.cmd == "plan":
        try:
            rep = cmd_plan(args.n, args.d, args.slots)
        except ConfigError as e:
            print(f"plan error: {e}", file=sys.stderr)
            return 1
        print(json.dumps(rep, indent=2, sort_keys=True))
        return 0

    overrides = {"mode": args.mode, "seed": args.seed, "report": args.report,
                 "strict": args.strict}
    ok = True
    try:
        rc = read_config_file(args.config, overrides)
        if args.cmd == "run":
            out = cmd_run(rc)
            text = render_report(out)
        elif args.cmd == "compare":
            out = cmd_compare(rc)
            text = render_compare(out)
        else:
            ok, lines = cmd_verify(rc)
            out = {"schema": "bench-verify/1", "ok": ok, "checks": lines}
            text = "\n".join(lines + ["verify: " + ("pass" if ok else "FAIL")])
        if rc.report_path:
            try:
                write_report(rc.report_path, out)
            except OSError as e:
                raise ConfigError(f"config field 'report': {rc.report_path!r}: "
                                  f"{e.strerror}") from None
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except RangeViolation as e:
        print(f"range error: {e}", file=sys.stderr)
        return 1
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
