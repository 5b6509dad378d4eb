"""Benchmark driver: config parsing, reports, ablation, and verify gate."""

import json

import numpy as np
import pytest

import privtrans.cli as cli
from privtrans.cli import (
    ConfigError,
    cmd_compare,
    cmd_plan,
    cmd_run,
    cmd_verify,
    load_run_config,
    main,
    read_config_file,
    render_compare,
    render_report,
)
from privtrans.costs import PHASES, STEPS
from privtrans.model import ModelConfig, random_weights, save_weights
from privtrans.packing import PackingStrategy


def toy_obj(**kw):
    obj = {
        "mode": "f",
        "seed": 31,
        "model": {"N": 1, "d_emb": 8, "H": 2, "n": 4, "d_oh": 16, "d_ff": 8},
        "tokens": [3, 1, 4, 1],
    }
    obj.update(kw)
    return obj


def test_plan_matches_hand_arithmetic():
    rep = cmd_plan(30, 30522, 4096)
    assert rep["strategy"] == "tokens_first"
    assert rep["ciphertexts"] == 224
    assert rep["rotations"] == 224 * -(-4096 // 30)
    assert rep["rotations_features_first"] == 224 * 4096
    assert rep["rotation_saving"] == rep["rotations_features_first"] - rep["rotations"]


def test_run_report_is_exact_and_totals_are_sums():
    rep = cmd_run(load_run_config(toy_obj()))
    assert rep["equivalence"] == "exact"
    for phase in PHASES:
        for key in ("interactions", "messages", "bytes", "he_ops"):
            want = sum(rep["steps"][s][phase][key] for s in STEPS)
            assert rep["totals"][phase][key] == want
    text = render_report(rep)
    assert "modeled latency" in text
    assert "equivalence=exact" in text


def test_same_seed_gives_byte_identical_reports():
    a = json.dumps(cmd_run(load_run_config(toy_obj())), sort_keys=True)
    b = json.dumps(cmd_run(load_run_config(toy_obj())), sort_keys=True)
    c = json.dumps(cmd_run(load_run_config(toy_obj(seed=32))), sort_keys=True)
    assert a == b
    assert a != c


def test_compare_shows_online_he_free_columns_under_f():
    cmp = cmd_compare(load_run_config(toy_obj()))
    for step in ("Embed", "QKV"):
        assert cmp["reports"]["f"]["steps"][step]["online"]["he_ops"] == 0
        assert cmp["reports"]["base"]["steps"][step]["online"]["he_ops"] > 0
    assert "Embed" in render_compare(cmp)


def test_verify_passes_and_detects_mismatch(monkeypatch):
    # pre-norm keeps the embedding unfused in fpc: N + 2 prefix interactions
    rcs = [load_run_config(toy_obj(model={**toy_obj()["model"], "norm": norm}))
           for norm in ("post", "pre")]
    for rc in rcs:
        ok, lines = cmd_verify(rc)
        assert ok and all(line.startswith("pass") for line in lines), lines

    real = cli.reference_forward
    monkeypatch.setattr(cli, "reference_forward",
                        lambda cfg, w, tokens, strict=False: real(cfg, w, tokens, strict).lshift(1))
    for rc in rcs:
        ok, lines = cmd_verify(rc)
        assert not ok
        assert any(line.startswith("FAIL") for line in lines)


def test_mode_and_packing_knobs():
    rep = cmd_run(load_run_config(toy_obj(mode="fpc")))
    assert rep["mode"] == "fpc" and rep["packing"] == "tokens_first"
    rep = cmd_run(load_run_config(toy_obj(mode="fpc", packing="features_first")))
    assert rep["packing"] == "features_first"
    assert rep["equivalence"] == "exact"


def test_weights_path_round_trip(tmp_path):
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    w = random_weights(cfg, np.random.default_rng(12))
    path = tmp_path / "w.bin"
    save_weights(path, w)
    rep = cmd_run(load_run_config(toy_obj(weights_path=str(path))))
    assert rep["equivalence"] == "exact"


def test_config_errors_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="'seed'"):
        load_run_config({"model": toy_obj()["model"]})
    with pytest.raises(ConfigError, match="'mode'"):
        load_run_config(toy_obj(mode="hgs"))
    with pytest.raises(ConfigError, match="'tokens'"):
        load_run_config(toy_obj(tokens=[1, 2]))
    with pytest.raises(ConfigError, match="'model'"):
        load_run_config({"seed": 1})
    with pytest.raises(ConfigError, match="'frobnicate'"):
        load_run_config(toy_obj(frobnicate=1))
    with pytest.raises(ConfigError, match="'packing'"):
        load_run_config(toy_obj(packing="rowwise"))
    with pytest.raises(ConfigError, match="'backend'"):
        load_run_config(toy_obj(backend="analytic"))
    with pytest.raises(ConfigError, match="expected int"):
        load_run_config(toy_obj(seed=True))
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "f",\n  "seed": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        read_config_file(str(bad))


def test_main_run_verify_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "rc.json"
    report_path = tmp_path / "out.json"
    cfg_path.write_text(json.dumps(toy_obj(report=str(report_path))))
    assert main(["run", "--config", str(cfg_path), "--mode", "fp", "--seed", "7"]) == 0
    saved = json.loads(report_path.read_text())
    assert saved["mode"] == "fp" and saved["seed"] == 7
    assert saved["equivalence"] == "exact"

    assert main(["verify", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "verify: pass" in out

    missing = tmp_path / "missing_seed.json"
    missing.write_text(json.dumps({"model": toy_obj()["model"]}))
    assert main(["verify", "--config", str(missing)]) == 1

    assert main(["plan", "30", "30522", "4096"]) == 0
    assert '"ciphertexts": 224' in capsys.readouterr().out
