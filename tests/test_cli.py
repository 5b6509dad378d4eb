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


@pytest.mark.parametrize("argv,name", [
    (["5000", "10", "4096"], "n"),     # more tokens than slots
    (["4", "10", "12"], "slots"),      # not a power of two
    (["4", "10", "0"], "slots"),
    (["0", "10", "16"], "n"),
    (["4", "-1", "16"], "d"),
])
def test_plan_refuses_bad_arguments_by_name(argv, name, capsys):
    assert main(["plan", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"plan error: argument {name!r}:" in err


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
    assert rep["equivalence"] == "exact"
    rep = cmd_run(load_run_config(toy_obj(mode="f")))
    assert rep["mode"] == "f" and rep["packing"] == "features_first"


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
    # packing follows the mode and the HE slots follow the model: neither
    # is a config field
    with pytest.raises(ConfigError, match="'packing': unknown"):
        load_run_config(toy_obj(packing="rowwise"))
    with pytest.raises(ConfigError, match="'he': unknown"):
        load_run_config(toy_obj(he={"slots": 64}))
    # a model is given inline, and only inline
    with pytest.raises(ConfigError, match="'model_path': unknown"):
        load_run_config(toy_obj(model_path="model.json"))
    with pytest.raises(ConfigError, match="'backend'"):
        load_run_config(toy_obj(backend="analytic"))
    with pytest.raises(ConfigError, match="expected int"):
        load_run_config(toy_obj(seed=True))
    # weights that cannot be made or read, and a channel the model refuses
    with pytest.raises(ConfigError, match="'weight_scale': w_e: values exceed"):
        load_run_config(toy_obj(weight_scale=1000))
    with pytest.raises(ConfigError, match="'weight_scale': must be finite and >= 0"):
        load_run_config(toy_obj(weight_scale=-0.5))
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"junk" * 4)
    with pytest.raises(ConfigError, match=r"'weights_path': not a weight file \(bad magic\)"):
        load_run_config(toy_obj(weights_path=str(corrupt)))
    with pytest.raises(ConfigError, match="'weights_path': .*No such file"):
        load_run_config(toy_obj(weights_path=str(tmp_path / "missing.bin")))
    with pytest.raises(ConfigError, match="'channel': delay_s must be >= 0"):
        load_run_config(toy_obj(channel={"delay_s": -0.5}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "f",\n  "seed": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        read_config_file(str(bad))


def test_unknown_channel_key_is_named_not_ignored():
    # a misspelt delay_s used to run at the default delay
    with pytest.raises(ConfigError, match="'channel.delay': unknown"):
        load_run_config(toy_obj(channel={"delay": 5}))


@pytest.mark.parametrize("cmd", ["run", "verify"])
def test_tokens_that_do_not_divide_the_slots_end_in_a_config_error(cmd, tmp_path, capsys):
    # 6 tokens and 16 HE slots: the tokens_first packing of fp and fpc cannot
    # lay them out; mode f runs, and verify reaches fp
    obj = toy_obj(mode="fp", model={**toy_obj()["model"], "n": 6}, tokens=[3, 1, 4, 1, 5, 9])
    cfg_path = tmp_path / "n6.json"
    cfg_path.write_text(json.dumps(obj))
    assert main([cmd, "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config field 'model.n': tokens_first packing needs n=6")
    with pytest.raises(ConfigError, match="'model.n'.*mode 'fpc'"):
        cmd_run(load_run_config(obj, {"mode": "fpc"}))
    assert cmd_run(load_run_config(obj, {"mode": "f"}))["equivalence"] == "exact"


@pytest.mark.parametrize("cmd", ["compare", "verify"])
def test_compare_and_verify_refuse_the_token_count_before_any_run(cmd, tmp_path, capsys,
                                                                 monkeypatch):
    # fp's packing refuses n=6; base and f must not run first
    runs = []
    real = cli.Session.run

    def counted(self, tokens):
        runs.append(self.mode)
        return real(self, tokens)

    monkeypatch.setattr(cli.Session, "run", counted)
    obj = toy_obj(model={**toy_obj()["model"], "n": 6}, tokens=[3, 1, 4, 1, 5, 9])
    cfg_path = tmp_path / "n6.json"
    cfg_path.write_text(json.dumps(obj))
    assert main([cmd, "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config field 'model.n'")
    assert runs == []


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

    # a value the model refuses ends the run with the field's name, not a traceback
    huge = tmp_path / "huge_weights.json"
    huge.write_text(json.dumps(toy_obj(weight_scale=1000)))
    capsys.readouterr()
    assert main(["run", "--config", str(huge)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config field 'weight_scale':")

    # a non-integer dimension is named, where it used to end in a TypeError
    fractional = tmp_path / "fractional_n.json"
    fractional.write_text(json.dumps(toy_obj(model={**toy_obj()["model"], "N": 1.0})))
    assert main(["run", "--config", str(fractional)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config field 'model': N must be an integer >= 1")

    assert main(["plan", "30", "30522", "4096"]) == 0
    assert '"ciphertexts": 224' in capsys.readouterr().out
