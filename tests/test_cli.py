"""Benchmark driver: config parsing, reports, ablation, and verify gate."""

import json
import math
from pathlib import Path

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
    rep = cmd_plan(32, 30522, 4096)
    assert rep["strategy"] == "tokens_first"
    assert rep["ciphertexts"] == 239
    assert rep["rotations"] == 239 * 4096 // 32 == 30_592
    assert rep["rotations_features_first"] == 239 * 4096
    assert rep["rotation_saving"] == rep["rotations_features_first"] - rep["rotations"]
    # 30 tokens do not divide 4096 slots: the kernel refuses tokens_first
    rep = cmd_plan(30, 30522, 4096)
    assert rep["strategy"] == "features_first"
    assert rep["ciphertexts"] == 224
    assert rep["rotations"] == rep["rotations_features_first"] == 224 * 4096
    assert rep["rotation_saving"] == 0


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
    # the generator's knobs would act on nothing next to a weight file
    for k, v in (("weights_seed", 99), ("weight_scale", 20)):
        with pytest.raises(ConfigError, match=rf"^config field '{k}': ignored next to"):
            load_run_config(toy_obj(weights_path=str(path), **{k: v}))


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


@pytest.mark.parametrize("edit,named", [
    (_drop("value_bits"), "'value_bits'"),
    (lambda h: [h], "JSON object"),
    (lambda h: {**h, "tensors": [{**h["tensors"][0], "rows": "a"}, *h["tensors"][1:]]},
     "'tensors[0]'"),
    (_drop("tensors"), "'tensors'"),
], ids=["no-value_bits", "list-header", "string-rows", "no-tensors"])
def test_malformed_weight_header_ends_in_one_config_error_line(edit, named, tmp_path, capsys):
    # each used to end in a KeyError, AttributeError or TypeError traceback
    cfg = ModelConfig(N=1, d_emb=8, H=2, n=4, d_oh=16, d_ff=8)
    blob_path = tmp_path / "w.bin"
    save_weights(blob_path, random_weights(cfg, np.random.default_rng(12)))
    blob = blob_path.read_bytes()
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.dumps(edit(json.loads(blob[8 : 8 + hlen]))).encode()
    blob_path.write_bytes(blob[:4] + len(header).to_bytes(4, "little") + header
                          + blob[8 + hlen :])
    cfg_path = tmp_path / "rc.json"
    cfg_path.write_text(json.dumps(toy_obj(weights_path=str(blob_path))))
    assert main(["run", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config field 'weights_path': weight header")
    assert err.count("\n") == 1 and named in err, err


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
    # a ring fraction the nonpoly stages cannot carry, for either activation
    for frac_bits, activation in ((13, "relu"), (1, "gelu")):
        obj = toy_obj()
        obj["model"] = {**obj["model"], "activation": activation,
                        "ring": {"value_bits": 15, "frac_bits": frac_bits}}
        with pytest.raises(ConfigError, match=rf"^config field 'model': frac_bits={frac_bits}"):
            load_run_config(obj)
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


@pytest.mark.parametrize("change,field", [
    ({"model": {**toy_obj()["model"], "ring": {"value_bits": 15.5}}}, "value_bits"),
    ({"model": {**toy_obj()["model"], "ring": {"frac_bits": 8.0}}}, "frac_bits"),
    ({"model": {**toy_obj()["model"], "ring": {"frac_bits": True}}}, "frac_bits"),
    ({"channel": {"delay_s": True}}, "'channel.delay_s'"),
    ({"channel": {"bandwidth_bps": "fast"}}, "'channel.bandwidth_bps'"),
    ({"weight_scale": True}, "'weight_scale'"),
    ({"tokens": [True, False, 3, 1]}, "'tokens'"),
])
def test_numeric_fields_refuse_bools_and_wrong_types(change, field, tmp_path, capsys):
    # a bool is not a number, and a float is not a ring width: each used to
    # run at its int value or end in a traceback
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(toy_obj(**change)))
    assert main(["run", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:") and field in err.splitlines()[0]


@pytest.mark.parametrize("field", ["delay_s", "bandwidth_bps"])
def test_infinite_channel_value_is_a_config_error(field, tmp_path):
    # json.load parses Infinity, which used to pass and make every modeled
    # latency inf
    cfg_path = tmp_path / "inf.json"
    cfg_path.write_text(json.dumps(toy_obj(channel={field: math.inf})))
    assert "Infinity" in cfg_path.read_text()
    with pytest.raises(ConfigError, match=f"'channel': {field} must be .*finite"):
        read_config_file(str(cfg_path))


@pytest.mark.parametrize("change,field", [
    ({"channel": {"delay_s": 10**400}}, "'channel': delay_s"),
    ({"channel": {"bandwidth_bps": 10**400}}, "'channel': bandwidth_bps"),
    ({"weight_scale": 10**400}, "'weight_scale'"),
    ({"model": {**toy_obj()["model"], "lam": [[10**400] * 8] * 4}}, "'model': lam"),
], ids=["delay_s", "bandwidth_bps", "weight_scale", "lam"])
def test_an_int_too_large_for_a_float_is_a_config_error(change, field, tmp_path, capsys):
    # json.load reads a 400-digit literal as an int, which float() and
    # math.isfinite refused with an OverflowError traceback
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(toy_obj(**change)))
    assert main(["run", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: config field {field}")
    assert len(err.splitlines()) == 1


def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.load refuses an integer literal of more than 4,300 digits with a
    # ValueError that is not a JSONDecodeError, which ended in a traceback
    cfg_path = tmp_path / "digits.json"
    cfg_path.write_text(json.dumps(toy_obj())[:-1] + ', "weights_seed": ' + "9" * 5000 + "}")
    assert main(["run", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: config file {str(cfg_path)!r}: ")
    assert len(err.splitlines()) == 1


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


# the README's minimal config
README_DESK = {"mode": "f", "seed": 7, "weights_seed": 5,
               "model": {"N": 1, "d_emb": 8, "H": 2, "n": 4, "d_oh": 16, "d_ff": 8}}


@pytest.mark.parametrize("cmd,runs", [("run", 1), ("compare", 4), ("verify", 0)])
def test_strict_in_domain_changes_only_the_strict_field(cmd, runs, tmp_path, capsys):
    # runs: the run reports the command writes; verify's holds only its checks
    cfg_path = tmp_path / "rc.json"
    cfg_path.write_text(json.dumps(README_DESK))
    outs, texts = [], []
    for flags in ([], ["--strict"]):
        report_path = tmp_path / f"out{len(flags)}.json"
        assert main([cmd, "--config", str(cfg_path), "--report", str(report_path), *flags]) == 0
        outs.append(capsys.readouterr())
        texts.append(report_path.read_text())
    assert outs[0] == outs[1]
    assert texts[0].count('"strict": false') == texts[1].count('"strict": true') == runs
    assert texts[1].replace('"strict": true', '"strict": false') == texts[0]


@pytest.mark.parametrize("cmd", ["run", "compare", "verify"])
def test_strict_overflow_ends_in_one_range_error_line_before_any_run(cmd, tmp_path, capsys,
                                                                     monkeypatch):
    def never(self, tokens):
        raise AssertionError("the protocol ran")

    monkeypatch.setattr(cli.Session, "run", never)
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps({**README_DESK, "weight_scale": 20}))
    assert main([cmd, "--config", str(cfg_path), "--strict"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "range error: softmax_row: value exceeds +-16383 after the 32-bit shift\n"


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

    # JSON's NaN reaches lam: it used to run as INT64_MIN and print
    # equivalence=exact
    nan_lam = tmp_path / "nan_lam.json"
    nan_lam.write_text(json.dumps(toy_obj(model={**toy_obj()["model"],
                                                 "lam": [[float("nan")] * 8] * 4})))
    assert "NaN" in nan_lam.read_text()
    assert main(["run", "--config", str(nan_lam)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config field 'model': lam must be finite")

    assert main(["plan", "32", "30522", "4096"]) == 0
    assert '"ciphertexts": 239' in capsys.readouterr().out


@pytest.mark.parametrize("change,argv,named", [
    ({"seed": -1}, [], "'seed'"),
    ({}, ["--seed", "-5"], "'seed'"),
    ({"weights_seed": -3}, [], "'weights_seed'"),
    ({}, ["--config", "{tmp}/missing.json"], "{tmp}/missing.json"),
    ({}, ["--report", "{tmp}/no_dir/out.json"], "{tmp}/no_dir/out.json"),
], ids=["seed", "seed-flag", "weights_seed", "config-path", "report-path"])
def test_bad_seeds_and_paths_end_in_one_config_error_line(change, argv, named, tmp_path,
                                                          capsys):
    # each used to end in a traceback: numpy refuses a negative seed, and a
    # missing config or an unwritable report path raised from open()
    cfg_path = tmp_path / "rc.json"
    cfg_path.write_text(json.dumps(toy_obj(**change)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(["run", "--config", str(cfg_path), *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert named.format(tmp=tmp_path) in err


CONFIGS = Path(__file__).parent / "configs"
OUTCOMES = [
    line.split("|") for line in (CONFIGS / "outcomes.txt").read_text().splitlines()
    if not line.startswith("#")
]


def test_every_committed_config_has_an_outcome():
    assert {name for name, *_ in OUTCOMES} == {p.stem for p in CONFIGS.glob("*.json")}


@pytest.mark.parametrize("name,command,status,line", OUTCOMES,
                         ids=["-".join([name, *command.split()]) for name, command, *_ in OUTCOMES])
def test_committed_config_gives_its_outcome(name, command, status, line, capsys):
    assert main([*command.split(), "--config", str(CONFIGS / f"{name}.json")]) == int(status)
    out, err = capsys.readouterr()
    lines = (out + err).splitlines()
    assert any(got.startswith(line) for got in lines), lines
    assert not any("Traceback" in got for got in lines)
    if int(status):
        assert len(lines) == 1, lines
