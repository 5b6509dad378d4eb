"""Message transcript and latency estimation."""

import json
import math

import numpy as np
import pytest

from privtrans.costs import CostReport
from privtrans.transcript import ChannelModel, Message, Transcript, estimate_latency


def test_empty_transcript_costs_nothing():
    t = Transcript()
    est = estimate_latency(t, ChannelModel())
    assert est == {"offline_s": 0.0, "online_s": 0.0}
    assert t.message_count() == 0
    assert t.bytes_sent() == 0


def test_one_interaction_one_megabyte():
    t = Transcript()
    t.send("client", "QKV", "share", 1_000_000)
    t.interaction("QKV")
    est = estimate_latency(t, ChannelModel(delay_s=0.0023, bandwidth_bps=1e8))
    assert est["online_s"] == 0.0123
    assert est["offline_s"] == 0.0


def test_latency_is_linear_in_both_terms():
    ch = ChannelModel(delay_s=0.004, bandwidth_bps=5e7)
    single = Transcript()
    single.send("server", "Embed", "ciphertext", 4096)
    single.interaction("Embed")
    double = Transcript()
    for _ in range(2):
        double.send("server", "Embed", "ciphertext", 4096)
        double.interaction("Embed")
    one = estimate_latency(single, ch)["online_s"]
    two = estimate_latency(double, ch)["online_s"]
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_phases_accumulate_separately():
    t = Transcript()
    t.send("client", "QxK", "ciphertext", 500, phase="offline")
    t.interaction("QxK", phase="offline")
    t.send("server", "QxK", "share", 300)
    t.interaction("QxK")
    assert t.bytes_sent("QxK", "offline") == 500
    assert t.bytes_sent("QxK", "online") == 300
    assert t.bytes_sent() == 800
    assert t.interactions("QxK", phase="offline") == 1
    assert t.interactions("QxK") == 1
    est = estimate_latency(t, ChannelModel(delay_s=0.001, bandwidth_bps=1e6))
    assert est["offline_s"] == pytest.approx(0.001 + 500 / 1e6)
    assert est["online_s"] == pytest.approx(0.001 + 300 / 1e6)


def test_op_cost_table_adds_compute_time():
    t = Transcript()
    t.send("client", "Others", "gc_material", 100)
    t.interaction("Others")
    r = CostReport()
    with r.at("Others", "online"):
        r.bump("he_mul_plain", 10)
    base = estimate_latency(t, ChannelModel(delay_s=0.0, bandwidth_bps=1e8))
    est = estimate_latency(
        t,
        ChannelModel(delay_s=0.0, bandwidth_bps=1e8),
        op_cost_table={"he_mul_plain": 0.002},
        report=r,
    )
    assert est["online_s"] == pytest.approx(base["online_s"] + 0.02)



def _priced_run():
    t = Transcript()
    t.send("client", "Others", "gc_material", 100)
    r = CostReport()
    with r.at("Others", "online"):
        r.bump("he_mul_plain", 10)
    return t, r


def test_op_cost_table_without_report_is_refused():
    t, _ = _priced_run()
    with pytest.raises(ValueError, match="report"):
        estimate_latency(t, ChannelModel(), op_cost_table={"he_mul_plain": 0.002})


def test_op_cost_table_refuses_an_unknown_counter():
    t, r = _priced_run()
    with pytest.raises(ValueError, match="he_mulplain"):
        estimate_latency(t, ChannelModel(), op_cost_table={"he_mulplain": 0.002}, report=r)


# 10**400 is an int too large for a float, on which math.isfinite raised
# OverflowError
@pytest.mark.parametrize("per_op", [-1.0, float("nan"), float("inf"), 10**400],
                         ids=["negative", "nan", "inf", "huge-int"])
def test_op_cost_table_refuses_a_negative_or_infinite_cost(per_op):
    t, r = _priced_run()
    with pytest.raises(ValueError, match="he_mul_plain"):
        estimate_latency(t, ChannelModel(), op_cost_table={"he_mul_plain": per_op}, report=r)

def test_send_validates_fields():
    t = Transcript()
    with pytest.raises(ValueError):
        t.send("eve", "QKV", "share", 10)
    with pytest.raises(ValueError):
        t.send("client", "NoSuchStep", "share", 10)
    with pytest.raises(ValueError):
        t.send("client", "QKV", "carrier-pigeon", 10)
    with pytest.raises(ValueError):
        t.send("client", "QKV", "share", 0)
    with pytest.raises(ValueError):
        ChannelModel(delay_s=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(bandwidth_bps=0.0)


@pytest.mark.parametrize("field", ["delay_s", "bandwidth_bps"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "huge-int"])
def test_channel_refuses_values_that_are_not_finite(field, value):
    # an infinite delay or bandwidth turned every modeled latency into inf
    # or nan; an int too large for a float raised OverflowError
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        ChannelModel(**{field: value})


def test_jsonl_round_trip_is_deterministic():
    t = Transcript()
    t.send("client", "Embed", "ciphertext", 64, phase="offline")
    t.send("server", "SoftMax", "ot", 48)
    lines = t.to_jsonl().strip().split("\n")
    assert len(lines) == 2
    recs = [json.loads(ln) for ln in lines]
    assert recs[0]["sender"] == "client"
    assert recs[1] == {
        "bytes": 48,
        "kind": "ot",
        "phase": "online",
        "sender": "server",
        "step": "SoftMax",
    }
    t2 = Transcript()
    t2.send("client", "Embed", "ciphertext", 64, phase="offline")
    t2.send("server", "SoftMax", "ot", 48)
    assert t2.to_jsonl() == t.to_jsonl()


def test_summary_groups_by_step():
    t = Transcript()
    t.send("client", "QKV", "share", 100)
    t.send("server", "QKV", "ciphertext", 900)
    t.interaction("QKV")
    s = t.summary()
    assert s["QKV"]["online"]["bytes"] == 1000
    assert s["QKV"]["online"]["messages"] == 2
    assert s["QKV"]["online"]["interactions"] == 1


def test_cost_report_rejects_transcript_tallies():
    # interactions, messages and bytes are counted by the Transcript alone
    report = CostReport()
    for name in ("interactions", "bytes_sent", "messages"):
        with pytest.raises(ValueError, match=name):
            report.bump(name)
    assert report.cells == {}
