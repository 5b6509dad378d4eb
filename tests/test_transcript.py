"""The cost log: message transcript, its shared (step, phase) scope, and
latency estimation."""

import json
import math

import numpy as np
import pytest

from privtrans.costs import ChannelModel, CostReport, Message, Transcript, estimate_latency


def at(t, step, phase="online"):
    """Open t's scope through a report on it, the one way a step gets in."""
    return CostReport(t).at(step, phase)


def test_empty_transcript_costs_nothing():
    t = Transcript()
    est = estimate_latency(t, ChannelModel())
    assert est == {"offline_s": 0.0, "online_s": 0.0}
    assert t.message_count() == 0
    assert t.bytes_sent() == 0


def test_one_interaction_one_megabyte():
    t = Transcript()
    with at(t, "QKV"):
        t.send("client", "share", 1_000_000)
        t.interaction()
    est = estimate_latency(t, ChannelModel(delay_s=0.0023, bandwidth_bps=1e8))
    assert est["online_s"] == 0.0123
    assert est["offline_s"] == 0.0


def test_latency_is_linear_in_both_terms():
    ch = ChannelModel(delay_s=0.004, bandwidth_bps=5e7)
    single = Transcript()
    with at(single, "Embed"):
        single.send("server", "ciphertext", 4096)
        single.interaction()
    double = Transcript()
    with at(double, "Embed"):
        for _ in range(2):
            double.send("server", "ciphertext", 4096)
            double.interaction()
    one = estimate_latency(single, ch)["online_s"]
    two = estimate_latency(double, ch)["online_s"]
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_phases_accumulate_separately():
    t = Transcript()
    with at(t, "QxK", "offline"):
        t.send("client", "ciphertext", 500)
        t.interaction()
    with at(t, "QxK"):
        t.send("server", "share", 300)
        t.interaction()
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
    t.send("client", "gc_material", 100)
    t.interaction()
    r = CostReport(t)
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
    t.send("client", "gc_material", 100)
    r = CostReport(t)
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
    # a step gets in only through CostReport.at, which refuses an unknown one
    t = Transcript()
    with pytest.raises(ValueError):
        t.send("eve", "share", 10)
    with pytest.raises(ValueError):
        t.send("client", "carrier-pigeon", 10)
    with pytest.raises(ValueError):
        t.send("client", "share", 0)
    assert t.messages == []
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
    with at(t, "Embed", "offline"):
        t.send("client", "ciphertext", 64)
    with at(t, "SoftMax"):
        t.send("server", "ot", 48)
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
    with at(t2, "Embed", "offline"):
        t2.send("client", "ciphertext", 64)
    with at(t2, "SoftMax"):
        t2.send("server", "ot", 48)
    assert t2.to_jsonl() == t.to_jsonl()


def test_summary_groups_by_step():
    t = Transcript()
    with at(t, "QKV"):
        t.send("client", "share", 100)
        t.send("server", "ciphertext", 900)
        t.interaction()
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


def test_scope_is_restored_after_an_exception():
    r = CostReport()
    with r.at("QKV", "offline"):
        with pytest.raises(RuntimeError, match="stage failed"):
            with r.at("SoftMax", "online"):
                raise RuntimeError("stage failed")
        r.bump("he_enc")
    r.bump("he_dec")
    assert r.cells == {("QKV", "offline"): {"he_enc": 1}, ("Others", "online"): {"he_dec": 1}}
    assert r.transcript.scope == ("Others", "online")


def test_a_bare_report_bills_its_own_transcripts_default_cell():
    r, other = CostReport(), CostReport()
    assert r.transcript is not other.transcript
    r.bump("he_rotate", 3)
    r.transcript.send("client", "share", 8)
    r.transcript.interaction()
    assert r.cells == {("Others", "online"): {"he_rotate": 3}}
    assert r.transcript.messages == [Message("client", "Others", "online", "share", 8)]
    assert r.transcript.interactions("Others") == 1
    assert other.cells == {} and other.transcript.messages == []


@pytest.mark.parametrize("step,phase,error", [("NoSuchStep", "online", "unknown step 'NoSuchStep'"),
                                              ("QKV", "midline", "unknown phase 'midline'")])
def test_at_refuses_an_unknown_step_or_phase(step, phase, error):
    r = CostReport()
    with pytest.raises(ValueError, match=error):
        with r.at(step, phase):
            pass
    assert r.transcript.scope == ("Others", "online")
