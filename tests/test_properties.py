"""Property test over the model knobs: every valid config is bit-exact in
all four modes, and every bad knob is refused with an error naming it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privtrans.engine import MODES, Session, run_protocol
from privtrans.model import ModelConfig, random_weights, reference_forward
from privtrans.ring import FixedTensor, RingParams

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)


@st.composite
def model_knobs(draw):
    H = draw(st.sampled_from([1, 2]))
    d_emb = H * draw(st.sampled_from([1, 2, 4]))
    n = draw(st.sampled_from([1, 2, 4, 8]))
    frac_bits = draw(st.integers(2, 12))
    lam = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=n * d_emb,
                                    max_size=n * d_emb))
    return dict(
        N=draw(st.sampled_from([1, 2])),
        d_emb=d_emb,
        H=H,
        n=n,
        d_oh=draw(st.integers(1, 16)),
        d_ff=draw(st.integers(1, 8)),
        d_out=draw(st.integers(1, 3)),
        norm=draw(st.sampled_from(["post", "pre"])),
        activation=draw(st.sampled_from(["relu", "gelu"])),
        delta=draw(st.integers(1, 3)),
        lam=None if lam is None else np.reshape(lam, (n, d_emb)),
        ring=RingParams(value_bits=draw(st.integers(frac_bits + 1, 16)), frac_bits=frac_bits),
    )


@PROPERTY_SETTINGS
@given(knobs=model_knobs(), seed=st.integers(0, 2 ** 16))
def test_every_mode_is_bit_exact_on_drawn_configs(knobs, seed):
    cfg = ModelConfig(**knobs)
    rng = np.random.default_rng(seed)
    weights = random_weights(cfg, rng)
    tokens = rng.integers(0, cfg.d_oh, size=cfg.n).tolist()
    ref = reference_forward(cfg, weights, tokens)
    for mode in MODES:
        got = run_protocol(mode, cfg, weights, tokens, seed).reconstruct()
        assert got == ref, mode


@PROPERTY_SETTINGS
@given(knobs=model_knobs(), bad_n=st.sampled_from([3, 5, 6, 7]))
def test_bad_knobs_raise_errors_naming_the_field(knobs, bad_n):
    lam_with = lambda v: np.full((knobs["n"], knobs["d_emb"]), v)
    bad = [
        ("d_emb", dict(d_emb=5, H=2, lam=None)),
        ("activation", dict(activation="tanh")),
        ("norm", dict(norm="sandwich")),
        ("delta", dict(delta=0)),
        # a delta past the ring used to fail in the reference's embedding
        # with a bare OverflowError
        ("delta", dict(delta=2**64)),
        ("lam", dict(lam=np.zeros((knobs["n"] + 1, knobs["d_emb"])))),
        # a NaN or inf lam used to be encoded as INT64_MIN with a warning
        ("lam", dict(lam=lam_with(np.nan))),
        ("lam", dict(lam=lam_with(-np.inf))),
        # and a finite lam past 2^63 / 2^frac_bits the same way
        ("lam", dict(lam=lam_with(1e30))),
        ("lam", dict(lam=lam_with(-2.0**63))),
        # a lam in another ring used to be read at the wrong scale by the
        # reference and fail every mode with a bare "ring params mismatch"
        ("lam", dict(lam=FixedTensor.zeros(knobs["n"], knobs["d_emb"], RingParams(16, 1)))),
    ]
    for field, change in bad:
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{**knobs, **change})
    # a float, a bool or a zero in any integer knob is refused by name, not
    # run as its int value or left to fail later with a TypeError
    for field in ("N", "d_emb", "H", "n", "d_oh", "d_ff", "d_out", "delta"):
        for value in (float(knobs[field]), True, 0):
            with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
                ModelConfig(**{**knobs, field: value, "lam": None})
    frac_bits = knobs["ring"].frac_bits
    with pytest.raises(ValueError, match="value_bits"):
        RingParams(value_bits=17, frac_bits=frac_bits)
    with pytest.raises(ValueError, match="frac_bits"):
        RingParams(value_bits=frac_bits, frac_bits=frac_bits)
    # a float or a bool ring width is refused by name
    value_bits = knobs["ring"].value_bits
    for value in (float(value_bits), value_bits + 0.5, True):
        with pytest.raises(ValueError, match=r"^value_bits must be an integer"):
            RingParams(value_bits=value, frac_bits=frac_bits)
    for value in (float(frac_bits), True):
        with pytest.raises(ValueError, match=r"^frac_bits must be an integer"):
            RingParams(value_bits=value_bits, frac_bits=value)
    # a ring fraction the nonpoly stages cannot carry is refused by name,
    # not left to an assertion inside a stage
    for ring, activation in ((RingParams(value_bits=16, frac_bits=13), knobs["activation"]),
                             (RingParams(value_bits=16, frac_bits=15), "relu"),
                             (RingParams(value_bits=value_bits, frac_bits=1), "gelu")):
        with pytest.raises(ValueError, match=r"^frac_bits="):
            ModelConfig(**{**knobs, "ring": ring, "activation": activation, "lam": None})

    cfg = ModelConfig(**{**knobs, "n": bad_n, "lam": None})
    weights = random_weights(cfg, np.random.default_rng(bad_n))
    for mode in ("fp", "fpc"):
        with pytest.raises(ValueError, match=rf"\bn={bad_n}\b"):
            Session(cfg, weights, mode, seed=0)
