"""Two-party private transformer inference on additive shares.

The package splits a transformer forward pass between a client (who holds
the input tokens) and a server (who holds the weights). Linear layers run
under additively-homomorphic encryption or precomputed masks, attention
products under multiplication triples, and nonpolynomial stages under
garbled circuits; everything reconstructs the plaintext fixed-point
reference bit-exactly. Four protocol modes trade precomputation for
online cost:

  base  every mask and triple is generated online with HE
  f     mask generation moves offline; online linear layers are HE-free
  fp    f plus tokens-first ciphertext packing for the offline HE work
  fpc   fp plus an embedding-to-attention fusion that collapses the
        prefix to a single online interaction

Start with `Session` / `run_protocol` (engine), `ModelConfig` /
`reference_forward` (model), or the `privtrans-bench` CLI.
"""

from .costs import ChannelModel, CostReport, Transcript, estimate_latency
from .engine import MODES, Session, audit_server_ignorance, run_protocol
from .model import (
    ModelConfig,
    ModelWeights,
    load_weights,
    random_weights,
    reference_forward,
    save_weights,
)
from .packing import PackingLayout, PackingStrategy, he_matmul, pack, plan_layout, unpack
from .ring import DEFAULT_RING, FixedTensor, RingParams, mat_mul
from .securefn import SecureFnSpec, eval_secure, plain_apply
from .sharing import make_product_triple
from .she import HEParams, decrypt, encrypt, keygen

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "CostReport",
    "Transcript",
    "estimate_latency",
    "MODES",
    "Session",
    "audit_server_ignorance",
    "run_protocol",
    "ModelConfig",
    "ModelWeights",
    "load_weights",
    "random_weights",
    "reference_forward",
    "save_weights",
    "PackingLayout",
    "PackingStrategy",
    "he_matmul",
    "pack",
    "plan_layout",
    "unpack",
    "DEFAULT_RING",
    "FixedTensor",
    "RingParams",
    "mat_mul",
    "SecureFnSpec",
    "eval_secure",
    "plain_apply",
    "make_product_triple",
    "HEParams",
    "decrypt",
    "encrypt",
    "keygen",
]
