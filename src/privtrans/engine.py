"""Two-party inference engine: four protocol modes over one compute graph.

Chain invariant: between modules one party holds the running tensor minus
a mask and the other holds that mask. Each plaintext-weight matmul is one
protocol module; its mask material moves through HE offline (modes f, fp,
fpc) or inline online (mode base), and its single online message is the
client's remask delta, which is also the module's one counted
interaction. Nonpoly stages run through eval_secure; share-by-share
products (QxK, AttenValue) run through matrix triples with the four-term
expansion (L-a)(R-b) + a(R-b) + (L-a)b + ab, so no ciphertext ever
multiplies a ciphertext.

Interaction accounting (online): the embedding is two modules (vocabulary
matmul, then coefficient scale plus public offset), so the fused prefix
embed -> QKV -> QxK logs exactly 4 interactions in modes base/f/fp. Mode
fpc collapses the prefix into the one QxK exchange: the server evaluates
S_h = (P_s + R_e) B_h (P_s + R_e)^T from its own plaintext
P_s = (X0 - Rc0) W_E delta + lam, the encrypted mask image
R_e = Rc0 W_E delta, and combined weights B_h = W_Q_h W_K_h^T; the
mask-quadratic term R_e B_h R_e^T is prepared offline with one extra
client round on a server-masked ciphertext. Later blocks reuse the
preceding GC output mask as Rc0, so their prefix needs no client message
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import CostReport
from .model import (
    ModelConfig,
    ModelWeights,
    act_spec,
    final_ln_spec,
    ln_attn_spec,
    ln_ffn_spec,
    one_hot,
    softmax_spec,
    trunc_attn_spec,
    trunc_ffn_spec,
)
from .ot import TOY_256, ModpGroup
from .packing import PackingLayout, PackingStrategy, he_matmul, pack, pack_plain, unpack
from .ring import FixedTensor, mat_mul
from .securefn import SecureFnSpec, eval_secure
from .she import Ciphertext, HEParams, he_add, he_add_plain, he_mul_plain, keygen
from .sharing import (
    MatTriple,
    dec_rows,
    enc_left_matmul,
    enc_rows,
    make_product_triple,
    plain_left_matmul,
    rand_ring,
)
from .transcript import Transcript

MODES = ("base", "f", "fp", "fpc")

TAGS = ("plaintext-weight", "mask", "masked-value", "ciphertext", "share", "logical-plaintext")


class AuditError(RuntimeError):
    """A server-side tensor was tagged as logical plaintext."""


class MaterialMissing(RuntimeError):
    pass


@dataclass
class PartyState:
    """One party: role, key material, rng stream, tagged tensor store."""

    role: str
    rng: np.random.Generator
    report: CostReport
    keys: dict = field(default_factory=dict)
    tensors: dict = field(default_factory=dict)

    def put(self, name: str, tag: str, value) -> None:
        if tag not in TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        self.tensors[name] = (tag, value)


def audit_server_ignorance(server: PartyState) -> list[str]:
    """Names of server tensors tagged logical-plaintext (must stay empty)."""
    return [name for name, (tag, _) in server.tensors.items() if tag == "logical-plaintext"]


# -- HGS: one plaintext-weight matmul module ---------------------------------


@dataclass
class HgsMaterial:
    """Offline product of one module: client input mask rc, server output
    mask rs, and the client's decrypted share m_out = rc @ W + rs."""

    layer_id: str
    rc: FixedTensor
    rs: FixedTensor
    m_out: FixedTensor
    used: bool = False

    def mark_used(self) -> None:
        if self.used:
            raise MaterialMissing(f"HGS material {self.layer_id!r} already consumed")
        self.used = True


def run_hgs_layer(w, masked_in: FixedTensor, material: HgsMaterial,
                  bias: FixedTensor | None = None, scalar: int | None = None) -> FixedTensor:
    """Server online step of one module: (X - rc) @ W - rs plus any public
    bias. Pure ring arithmetic; the prepared phase already paid all HE.
    scalar replaces W for coefficient (diagonal) modules."""
    material.mark_used()
    out = masked_in.scalar_mul(scalar) if scalar is not None else mat_mul(masked_in, w)
    out = out - material.rs
    if bias is not None:
        out = out + bias
    return out


@dataclass
class ChgsMaterial:
    """Offline terms for one fused block prefix (mode fpc)."""

    block_id: int
    rc0: FixedTensor
    w_ed: FixedTensor
    lam: FixedTensor
    enc_re_t: list          # Enc(R_e^T) rows
    head_b: list            # B_h = W_Q_h @ W_K_h^T, server plaintext
    head_re_b: list         # Enc(R_e @ B_h) rows, per head
    head_t4: list           # Enc(R_e B_h R_e^T) rows, per head
    used: bool = False

    def mark_used(self) -> None:
        if self.used:
            raise MaterialMissing(f"fused material for block {self.block_id} already consumed")
        self.used = True


class Session:
    """One two-party inference run in a fixed protocol mode.

    Both state machines execute in-process over a shared Transcript; phase
    tags record where each message and operation falls in a deployed
    offline/online split. Every client random draw (masks, triples, GC
    labels) is input-independent, so all material tagged offline really is
    derivable before the input arrives.
    """

    def __init__(self, cfg: ModelConfig, weights: ModelWeights, mode: str, seed: int, *,
                 he_params: HEParams | None = None, packing: PackingStrategy | None = None,
                 backend: str = "semantic", strict: bool = False,
                 ot_group: ModpGroup = TOY_256):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        weights.validate(cfg)
        self.cfg, self.weights, self.mode = cfg, weights, mode
        self.backend, self.strict, self.ot_group = backend, strict, ot_group
        c_ss, s_ss = np.random.SeedSequence(seed).spawn(2)
        self.client = PartyState("client", np.random.default_rng(c_ss), CostReport("client"))
        self.server = PartyState("server", np.random.default_rng(s_ss), CostReport("server"))
        if he_params is None:
            top = max(cfg.d_oh, cfg.d_emb, cfg.d_ff, cfg.n, cfg.d_out, 2)
            slots = 1 << (top - 1).bit_length()
            he_params = HEParams(slots=slots, ciphertext_bytes=16 * slots)
        self.he = he_params
        self.key = keygen(he_params, key_id=0, seed=int(self.client.rng.integers(0, 2**63)))
        self.client.keys["he"] = self.key
        self.server.keys["he_public"] = self.key.public()
        if packing is None:
            packing = (PackingStrategy.TOKENS_FIRST if mode in ("fp", "fpc")
                       else PackingStrategy.FEATURES_FIRST)
        if packing is PackingStrategy.TOKENS_FIRST and he_params.slots % cfg.n:
            raise ValueError(f"tokens_first packing needs n={cfg.n} to divide "
                             f"the {he_params.slots} HE slots")
        self.packing = packing
        self.transcript = Transcript()
        for name, t in (("w_e", weights.w_e), ("w_head", weights.w_head)):
            self.server.put(name, "plaintext-weight", t)
        for i, blk in enumerate(weights.blocks):
            for part in ("w_q", "w_k", "w_v", "w_o", "w_f1", "w_f2"):
                self.server.put(f"block{i}.{part}", "plaintext-weight", getattr(blk, part))

    # -- small helpers --------------------------------------------------------

    def _layout(self, d: int) -> PackingLayout:
        return PackingLayout(self.packing, self.cfg.n, d, self.he.slots)

    def _send(self, sender: str, step: str, kind: str, nbytes: int, phase: str) -> None:
        self.transcript.send(sender, step, kind, nbytes, phase=phase)

    def _send_cts(self, sender: str, step: str, count: int, phase: str) -> None:
        self._send(sender, step, "ciphertext", count * self.he.ciphertext_bytes, phase)

    def _rand_c(self, shape) -> FixedTensor:
        return rand_ring(shape, self.client.rng, self.cfg.ring)

    def _rand_s(self, shape) -> FixedTensor:
        return rand_ring(shape, self.server.rng, self.cfg.ring)

    def _audit(self) -> None:
        bad = audit_server_ignorance(self.server)
        if bad:
            raise AuditError(f"server holds logical plaintext: {bad}")

    def _head_slices(self):
        dh = self.cfg.d_head
        return [slice(h * dh, (h + 1) * dh) for h in range(self.cfg.H)]

    def _pack_mask(self, step: str, phase: str, rc: FixedTensor) -> list[Ciphertext]:
        rep_c = self.client.report
        with rep_c.at(step, phase):
            cts = pack(rc, self._layout(rc.cols), self.key, rep_c)
        self._send_cts("client", step, len(cts), phase)
        return cts

    # -- module material ------------------------------------------------------

    def _gen_hgs(self, lid: str, step: str, phase: str, w: FixedTensor | None, *,
                 scalar: int | None = None, rc: FixedTensor | None = None,
                 rc_cts: list[Ciphertext] | None = None, d_in: int | None = None) -> HgsMaterial:
        """Mask exchange for one module: client ships Enc(rc) packed, the
        server returns Enc(rc @ W + rs), the client decrypts its share."""
        cfg, rep_c, rep_s = self.cfg, self.client.report, self.server.report
        d_in = d_in if d_in is not None else w.rows
        if rc is None:
            rc = self._rand_c((cfg.n, d_in))
        if rc_cts is None:
            rc_cts = self._pack_mask(step, phase, rc)
        layout = self._layout(d_in)
        with rep_s.at(step, phase):
            if scalar is not None:
                out_cts, layout_out = [he_mul_plain(ct, scalar, rep_s) for ct in rc_cts], layout
            else:
                out_cts, layout_out = he_matmul(rc_cts, layout, w, rep_s)
            rs = self._rand_s((cfg.n, layout_out.d))
            out_cts = [he_add_plain(ct, v, rep_s)
                       for ct, v in zip(out_cts, pack_plain(rs, layout_out))]
        self._send_cts("server", step, len(out_cts), phase)
        if phase == "offline":
            # an online-generated module piggybacks on its remask interaction
            self.transcript.interaction(step, phase=phase)
        with rep_c.at(step, phase):
            m_out = unpack(out_cts, layout_out, self.key.secret(), cfg.ring, rep_c)
        self.server.put(f"{lid}.rs", "mask", rs)
        self.client.put(f"{lid}.m_out", "mask", m_out)
        return HgsMaterial(lid, rc, rs, m_out)

    def _gen_triple(self, lid: str, step: str, phase: str, left: FixedTensor,
                    right: FixedTensor) -> MatTriple:
        """Client-built product triple shipped to the server."""
        rep_c = self.client.report
        with rep_c.at(step, phase):
            t = make_product_triple(left, right, self.key, report=rep_c)
        self._send_cts("client", step, len(t.left_ct) + len(t.right_ct) + len(t.product_ct), phase)
        self.server.put(f"{lid}.triple", "ciphertext", t)
        return t

    # -- online plumbing ------------------------------------------------------

    def _remask(self, step: str, chain, rc: FixedTensor) -> FixedTensor:
        """Client sends its part minus a fresh mask; the holder absorbs it.

        Returns the server's new masked value X - rc. This one message is
        the module's online interaction.
        """
        held, client_part = chain
        delta = client_part - rc
        self._send("client", step, "share", delta.data.size * 8, "online")
        self.transcript.interaction(step)
        out = held + delta
        self.server.put(f"{step}.masked_in", "masked-value", out)
        return out

    def _remask_pair(self, step: str, chain_a, chain_b, rc: FixedTensor):
        """Both factors of a share product re-masked by one common mask in
        a single message (one interaction)."""
        delta_a = chain_a[1] - rc
        delta_b = chain_b[1] - rc
        self._send("client", step, "share", (delta_a.data.size + delta_b.data.size) * 8, "online")
        self.transcript.interaction(step)
        out_a, out_b = chain_a[0] + delta_a, chain_b[0] + delta_b
        self.server.put(f"{step}.masked_in", "masked-value", (out_a, out_b))
        return out_a, out_b

    def _triple_product(self, step: str, left_masked: FixedTensor, right_masked: FixedTensor,
                        triple: MatTriple, rs: FixedTensor) -> FixedTensor:
        """Server assembles Enc(L @ R - rs) from a triple; client decrypts.

        tmp1 = (L-a)(R-b) in plaintext, tmp2 = a(R-b) over Enc(a), tmp3 =
        (L-a)b over Enc(b), tmp4 = Enc(ab)."""
        rep_c, rep_s = self.client.report, self.server.report
        triple.mark_used()
        with rep_s.at(step, "online"):
            tmp1 = mat_mul(left_masked, right_masked)
            tmp2 = enc_left_matmul(triple.left_ct, triple.left_mask.cols, right_masked, rep_s)
            tmp3 = plain_left_matmul(left_masked, triple.right_ct, rep_s)
            rows = []
            for i in range(tmp1.rows):
                acc = he_add(tmp2[i], tmp3[i], rep_s)
                acc = he_add(acc, triple.product_ct[i], rep_s)
                rows.append(he_add_plain(acc, tmp1.data[i] - rs.data[i], rep_s))
        self._send_cts("server", step, len(rows), "online")
        with rep_c.at(step, "online"):
            out = dec_rows(rows, tmp1.cols, self.key.secret(), self.cfg.ring, rep_c)
        return out

    def _gc(self, step: str, spec: SecureFnSpec, chain, lanes_shape=None):
        """One garbled stage over the chain shares; returns the new chain
        (held: value minus mask, client: mask)."""
        held, client_part = chain
        cv, sv = client_part.data, held.data
        if lanes_shape is not None:
            cv, sv = cv.reshape(lanes_shape), sv.reshape(lanes_shape)
        c_new, s_new = eval_secure(
            spec, cv, sv, self.client.rng,
            backend=self.backend, strict=self.strict,
            report=self.client.report, transcript=self.transcript, step=step,
            ot_group=self.ot_group, rng_server=self.server.rng,
        )
        if lanes_shape is not None:
            c_new, s_new = c_new.reshape(client_part.shape), s_new.reshape(held.shape)
        ring = self.cfg.ring
        out = (FixedTensor(s_new, ring), FixedTensor(c_new, ring))
        self.server.put(f"{step}.gc_out", "share", out[0])
        self.client.put(f"{step}.gc_mask", "mask", out[1])
        return out

    # -- pipeline pieces ------------------------------------------------------

    def _embed(self, x0: FixedTensor, phase: str):
        """Two chained modules: vocabulary matmul, then coefficient scale
        with the public positional offset added server-side."""
        cfg, w = self.cfg, self.weights
        m_e = self._gen_hgs("embed.vocab", "Embed", phase, w.w_e)
        m_dl = self._gen_hgs("embed.posn", "Embed", phase, None, scalar=cfg.delta,
                             d_in=cfg.d_emb)
        zeros = FixedTensor.zeros(*x0.shape, cfg.ring)
        masked = self._remask("Embed", (zeros, x0), m_e.rc)
        masked_e = run_hgs_layer(w.w_e, masked, m_e)
        masked = self._remask("Embed", (masked_e, m_e.m_out), m_dl.rc)
        masked_x1 = run_hgs_layer(None, masked, m_dl, bias=cfg.lam, scalar=cfg.delta)
        return masked_x1, m_dl.m_out

    def _weight_module(self, lid: str, step: str, w: FixedTensor, chain, phase: str,
                       bias: FixedTensor | None = None):
        mat = self._gen_hgs(lid, step, phase, w)
        masked = self._remask(step, chain, mat.rc)
        return run_hgs_layer(w, masked, mat, bias=bias), mat.m_out

    def _prefix_hgs(self, blk_i: int, chain, phase: str):
        """Modes base/f/fp: QKV modules sharing one input mask, then the
        per-head same-mask score product. Two online interactions."""
        cfg, blk, ring = self.cfg, self.weights.blocks[blk_i], self.cfg.ring
        rc_qkv = self._rand_c((cfg.n, cfg.d_emb))
        qkv_cts = self._pack_mask("QKV", phase, rc_qkv)
        m_q = self._gen_hgs(f"b{blk_i}.wq", "QKV", phase, blk.w_q, rc=rc_qkv, rc_cts=qkv_cts)
        m_k = self._gen_hgs(f"b{blk_i}.wk", "QKV", phase, blk.w_k, rc=rc_qkv, rc_cts=qkv_cts)
        m_v = self._gen_hgs(f"b{blk_i}.wv", "QKV", phase, blk.w_v, rc=rc_qkv, rc_cts=qkv_cts)
        rc_qk = self._rand_c((cfg.n, cfg.d_emb))
        triples = [self._gen_triple(f"b{blk_i}.qk{h}", "QxK", phase,
                                    FixedTensor(rc_qk.data[:, sl].copy(), ring),
                                    FixedTensor(rc_qk.data[:, sl].T.copy(), ring))
                   for h, sl in enumerate(self._head_slices())]

        masked_x1 = self._remask("QKV", chain, rc_qkv)
        masked_q = run_hgs_layer(blk.w_q, masked_x1, m_q)
        masked_k = run_hgs_layer(blk.w_k, masked_x1, m_k)
        masked_v = run_hgs_layer(blk.w_v, masked_x1, m_v)
        mq, mk = self._remask_pair("QxK", (masked_q, m_q.m_out), (masked_k, m_k.m_out), rc_qk)
        s_parts, rs_parts = [], []
        for h, sl in enumerate(self._head_slices()):
            qh = FixedTensor(mq.data[:, sl].copy(), ring)
            kh = FixedTensor(mk.data[:, sl].copy(), ring)
            c_share, s_share = run_fhgs_qk(qh, kh, triples[h], self)
            s_parts.append(c_share)
            rs_parts.append(s_share)
        s_client = FixedTensor(np.vstack([t.data for t in s_parts]), ring)
        s_server = FixedTensor(np.vstack([t.data for t in rs_parts]), ring)
        self.server.put(f"b{blk_i}.s_share", "share", s_server)
        return (s_server, s_client), (masked_v, m_v.m_out)

    def _prefix_chgs(self, blk_i: int, chain, x0: FixedTensor | None):
        """Mode fpc: fused prefix with one online exchange under QxK.

        Block 0 post-norm fuses from the raw one-hot input (W_E delta and
        lam folded in); the other cases run the same algebra with an
        identity embedding, reusing the preceding GC output mask as Rc0 so
        the client sends nothing online at all.
        """
        cfg, w, ring = self.cfg, self.weights, self.cfg.ring
        blk = w.blocks[blk_i]
        first = x0 is not None
        if first:
            w_ed = w.w_e.scalar_mul(cfg.delta)
            lam = cfg.lam
            rc0 = self._rand_c((cfg.n, cfg.d_oh))
        else:
            w_ed = FixedTensor(np.eye(cfg.d_emb, dtype=np.uint64), ring)
            lam = FixedTensor.zeros(cfg.n, cfg.d_emb, ring)
            rc0 = chain[1]  # the GC output mask already masking this input
        mat = gen_chgs_material(self, blk_i, rc0, w_ed, lam, blk.w_q, blk.w_k)
        rc0_cts = self._pack_mask("QKV", "offline", rc0)
        w_ev = mat_mul(w_ed, blk.w_v)
        m_v = self._gen_hgs(f"b{blk_i}.fuse_v", "QKV", "offline", w_ev, rc=rc0, rc_cts=rc0_cts)
        if first:
            m_x = self._gen_hgs("embed.fused", "Embed", "offline", w_ed, rc=rc0,
                                rc_cts=self._pack_mask("Embed", "offline", rc0))

        # online: one interaction carries the whole prefix
        if first:
            x0_masked = x0 - rc0
            self._send("client", "QxK", "share", x0_masked.data.size * 8, "online")
            self.server.put("QxK.masked_in", "masked-value", x0_masked)
        else:
            x0_masked = chain[0]
        self.transcript.interaction("QxK")
        p_s, s_client, s_server = run_chgs_block(x0_masked, mat, self)
        masked_v = run_hgs_layer(w_ev, x0_masked, m_v,
                                 bias=mat_mul(lam, blk.w_v) if first else None)
        if first:
            m_x.mark_used()
            x1_chain = (p_s - m_x.rs, m_x.m_out)
        else:
            x1_chain = chain
        return (s_server, s_client), (masked_v, m_v.m_out), x1_chain

    def _attention_value(self, blk_i: int, p_chain, v_chain, phase: str):
        """Per-head product of the softmax shares with the masked values;
        triples reuse the GC output mask, so the online phase is just the
        server's ciphertext batch (one interaction, no client message)."""
        cfg, ring = self.cfg, self.cfg.ring
        p_held, p_mask = p_chain     # held: P - a, client: a
        v_masked, m_v = v_chain
        a_parts, rs_parts = [], []
        for h, sl in enumerate(self._head_slices()):
            rows = slice(h * cfg.n, (h + 1) * cfg.n)
            a_h = FixedTensor(p_mask.data[rows].copy(), ring)
            b_h = FixedTensor(m_v.data[:, sl].copy(), ring)
            triple = self._gen_triple(f"b{blk_i}.av{h}", "AttenValue", phase, a_h, b_h)
            ph = FixedTensor(p_held.data[rows].copy(), ring)
            vh = FixedTensor(v_masked.data[:, sl].copy(), ring)
            c_share, s_share = run_attention_value(ph, vh, triple, self)
            a_parts.append(c_share)
            rs_parts.append(s_share)
        self.transcript.interaction("AttenValue")
        client = FixedTensor(np.hstack([t.data for t in a_parts]), ring)
        server = FixedTensor(np.hstack([t.data for t in rs_parts]), ring)
        return (server, client)

    def _block(self, blk_i: int, chain, x0, phase: str):
        cfg, blk, f = self.cfg, self.weights.blocks[blk_i], self.cfg.ring.frac_bits
        pre = cfg.norm == "pre"
        attn_in = self._gc("Others", ln_attn_spec(cfg), chain) if pre else chain
        if self.mode == "fpc":
            s_chain, v_chain, x1_chain = self._prefix_chgs(blk_i, attn_in, x0)
        else:
            s_chain, v_chain = self._prefix_hgs(blk_i, attn_in, phase)
            x1_chain = attn_in
        if pre:
            x1_chain = chain  # the residual taps the unnormalized input
        eta = cfg.eta
        s_chain = (s_chain[0].scalar_mul(eta), s_chain[1].scalar_mul(eta))
        p_chain = self._gc("SoftMax", softmax_spec(cfg), s_chain)
        av_chain = self._attention_value(blk_i, p_chain, v_chain, phase)
        o_held, o_mask = self._weight_module(f"b{blk_i}.wo", "Others", blk.w_o, av_chain, phase)
        mid = (x1_chain[0].lshift(3 * f) + o_held, x1_chain[1].lshift(3 * f) + o_mask)
        if pre:
            mid = self._gc("Others", trunc_attn_spec(cfg), mid, lanes_shape=(-1, 1))
            ffn_in = self._gc("Others", ln_ffn_spec(cfg), mid)
        else:
            mid = self._gc("Others", ln_attn_spec(cfg), mid)
            ffn_in = mid
        h_held, h_mask = self._weight_module(f"b{blk_i}.wf1", "Others", blk.w_f1, ffn_in, phase)
        act = self._gc("Others", act_spec(cfg), (h_held, h_mask), lanes_shape=(-1, 1))
        f_held, f_mask = self._weight_module(f"b{blk_i}.wf2", "Others", blk.w_f2, act, phase)
        out = (mid[0].lshift(f) + f_held, mid[1].lshift(f) + f_mask)
        if pre:
            return self._gc("Others", trunc_ffn_spec(cfg), out, lanes_shape=(-1, 1))
        return self._gc("Others", ln_ffn_spec(cfg), out)

    def run(self, tokens) -> "RunResult":
        cfg = self.cfg
        phase = "online" if self.mode == "base" else "offline"
        x0 = FixedTensor(one_hot(tokens, cfg.d_oh), cfg.ring)
        self.client.put("x0", "logical-plaintext", x0)
        fused_first = self.mode == "fpc" and cfg.norm == "post"
        chain = None if fused_first else self._embed(x0, phase)
        for i in range(cfg.N):
            chain = self._block(i, chain, x0 if (i == 0 and fused_first) else None, phase)
            self._audit()
        if cfg.norm == "pre":
            chain = self._gc("Others", final_ln_spec(cfg), chain)
        l_held, l_mask = self._weight_module("head", "Others", self.weights.w_head, chain, phase)
        self.client.put("logits", "share", l_mask)
        self.server.put("logits", "share", l_held)
        self._audit()
        return RunResult(l_mask, l_held, self.transcript,
                         self.client.report, self.server.report, self)


# -- standalone protocol operations -------------------------------------------


def run_fhgs_qk(q_masked: FixedTensor, k_masked: FixedTensor, triple: MatTriple,
                session: Session, rs: FixedTensor | None = None):
    """Shares of Q @ K^T from Q, K masked by the triple's own masks: the
    client ends with the product minus rs, the server keeps rs. Zero
    ciphertext-by-ciphertext multiplies."""
    if rs is None:
        rs = session._rand_s((q_masked.rows, k_masked.rows))
    client = session._triple_product("QxK", q_masked, k_masked.transpose(), triple, rs)
    return client, rs


def run_attention_value(p_masked: FixedTensor, v_masked: FixedTensor, triple: MatTriple,
                        session: Session, rs: FixedTensor | None = None):
    """Shares of P @ V via an independent-mask product triple."""
    if rs is None:
        rs = session._rand_s((p_masked.rows, v_masked.cols))
    client = session._triple_product("AttenValue", p_masked, v_masked, triple, rs)
    return client, rs


def gen_chgs_material(session: Session, blk_i: int, rc0: FixedTensor, w_ed: FixedTensor,
                      lam: FixedTensor, w_q: FixedTensor, w_k: FixedTensor) -> ChgsMaterial:
    """All encrypted fused-prefix terms, offline.

    The mask-quadratic t4 = R_e B_h R_e^T costs one extra offline round:
    the server masks Enc(Rc0 W_M_h) with G_h, the client decrypts,
    multiplies by Rc0^T and re-encrypts, and the server strips G_h Rc0^T
    homomorphically via Enc(Rc0^T)."""
    cfg, ring = session.cfg, session.cfg.ring
    rep_c, rep_s = session.client.report, session.server.report
    step, phase = "QxK", "offline"
    with rep_c.at(step, phase):
        enc_rc0 = enc_rows(rc0, session.key, rep_c)
        enc_rc0_t = enc_rows(rc0.transpose(), session.key, rep_c)
    session._send_cts("client", step, len(enc_rc0) + len(enc_rc0_t), phase)
    with rep_s.at(step, phase):
        enc_re = enc_left_matmul(enc_rc0, rc0.cols, w_ed, rep_s)
        enc_re_t = plain_left_matmul(w_ed.transpose(), enc_rc0_t, rep_s)
        head_b, head_re_b, masked_wm, g_masks = [], [], [], []
        for sl in session._head_slices():
            b_h = mat_mul(FixedTensor(w_q.data[:, sl].copy(), ring),
                          FixedTensor(w_k.data[:, sl].T.copy(), ring))
            head_b.append(b_h)
            head_re_b.append(enc_left_matmul(enc_re, cfg.d_emb, b_h, rep_s))
            w_m = mat_mul(mat_mul(w_ed, b_h), w_ed.transpose())
            g_h = session._rand_s((cfg.n, rc0.cols))
            g_masks.append(g_h)
            rows = enc_left_matmul(enc_rc0, rc0.cols, w_m, rep_s)
            masked_wm.append([he_add_plain(ct, v, rep_s) for ct, v in zip(rows, g_h.data)])
    session._send_cts("server", step, cfg.H * cfg.n, phase)
    head_t4 = []
    for h in range(cfg.H):
        with rep_c.at(step, phase):
            y_h = dec_rows(masked_wm[h], rc0.cols, session.key.secret(), ring, rep_c)
            back = enc_rows(mat_mul(y_h, rc0.transpose()), session.key, rep_c)
        session._send_cts("client", step, len(back), phase)
        with rep_s.at(step, phase):
            strip = plain_left_matmul(-g_masks[h], enc_rc0_t, rep_s)
            head_t4.append([he_add(a, b, rep_s) for a, b in zip(back, strip)])
    session.transcript.interaction(step, phase=phase)  # the extra offline round
    return ChgsMaterial(blk_i, rc0, w_ed, lam, enc_re_t, head_b, head_re_b, head_t4)


def run_chgs_block(x0_masked: FixedTensor, mat: ChgsMaterial, session: Session):
    """Server-side fused score evaluation S_h = t1 + t2 + t3 + t4 per head.

    t1 = P_s B_h P_s^T is pure plaintext; t2 and t3 pair P_s against the
    encrypted mask image; t4 was prepared offline. Returns (P_s, client
    score shares stacked by head, matching server shares).
    """
    cfg, ring = session.cfg, session.cfg.ring
    rep_c, rep_s = session.client.report, session.server.report
    mat.mark_used()
    s_rows, rs_list = [], []
    with rep_s.at("QxK", "online"):
        p_s = mat_mul(x0_masked, mat.w_ed) + mat.lam
        for h, b_h in enumerate(mat.head_b):
            pb = mat_mul(p_s, b_h)
            t1 = mat_mul(pb, p_s.transpose())
            t2 = plain_left_matmul(pb, mat.enc_re_t, rep_s)
            t3 = enc_left_matmul(mat.head_re_b[h], cfg.d_emb, p_s.transpose(), rep_s)
            rs = session._rand_s((cfg.n, cfg.n))
            rs_list.append(rs)
            for i in range(cfg.n):
                acc = he_add(t2[i], t3[i], rep_s)
                acc = he_add(acc, mat.head_t4[h][i], rep_s)
                s_rows.append(he_add_plain(acc, t1.data[i] - rs.data[i], rep_s))
    session._send_cts("server", "QxK", len(s_rows), "online")
    with rep_c.at("QxK", "online"):
        s_client = dec_rows(s_rows, cfg.n, session.key.secret(), ring, rep_c)
    s_server = FixedTensor(np.vstack([t.data for t in rs_list]), ring)
    session.server.put(f"b{mat.block_id}.s_share", "share", s_server)
    return p_s, s_client, s_server


@dataclass
class RunResult:
    client_logits: FixedTensor
    server_logits: FixedTensor
    transcript: Transcript
    client_report: CostReport
    server_report: CostReport
    session: Session

    def reconstruct(self) -> FixedTensor:
        return self.client_logits + self.server_logits

    def merged_report(self) -> CostReport:
        return self.client_report.merged(self.server_report)


def run_protocol(mode: str, cfg: ModelConfig, weights: ModelWeights, tokens, seed: int,
                 **kw) -> RunResult:
    return Session(cfg, weights, mode, seed, **kw).run(tokens)
