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

from contextlib import contextmanager
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
from .packing import PackingLayout, PackingStrategy, he_matmul, pack, pack_plain, unpack
from .ring import FixedTensor, mat_mul
from .securefn import BACKENDS, SecureFnSpec, eval_secure
from .she import (
    Ciphertext,
    HEParams,
    KeyPair,
    SecretKey,
    he_add,
    he_add_plain,
    he_mul_plain,
    keygen,
)
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


class AuditError(RuntimeError):
    """The server's state holds a client secret."""


class PackingError(ValueError):
    """The mode's packing does not fit the model's token count."""


class MaterialMissing(RuntimeError):
    """No server material under a module id: never made, or already used."""


def audit_server_ignorance(server: Server) -> list[str]:
    """Paths of every KeyPair, SecretKey or Client reachable from the
    server's state through object attributes, dicts, lists and tuples
    (must stay empty)."""
    found, seen = [], set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (KeyPair, SecretKey, Client)):
            found.append(path)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}[{k!r}]")
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")
        elif isinstance(getattr(obj, "__dict__", None), dict):
            for k, v in vars(obj).items():
                walk(v, f"{path}.{k}")

    walk(server, "server")
    return found


@dataclass
class ChgsMaterial:
    """The server's record for one fused block prefix (mode fpc); `strip`
    completes one head's triple of a = R_e B_h and b = R_e^T per reply."""

    w_ed: FixedTensor
    lam: FixedTensor
    head_b: list            # B_h = W_Q_h @ W_K_h^T, server plaintext
    head_re_b: list         # Enc(R_e B_h) rows per head
    g_masks: list           # G_h per head, drawn by the server
    enc_re_t: list          # Enc(R_e^T) rows
    enc_rc0_t: list         # Enc(Rc0^T) rows
    head_triples: list = field(default_factory=list)


class Client:
    """The client: its rng stream, its cost report and the HE key pair (its
    rng's first draw), under which every encryption and decryption runs."""

    def __init__(self, rng: np.random.Generator, he: HEParams, ring):
        self.rng, self.ring, self.report = rng, ring, CostReport("client")
        self.key = keygen(he, key_id=0, seed=int(rng.integers(0, 2**63)))

    def rand(self, shape) -> FixedTensor:
        return rand_ring(shape, self.rng, self.ring)


class Server:
    """The server: its rng stream, its cost report and its material store.
    `material` maps a module id (`b0.wq`, `b0.qk.h1`, `b0.prefix`) to the
    one record the server made or received for that module offline; `take`
    pops it, so each record is consumed once. Its methods take only wire
    payloads, public weights and module ids."""

    def __init__(self, rng: np.random.Generator, ring):
        self.rng, self.ring, self.report = rng, ring, CostReport("server")
        self.material = {}

    def keep(self, mid: str, item) -> None:
        if mid in self.material:
            raise ValueError(f"material {mid!r} is already held")
        self.material[mid] = item

    def take(self, mid: str):
        try:
            return self.material.pop(mid)
        except KeyError:
            raise MaterialMissing(f"no material {mid!r}: never made or already consumed") from None

    def mask_reply(self, mid: str, rc_cts: list[Ciphertext], layout: PackingLayout,
                   w: FixedTensor | None, scalar: int | None = None):
        """HE half of one module's mask exchange: Enc(rc @ W + rs) from the
        client's packed Enc(rc), scalar in place of W for a coefficient
        module. Keeps rs under mid; returns the ciphertexts, their layout."""
        rep = self.report
        if scalar is not None:
            out_cts, layout_out = [he_mul_plain(ct, scalar, rep) for ct in rc_cts], layout
        else:
            out_cts, layout_out = he_matmul(rc_cts, layout, w, rep)
        rs = rand_ring((layout.n, layout_out.d), self.rng, self.ring)
        self.keep(mid, rs)
        out_cts = [he_add_plain(ct, v, rep) for ct, v in zip(out_cts, pack_plain(rs, layout_out))]
        return out_cts, layout_out

    def run_hgs_layer(self, mid: str, w, masked_in: FixedTensor,
                      bias: FixedTensor | None = None, scalar: int | None = None) -> FixedTensor:
        """Online step of one module: (X - rc) @ W - rs plus any public bias.
        Pure ring arithmetic; the prepared phase already paid all HE.
        scalar replaces W for coefficient (diagonal) modules."""
        rs = self.take(mid)
        out = masked_in.scalar_mul(scalar) if scalar is not None else mat_mul(masked_in, w)
        out = out - rs
        if bias is not None:
            out = out + bias
        return out

    def four_terms(self, mid: str, left: FixedTensor, right: FixedTensor) -> tuple:
        """_terms with the triple kept under mid."""
        return self._terms(left, right, self.take(mid))

    def _terms(self, left: FixedTensor, right: FixedTensor, triple: MatTriple) -> tuple:
        """(L @ R, Enc(a) @ R, L @ Enc(b), Enc(ab), rs): the terms of
        (L + a)(R + b) for the triple's row-encrypted a, b and ab, and a
        fresh output mask. No ciphertext multiplies a ciphertext."""
        rs = rand_ring((left.rows, right.cols), self.rng, self.ring)
        return (mat_mul(left, right), enc_left_matmul(triple.left_ct, right, self.report),
                plain_left_matmul(left, triple.right_ct, self.report), triple.product_ct, rs)

    def reveal(self, heads) -> list[Ciphertext]:
        """Enc(t1 + t2 + t3 + t4 - rs) row by row for each head of terms (t1,
        rs plaintext; t2, t3, t4 encrypted rows), heads stacked."""
        rep, rows = self.report, []
        for t1, t2, t3, t4, rs in heads:
            for i in range(t1.rows):
                acc = he_add(t2[i], t3[i], rep)
                acc = he_add(acc, t4[i], rep)
                rows.append(he_add_plain(acc, t1.data[i] - rs.data[i], rep))
        return rows

    def chgs_terms(self, mid: str, enc_rc0: list[Ciphertext], enc_rc0_t: list[Ciphertext],
                   w_ed: FixedTensor, lam: FixedTensor, head_weights) -> list:
        """Fused-prefix terms from Enc(Rc0), Enc(Rc0^T) rows, kept under mid:
        Enc(R_e^T), and per head (W_Q_h, W_K_h) of head_weights
        B_h = W_Q_h W_K_h^T and Enc(R_e B_h). Returns, per head, the rows
        Enc(Rc0 W_M_h) + G_h for a fresh G_h that the record keeps
        (W_M_h = W_ed B_h W_ed^T)."""
        rep = self.report
        enc_re = enc_left_matmul(enc_rc0, w_ed, rep)
        enc_re_t = plain_left_matmul(w_ed.transpose(), enc_rc0_t, rep)
        head_b, head_re_b, masked_wm, g_masks = [], [], [], []
        for w_q_h, w_k_h in head_weights:
            b_h = mat_mul(w_q_h, w_k_h.transpose())
            head_b.append(b_h)
            head_re_b.append(enc_left_matmul(enc_re, b_h, rep))
            w_m = mat_mul(mat_mul(w_ed, b_h), w_ed.transpose())
            g_h = rand_ring((len(enc_rc0), w_ed.rows), self.rng, self.ring)
            g_masks.append(g_h)
            rows = enc_left_matmul(enc_rc0, w_m, rep)
            masked_wm.append([he_add_plain(ct, v, rep) for ct, v in zip(rows, g_h.data)])
        self.keep(mid, ChgsMaterial(w_ed, lam, head_b, head_re_b, g_masks, enc_re_t, enc_rc0_t))
        return masked_wm

    def strip(self, mid: str, back: list[Ciphertext]) -> None:
        """Completes the next head's triple in the record under mid: its
        product Enc(Rc0 W_M_h Rc0^T) is the client's reply minus
        G_h Rc0^T, under HE."""
        rec = self.take(mid)
        h = len(rec.head_triples)
        strip = plain_left_matmul(-rec.g_masks[h], rec.enc_rc0_t, self.report)
        product = [he_add(a, b, self.report) for a, b in zip(back, strip)]
        rec.head_triples.append(MatTriple(rec.head_re_b[h], rec.enc_re_t, product))
        self.keep(mid, rec)

    def chgs_heads(self, mid: str, x0_masked: FixedTensor) -> list:
        """Per head, the four terms of S_h = (P_s B_h + R_e B_h)(P_s^T + R_e^T)
        with P_s = (X0 - Rc0) W_ed + lam, from the record under mid."""
        rec = self.take(mid)
        p_s = mat_mul(x0_masked, rec.w_ed) + rec.lam
        return [self._terms(mat_mul(p_s, b_h), p_s.transpose(), t)
                for b_h, t in zip(rec.head_b, rec.head_triples)]


class Session:
    """One two-party inference run in a fixed protocol mode: the script
    that orders the Client's and the Server's steps in-process over a
    shared Transcript and logs each message between them. `_at` opens one
    (step, phase) scope for both parties' counters and for every message
    and interaction the session logs inside it, so each lands where it
    falls in a deployed offline/online split; outside any scope that is
    ("Others", "online"), as for a bare CostReport. Module material is made
    in one phase, `prep`: online in mode base, offline in the others. Every
    client random draw (masks, triples, GC labels) is input-independent, so
    all material tagged offline really is derivable before the input
    arrives.

    The HE key pair lives on the Client, the server's material in the
    Server's store under module ids. `run` ends by auditing that no client
    secret is reachable from the server and that its store is empty.
    """

    def __init__(self, cfg: ModelConfig, weights: ModelWeights, mode: str, seed: int, *,
                 backend: str = "semantic", strict: bool = False):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        weights.validate(cfg)
        self.cfg, self.weights, self.mode = cfg, weights, mode
        self.prep = "online" if mode == "base" else "offline"
        self.backend, self.strict = backend, strict
        top = max(cfg.d_oh, cfg.d_emb, cfg.d_ff, cfg.n, cfg.d_out, 2)
        self.he = HEParams(slots=1 << (top - 1).bit_length())
        c_ss, s_ss = np.random.SeedSequence(seed).spawn(2)
        self.client = Client(np.random.default_rng(c_ss), self.he, cfg.ring)
        self.server = Server(np.random.default_rng(s_ss), cfg.ring)
        self.packing = (PackingStrategy.TOKENS_FIRST if mode in ("fp", "fpc")
                        else PackingStrategy.FEATURES_FIRST)
        if self.packing is PackingStrategy.TOKENS_FIRST and self.he.slots % cfg.n:
            raise PackingError(f"tokens_first packing needs n={cfg.n} to divide "
                             f"the {self.he.slots} HE slots")
        self.transcript = Transcript()

    # -- small helpers --------------------------------------------------------

    def _layout(self, d: int) -> PackingLayout:
        return PackingLayout(self.packing, self.cfg.n, d, self.he.slots)

    @contextmanager
    def _at(self, step: str, prep: bool = False):
        """Scope both parties' counters, and every message and interaction
        logged inside, to one pipeline step: in the material phase
        (self.prep) if prep is set, online otherwise."""
        phase = self.prep if prep else "online"
        with self.client.report.at(step, phase), self.server.report.at(step, phase):
            yield

    def _send(self, sender: str, payload) -> None:
        """Log one message in the current scope, sized by what it carries: a
        list of ciphertexts at the declared HEParams.ciphertext_bytes each
        (the stand-in's size in memory is not the modeled size), or a tuple
        of share tensors at their bytes."""
        if isinstance(payload, list):
            kind, nbytes = "ciphertext", len(payload) * self.he.ciphertext_bytes
        else:
            kind, nbytes = "share", sum(t.data.nbytes for t in payload)
        step, phase = self.client.report.scope
        self.transcript.send(sender, step, kind, nbytes, phase=phase)

    def _interaction(self) -> None:
        self.transcript.interaction(*self.client.report.scope)

    def _heads(self, x: FixedTensor, axis: int = 1) -> list[FixedTensor]:
        """x split into its H per-head blocks: column blocks, or row blocks
        (axis 0) of a tensor stacked by head."""
        return [FixedTensor(b, self.cfg.ring) for b in np.split(x.data, self.cfg.H, axis=axis)]

    def _stack(self, heads, axis: int = 0) -> FixedTensor:
        """Per-head tensors stacked by head: row blocks, or column blocks
        (axis 1)."""
        return FixedTensor(np.concatenate([t.data for t in heads], axis=axis), self.cfg.ring)

    def _pack_mask(self, rc: FixedTensor) -> list[Ciphertext]:
        cts = pack(rc, self._layout(rc.cols), self.client.key, self.client.report)
        self._send("client", cts)
        return cts

    # -- module material ------------------------------------------------------

    def _gen_hgs(self, mid: str, w: FixedTensor | None, rc: FixedTensor, *,
                 scalar: int | None = None, rc_cts: list[Ciphertext] | None = None):
        """Mask exchange for one module: the client ships Enc(rc) packed, the
        server keeps its rs and returns Enc(rc @ W + rs), the client decrypts
        its share. A coefficient module (scalar in place of W) acts on d_emb
        features. Returns the client's m_out = rc @ W + rs."""
        if rc_cts is None:
            rc_cts = self._pack_mask(rc)
        out_cts, layout_out = self.server.mask_reply(mid, rc_cts, self._layout(rc.cols),
                                                     w, scalar)
        self._send("server", out_cts)
        if self.prep == "offline":
            # an online-generated module piggybacks on its remask interaction
            self._interaction()
        c = self.client
        return unpack(out_cts, layout_out, c.key.secret(), self.cfg.ring, c.report)

    def _gen_triple(self, mid: str, left: FixedTensor, right: FixedTensor) -> None:
        """Client-built product triple shipped into the server's store."""
        t = make_product_triple(left, right, self.client.key, report=self.client.report)
        self._send("client", t.left_ct + t.right_ct + t.product_ct)
        self.server.keep(mid, t)

    def chgs_material(self, mid: str, rc0: FixedTensor, w_ed: FixedTensor,
                      lam: FixedTensor, w_q: FixedTensor, w_k: FixedTensor) -> None:
        """All encrypted fused-prefix terms, offline, into the server's
        record under mid.

        The mask-quadratic t4 = R_e B_h R_e^T costs one extra offline round:
        the server masks Enc(Rc0 W_M_h) with G_h, the client decrypts,
        multiplies by Rc0^T and re-encrypts, and the server strips G_h Rc0^T
        homomorphically via Enc(Rc0^T)."""
        key, rep_c = self.client.key, self.client.report
        enc_rc0, enc_rc0_t = enc_rows(rc0, key, rep_c), enc_rows(rc0.transpose(), key, rep_c)
        self._send("client", enc_rc0 + enc_rc0_t)
        masked_wm = self.server.chgs_terms(mid, enc_rc0, enc_rc0_t, w_ed, lam,
                                           list(zip(self._heads(w_q), self._heads(w_k))))
        self._send("server", [ct for rows in masked_wm for ct in rows])
        for rows in masked_wm:
            y_h = dec_rows(rows, rc0.cols, key.secret(), self.cfg.ring, rep_c)
            back = enc_rows(mat_mul(y_h, rc0.transpose()), key, rep_c)
            self._send("client", back)
            self.server.strip(mid, back)
        self._interaction()  # the extra offline round

    # -- online plumbing ------------------------------------------------------

    def _remask(self, rc: FixedTensor, *chains) -> tuple:
        """Client sends its parts of the chains minus one fresh mask rc in a
        single message, the module's online interaction; the holder absorbs
        them. Returns the server's new masked values X - rc, one per chain."""
        deltas = tuple(client_part - rc for _, client_part in chains)
        self._send("client", deltas)
        self._interaction()
        return tuple(held + d for (held, _), d in zip(chains, deltas))

    def _reveal(self, heads) -> FixedTensor:
        """The server sends all rows of the revealed heads in one message;
        the client decrypts its shares, heads stacked."""
        rows = self.server.reveal(heads)
        self._send("server", rows)
        return dec_rows(rows, heads[0][0].cols, self.client.key.secret(), self.cfg.ring,
                        self.client.report)

    def triple_product(self, mid: str, left_masked: FixedTensor, right_masked: FixedTensor):
        """Shares of L @ R from L - a and R - b, masked by the a and b of the
        triple kept under mid: the four-term product of the masked factors.
        The client ends with L @ R - rs, the server keeps a fresh rs."""
        terms = self.server.four_terms(mid, left_masked, right_masked)
        return self._reveal([terms]), terms[-1]

    def chgs_scores(self, mid: str, x0_masked: FixedTensor):
        """Fused scores S_h = (P_s + R_e) B_h (P_s + R_e)^T per head from the
        server's terms for the record under mid. Returns the (server,
        client) score shares stacked by head."""
        heads = self.server.chgs_heads(mid, x0_masked)
        s_client = self._reveal(heads)
        s_server = self._stack([rs for *_, rs in heads])
        return s_server, s_client

    def _gc(self, step: str, spec: SecureFnSpec, chain):
        """One garbled stage over the chain shares, spec.count words per
        lane; returns the new chain (held: value minus mask, client: mask)."""
        held, client_part = chain
        lanes = (-1, spec.count)
        c_new, s_new = eval_secure(
            spec, client_part.data.reshape(lanes), held.data.reshape(lanes), self.client.rng,
            backend=self.backend, strict=self.strict,
            report=self.client.report, transcript=self.transcript, step=step,
            rng_server=self.server.rng,
        )
        ring = self.cfg.ring
        return (FixedTensor(s_new.reshape(held.shape), ring),
                FixedTensor(c_new.reshape(client_part.shape), ring))

    # -- pipeline pieces ------------------------------------------------------

    def _embed(self, x0: FixedTensor):
        """Two chained modules: vocabulary matmul, then coefficient scale
        with the public positional offset added server-side."""
        cfg, w = self.cfg, self.weights
        with self._at("Embed", prep=True):
            rc_e = self.client.rand((cfg.n, cfg.d_oh))
            out_e = self._gen_hgs("embed.vocab", w.w_e, rc_e)
            rc_dl = self.client.rand((cfg.n, cfg.d_emb))
            out_dl = self._gen_hgs("embed.posn", None, rc_dl, scalar=cfg.delta)
        with self._at("Embed"):
            zeros = FixedTensor.zeros(*x0.shape, cfg.ring)
            masked, = self._remask(rc_e, (zeros, x0))
            masked_e = self.server.run_hgs_layer("embed.vocab", w.w_e, masked)
            masked, = self._remask(rc_dl, (masked_e, out_e))
        masked_x1 = self.server.run_hgs_layer("embed.posn", None, masked, bias=cfg.lam,
                                              scalar=cfg.delta)
        return masked_x1, out_dl

    def _weight_module(self, mid: str, w: FixedTensor, chain):
        with self._at("Others", prep=True):
            rc = self.client.rand((self.cfg.n, w.rows))
            m_out = self._gen_hgs(mid, w, rc)
        with self._at("Others"):
            masked, = self._remask(rc, chain)
        return self.server.run_hgs_layer(mid, w, masked), m_out

    def _prefix_hgs(self, blk_i: int, chain):
        """Modes base/f/fp: QKV modules sharing one input mask, then the
        per-head same-mask score product. Two online interactions."""
        cfg, blk = self.cfg, self.weights.blocks[blk_i]
        qkv = [(f"b{blk_i}.w{p}", getattr(blk, f"w_{p}")) for p in "qkv"]
        with self._at("QKV", prep=True):
            rc_qkv = self.client.rand((cfg.n, cfg.d_emb))
            qkv_cts = self._pack_mask(rc_qkv)
            q_out, k_out, v_out = [self._gen_hgs(mid, w, rc_qkv, rc_cts=qkv_cts)
                                   for mid, w in qkv]
        with self._at("QxK", prep=True):
            rc_qk = self.client.rand((cfg.n, cfg.d_emb))
            for h, r in enumerate(self._heads(rc_qk)):
                self._gen_triple(f"b{blk_i}.qk.h{h}", r, r.transpose())

        with self._at("QKV"):
            masked_x1, = self._remask(rc_qkv, chain)
        masked_q, masked_k, masked_v = [self.server.run_hgs_layer(mid, w, masked_x1)
                                        for mid, w in qkv]
        with self._at("QxK"):
            mq, mk = self._remask(rc_qk, (masked_q, q_out), (masked_k, k_out))
            heads = [self.triple_product(f"b{blk_i}.qk.h{h}", q, k.transpose())
                     for h, (q, k) in enumerate(zip(self._heads(mq), self._heads(mk)))]
        s_client = self._stack([c for c, _ in heads])
        s_server = self._stack([s for _, s in heads])
        return (s_server, s_client), (masked_v, v_out)

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
            rc0 = self.client.rand((cfg.n, cfg.d_oh))
        else:
            w_ed = FixedTensor(np.eye(cfg.d_emb, dtype=np.uint64), ring)
            lam = FixedTensor.zeros(cfg.n, cfg.d_emb, ring)
            rc0 = chain[1]  # the GC output mask already masking this input
        prefix, fuse_v = f"b{blk_i}.prefix", f"b{blk_i}.fuse_v"
        with self._at("QxK", prep=True):
            self.chgs_material(prefix, rc0, w_ed, lam, blk.w_q, blk.w_k)
        w_ev = mat_mul(w_ed, blk.w_v)
        with self._at("QKV", prep=True):
            v_out = self._gen_hgs(fuse_v, w_ev, rc0)
        if first:
            with self._at("Embed", prep=True):
                x_out = self._gen_hgs("embed.fused", w_ed, rc0)

        # online: one interaction carries the whole prefix
        with self._at("QxK"):
            if first:
                x0_masked = x0 - rc0
                self._send("client", (x0_masked,))
            else:
                x0_masked = chain[0]
            self._interaction()
            s_chain = self.chgs_scores(prefix, x0_masked)
        masked_v = self.server.run_hgs_layer(fuse_v, w_ev, x0_masked,
                                             bias=mat_mul(lam, blk.w_v) if first else None)
        x1_chain = chain
        if first:  # P_s - rs: X1 = X0 W_ed + lam under the mask x_out
            x1_chain = (self.server.run_hgs_layer("embed.fused", w_ed, x0_masked, bias=lam), x_out)
        return s_chain, (masked_v, v_out), x1_chain

    def _attention_value(self, blk_i: int, p_chain, v_chain):
        """Per-head product of the softmax shares with the masked values;
        triples reuse the GC output mask, so the online phase is just the
        server's ciphertext batch (one interaction, no client message)."""
        p_held, p_mask = p_chain     # held: P - a, client: a, both stacked by head
        v_masked, m_v = v_chain
        heads = []
        with self._at("AttenValue"):
            for h, (p_h, a_h, v_h, mv_h) in enumerate(zip(
                    self._heads(p_held, axis=0), self._heads(p_mask, axis=0),
                    self._heads(v_masked), self._heads(m_v))):
                mid = f"b{blk_i}.av.h{h}"
                with self._at("AttenValue", prep=True):
                    self._gen_triple(mid, a_h, mv_h)
                heads.append(self.triple_product(mid, p_h, v_h))
            self._interaction()
        client = self._stack([c for c, _ in heads], axis=1)
        server = self._stack([s for _, s in heads], axis=1)
        return (server, client)

    def _block(self, blk_i: int, chain, x0):
        cfg, blk, f = self.cfg, self.weights.blocks[blk_i], self.cfg.ring.frac_bits
        pre = cfg.norm == "pre"
        attn_in = self._gc("Others", ln_attn_spec(cfg), chain) if pre else chain
        if self.mode == "fpc":
            s_chain, v_chain, x1_chain = self._prefix_chgs(blk_i, attn_in, x0)
        else:
            s_chain, v_chain = self._prefix_hgs(blk_i, attn_in)
            x1_chain = attn_in
        if pre:
            x1_chain = chain  # the residual taps the unnormalized input
        eta = cfg.eta
        s_chain = (s_chain[0].scalar_mul(eta), s_chain[1].scalar_mul(eta))
        p_chain = self._gc("SoftMax", softmax_spec(cfg), s_chain)
        av_chain = self._attention_value(blk_i, p_chain, v_chain)
        o_held, o_mask = self._weight_module(f"b{blk_i}.wo", blk.w_o, av_chain)
        mid = (x1_chain[0].lshift(3 * f) + o_held, x1_chain[1].lshift(3 * f) + o_mask)
        if pre:
            mid = self._gc("Others", trunc_attn_spec(cfg), mid)
            ffn_in = self._gc("Others", ln_ffn_spec(cfg), mid)
        else:
            mid = self._gc("Others", ln_attn_spec(cfg), mid)
            ffn_in = mid
        h_held, h_mask = self._weight_module(f"b{blk_i}.wf1", blk.w_f1, ffn_in)
        act = self._gc("Others", act_spec(cfg), (h_held, h_mask))
        f_held, f_mask = self._weight_module(f"b{blk_i}.wf2", blk.w_f2, act)
        out = (mid[0].lshift(f) + f_held, mid[1].lshift(f) + f_mask)
        if pre:
            return self._gc("Others", trunc_ffn_spec(cfg), out)
        return self._gc("Others", ln_ffn_spec(cfg), out)

    def run(self, tokens) -> "RunResult":
        cfg = self.cfg
        x0 = FixedTensor(one_hot(tokens, cfg.d_oh), cfg.ring)
        fused_first = self.mode == "fpc" and cfg.norm == "post"
        chain = None if fused_first else self._embed(x0)
        for i in range(cfg.N):
            chain = self._block(i, chain, x0 if (i == 0 and fused_first) else None)
        if cfg.norm == "pre":
            chain = self._gc("Others", final_ln_spec(cfg), chain)
        l_held, l_mask = self._weight_module("head", self.weights.w_head, chain)
        bad = audit_server_ignorance(self.server)
        if bad:
            raise AuditError(f"server holds client secrets: {bad}")
        if self.server.material:
            raise RuntimeError(f"server material left unused: {sorted(self.server.material)}")
        return RunResult(l_mask, l_held, self.transcript,
                         self.client.report, self.server.report, self)


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
