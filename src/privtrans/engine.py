"""Two-party inference engine: four protocol modes over one compute graph.

Chain invariant: between modules one party holds the running tensor minus
a mask and the other holds that mask. Each plaintext-weight matmul is one
protocol module; its mask material moves through HE offline (modes f, fp,
fpc) or inline online (mode base), and its single online message is the
client's remask delta, which is also the module's one counted
interaction. Nonpoly stages run through eval_secure; share-by-share
products (QxK, AttenValue) run through matrix triples with the four-term
expansion (L-a)(R-b) + a(R-b) + (L-a)b + ab, so no ciphertext ever
multiplies a ciphertext. Every such product, fused or not, is one
`Server.product` per head, which returns only Enc(L R - rs) and keeps rs,
and `Session._reveal` sends a block's heads to the client in one message.

Interaction accounting (online): the embedding is two modules (vocabulary
matmul, then coefficient scale plus public offset), so the fused prefix
embed -> QKV -> QxK logs exactly 4 interactions in modes base/f/fp. Mode
fpc collapses the prefix into the one QxK exchange: the server evaluates
S_h = (P_s + R_e) B_h (P_s + R_e)^T from its own plaintext
P_s = (X0 - Rc0) W_E delta + lam, the encrypted mask image
R_e = Rc0 W_E delta, and combined weights B_h = W_Q_h W_K_h^T; the
mask-quadratic term R_e B_h R_e^T is prepared offline with one extra
client round on a server-masked ciphertext. Later blocks (and every
pre-norm block) have no input map: they reuse the preceding GC output
mask as Rc0, P_s is the masked chain and R_e = Rc0, so their prefix needs
no client message at all. The computation merge (W_E delta, W_E delta W_V,
each B_h, and the mask weights A_h = W_E delta B_h and
W_M_h = A_h (W_E delta)^T) is the server's weight preprocessing:
`Server.__init__` makes it once, into the table from module id to weight
that the server alone holds, so each head's Enc(R_e B_h) is the one
product Enc(Rc0) A_h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostReport, Transcript
from .model import (
    ModelConfig,
    ModelWeights,
    act_spec,
    close_spec,
    norm_spec,
    one_hot,
    softmax_spec,
)
from .ot import ExtReceiver, ExtSender
from .packing import PackingLayout, PackingStrategy, he_matmul, pack, pack_plain, unpack
from .ring import FixedTensor, mat_mul
from .securefn import BACKENDS, SecureFnSpec, eval_secure
from .she import (
    Ciphertext,
    HEParams,
    KeyPair,
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

MODES = ("base", "f", "fp", "fpc")


class AuditError(RuntimeError):
    """The server's state holds a client secret."""


class PackingError(ValueError):
    """The mode's packing does not fit the model's token count."""


class MaterialMissing(RuntimeError):
    """No server material under a module id: never made, or already used."""


def audit_server_ignorance(server: Server) -> list[str]:
    """Paths of every KeyPair, Client or ExtSender (the client's OT string s
    and chosen seeds) reachable from the server's state through object
    attributes, dicts, lists and tuples (must stay empty)."""
    found, seen = [], set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (KeyPair, Client, ExtSender)):
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


class Client:
    """The client: its rng stream, its cost report on the session's
    transcript, the HE key pair (its rng's first draw), under which every
    encryption and decryption runs, and its side of the session's OT (the
    garbler is the OT sender)."""

    def __init__(self, rng: np.random.Generator, he: HEParams, ring, transcript: Transcript):
        self.rng, self.ring, self.report = rng, ring, CostReport(transcript)
        self.key = keygen(he, seed=int(rng.integers(0, 2**63)))
        self.ot = ExtSender(rng)

    def rand(self, shape) -> FixedTensor:
        return rand_ring(shape, self.rng, self.ring)


def folds_embedding(cfg: ModelConfig, i: int) -> bool:
    """Whether mode fpc's block i fuses from the one-hot input through the
    input map X1 = X0 W_ed + lam: block 0 of a post-norm model. The other
    blocks fuse from the chain as it is, and hold no input map."""
    return i == 0 and cfg.norm == "post"


class Server:
    """The server: its rng stream, its cost report on the session's
    transcript, the model weights and its material store. `weights`,
    built once at set-up, maps a module id to its (W, public bias), W a
    tensor or the int delta of `embed.posn`, and holds mode fpc's
    computation merge: per block each
    B_h = W_Q_h W_K_h^T under `b{i}.qk.h{h}`, the a-mask weight A_h under
    `b{i}.qk.h{h}.a` and the values' weight under `b{i}.fuse_v`. Only a
    block that folds the embedding has an input map: (W_ed, lam) under
    `b{i}.qk`, the module whose output is X1 = X0 W_ed + lam,
    A_h = W_ed B_h, W_ed W_V with bias lam W_V, and W_M_h = A_h W_ed^T
    under `b{i}.qk.h{h}.wm`. Elsewhere A_h is B_h and `fuse_v` is W_V.
    `material` maps a module id to the one record the server made or
    received for it offline; `take` pops it, so each record is consumed
    once. Every QxK and AttenValue
    product, fused or not, takes a MatTriple through `product`, which
    returns the rows to reveal and the server's share. `ot` is its side of
    the session's OT (the evaluator is the OT receiver). Its methods take
    only wire payloads and module ids."""

    def __init__(self, rng: np.random.Generator, cfg: ModelConfig, weights: ModelWeights,
                 transcript: Transcript):
        self.rng, self.ring, self.heads = rng, cfg.ring, cfg.H
        self.report = CostReport(transcript)
        self.material = {}
        self.ot = ExtReceiver(rng)
        t = self.weights = {"embed.vocab": (weights.w_e, None), "head": (weights.w_head, None),
                            "embed.posn": (cfg.delta, cfg.lam)}
        for i, blk in enumerate(weights.blocks):
            t.update({f"b{i}.{k.replace('_', '')}": (w, None) for k, w in vars(blk).items()})
            fused = folds_embedding(cfg, i)
            if fused:
                w_ed, lam = t[f"b{i}.qk"] = (weights.w_e.scalar_mul(cfg.delta), cfg.lam)
                t[f"b{i}.fuse_v"] = (mat_mul(w_ed, blk.w_v), mat_mul(lam, blk.w_v))
            else:
                t[f"b{i}.fuse_v"] = (blk.w_v, None)
            q_h, k_h = (np.split(w.data, cfg.H, axis=1) for w in (blk.w_q, blk.w_k))
            for h, (q, k) in enumerate(zip(q_h, k_h)):
                mid, b_h = f"b{i}.qk.h{h}", FixedTensor(q @ k.T, cfg.ring)
                a_h = mat_mul(w_ed, b_h) if fused else b_h
                t[mid], t[f"{mid}.a"] = (b_h, None), (a_h, None)
                if fused:
                    t[f"{mid}.wm"] = (mat_mul(a_h, w_ed.transpose()), None)

    def keep(self, mid: str, item) -> None:
        if mid in self.material:
            raise ValueError(f"material {mid!r} is already held")
        self.material[mid] = item

    def take(self, mid: str):
        try:
            return self.material.pop(mid)
        except KeyError:
            raise MaterialMissing(f"no material {mid!r}: never made or already consumed") from None

    def _apply(self, mid: str, x: FixedTensor) -> FixedTensor:
        """x through module mid: x @ W (or x * W, W an int), plus its bias."""
        w, bias = self.weights[mid]
        out = x.scalar_mul(w) if isinstance(w, int) else mat_mul(x, w)
        return out if bias is None else out + bias

    def mask_reply(self, mid: str, rc_ct: Ciphertext, layout: PackingLayout):
        """HE half of one module's mask exchange: Enc(rc @ W + rs) from the
        client's packed batch Enc(rc), rc scaled in place for a coefficient
        module. One he_mul_plain or he_matmul, then one he_add_plain of the
        packed rs. Keeps rs under mid; returns the batch and its layout."""
        rep, (w, _) = self.report, self.weights[mid]
        if isinstance(w, int):
            out_ct, layout_out = he_mul_plain(rc_ct, w, rep), layout
        else:
            out_ct, layout_out = he_matmul(rc_ct, layout, w, rep)
        rs = rand_ring((layout.n, layout_out.d), self.rng, self.ring)
        self.keep(mid, rs)
        return he_add_plain(out_ct, pack_plain(rs, layout_out), rep), layout_out

    def run_hgs_layer(self, mid: str, masked_in: FixedTensor) -> FixedTensor:
        """Online step of one module: (X - rc) @ W - rs plus any public bias.
        Pure ring arithmetic; the prepared phase already paid all HE."""
        rs = self.take(mid)
        return self._apply(mid, masked_in) - rs

    def product(self, mid: str, left: FixedTensor, right: FixedTensor):
        """(rows, rs): the row batch Enc(L @ R - rs) for a fresh output mask
        rs, the server's share. left = L - a and right = R - b are masked by
        the row-encrypted a, b and ab of the triple kept under mid, and
        L @ R = left @ right + Enc(a) @ right + left @ Enc(b) + Enc(ab): no
        ciphertext multiplies a ciphertext. Each term is one kernel call and
        each sum one op on all rows at once. Enc(a) @ right makes one
        rotation per nonzero diagonal of right; left @ Enc(b) makes none."""
        triple, rep = self.take(mid), self.report
        rs = rand_ring((left.rows, right.cols), self.rng, self.ring)
        plain = mat_mul(left, right) - rs
        a_r = enc_left_matmul(triple.left_ct, right, rep)
        l_b = plain_left_matmul(left, triple.right_ct, rep)
        rows = he_add_plain(he_add(he_add(a_r, l_b, rep), triple.product_ct, rep), plain.data, rep)
        return rows, rs

    def chgs_terms(self, qk: str, enc_rc0: Ciphertext, enc_rc0_t: Ciphertext):
        """Fused-prefix QxK triples of block qk begun from the row batches
        Enc(Rc0), Enc(Rc0^T): a = R_e B_h and b = R_e^T, for R_e = Rc0 W_ed where
        the block folds the embedding and R_e = Rc0 elsewhere. Each head's
        Enc(R_e B_h) is one product Enc(Rc0) A_h by the merged A_h. Keeps,
        under each head's id, (Enc(R_e B_h), Enc(R_e^T), G_h, Enc(Rc0^T))
        for a fresh G_h, and returns per head id the rows
        Enc(Rc0 W_M_h) + G_h; without an input map W_M_h = A_h = B_h, so
        the a rows serve."""
        rep, fused = self.report, qk in self.weights
        enc_re_t = (plain_left_matmul(self.weights[qk][0].transpose(), enc_rc0_t, rep)
                    if fused else enc_rc0_t)
        masked_wm = {}
        for mid in (f"{qk}.h{h}" for h in range(self.heads)):
            enc_re_b = enc_left_matmul(enc_rc0, self.weights[f"{mid}.a"][0], rep)
            rows = (enc_left_matmul(enc_rc0, self.weights[f"{mid}.wm"][0], rep)
                    if fused else enc_re_b)
            g_h = rand_ring((enc_rc0.count, enc_rc0_t.count), self.rng, self.ring)
            masked_wm[mid] = he_add_plain(rows, g_h.data, rep)
            self.keep(mid, (enc_re_b, enc_re_t, g_h, enc_rc0_t))
        return masked_wm

    def strip(self, mid: str, back: Ciphertext) -> None:
        """Finishes the triple under mid: its product Enc(R_e B_h R_e^T) is
        the client's reply Enc(Rc0 W_M_h Rc0^T + G_h Rc0^T) minus
        G_h Rc0^T, under HE."""
        enc_re_b, enc_re_t, g_h, enc_rc0_t = self.take(mid)
        strip = plain_left_matmul(-g_h, enc_rc0_t, self.report)
        self.keep(mid, MatTriple(enc_re_b, enc_re_t, he_add(back, strip, self.report)))

    def chgs_heads(self, qk: str, x0_masked: FixedTensor) -> list:
        """Per head of block qk, the `product` of S_h = (P_s B_h + R_e B_h)
        (P_s^T + R_e^T) from its triple: P_s = (X0 - Rc0) W_ed + lam where
        the block folds the embedding, the masked chain X0 - Rc0 itself
        elsewhere."""
        p_s = self._apply(qk, x0_masked) if qk in self.weights else x0_masked
        return [self.product(mid, self._apply(mid, p_s), p_s.transpose())
                for mid in (f"{qk}.h{h}" for h in range(self.heads))]


class Session:
    """One two-party inference run in a fixed protocol mode: the script
    that orders the Client's and the Server's steps in-process and logs
    each message between them on one Transcript, which both parties'
    CostReports bill into. `_at` opens the transcript's one (step, phase)
    scope, so both parties' counters and every message and interaction
    logged inside it land where they fall in a deployed offline/online
    split; outside any scope that is ("Others", "online"). Module material
    is made in one phase, `prep`: online in mode base, offline in the
    others, and never inside an online scope. Every plaintext-weight
    module runs through `_modules`: its mask exchange, then its one online
    remask.
    Every attention product runs through `_reveal`: one server message per
    block and step carries all heads' rows. Every client random draw
    (masks, triples, GC labels) is input-independent, so all material
    tagged offline really is derivable before the input arrives.

    The HE key pair lives on the Client, the weights and the server's
    material on the Server under module ids. Each party keeps its side of the
    session's OT, whose base OTs run in the first secure stage. `run` ends
    by auditing that no client secret is reachable from the server and
    that its store is empty.
    """

    def __init__(self, cfg: ModelConfig, weights: ModelWeights, mode: str, seed: int, *,
                 backend: str = "semantic"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        weights.validate(cfg)
        self.cfg, self.mode = cfg, mode
        self.prep = "online" if mode == "base" else "offline"
        self.backend = backend
        top = max(cfg.d_oh, cfg.d_emb, cfg.d_ff, cfg.n, cfg.d_out, 2)
        self.he = HEParams(slots=1 << (top - 1).bit_length())
        c_ss, s_ss = np.random.SeedSequence(seed).spawn(2)
        self.transcript = Transcript()
        self.client = Client(np.random.default_rng(c_ss), self.he, cfg.ring, self.transcript)
        self.server = Server(np.random.default_rng(s_ss), cfg, weights, self.transcript)
        self.packing = (PackingStrategy.TOKENS_FIRST if mode in ("fp", "fpc")
                        else PackingStrategy.FEATURES_FIRST)
        if self.packing is PackingStrategy.TOKENS_FIRST and self.he.slots % cfg.n:
            raise PackingError(f"tokens_first packing needs n={cfg.n} to divide "
                             f"the {self.he.slots} HE slots")

    # -- small helpers --------------------------------------------------------

    def _layout(self, d: int) -> PackingLayout:
        return PackingLayout(self.packing, self.cfg.n, d, self.he.slots)

    def _at(self, step: str, prep: bool = False):
        """The transcript's scope at one pipeline step, in the material
        phase (self.prep) if prep is set, online otherwise: both parties'
        counters and every message and interaction logged inside land
        there."""
        return self.client.report.at(step, self.prep if prep else "online")

    def _send(self, sender: str, payload) -> None:
        """Log one message in the current scope, sized by the bytes of the
        arrays it carries: a list of ciphertexts and batches (a and b
        each; a packed tensor and a row-encrypted matrix are one batch
        each), or a tuple of share tensors."""
        if isinstance(payload, list):
            kind, nbytes = "ciphertext", sum(ct.a.nbytes + ct.b.nbytes for ct in payload)
        else:
            kind, nbytes = "share", sum(t.data.nbytes for t in payload)
        self.transcript.send(sender, kind, nbytes)

    def _heads(self, x: FixedTensor, axis: int = 1) -> list[FixedTensor]:
        """x split into its H per-head blocks: column blocks, or row blocks
        (axis 0) of a tensor stacked by head."""
        return [FixedTensor(b, self.cfg.ring) for b in np.split(x.data, self.cfg.H, axis=axis)]

    def _stack(self, heads, axis: int = 0) -> FixedTensor:
        """Per-head tensors stacked by head: row blocks, or column blocks
        (axis 1)."""
        return FixedTensor(np.concatenate([t.data for t in heads], axis=axis), self.cfg.ring)

    # -- module material ------------------------------------------------------

    def _gen_hgs(self, mids: list[str], rc: FixedTensor) -> list[FixedTensor]:
        """Mask exchange for the modules mids, which share the input mask
        rc: the client ships Enc(rc) packed once; per module the server
        keeps its rs and returns Enc(rc @ W + rs), and the client decrypts
        its share. Returns the client's m_out = rc @ W + rs per module."""
        c, layout = self.client, self._layout(rc.cols)
        rc_ct = pack(rc, layout, c.key, c.report)
        self._send("client", [rc_ct])
        m_outs = []
        for mid in mids:
            out_ct, layout_out = self.server.mask_reply(mid, rc_ct, layout)
            self._send("server", [out_ct])
            if self.prep == "offline":
                # an online-generated module piggybacks on its remask interaction
                self.transcript.interaction()
            m_outs.append(unpack(out_ct, layout_out, c.key, self.cfg.ring, c.report))
        return m_outs

    def _gen_triple(self, mid: str, left: FixedTensor, right: FixedTensor) -> None:
        """Client-built product triple shipped into the server's store."""
        t = make_product_triple(left, right, self.client.key, report=self.client.report)
        self._send("client", [t.left_ct, t.right_ct, t.product_ct])
        self.server.keep(mid, t)

    def chgs_material(self, qk: str, rc0: FixedTensor) -> None:
        """The fused prefix's QxK triples of block qk (`b0.qk`), offline, one
        per head (B_h = W_Q_h W_K_h^T) into the server's store under the
        head's id.

        The mask-quadratic product R_e B_h R_e^T costs one extra offline
        round: the server masks Enc(Rc0 W_M_h) with G_h, the client
        decrypts, multiplies by Rc0^T and re-encrypts, and the server strips
        G_h Rc0^T homomorphically via Enc(Rc0^T)."""
        key, rep_c = self.client.key, self.client.report
        enc_rc0, enc_rc0_t = enc_rows(rc0, key, rep_c), enc_rows(rc0.transpose(), key, rep_c)
        self._send("client", [enc_rc0, enc_rc0_t])
        masked_wm = self.server.chgs_terms(qk, enc_rc0, enc_rc0_t)
        self._send("server", list(masked_wm.values()))
        for mid, rows in masked_wm.items():
            y_h = dec_rows(rows, rc0.cols, key, self.cfg.ring, rep_c)
            back = enc_rows(mat_mul(y_h, rc0.transpose()), key, rep_c)
            self._send("client", [back])
            self.server.strip(mid, back)
        self.transcript.interaction()  # the extra offline round

    # -- online plumbing ------------------------------------------------------

    def _remask(self, rc: FixedTensor, *chains) -> tuple:
        """Client sends its parts of the chains minus one fresh mask rc in a
        single message, the module's online interaction; the holder absorbs
        them. Returns the server's new masked values X - rc, one per chain."""
        deltas = tuple(client_part - rc for _, client_part in chains)
        self._send("client", deltas)
        self.transcript.interaction()
        return tuple(held + d for (held, _), d in zip(chains, deltas))

    def _reveal(self, heads, axis: int = 0):
        """A block's attention products, one server `product` (rows, rs) per
        head: the server sends every head's row batch in one message and
        the client decrypts its shares. Returns the (server, client) chain,
        heads stacked by rows, or by columns (axis 1)."""
        self._send("server", [rows for rows, _ in heads])
        c = self.client
        client = [dec_rows(rows, rs.cols, c.key, self.cfg.ring, c.report) for rows, rs in heads]
        return self._stack([rs for _, rs in heads], axis), self._stack(client, axis)

    def _gc(self, step: str, spec: SecureFnSpec, chain):
        """One garbled stage over the chain shares, spec.count words per
        lane; returns the new chain (held: value minus mask, client: mask)."""
        held, client_part = chain
        lanes = (-1, spec.count)
        c_new, s_new = eval_secure(
            spec, client_part.data.reshape(lanes), held.data.reshape(lanes), self.client.rng,
            backend=self.backend, report=self.client.report, step=step,
            ot_sender=self.client.ot, ot_receiver=self.server.ot,
        )
        ring = self.cfg.ring
        return (FixedTensor(s_new.reshape(held.shape), ring),
                FixedTensor(c_new.reshape(client_part.shape), ring))

    # -- pipeline pieces ------------------------------------------------------

    def _modules(self, step: str, mids: list[str], chain) -> list:
        """The plaintext-weight modules mids on one chain, sharing its input
        mask: the mask exchange in the material phase, then one remask
        online. Returns one chain per module (held: X @ W - rs, plus any
        public bias; client: rc @ W + rs)."""
        with self._at(step, prep=True):
            rc = self.client.rand(chain[1].shape)
            m_outs = self._gen_hgs(mids, rc)
        with self._at(step):
            masked, = self._remask(rc, chain)
            return [(self.server.run_hgs_layer(mid, masked), m_out)
                    for mid, m_out in zip(mids, m_outs)]

    def _embed(self, x0: FixedTensor):
        """Two chained modules on the one-hot input, held by the client:
        vocabulary matmul, then coefficient scale with the public
        positional offset added server-side."""
        chain, = self._modules("Embed", ["embed.vocab"],
                               (FixedTensor.zeros(*x0.shape, self.cfg.ring), x0))
        return self._modules("Embed", ["embed.posn"], chain)[0]

    def _prefix_hgs(self, blk_i: int, chain):
        """Modes base/f/fp: QKV modules sharing one input mask, then the
        per-head same-mask score product. Two online interactions."""
        q, k, v = self._modules("QKV", [f"b{blk_i}.w{p}" for p in "qkv"], chain)
        with self._at("QxK", prep=True):
            rc_qk = self.client.rand((self.cfg.n, self.cfg.d_emb))
            for h, r in enumerate(self._heads(rc_qk)):
                self._gen_triple(f"b{blk_i}.qk.h{h}", r, r.transpose())
        with self._at("QxK"):
            mq, mk = self._remask(rc_qk, q, k)
            heads = [self.server.product(f"b{blk_i}.qk.h{h}", q_h, k_h.transpose())
                     for h, (q_h, k_h) in enumerate(zip(self._heads(mq), self._heads(mk)))]
            return self._reveal(heads), v

    def _prefix_chgs(self, blk_i: int, chain, x0: FixedTensor | None):
        """Mode fpc: fused prefix with one online exchange under QxK.

        A block that fuses from the raw one-hot input (x0 given) gets the
        embedding folded in by the server's merge, and its Enc(Rc0) serves
        both the values and X1, the output of module `b{i}.qk`, in one
        exchange; the others run the same algebra on the chain with no input
        map, reusing the preceding GC output mask as Rc0 so the client sends
        nothing online at all. Returns the score and values chains, then
        X1's chain in the block that folds the embedding and nothing more
        in the others.
        """
        first = x0 is not None
        rc0 = self.client.rand((self.cfg.n, self.cfg.d_oh)) if first else chain[1]
        qk = f"b{blk_i}.qk"
        mids = [f"b{blk_i}.fuse_v"] + ([qk] if first else [])
        with self._at("QxK", prep=True):
            self.chgs_material(qk, rc0)
        with self._at("QKV", prep=True):
            m_outs = self._gen_hgs(mids, rc0)

        # online: one interaction carries the whole prefix
        with self._at("QxK"):
            if first:
                x0_masked = x0 - rc0
                self._send("client", (x0_masked,))
            else:
                x0_masked = chain[0]
            self.transcript.interaction()
            s_chain = self._reveal(self.server.chgs_heads(qk, x0_masked))
        # the values' chain, then X1's where the block folds the embedding
        return (s_chain, *[(self.server.run_hgs_layer(mid, x0_masked), m_out)
                           for mid, m_out in zip(mids, m_outs)])

    def _attention_value(self, blk_i: int, p_chain, v_chain):
        """Per-head product of the softmax shares with the masked values;
        triples reuse the GC output mask, so the online phase is just the
        server's one message of all heads' rows (one interaction, no client
        message)."""
        p_held, p_mask = p_chain     # held: P - a, client: a, both stacked by head
        v_masked, m_v = v_chain
        mids = [f"b{blk_i}.av.h{h}" for h in range(self.cfg.H)]
        with self._at("AttenValue", prep=True):
            for mid, a_h, mv_h in zip(mids, self._heads(p_mask, axis=0), self._heads(m_v)):
                self._gen_triple(mid, a_h, mv_h)
        with self._at("AttenValue"):
            heads = [self.server.product(mid, p_h, v_h) for mid, p_h, v_h in
                     zip(mids, self._heads(p_held, axis=0), self._heads(v_masked))]
            self.transcript.interaction()
            return self._reveal(heads, axis=1)

    def _norm(self, chain):
        """norm_spec in a pre-norm model; post-norm passes the chain through."""
        return chain if self.cfg.norm == "post" else self._gc("Others", norm_spec(self.cfg), chain)

    def _close(self, x, y, shift: int):
        """The residual sum x * 2^shift + y of two chains, closed back to f."""
        total = (x[0].lshift(shift) + y[0], x[1].lshift(shift) + y[1])
        return self._gc("Others", close_spec(self.cfg, shift), total)

    def _block(self, blk_i: int, chain, x0):
        """One block: norm, prefix, SoftMax, AttenValue, wo, close, norm,
        wf1, act, wf2, close. The residual taps the block's input chain,
        or X1 where the fused prefix folds the embedding."""
        cfg, f = self.cfg, self.cfg.ring.frac_bits
        attn_in = self._norm(chain)
        s_chain, v_chain, *x1 = (self._prefix_chgs(blk_i, attn_in, x0) if self.mode == "fpc"
                                 else self._prefix_hgs(blk_i, attn_in))
        eta = cfg.eta
        s_chain = (s_chain[0].scalar_mul(eta), s_chain[1].scalar_mul(eta))
        p_chain = self._gc("SoftMax", softmax_spec(cfg), s_chain)
        av_chain = self._attention_value(blk_i, p_chain, v_chain)
        o_chain, = self._modules("Others", [f"b{blk_i}.wo"], av_chain)
        mid = self._close(x1[0] if x1 else chain, o_chain, 3 * f)
        h_chain, = self._modules("Others", [f"b{blk_i}.wf1"], self._norm(mid))
        act = self._gc("Others", act_spec(cfg), h_chain)
        f_chain, = self._modules("Others", [f"b{blk_i}.wf2"], act)
        return self._close(mid, f_chain, f)

    def run(self, tokens) -> "RunResult":
        cfg = self.cfg
        x0 = FixedTensor(one_hot(tokens, cfg.d_oh), cfg.ring)
        if x0.rows != cfg.n:
            raise ValueError(f"expected n={cfg.n} tokens, got {x0.rows}")
        fused_first = self.mode == "fpc" and folds_embedding(cfg, 0)
        chain = None if fused_first else self._embed(x0)
        for i in range(cfg.N):
            chain = self._block(i, chain, x0 if (i == 0 and fused_first) else None)
        (l_held, l_mask), = self._modules("Others", ["head"], self._norm(chain))
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
