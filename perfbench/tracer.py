"""Spans around calls into the package's layers, recorded from outside it.

Each traced function is replaced, in the module namespace where its caller
looks it up, by a wrapper that opens a span on entry and closes it on
exit. A span has a name, start, end, parent and the tags of the current
inference (round, mode, inference id); spans are kept in memory and
written out once, when the run ends.

The HE primitives are called hundreds of thousands of times per round, so
they are leaves: instead of one span per call, each leaf call adds its
count and time to the span that is open when it runs. A span's self time
is its duration minus the time of the spans and leaf calls inside it, so
the self times of all spans of an inference add up to the inference.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "step", "stepped",
                 "tags", "leaves", "extra")

    def __init__(self, sid, name, parent, step, tags):
        self.id, self.name, self.parent = sid, name, parent
        self.step = step
        self.stepped = False
        self.tags = tags
        self.start = perf_counter()
        self.end = None
        self.child = 0.0
        self.leaves = {}
        self.extra = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.tags: dict = {}
        self._undo: list = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, step=None) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent.id if parent else None, step, self.tags)
        if parent is not None:
            span.stepped = parent.stepped or parent.step is not None
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.stack:
            self.stack[-1].child += span.end - span.start

    @contextmanager
    def span(self, name: str, **tags):
        self.tags = dict(self.tags, **tags) if tags else self.tags
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, step_of=None, extra_of=None) -> None:
        """Trace owner.attr as span `name`. step_of(args, kwargs) gives the
        (step, phase) a call belongs to; extra_of(args, kwargs, result)
        gives numbers to keep on the span."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not self.stack:  # outside any inference: not traced
                return fn(*args, **kwargs)
            span = self.open(name, step_of(args, kwargs) if step_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if extra_of is not None:
                span.extra.update(extra_of(args, kwargs, result))
            return result

        self._patch(owner, attr, traced)

    def wrap_leaf(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        stack = self.stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if stack:
                    top = stack[-1]
                    top.child += dt
                    cell = top.leaves.get(name)
                    if cell is None:
                        top.leaves[name] = [1, dt]
                    else:
                        cell[0] += 1
                        cell[1] += dt

        self._patch(owner, attr, traced)

    def wrap_scope(self, owner, attr: str, name: str) -> None:
        """Trace a context-manager method such as CostReport.at(step, phase)."""
        fn = getattr(owner, attr)
        tracer = self

        @contextmanager
        def traced(obj, step, phase):
            if not tracer.stack:
                with fn(obj, step, phase) as value:
                    yield value
                return
            span = tracer.open(name, (step, phase))
            try:
                with fn(obj, step, phase) as value:
                    yield value
            finally:
                tracer.close(span)

        self._patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start_s": round(s.start - t0, 9), "end_s": round(s.end - t0, 9),
                    "self_s": round(s.self_s, 9),
                    "step": s.step[0] if s.step else None,
                    "phase": s.step[1] if s.step else None,
                    **s.tags,
                    "leaves": {k: {"calls": c, "s": round(t, 9)} for k, (c, t) in s.leaves.items()},
                    **({"extra": s.extra} if s.extra else {}),
                }, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Patch every traced layer of the privtrans package."""
    from privtrans import costs, engine, packing, securefn, sharing

    for name in ("he_matmul", "pack", "unpack", "pack_plain"):
        tracer.wrap(engine, name, f"packing.{name}")
    for name in ("enc_left_matmul", "plain_left_matmul", "enc_rows", "dec_rows"):
        tracer.wrap(engine, name, f"sharing.{name}")
    tracer.wrap(engine, "make_product_triple", "sharing.make_product_triple")
    tracer.wrap(sharing, "enc_rows", "sharing.enc_rows")
    tracer.wrap(engine, "eval_secure", "securefn.eval_secure",
                step_of=lambda a, k: (k.get("step", "Others"), "online"))
    tracer.wrap(securefn, "build_secure_circuit", "circuits.build_secure_circuit",
                extra_of=_build_extra(securefn.build_secure_circuit))
    tracer.wrap(securefn, "garble", "garble.garble",
                extra_of=lambda a, k, r: {"and_lanes": a[0].and_count * a[1]})
    tracer.wrap(securefn, "evaluate", "garble.evaluate")
    tracer.wrap(securefn, "run_ot", "ot.run_ot",
                extra_of=lambda a, k, r: {"transfers": int(len(a[2]))})
    for module, names in (
        (engine, ("he_add", "he_add_plain", "he_mul_plain")),
        (packing, ("encrypt", "decrypt", "he_add", "he_mul_plain", "he_rotate")),
        (sharing, ("encrypt", "decrypt", "he_add", "he_mul_plain", "he_rotate")),
    ):
        for name in names:
            tracer.wrap_leaf(module, name, f"she.{name}")
    tracer.wrap_scope(costs.CostReport, "at", "engine.at")


def _build_extra(cached):
    """Mark the calls of the cached build_secure_circuit that built a circuit."""
    state = {"misses": cached.cache_info().misses}

    def extra(args, kwargs, circ):
        misses = cached.cache_info().misses
        built = misses != state["misses"]
        state["misses"] = misses
        return {"built": int(built), "and_gates": circ.and_count if built else 0}

    return extra
