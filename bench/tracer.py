"""Span recorder that wraps the library's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules (and
a few operator methods) by a wrapper, on the module or class object itself,
so calls between modules and inside one module both pass through it.  The
source files are not touched and ``uninstall`` puts the originals back.

Every wrapped call updates exact per-function counters (calls, self time,
and a few result sizes), from which the per-layer metrics come.  Spans (id,
name, start, end, parent span, op id) are kept in compact arrays and written
out by ``write_spans`` for the calls that start an op's traced work, and for
calls that cross a layer boundary (the caller's module differs from the
callee's) and last at least ``SPAN_MIN_S``.  The rest are only counted:
verify-all makes millions of calls, too many to keep one record each.
"""

from __future__ import annotations

import json
import time
from array import array

LAYERS = ("symgroup", "polyring", "fkalg", "fkcanon", "skew", "verify", "cli")

# operator methods whose cost the per-layer table names
METHODS = (("fkalg", "FKElement", "__mul__"), ("fkalg", "FKElement", "__add__"),
           ("polyring", "Poly", "__mul__"))

SPAN_MIN_S = 1e-4

ROUTES = ("skew_explicit", "skew_signed", "skew_pairing", "skew_recurrence")


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and does not mark private."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out.append(name)
    return sorted(out)


class Tracer:
    """Counters and spans for one traced worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.sets = 0  # subword position sets returned by reduced_subwords
        self.route_sets = {r: 0 for r in ROUTES}  # ... enumerated directly by a route
        self.terms = {r: 0 for r in ROUTES}  # terms of the elements routes return
        self.active = False
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds, name index, kept ancestor]
        self._restore: list[tuple[object, str, object]] = []
        self.sp_id = array("q")
        self.sp_name = array("i")
        self.sp_parent = array("q")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")

    def install(self, modules: dict) -> None:
        """Wrap the public functions of each module in ``modules`` (layer name
        -> module object) and the operator methods in ``METHODS``."""
        for layer in LAYERS:
            mod = modules[layer]
            for name in public_functions(mod):
                self._wrap(mod, name, layer, f"{layer}.{name}")
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._wrap(cls, meth, layer, f"{layer}.{cls_name}.{meth}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, owner, attr: str, layer: str, name: str) -> None:
        fn = getattr(owner, attr)
        idx = len(self.names)
        self.names.append(name)
        lidx = LAYERS.index(layer)
        self.layer_of.append(lidx)
        self.calls.append(0)
        self.self_s.append(0.0)
        short = name.split(".", 1)[1]
        post = None
        if short == "reduced_subwords":
            post = self._post_subwords
        elif short in ROUTES:
            post = self._post_route
        layer_of = self.layer_of
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            if parent is None:
                keep, kept_parent = True, -1
            else:
                keep, kept_parent = layer_of[parent[2]] != lidx, parent[3]
            frame = [sid, 0.0, idx, sid if keep else kept_parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep and (parent is None or dur >= SPAN_MIN_S):
                    tracer._keep(sid, idx, kept_parent, t0, t1)
            if post is not None:
                post(short, parent, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _keep(self, sid: int, idx: int, parent: int, t0: float, t1: float) -> None:
        self.sp_id.append(sid)
        self.sp_name.append(idx)
        self.sp_parent.append(parent)
        self.sp_op.append(self.op_id)
        self.sp_start.append(t0)
        self.sp_end.append(t1)

    def _post_subwords(self, short: str, parent, result) -> None:
        self.sets += len(result)
        if parent is not None:
            caller = self.names[parent[2]].split(".", 1)[1]
            if caller in self.route_sets:
                self.route_sets[caller] += len(result)

    def _post_route(self, short: str, parent, result) -> None:
        self.terms[short] += len(result.terms)

    def stats(self) -> dict:
        """Per-function and per-layer totals, all exact except the seconds."""
        funcs = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for i, lidx in enumerate(self.layer_of):
            layers[LAYERS[lidx]] += self.self_s[i]
        return {
            "functions": funcs,
            "layer_self_s": layers,
            "subword_sets": self.sets,
            "route_sets": dict(self.route_sets),
            "route_terms": dict(self.terms),
            "spans_kept": len(self.sp_id),
            "spans_total": self._next_id,
        }

    def write_spans(self, path: str) -> None:
        """One JSON object per kept span, start and end in seconds of
        ``time.perf_counter``; ``parent`` is the nearest boundary span that
        caused it, -1 for none, and ``op`` is the op id current when the span
        ran.  A kept span's parent is kept too, since it lasted longer."""
        with open(path, "w") as fh:
            for k in range(len(self.sp_id)):
                fh.write(json.dumps({
                    "id": self.sp_id[k],
                    "name": self.names[self.sp_name[k]],
                    "start": self.sp_start[k],
                    "end": self.sp_end[k],
                    "parent": self.sp_parent[k],
                    "op": self.sp_op[k],
                }, separators=(",", ":")))
                fh.write("\n")
