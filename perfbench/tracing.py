"""Span tracer that wraps calls into motionq's modules at their call sites.

A boundary is a (module, attribute) pair such as `motionq.model` /
`cell_forward` (the name `model.py` calls) or `motionq.model` /
`MotionModel.decode`. While installed, each call through a boundary records a
span (name, start, end, parent, attributes) in memory; counters (sigmoid
calls) are added to the innermost open span. Every per-layer metric is
derived from the spans. A boundary whose attribute no longer exists is
listed as absent and its metrics are reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time


def _decode_attrs(args, kwargs, result):
    h_obs = args[1]
    cached = kwargs.get("want_cache", args[6] if len(args) > 6 else False)
    return {"rows": len(h_obs), "cached": bool(cached)}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _manifest_attrs(args, kwargs, result):
    return {"windows": len(result)}


# span name, module, attribute (dotted for class methods), attribute maker
SPANS = [
    ("model.loss_and_grad", "motionq.model", "MotionModel.loss_and_grad", None),
    ("model.observe", "motionq.model", "MotionModel.observe", None),
    ("model.decode", "motionq.model", "MotionModel.decode", _decode_attrs),
    ("model.decode_backward", "motionq.model", "MotionModel._decode_backward_agent", None),
    ("cell.forward", "motionq.model", "cell_forward", None),
    ("cell.backward", "motionq.model", "cell_backward", None),
    ("queues.push_pop", "motionq.model", "push_pop", None),
    ("social.refine_forward", "motionq.model", "refine_forward", None),
    ("social.refine_forward", "motionq.model", "refine_hidden_queues", None),
    ("social.refine_backward", "motionq.model", "refine_backward", None),
    ("scene.encode", "motionq.model", "encode_scene", None),
    ("scene.encode_backward", "motionq.model", "encode_scene_backward", None),
    ("objectives.variety", "motionq.model", "variety_forward", None),
    ("objectives.variety", "motionq.model", "variety_backward", None),
    ("objectives.coherence", "motionq.model", "coherence_forward", None),
    ("objectives.coherence", "motionq.model", "coherence_backward", None),
    ("objectives.metrics", "motionq.trainer", "per_agent_best_metrics", None),
    ("trainer.adam", "motionq.trainer", "adam_step", None),
    ("trainer.checkpoint_save", "motionq.trainer", "save_checkpoint", _save_attrs),
    ("trainer.checkpoint_load", "motionq.trainer", "load_checkpoint", None),
    ("data.load_manifest", "motionq.data", "load_manifest", _manifest_attrs),
]

# counter name, module, attribute
COUNTERS = [
    ("sigmoid_calls", "motionq.model", "sigmoid"),
    ("sigmoid_calls", "motionq.cell", "sigmoid"),
    ("sigmoid_calls", "motionq.scene", "sigmoid"),
]


def _resolve(module, attr):
    """(owner, leaf name, original) or None when the boundary is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(leaf)
    if not callable(original):
        return None
    return owner, leaf, original


class Tracer:
    """Spans are lists [name, start_ns, end_ns, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        # a name wrapped at several call sites is present if any of them exists
        sites = [(name, module, attr) for name, module, attr, _ in SPANS] + COUNTERS
        present = {name for name, module, attr in sites if _resolve(module, attr)}
        self.absent = {name for name, _, _ in sites} - present

    def _span_wrapper(self, name, fn, attrs):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs is not None:
                record[4] = {**(record[4] or {}), **attrs(args, kwargs, result)}
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:  # traced rounds always have an open span
                record = spans[stack[-1]]
                if record[4] is None:
                    record[4] = {}
                record[4][name] = record[4].get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, module, attr, attrs in SPANS:
            found = _resolve(module, attr)
            if found is not None:
                owner, leaf, original = found
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, self._span_wrapper(name, original, attrs))
        for name, module, attr in COUNTERS:
            found = _resolve(module, attr)
            if found is not None:
                owner, leaf, original = found
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, self._counter_wrapper(name, original))

    def uninstall(self):
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    @contextlib.contextmanager
    def traced(self, root):
        """Install the boundaries and record everything under one top-level span."""
        self.install()
        record = [root, 0, 0, -1, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# id parent name start_ns end_ns attrs\n")
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start}\t{end}\t"
                         f"{json.dumps(attrs) if attrs else '-'}\n")


def _totals(spans, root=None):
    """Per span name: calls, busy ns, self ns (busy minus direct children).
    With `root`, only spans under a top-level span of that name count."""
    child_ns = [0] * len(spans)
    top = [0] * len(spans)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            top[idx] = top[parent]
        else:
            top[idx] = idx
    out = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        if root is not None and spans[top[idx]][0] != root:
            continue
        calls, busy, own = out.get(name, (0, 0, 0))
        out[name] = (calls + 1, busy + end - start, own + end - start - child_ns[idx])
    return out, top


def _attr_sum(spans, name, key, keep=lambda idx, attrs: True):
    total = 0
    for idx, (span_name, _, _, _, attrs) in enumerate(spans):
        if span_name == name and attrs and keep(idx, attrs):
            total += attrs.get(key, 0)
    return total


# metric name, unit, better; derived in layer_metrics below
PER_LAYER = [
    ("model.decode_ms", "ms", "lower"),
    ("model.decode_rows", "count", "lower"),
    ("model.decode_backward_ms", "ms", "lower"),
    ("model.decode_backward_rows", "count", "lower"),
    ("model.decode_backward_share", "ratio", "higher"),
    ("numkit.sigmoid_calls", "count", "lower"),
    ("cell.forward_ms", "ms", "lower"),
    ("cell.backward_ms", "ms", "lower"),
    ("cell.forward_calls", "count", "lower"),
    ("queues.push_pop_ms", "ms", "lower"),
    ("queues.push_pop_calls", "count", "lower"),
    ("social.refine_forward_ms", "ms", "lower"),
    ("social.refine_backward_ms", "ms", "lower"),
    ("social.refine_calls", "count", "lower"),
    ("model.observe_ms", "ms", "lower"),
    ("model.observe_self_ms", "ms", "lower"),
    ("scene.encode_ms", "ms", "lower"),
    ("scene.encode_backward_ms", "ms", "lower"),
    ("objectives.variety_ms", "ms", "lower"),
    ("objectives.coherence_ms", "ms", "lower"),
    ("objectives.metrics_ms", "ms", "lower"),
    ("model.loss_and_grad_ms", "ms", "lower"),
    ("model.loss_and_grad_self_ms", "ms", "lower"),
    ("trainer.adam_ms", "ms", "lower"),
    ("trainer.checkpoint_save_ms", "ms", "lower"),
    ("trainer.checkpoint_bytes", "bytes", "lower"),
    ("trainer.checkpoint_load_ms", "ms", "lower"),
    ("data.load_manifest_ms", "ms", "lower"),
    ("data.windows", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(tracer, primary, scenes, eval_windows, overhead_ms, overhead_pct):
    """Every PER_LAYER metric. Per-scene times and counts come from the spans
    under traced `round.<primary>` spans, divided by the `scenes` those rounds
    processed; objectives.metrics_ms is per window of the traced evaluate
    rounds; checkpoint and manifest metrics are per call wherever traced."""
    spans = tracer.spans
    root = f"round.{primary}"
    tot, top = _totals(spans, root)
    every, _ = _totals(spans)
    evaluate, _ = _totals(spans, "round.evaluate")
    per = 1.0 / max(scenes, 1)

    def under_root(idx, attrs):
        return spans[top[idx]][0] == root

    def busy(name, table=tot, scale=per):
        return table.get(name, (0, 0, 0))[1] / 1e6 * scale

    def own(name):
        return tot.get(name, (0, 0, 0))[2] / 1e6 * per

    def calls(name):
        return tot.get(name, (0, 0, 0))[0] * per

    def per_call(name):
        n, ns, _ = every.get(name, (0, 0, 0))
        return ns / 1e6 / n if n else 0.0

    rows = _attr_sum(spans, "model.decode", "rows", under_root)
    cached_rows = _attr_sum(spans, "model.decode", "rows",
                            lambda idx, a: a["cached"] and under_root(idx, a))
    backward_rows = tot.get("model.decode_backward", (0, 0, 0))[0]
    saves = every.get("trainer.checkpoint_save", (0, 0, 0))[0]
    sigmoid = sum((a or {}).get("sigmoid_calls", 0)
                  for idx, (*_, a) in enumerate(spans) if under_root(idx, a))
    values = {
        "model.decode_ms": (busy("model.decode"), ["model.decode"]),
        "model.decode_rows": (rows * per, ["model.decode"]),
        "model.decode_backward_ms": (busy("model.decode_backward"), ["model.decode_backward"]),
        "model.decode_backward_rows": (calls("model.decode_backward"), ["model.decode_backward"]),
        "model.decode_backward_share": (backward_rows / cached_rows if cached_rows else 0.0,
                                        ["model.decode", "model.decode_backward"]),
        "numkit.sigmoid_calls": (sigmoid * per, ["sigmoid_calls"]),
        "cell.forward_ms": (busy("cell.forward"), ["cell.forward"]),
        "cell.backward_ms": (busy("cell.backward"), ["cell.backward"]),
        "cell.forward_calls": (calls("cell.forward"), ["cell.forward"]),
        "queues.push_pop_ms": (busy("queues.push_pop"), ["queues.push_pop"]),
        "queues.push_pop_calls": (calls("queues.push_pop"), ["queues.push_pop"]),
        "social.refine_forward_ms": (busy("social.refine_forward"), ["social.refine_forward"]),
        "social.refine_backward_ms": (busy("social.refine_backward"), ["social.refine_backward"]),
        "social.refine_calls": (calls("social.refine_forward"), ["social.refine_forward"]),
        "model.observe_ms": (busy("model.observe"), ["model.observe"]),
        "model.observe_self_ms": (own("model.observe"), ["model.observe"]),
        "scene.encode_ms": (busy("scene.encode"), ["scene.encode"]),
        "scene.encode_backward_ms": (busy("scene.encode_backward"), ["scene.encode_backward"]),
        "objectives.variety_ms": (busy("objectives.variety"), ["objectives.variety"]),
        "objectives.coherence_ms": (busy("objectives.coherence"), ["objectives.coherence"]),
        "objectives.metrics_ms": (busy("objectives.metrics", evaluate,
                                       1.0 / max(eval_windows, 1)), ["objectives.metrics"]),
        "model.loss_and_grad_ms": (busy("model.loss_and_grad"), ["model.loss_and_grad"]),
        "model.loss_and_grad_self_ms": (own("model.loss_and_grad"), ["model.loss_and_grad"]),
        "trainer.adam_ms": (busy("trainer.adam"), ["trainer.adam"]),
        "trainer.checkpoint_save_ms": (per_call("trainer.checkpoint_save"),
                                       ["trainer.checkpoint_save"]),
        "trainer.checkpoint_bytes": (_attr_sum(spans, "trainer.checkpoint_save", "bytes")
                                     / saves if saves else 0.0, ["trainer.checkpoint_save"]),
        "trainer.checkpoint_load_ms": (per_call("trainer.checkpoint_load"),
                                       ["trainer.checkpoint_load"]),
        "data.load_manifest_ms": (per_call("data.load_manifest"), ["data.load_manifest"]),
        "data.windows": (_attr_sum(spans, "data.load_manifest", "windows"),
                         ["data.load_manifest"]),
        "trace.spans": (sum(n for n, _, _ in tot.values()) * per, []),
        "trace.overhead_ms": (overhead_ms, []),
        "trace.overhead_pct": (overhead_pct, []),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        value, needs = values[name]
        if any(b in tracer.absent for b in needs):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": float(value), "unit": unit}
    return out
