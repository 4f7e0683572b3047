"""Spans around the program's layer entry points, for the traced child only.

``install`` rebinds each entry function listed in ``ENTRIES`` to a wrapper,
in every loaded ``hyperfold`` module that holds it (so ``eval_ack_ref`` is
wrapped where ``notation`` calls it, ``knuth_machine`` where ``hyperops``
calls it).  An entry that no longer exists is reported as absent, not an
error, so the traced run survives the planned deletions.  A span is
``[layer, start_ns, end_ns, parent, call_id, extra]``; spans stay in memory
and are written out once, after the last call.

``summarize`` turns spans into per-layer busy time (outermost spans of the
layer), self time (span time minus time covered by child spans) and counts,
all per user call.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

#: (layer, module under hyperfold, attribute path)
ENTRIES = [
    ("cli", "cli", "run_eval"),
    ("notation.parse", "notation", "parse"),
    ("notation.evaluate", "notation", "evaluate"),
    ("hyperops.ref", "notation", "eval_ack_ref"),
    ("hyperops.ref", "notation", "eval_knuth_ref"),
    ("hyperops.ref", "notation", "eval_conway_ref"),
    ("hyperops.prim", "notation", "eval_ack_prim"),
    ("hyperops.prim", "notation", "eval_knuth_prim"),
    ("hyperops.prim", "notation", "eval_conway_prim"),
    ("backend", "backend", "run_ack"),
    ("backend", "backend", "run_conway"),
    ("machines", "_machines", "ack_machine"),
    ("machines", "_machines", "knuth_machine"),
    ("machines", "_machines", "conway_machine"),
    ("machines.pow", "_machines", "_pow_counted"),
    ("folds", "folds", "foldr_seq"),
    ("folds", "folds", "foldn"),
    ("budget.checked_pow", "budget", "checked_pow"),
    ("budget.stats", "budget", "Meter.stats"),
    ("budget.int_to_decimal", "budget", "int_to_decimal"),
]

ROOT = "call"
LAYERS = [ROOT] + sorted({layer for layer, _, _ in ENTRIES})


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = -1
        self.absent = []

    def enter(self, layer_index: int) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer_index, time.perf_counter_ns(), 0, parent, self.call_id, None])
        self.stack.append(index)
        return index

    def leave(self, index: int, end_ns: int, extra=None) -> None:
        span = self.spans[index]
        span[2] = end_ns
        span[5] = extra
        self.stack.pop()

    def root(self, call):
        """``call`` wrapped in one root span per user call."""
        layer_index = LAYERS.index(ROOT)

        def traced_call(index):
            self.call_id += 1
            span = self.enter(layer_index)
            try:
                return call(index)
            finally:
                self.leave(span, time.perf_counter_ns())

        return traced_call


def _observer(layer: str, fn):
    """Extracts a layer's counts from a call: (args, kwargs, result, before)."""
    if layer == "machines":
        sig = inspect.signature(fn)

        def machine(args, kwargs, result, before):
            if not (isinstance(result, tuple) and len(result) == 4):
                return None
            steps0 = sig.bind(*args, **kwargs).arguments.get("steps0", 0)
            return [int(result[0]), int(result[2]) - steps0]

        return machine, None
    if layer == "hyperops.prim":
        def meter_steps(args):
            meter = args[-1] if args else None
            return getattr(meter, "steps", None)

        def prim(args, kwargs, result, before):
            after = meter_steps(args)
            return None if before is None or after is None else after - before

        return prim, meter_steps
    if layer == "budget.int_to_decimal":
        return (lambda args, kwargs, result, before: len(result)), None
    return None, None


def _wrap(tracer: Tracer, layer: str, fn):
    layer_index = LAYERS.index(layer)
    observe, before_fn = _observer(layer, fn)

    def wrapper(*args, **kwargs):
        before = before_fn(args) if before_fn else None
        span = tracer.enter(layer_index)
        result = extra = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            # counted after the span ends, so observing costs the layer nothing
            end_ns = time.perf_counter_ns()
            if observe is not None:
                try:
                    extra = observe(args, kwargs, result, before)
                except (TypeError, ValueError, AttributeError):
                    extra = None  # a call that raised, or a changed signature
            tracer.leave(span, end_ns, extra)

    return wrapper


def install(tracer: Tracer, entries=ENTRIES) -> None:
    """Wrap every present entry point; record absent ones on the tracer."""
    for layer, module_name, path in entries:
        try:
            module = importlib.import_module(f"hyperfold.{module_name}")
        except ImportError:
            module = None
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, attr, None)
        if not callable(fn):
            tracer.absent.append(f"{module_name}.{path}")
            continue
        wrapper = _wrap(tracer, layer, fn)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "hyperfold" or name.startswith("hyperfold."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics from spans (runs in the parent)
# ---------------------------------------------------------------------------


def _layer_totals(spans):
    covered = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    totals = {}
    for i, (layer, start, end, parent, _, extra) in enumerate(spans):
        t = totals.setdefault(LAYERS[layer], {
            "calls": 0, "busy_ns": 0, "self_ns": 0, "extra": [],
        })
        t["calls"] += 1
        t["self_ns"] += end - start - covered[i]
        if extra is not None:
            t["extra"].append(extra)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["busy_ns"] += end - start
    return totals


def summarize(spans, n_calls: int, overhead_ratio: float):
    """Per-layer metrics, each per user call, keyed as in BENCHMARK.json."""
    totals = _layer_totals(spans)
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "extra": []}

    def get(layer):
        return totals.get(layer, empty)

    def ms(layer, key):
        return get(layer)[key] / 1e6 / n_calls

    def per_call(value):
        return value / n_calls

    prim_steps = sum(get("hyperops.prim")["extra"])
    machine_runs = get("machines")["extra"]
    machine_steps = sum(steps for _, steps in machine_runs)
    statuses = [status for status, _ in machine_runs]

    def us_per_step(layer, steps):
        return get(layer)["busy_ns"] / 1e3 / steps if steps else 0.0

    return {
        "cli.run_eval.self_ms": ms("cli", "self_ns"),
        "notation.parse.busy_ms": ms("notation.parse", "busy_ns"),
        "notation.parse.calls": per_call(get("notation.parse")["calls"]),
        "notation.evaluate.self_ms": ms("notation.evaluate", "self_ns"),
        "hyperops.ref.self_ms": ms("hyperops.ref", "self_ns"),
        "hyperops.ref.calls": per_call(get("hyperops.ref")["calls"]),
        "hyperops.prim.busy_ms": ms("hyperops.prim", "busy_ns"),
        "hyperops.prim.self_ms": ms("hyperops.prim", "self_ns"),
        "hyperops.prim.calls": per_call(get("hyperops.prim")["calls"]),
        "hyperops.prim.steps": per_call(prim_steps),
        "hyperops.prim.us_per_step": us_per_step("hyperops.prim", prim_steps),
        "backend.self_ms": ms("backend", "self_ns"),
        "backend.calls": per_call(get("backend")["calls"]),
        "machines.busy_ms": ms("machines", "busy_ns"),
        "machines.calls": per_call(get("machines")["calls"]),
        "machines.steps": per_call(machine_steps),
        "machines.us_per_step": us_per_step("machines", machine_steps),
        "machines.ok": per_call(statuses.count(0)),
        "machines.trip_steps": per_call(statuses.count(1)),
        "machines.trip_magnitude": per_call(statuses.count(2)),
        "machines.pow.busy_ms": ms("machines.pow", "busy_ns"),
        "folds.busy_ms": ms("folds", "busy_ns"),
        "folds.calls": per_call(get("folds")["calls"]),
        "budget.checked_pow.busy_ms": ms("budget.checked_pow", "busy_ns"),
        "budget.checked_pow.calls": per_call(get("budget.checked_pow")["calls"]),
        "budget.stats.busy_ms": ms("budget.stats", "busy_ns"),
        "budget.int_to_decimal.busy_ms": ms("budget.int_to_decimal", "busy_ns"),
        "budget.int_to_decimal.digits": per_call(sum(get("budget.int_to_decimal")["extra"])),
        "trace.overhead_ratio": overhead_ratio,
    }
