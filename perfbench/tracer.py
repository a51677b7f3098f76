"""Spans and counts recorded around fluxline's public functions.

Only the benchmark's traced runs import this module.  ``install`` replaces
each public module-level function of the layers below with a wrapper that
records a span (name, start, end, parent) and, for a few functions, counts
taken from the return value or the raised exception.  Nothing under
``src/`` is changed.

Coverage follows from how Python resolves names: a call through a module
attribute or a module global (``fio.read_shots_csv``, or ``flux_sweep``
calling ``filter_frequency_exact``) reaches the wrapper.  A name bound by
``from ... import`` is a global of the importing module, so ``install``
patches those aliases too and lists them.  Not covered: methods and
properties of classes, private helpers (their time is the caller's self
time), references taken before ``install`` runs other than the CLI's
command table, and the per-value helpers in ``NOT_WRAPPED``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

from fluxline.errors import NoRootFound

LAYERS = ("io", "classify", "thermometry", "network", "dynamics", "synth", "cli")

# io.fmt formats one float per call (2e6 calls in a generate run); a span
# per call would time the wrapper rather than the layer.
NOT_WRAPPED = frozenset({"io.fmt"})


def _size(path) -> int:
    return os.path.getsize(path)


# Counts taken from a wrapped call's bound arguments and return value.
_ON_RETURN = {
    "io.read_shots_csv": lambda c, a, r: c.update(
        {"io.rows_read": len(r[0]), "io.bytes_read": _size(a["path"])}),
    "io.read_reset_csv": lambda c, a, r: c.update(
        {"io.rows_read": sum(cv.times.size for cv in r.curves.values()),
         "io.bytes_read": _size(a["path"])}),
    "io.read_curve_csv": lambda c, a, r: c.update(
        {"io.rows_read": len(r[0]), "io.bytes_read": _size(a["path"])}),
    "io.load_json": lambda c, a, r: c.update({"io.bytes_read": _size(a["path"])}),
    "io.write_shots_csv": lambda c, a, r: c.update({"io.bytes_written": _size(a["path"])}),
    "io.write_flux_sweep_csv": lambda c, a, r: c.update({"io.bytes_written": _size(a["path"])}),
    "io.write_reset_csv": lambda c, a, r: c.update({"io.bytes_written": _size(a["path"])}),
    "io.write_curve_csv": lambda c, a, r: c.update({"io.bytes_written": _size(a["path"])}),
    "io.dump_json": lambda c, a, r: c.update({"io.bytes_written": _size(a["path"])}),
    "classify.classify_batch": lambda c, a, r: c.update(
        {"classify.shots_classified": len(r[0])}),
    "thermometry.fit_temperature": lambda c, a, r: c.update(
        {"thermometry.windows_at_bound": int(bool(r.at_boundary))}),
    "network.flux_sweep": lambda c, a, r: c.update(
        {"network.error_rows": sum(row.error is not None for row in r)}),
    "dynamics.populations_closed_form": lambda c, a, r: c.update(
        {"dynamics.time_points_evaluated": r.shape[0]}),
    "synth.gen_thermal_shots": lambda c, a, r: c.update(
        {"synth.shots_generated": r.shape[0]}),
}


def _no_root(counts, exc):
    if isinstance(exc, NoRootFound):
        counts["network.no_root_found"] += 1
        counts["network.rejected_as_poles"] += exc.diagnostics.get("n_rejected_as_poles", 0)


# Counts taken from an exception escaping a wrapped call.
_ON_RAISE = {"network.filter_frequency_exact": _no_root}


class Tracer:
    """Spans of one CLI call, kept in memory until the call returns."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        on_return, on_raise = _ON_RETURN.get(name), _ON_RAISE.get(name)
        signature = inspect.signature(fn) if on_return else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise:
                    on_raise(counts, exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_return:
                on_return(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def summary(self, t0: float, run_s: float) -> dict:
        """Per-function time and calls, per-layer self time, span coverage."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        inclusive, calls = Counter(), Counter()
        self_s = Counter({layer: 0.0 for layer in LAYERS})
        root_s = 0.0
        for k, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += dur - child_s[k]
            if parent < 0:
                root_s += dur
            if not _has_ancestor(spans, parent, name):
                inclusive[name] += dur
        return {
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "coverage": root_s / run_s if run_s > 0 else 0.0,
            "n_spans": len(spans),
            "spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                      for n, s, e, p in spans],
        }


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every layer; return what is covered."""
    modules = {layer: importlib.import_module(f"fluxline.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                    or attr.startswith("_")
                    or (layer == "cli" and not attr.startswith("cmd_"))
                    or f"{layer}.{attr}" in NOT_WRAPPED):
                continue
            wrappers[obj] = (f"{layer}.{attr}", tracer.wrap(f"{layer}.{attr}", obj))
    aliases = []
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                name, wrapper = wrappers[obj]
                setattr(mod, attr, wrapper)
                if name != f"{layer}.{attr}":
                    aliases.append(f"{layer}.{attr} -> {name}")
    commands = modules["cli"]._COMMANDS
    for key, fn in list(commands.items()):
        if fn in wrappers:
            commands[key] = wrappers[fn][1]
    return {"wrapped": sorted(name for name, _ in wrappers.values()),
            "aliases": sorted(aliases),
            "not_wrapped": sorted(NOT_WRAPPED)}
