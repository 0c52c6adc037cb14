"""Span recorder that times the package's layers from outside.

``Tracer.install`` replaces every public function of the traced modules at
the module attribute where callers look it up (``simulate.advance`` inside
``simulate``, ``kummer_phi`` in both ``specfun`` and ``analytic``, and so
on) with a wrapper that records one span: name, start, end and parent.
Spans live in flat integer arrays until ``write_jsonl`` at the end, and
``uninstall`` puts the original functions back, so untimed and timed
passes run the package unmodified.

The recorder keeps one span stack, so it assumes the traced calls run on
one thread (the benchmark fixes ``OUBV_THREADS=1``).
"""

from __future__ import annotations

import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("specfun", "analytic", "simulate", "harness", "cli")

# Span attributes measured at the boundary: switches drawn by ``advance``
# (the ``nswitch`` delta on its ChainState), replicates asked of
# ``falling_times``, bytes of the replicate values a sampler hands back.
ATTRS = ("switches", "replicates", "bytes")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = array("q")        # name id, start ns, end ns, parent
        self.attr: dict[int, tuple[str, int]] = {}   # span index -> measure
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, measure=None):
        nid = self._name_id(name)
        rec, stack, clock = self.rec, self._stack, time.perf_counter_ns
        attr = self.attr

        def span(*args, **kwargs):
            idx = len(rec) // 4
            rec.extend((nid, 0, 0, stack[-1]))
            stack.append(idx)
            before = measure.before(args) if measure else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[4 * idx + 1] = t0
                rec[4 * idx + 2] = t1
            if measure:
                attr[idx] = measure.after(args, out, before)
            return out

        span.__wrapped__ = fn
        span._traced = True
        return span

    def _wrap_factory(self, name: str, factory):
        """A functional factory: the functional it returns is traced too."""
        inner = self._wrap(name, factory)
        sampler_name = f"{name.split('.')[0]}.functional"

        def make(*args, **kwargs):
            functional = inner(*args, **kwargs)
            if getattr(functional, "_traced", False):
                return functional
            return self._wrap(sampler_name, functional, _ReturnedBytes)

        make.__wrapped__ = factory
        return make

    def install(self, modules) -> None:
        """Wrap public functions of the traced layers in every module given."""
        by_fn: dict[object, object] = {}
        for module in modules:
            for attr_name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or attr_name.startswith("_"):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in LAYERS or attr_name != obj.__name__:
                    continue
                if obj not in by_fn:
                    name = f"{layer}.{attr_name}"
                    if layer == "simulate" and attr_name.startswith("functional_"):
                        by_fn[obj] = self._wrap_factory(name, obj)
                    else:
                        by_fn[obj] = self._wrap(name, obj, _MEASURES.get(name))
                self._saved.append((module, attr_name, obj))
                setattr(module, attr_name, by_fn[obj])

    def uninstall(self) -> None:
        for module, attr_name, obj in reversed(self._saved):
            setattr(module, attr_name, obj)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        rec = np.frombuffer(self.rec, dtype=np.int64).reshape(-1, 4)
        cols = {"name": rec[:, 0], "start": rec[:, 1], "end": rec[:, 2],
                "parent": rec[:, 3]}
        for key in ATTRS:
            cols[key] = np.zeros(rec.shape[0], dtype=np.int64)
        for idx, (key, value) in self.attr.items():
            cols[key][idx] = value
        return cols

    def write_jsonl(self, path) -> None:
        cols = self.table()
        with open(path, "w") as out:
            for i in range(cols["name"].size):
                row = {"id": i, "name": self.names[cols["name"][i]],
                       "start_ns": int(cols["start"][i]),
                       "end_ns": int(cols["end"][i]),
                       "parent": int(cols["parent"][i])}
                for key in ATTRS:
                    if cols[key][i]:
                        row[key] = int(cols[key][i])
                out.write(json.dumps(row) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outer calls, inclusive and self seconds.

        An outer call is one not made by the same function (recursion in
        ``kummer_phi`` and ``quad_interval`` counts in ``calls`` only).
        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        cols = self.table()
        name, parent = cols["name"], cols["parent"]
        dur = (cols["end"] - cols["start"]).astype(np.float64) * 1e-9
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        outer = np.ones(dur.size, dtype=bool)
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            if not sel.any():
                continue
            entry = {"calls": int(sel.sum()),
                     "outer_calls": int((sel & outer).sum()),
                     "incl_s": float(dur[sel & outer].sum()),
                     "self_s": float(own[sel].sum())}
            for key in ATTRS:
                entry[key] = int(cols[key][sel].sum())
                entry[f"max_{key}"] = int(cols[key][sel].max())
            out[label] = entry
        return out


class _ReturnedBytes:
    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(args, out, before):
        return "bytes", int(np.asarray(out).nbytes)


class _AdvanceSwitches:
    @staticmethod
    def before(args):
        return int(args[0].nswitch.sum())

    @staticmethod
    def after(args, out, before):
        return "switches", int(args[0].nswitch.sum()) - before


class _FallingReplicates:
    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(args, out, before):
        return "replicates", int(np.asarray(out).size)


_MEASURES = {
    "simulate.advance": _AdvanceSwitches,
    "simulate.falling_times": _FallingReplicates,
    "simulate.sample_functional": _ReturnedBytes,
}


def layer_metrics(summary: dict, import_s: float, overhead_s: float,
                  raw_wall_s: float, kernel_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a span summary.

    ``raw_wall_s`` is the untraced pass's wall time and ``kernel_s`` a
    host-kernel time measured after the passes.  A metric of a layer the
    workload does not reach reads 0.
    """
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per_call(name, scale):
        calls = get(name, "outer_calls")
        return get(name, "incl_s") * scale / calls if calls else 0.0

    def per_unit(name, unit):
        count = get(name, unit)
        return get(name, "incl_s") * 1e9 / count if count else 0.0

    m = {
        "simulate.advance.ns_per_replicate_switch":
            (per_unit("simulate.advance", "switches"), "ns"),
        "simulate.advance.self_s": (get("simulate.advance", "self_s"), "s"),
        "simulate.advance.switches": (get("simulate.advance", "switches"), "count"),
        "simulate.sample_functional.calls":
            (get("simulate.sample_functional", "calls"), "count"),
        "simulate.falling_times.ns_per_replicate":
            (per_unit("simulate.falling_times", "replicates"), "ns"),
        "simulate.reduce.self_s":
            (sum(get(f"simulate.{r}", "self_s")
                 for r in ("estimate", "estimate_variance", "histogram")), "s"),
        "simulate.sample.bytes":
            (max(get("simulate.sample_functional", "max_bytes"),
                 get("simulate.functional", "max_bytes")), "B"),
        "analytic.mean_X.ms_per_call": (per_call("analytic.mean_X", 1e3), "ms"),
        "analytic.quad_interval.calls":
            (get("analytic.quad_interval", "calls"), "count"),
        "analytic.occupation_probs.ms_per_call":
            (per_call("analytic.occupation_probs", 1e3), "ms"),
        "analytic.mgf_gamma.ms_per_call": (per_call("analytic.mgf_gamma", 1e3), "ms"),
        "analytic.tau_cross.calls": (get("analytic.tau_cross", "calls"), "count"),
        "specfun.psi_pair.self_s": (get("specfun.psi_pair", "self_s"), "s"),
        "harness.run_check.self_s": (get("harness.run_check", "self_s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (sum(v["calls"] for v in summary.values()), "count"),
        "pass.raw_wall_s": (raw_wall_s, "s"),
        "host.kernel_s": (kernel_s, "s"),
    }
    for kernel in ("kummer_phi", "gauss_2f1", "bessel_i"):
        name = f"specfun.{kernel}"
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in summary.items()
                                    if k.startswith(layer + ".")), "s")
    return m
