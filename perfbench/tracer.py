"""Benchmark-owned span tracing around the public functions of each layer.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
public functions and methods of the ``repro`` package in place, inside the
process that calls it; every call then records one span (name, start, end,
parent, a shared run id, and a few counts read from the arguments or the
result).  Spans stay in memory until :meth:`Tracer.dump` writes them as
JSON lines, one file per process.  :func:`layer_metrics` folds the span
files of one traced run into the per-layer metrics named in
``BENCHMARK.json``.

A layer is the span-name prefix before the first dot (README.md maps each
layer to its modules).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

LAYERS = ("backends", "study", "engine", "scheduler", "table_store", "count",
          "store", "queue", "worker", "server")
BACKENDS = ("reference", "array", "array-batched", "array-jit", "aggregate",
            "group")
ENGINE_MODES = ("dense", "lazy", "object", "serial-fallback")
TABLE_STORE_COUNTERS = ("pairs_loaded", "pairs_spilled",
                        "artifacts_discarded")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None):
        """``fn`` recording one span per call; ``counts(args, kwargs,
        result)`` returns the span's count attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # An interrupted call (a --follow worker stopped by SIGINT)
                # still took its time; it has no counts.
                self.spans.append(
                    (span_id, parent, name, start, time.monotonic(), None)
                )
                raise
            finally:
                stack.pop()
            end = time.monotonic()
            attrs = counts(args, kwargs, result) if counts else None
            self.spans.append((span_id, parent, name, start, end, attrs))
            return result

        return traced

    def dump(self, path, extra=None) -> None:
        """Write every span (and ``extra`` per-process counters) to
        ``path`` as JSON lines."""
        pid = os.getpid()
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "pid": pid, "id": span_id,
                    "parent": parent, "name": name, "start": start,
                    "end": end, "attrs": attrs or {},
                }) + "\n")
            handle.write(json.dumps({
                "run": self.run_id, "pid": pid, "process": extra or {},
            }) + "\n")


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that imported
    it by name (``from .study import execute_cell`` binds a copy)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer, module, attr, name, counts=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, counts))


def _wrap_method(tracer, cls, attr, name, counts=None) -> None:
    if attr in vars(cls):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], counts))


def _batch_units(args, kwargs, result):
    return {
        "units": len(result),
        "batch_units": sum(1 for unit in result if unit[0] == "batch"),
    }


def install(tracer: Tracer) -> None:
    """Wrap each layer's public surface in this process."""
    import repro.serving.server  # noqa: F401 - load every wrapped module
    import repro.serving.worker  # noqa: F401
    from repro.core import backends, scheduler
    from repro.core.aggregate import EventDrivenSimulator
    from repro.core.array_engine import ArraySimulator, EngineCache
    from repro.core.batched_engine import BatchedArraySimulator
    from repro.core.group_engine import GroupCountSimulator
    from repro.experiments import parallel, store, study
    from repro.serving import queue, server, worker
    from repro.serving.store import ShardedResultStore

    _wrap_function(
        tracer, backends, "resolve_backend", "backends.resolve",
        lambda a, k, result: {"backend": result[0].name},
    )
    _wrap_function(tracer, study, "plan_units", "study.plan", _batch_units)
    _wrap_function(tracer, study, "execute_cell", "study.exec")
    _wrap_function(tracer, study, "execute_batch", "study.exec")

    # Engine creation registers each simulator with its shared cache.  Each
    # run span then reports what changed since the simulator's previous
    # span (interactions, kernel interactions, pairs tabulated), so the
    # deltas of nested or repeated run calls add up exactly, and pairs
    # merged from the store during creation never count as tabulated.
    simulators = {}

    def created(args, kwargs, simulator):
        cache = kwargs.get("cache")
        simulators[id(simulator)] = {
            "serial": len(simulators) + 1, "cache": cache,
            "pairs": len(cache.pair_cache) if cache is not None else 0,
            "interactions": 0, "soa": 0,
        }
        return None

    for cls in (backends.ReferenceBackend, backends.ArrayBackend,
                backends.ArrayBatchedBackend, backends.ArrayJitBackend):
        _wrap_method(tracer, cls, "create", "engine.create", created)
        _wrap_method(tracer, cls, "create_batch", "engine.create", created)

    def ran(args, kwargs, result):
        simulator = args[0]
        entry = simulators.setdefault(id(simulator), {
            "serial": len(simulators) + 1, "cache": None, "pairs": 0,
            "interactions": 0, "soa": 0,
        })
        if isinstance(result, list):  # the batched engine: one per lane
            interactions = sum(item.interactions for item in result)
        else:
            interactions = int(simulator.interactions)
        soa = int(getattr(simulator, "soa_interactions", 0))
        attrs = {
            "sim": entry["serial"],
            "mode": simulator.mode,
            "interactions": interactions - entry["interactions"],
            "soa": soa - entry["soa"],
        }
        if hasattr(simulator, "soa_interactions"):
            attrs["soa_counted"] = attrs["interactions"]
        entry["interactions"], entry["soa"] = interactions, soa
        cache = entry["cache"]
        if cache is not None:
            pairs = len(cache.pair_cache)
            attrs["tabulated"] = pairs - entry["pairs"]
            attrs["states"] = cache.codec.size
            attrs["cache"] = id(cache)
            entry["pairs"] = pairs
        return attrs

    for attr in ("run", "run_until", "run_segmented"):
        _wrap_method(tracer, ArraySimulator, attr, "engine.run", ran)
    _wrap_method(tracer, BatchedArraySimulator, "run", "engine.run", ran)

    _wrap_method(
        tracer, scheduler.UniformPairScheduler, "sample_chunk",
        "scheduler.sample", lambda a, k, result: {"pairs": len(result)},
    )
    _wrap_method(tracer, EngineCache, "load_persisted", "table_store.load")
    _wrap_method(
        tracer, EngineCache, "spill", "table_store.spill",
        lambda a, k, result: {"pairs": int(result)},
    )

    def counted(args, kwargs, result):
        return {"events": int(args[0].events)}

    _wrap_method(tracer, GroupCountSimulator, "run", "count.run", counted)
    _wrap_method(tracer, EventDrivenSimulator, "run", "count.run", counted)

    _wrap_method(tracer, store.ResultStore, "append", "store.append")
    _wrap_method(tracer, ShardedResultStore, "append", "store.append")
    _wrap_method(tracer, store.ResultStore, "load", "store.load")
    _wrap_method(tracer, store.ResultStore, "compact", "store.compact")
    # Only the store module's own reference: the queue reads its job
    # manifest through the same function, and those are not result rows.
    store.read_jsonl = tracer.wrap(
        "store.read", store.read_jsonl,
        lambda a, k, result: {"rows": len(result)},
    )

    _wrap_method(tracer, queue.JobQueue, "pending", "queue.pending")
    _wrap_method(
        tracer, queue.JobQueue, "claim", "queue.claim",
        lambda a, k, result: {"won": int(result is not None)},
    )

    worker.execute_unit = tracer.wrap(
        "worker.job", parallel.execute_unit
    )

    for attr in ("submit", "progress", "rows", "rows_csv", "studies"):
        _wrap_method(tracer, server.StudyService, attr, f"server.{attr}")


def process_counters() -> dict:
    """This process's table-store session counters."""
    from repro.core.table_store import session_stats

    stats = session_stats()
    return {key: int(stats.get(key, 0)) for key in TABLE_STORE_COUNTERS}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = [("backends.resolve_s", "s")]
    names += [(f"backends.resolved.{name}", "count") for name in BACKENDS]
    names += [
        ("study.plan_s", "s"), ("study.units", "count"),
        ("study.batch_units", "count"), ("study.exec_s", "s"),
        ("engine.create_s", "s"), ("engine.run_s", "s"),
        ("engine.interactions", "count"),
        ("engine.interactions_per_s", "1/s"),
        ("engine.kernel_share", "ratio"),
        ("engine.tabulated_pairs", "count"),
        ("engine.distinct_states", "count"),
    ]
    names += [(f"engine.mode.{mode}", "count") for mode in ENGINE_MODES]
    names += [
        ("scheduler.sample_s", "s"), ("scheduler.pairs", "count"),
        ("table_store.load_s", "s"), ("table_store.spill_s", "s"),
    ]
    names += [(f"table_store.{key}", "count")
              for key in TABLE_STORE_COUNTERS]
    names += [
        ("count.run_s", "s"), ("count.events", "count"),
        ("count.cells", "count"),
        ("store.append_s", "s"), ("store.appends", "count"),
        ("store.load_s", "s"), ("store.loads", "count"),
        ("store.rows_parsed", "count"), ("store.compact_s", "s"),
        ("queue.pending_s", "s"), ("queue.scans", "count"),
        ("queue.claim_attempts", "count"), ("queue.claim_success", "ratio"),
        ("worker.busy_s", "s"), ("worker.idle_s", "s"),
        ("worker.jobs", "count"),
        ("server.progress_s", "s"), ("server.rows_s", "s"),
        ("server.requests", "count"),
    ]
    names += [(f"self_s.{layer}", "s") for layer in LAYERS]
    return names


def read_spans(paths) -> tuple:
    """Spans and per-process counters from the given span files."""
    spans, processes = [], []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            if "process" in record:
                processes.append(record["process"])
            else:
                spans.append(record)
    return spans, processes


def _has_ancestor(span, by_key, name, exact=False) -> bool:
    """Whether an enclosing span's name equals ``name`` (``exact``) or
    starts with it."""
    parent = by_key.get((span["pid"], span["parent"]))
    while parent is not None:
        if (parent["name"] == name if exact
                else parent["name"].startswith(name)):
            return True
        parent = by_key.get((parent["pid"], parent["parent"]))
    return False


def layer_metrics(spans, processes) -> dict:
    """Per-layer metrics of one traced repetition.

    A ``*_s`` total sums the spans of that name that have no ancestor of
    the same name (``execute_batch`` may fall back to ``execute_cell``;
    ``rows_csv`` calls ``rows``), so nested calls are not counted twice.
    A layer's self time is the sum over its spans of the span's duration
    minus the durations of its direct children.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    child_time = {}
    for span in spans:
        key = (span["pid"], span["parent"])
        child_time[key] = child_time.get(key, 0.0) + (
            span["end"] - span["start"]
        )

    top = {}
    for span in spans:
        if not _has_ancestor(span, by_key, span["name"], exact=True):
            top.setdefault(span["name"], []).append(span)

    def total(name) -> float:
        return sum(s["end"] - s["start"] for s in top.get(name, ()))

    def count(name) -> int:
        return len(top.get(name, ()))

    def attr_sum(name, attr) -> int:
        return sum(s["attrs"].get(attr, 0) for s in top.get(name, ()))

    metrics = {"backends.resolve_s": total("backends.resolve")}
    for backend in BACKENDS:
        metrics[f"backends.resolved.{backend}"] = sum(
            1 for s in top.get("backends.resolve", ())
            if s["attrs"].get("backend") == backend
        )
    metrics["study.plan_s"] = total("study.plan")
    metrics["study.units"] = attr_sum("study.plan", "units")
    metrics["study.batch_units"] = attr_sum("study.plan", "batch_units")
    metrics["study.exec_s"] = total("study.exec")

    # Engine attributes are per-call deltas, so they sum over every run
    # span, nested ones included; modes count simulators by their last run.
    runs = [span for span in spans if span["name"] == "engine.run"]

    def run_sum(attr) -> int:
        return sum(span["attrs"].get(attr, 0) for span in runs)

    interactions = run_sum("interactions")
    run_s = total("engine.run")
    soa_counted = run_sum("soa_counted")
    final_states, final_modes = {}, {}
    for span in sorted(runs, key=lambda span: span["end"]):
        attrs = span["attrs"]
        if "sim" not in attrs:
            continue  # interrupted
        final_modes[(span["pid"], attrs["sim"])] = attrs["mode"]
        if "cache" in attrs:
            final_states[(span["pid"], attrs["cache"])] = attrs["states"]
    metrics.update({
        "engine.create_s": total("engine.create"),
        "engine.run_s": run_s,
        "engine.interactions": interactions,
        "engine.interactions_per_s": interactions / run_s if run_s else 0.0,
        "engine.kernel_share": (
            run_sum("soa") / soa_counted if soa_counted else 0.0
        ),
        "engine.tabulated_pairs": run_sum("tabulated"),
        "engine.distinct_states": sum(final_states.values()),
    })
    for mode in ENGINE_MODES:
        metrics[f"engine.mode.{mode}"] = sum(
            1 for value in final_modes.values() if value == mode
        )

    metrics["scheduler.sample_s"] = total("scheduler.sample")
    metrics["scheduler.pairs"] = attr_sum("scheduler.sample", "pairs")
    metrics["table_store.load_s"] = total("table_store.load")
    metrics["table_store.spill_s"] = total("table_store.spill")
    for key in TABLE_STORE_COUNTERS:
        metrics[f"table_store.{key}"] = sum(
            process.get(key, 0) for process in processes
        )

    metrics["count.run_s"] = total("count.run")
    metrics["count.events"] = attr_sum("count.run", "events")
    metrics["count.cells"] = count("count.run")

    metrics["store.append_s"] = total("store.append")
    metrics["store.appends"] = count("store.append")
    metrics["store.load_s"] = total("store.load")
    metrics["store.loads"] = count("store.load")
    metrics["store.rows_parsed"] = attr_sum("store.read", "rows")
    metrics["store.compact_s"] = total("store.compact")

    attempts = count("queue.claim")
    metrics["queue.pending_s"] = total("queue.pending")
    metrics["queue.scans"] = count("queue.pending")
    metrics["queue.claim_attempts"] = attempts
    metrics["queue.claim_success"] = (
        attr_sum("queue.claim", "won") / attempts if attempts else 0.0
    )

    busy = total("worker.job")
    metrics["worker.busy_s"] = busy
    metrics["worker.idle_s"] = max(0.0, total("worker.run") - busy)
    metrics["worker.jobs"] = count("worker.job")

    metrics["server.progress_s"] = total("server.progress")
    metrics["server.rows_s"] = total("server.rows") + total("server.rows_csv")
    # One request enters the service through exactly one outermost call.
    metrics["server.requests"] = sum(
        1 for span in spans
        if span["name"].startswith("server.")
        and not _has_ancestor(span, by_key, "server.")
    )

    self_time = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += (span["end"] - span["start"]) - child_time.get(
                (span["pid"], span["id"]), 0.0
            )
    for layer, seconds in self_time.items():
        metrics[f"self_s.{layer}"] = seconds
    return metrics
