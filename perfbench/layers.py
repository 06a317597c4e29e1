"""Per-layer accounting from outside the package.

:class:`LayerTracer` replaces public functions and methods of the
``repro`` layers with timing wrappers, from the benchmark's own files,
without touching ``src/``.  Each wrapper counts calls and accumulates
wall time and *self* time (its duration minus the part covered by
nested wrapped calls on the same thread).  A few wrappers also record
layer counters computed from arguments or results (candidates in and
out of a pruning filter, bytes moved by the cache, simulated cycles).

Names are bound where they are *looked up*: ``repro.mapping.flow``
imports ``bind_candidates`` into its own namespace, so a wrapper must
replace every module attribute that refers to the original object,
not only the defining one.  :meth:`LayerTracer.wrap` does that.

Only the layers the benchmark reports are wrapped; ``obs``, ``perf``,
``chaos``, ``dse`` and ``eval`` stay off the timed path.
"""

from __future__ import annotations

import collections
import functools
import os
import statistics
import sys
import threading
import time

perf_counter = time.perf_counter


class _ThreadState:
    """One thread's call stack and tables; merged when read."""

    __slots__ = ("stack", "stats", "counts", "samples")

    def __init__(self):
        self.stack = []
        #: name -> [calls, total_s, self_s]
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        #: counter name -> value
        self.counts = collections.Counter()
        #: name -> per-call durations (only for sampled wrappers)
        self.samples = collections.defaultdict(list)


class LayerTracer:
    """Installs wrappers, then reports calls, self time and counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def _enter(self):
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        return state, frame, perf_counter()

    def _leave(self, name, state, frame, start, sampled):
        elapsed = perf_counter() - start
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        record = state.stats[name]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame[0]
        if sampled:
            state.samples[name].append(elapsed)

    def count(self, name, amount=1):
        self._state().counts[name] += amount

    def function_wrapper(self, name, func, observe=None, sampled=False):
        """Wrap a plain function (or method, via the class attribute).

        ``observe(tracer, args, result)`` runs after the call with the
        wrapper's clock stopped; it records layer counters.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state, frame, start = tracer._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._leave(name, state, frame, start, sampled)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def generator_wrapper(self, name, func, sampled=False):
        """Wrap a generator function: time spent inside ``next()``.

        Time the consumer spends between items is not the generator's,
        so only the resumptions are timed; calls count iterations
        started (one per generator created).
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            total = 0.0
            state = tracer._state()
            try:
                while True:
                    frame = [0.0]
                    state.stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - start
                        state.stack.pop()
                        if state.stack:
                            state.stack[-1][0] += elapsed
                        record = state.stats[name]
                        record[1] += elapsed
                        record[2] += elapsed - frame[0]
                        total += elapsed
                    yield item
            finally:
                inner.close()
                state.stats[name][0] += 1
                if sampled:
                    state.samples[name].append(total)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, owner, attr, name, observe=None, sampled=False,
             generator=False):
        """Replace ``owner.attr`` (and every alias of it) by a wrapper.

        ``owner`` is a module or a class.  For a module function every
        loaded ``repro`` module attribute bound to the same object is
        replaced too.
        """
        original = getattr(owner, attr)
        if generator:
            wrapper = self.generator_wrapper(name, original, sampled)
        else:
            wrapper = self.function_wrapper(name, original, observe,
                                            sampled)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [module for module_name, module
                       in list(sys.modules.items())
                       if module_name.split(".")[0] == "repro"
                       and getattr(module, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapper)

    def reset(self):
        """Forget everything recorded so far (e.g. during set-up)."""
        with self._lock:
            for state in self._threads:
                state.stats.clear()
                state.counts.clear()
                state.samples.clear()

    def busy(self):
        """Whether any thread is inside a wrapped call right now."""
        with self._lock:
            return any(state.stack for state in self._threads)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self):
        """Merged tables: ``{"stats", "counts", "samples"}``.

        ``stats`` maps a wrapper name to ``[calls, total_s, self_s]``;
        the result is plain JSON so another process can send it.
        """
        stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        counts = collections.Counter()
        samples = collections.defaultdict(list)
        with self._lock:
            for state in self._threads:
                for name, record in list(state.stats.items()):
                    merged = stats[name]
                    for index in range(3):
                        merged[index] += record[index]
                counts.update(state.counts)
                for name, values in list(state.samples.items()):
                    samples[name].extend(values)
        return {"stats": dict(stats), "counts": dict(counts),
                "samples": dict(samples)}


# ----------------------------------------------------------------------
# What the benchmark wraps
# ----------------------------------------------------------------------
MAPPING_CALLS = ("bind_candidates", "try_bind", "route_to_operand",
                 "route_to_rf", "commit_route", "clone",
                 "finalize_symbols", "update_blacklist",
                 "recompute_split")


def _filter_observer(prefix):
    def observe(tracer, args, result):
        tracer.count(f"{prefix}.in", len(args[0]))
        tracer.count(f"{prefix}.kept", len(result))
    return observe


def _size_of(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _observe_store(tracer, args, result):
    tracer.count("runtime.cache.store_point.bytes", _size_of(result))


def _observe_get(tracer, args, result):
    if result is None:
        return
    from repro.runtime.cache import point_key

    cache, spec = args[0], args[1]
    tracer.count("runtime.cache.get_point.hits")
    tracer.count("runtime.cache.get_point.bytes",
                 _size_of(cache.path_for(point_key(spec))))


def _observe_sim(tracer, args, result):
    tracer.count("sim.cycles", result.cycles)


def install_compute_layers(tracer):
    """Wrap the mapper, codegen, sim, power, verify and runtime layers."""
    import repro.codegen.assembler
    import repro.mapping.binder
    import repro.mapping.blacklist
    import repro.mapping.flow
    import repro.mapping.pruning
    import repro.mapping.routing
    import repro.mapping.scheduler
    import repro.mapping.transforms
    import repro.runtime.backends
    import repro.runtime.pool
    import repro.runtime.stream
    import repro.runtime.sweep
    from repro.mapping.result import BlockMapping
    from repro.mapping.state import PartialMapping
    from repro.power.energy import EnergyModel
    from repro.runtime.cache import ResultCache
    from repro.sim.cgra import CGRASimulator

    mapping = repro.mapping
    tracer.wrap(mapping.binder, "bind_candidates",
                "mapping.bind_candidates")
    tracer.wrap(mapping.binder, "try_bind", "mapping.try_bind")
    tracer.wrap(mapping.routing, "route_to_operand",
                "mapping.route_to_operand")
    tracer.wrap(mapping.routing, "route_to_rf", "mapping.route_to_rf")
    tracer.wrap(mapping.routing, "commit_route", "mapping.commit_route")
    tracer.wrap(PartialMapping, "clone", "mapping.clone")
    tracer.wrap(mapping.binder, "finalize_symbols",
                "mapping.finalize_symbols")
    tracer.wrap(mapping.blacklist, "update_blacklist",
                "mapping.update_blacklist")
    tracer.wrap(mapping.transforms, "recompute_split",
                "mapping.recompute_split")
    tracer.wrap(mapping.pruning, "stochastic_prune", "mapping.prune",
                observe=_filter_observer("mapping.prune"))
    tracer.wrap(mapping.pruning, "acmap_filter", "mapping.acmap",
                observe=_filter_observer("mapping.acmap"))
    tracer.wrap(mapping.pruning, "ecmap_filter", "mapping.ecmap",
                observe=_filter_observer("mapping.ecmap"))
    # One backward list schedule per block-mapping attempt; a block
    # that maps constructs exactly one BlockMapping.
    tracer.wrap(mapping.scheduler, "backward_order", "mapping.attempts")
    tracer.wrap(BlockMapping, "__init__", "mapping.blocks_mapped")

    tracer.wrap(repro.codegen.assembler, "assemble", "codegen.assemble")
    tracer.wrap(CGRASimulator, "run", "sim.run", observe=_observe_sim)
    tracer.wrap(EnergyModel, "cgra_energy", "power.cgra_energy")
    # Reference outputs, bit-exact comparison and the output digest.
    tracer.wrap(repro.runtime.backends, "_finish", "kernels.verify")

    tracer.wrap(repro.runtime.sweep, "compute_point",
                "runtime.compute_point")
    tracer.wrap(ResultCache, "store_point", "runtime.cache.store_point",
                observe=_observe_store)
    tracer.wrap(ResultCache, "get_point", "runtime.cache.get_point",
                observe=_observe_get)
    tracer.wrap(repro.runtime.stream, "stream_specs",
                "runtime.stream", generator=True)


def install_server_layers(tracer):
    """Wrap the serve tier's job runner, handlers and journal."""
    import repro.runtime.shard
    from repro.serve.jobs import SweepJob
    from repro.serve.journal import JobJournal
    from repro.serve.server import SweepHandler

    tracer.wrap(repro.runtime.shard, "sweep_json_payload",
                "runtime.shard.sweep_json_payload")
    tracer.wrap(SweepHandler, "do_GET", "serve.server.handler")
    tracer.wrap(SweepHandler, "do_POST", "serve.server.handler")
    # Waiting for a job's next record is the job's time, not the
    # handler's: time it as a child so handler self time excludes it.
    tracer.wrap(SweepJob, "iter_records", "serve.jobs.iter_records",
                generator=True)
    tracer.wrap(JobJournal, "record", "serve.journal.record")

    original_finish = SweepJob.finish

    def finish(job, payload):
        original_finish(job, payload)
        tracer.count("serve.jobs.finished")
        state = tracer._state()
        state.samples["serve.jobs.queue_wait_s"].append(
            job.started - job.created)
        state.samples["serve.jobs.execute_s"].append(
            job.finished - job.started)

    SweepJob.finish = finish


def install_client_layers(tracer):
    """Wrap the client calls one job round trip is made of."""
    from repro.serve.client import SweepClient

    tracer.wrap(SweepClient, "submit", "serve.client.submit",
                sampled=True)
    tracer.wrap(SweepClient, "stream", "serve.client.stream",
                sampled=True, generator=True)
    tracer.wrap(SweepClient, "status", "serve.client.status",
                sampled=True)


# ----------------------------------------------------------------------
# From raw tables to the reported per-layer metrics
# ----------------------------------------------------------------------
def _stat(snap, name, index):
    record = snap["stats"].get(name)
    return record[index] if record else 0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _median_ms(snap, name):
    values = snap["samples"].get(name) or []
    return statistics.median(values) * 1000.0 if values else 0.0


def merge_snapshots(*snaps):
    merged = {"stats": {}, "counts": collections.Counter(),
              "samples": collections.defaultdict(list)}
    for snap in snaps:
        for name, record in snap["stats"].items():
            into = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            for index in range(3):
                into[index] += record[index]
        merged["counts"].update(snap["counts"])
        for name, values in snap["samples"].items():
            merged["samples"][name].extend(values)
    merged["counts"] = dict(merged["counts"])
    merged["samples"] = dict(merged["samples"])
    return merged


def layer_metrics(snap, jobs):
    """``name -> (value, unit)`` for every per-layer metric.

    ``jobs`` is the number of serve jobs the snapshot covers (0 on the
    cold workloads).  A layer that never ran reports 0, and a ratio
    with nothing to divide reports 0.0.
    """
    counts = snap["counts"]
    out = {}
    for call in MAPPING_CALLS:
        out[f"mapping.{call}.calls"] = (
            _stat(snap, f"mapping.{call}", 0), "count")
        out[f"mapping.{call}.self_s"] = (
            _stat(snap, f"mapping.{call}", 2), "s")
    prune_in = counts.get("mapping.prune.in", 0)
    prune_kept = counts.get("mapping.prune.kept", 0)
    out["mapping.prune.in"] = (prune_in, "count")
    out["mapping.prune.kept"] = (prune_kept, "count")
    out["mapping.prune.kept_ratio"] = (_ratio(prune_kept, prune_in),
                                       "ratio")
    for stage in ("acmap", "ecmap"):
        out[f"mapping.{stage}.kept_ratio"] = (
            _ratio(counts.get(f"mapping.{stage}.kept", 0),
                   counts.get(f"mapping.{stage}.in", 0)), "ratio")
    attempts = _stat(snap, "mapping.attempts", 0)
    out["mapping.attempts"] = (attempts, "count")
    out["mapping.failed_attempts"] = (
        attempts - _stat(snap, "mapping.blocks_mapped", 0), "count")

    out["codegen.assemble.self_s"] = (
        _stat(snap, "codegen.assemble", 2), "s")
    out["sim.run.self_s"] = (_stat(snap, "sim.run", 2), "s")
    out["sim.cycles_per_host_s"] = (
        _ratio(counts.get("sim.cycles", 0), _stat(snap, "sim.run", 1)),
        "cycles/s")
    out["power.cgra_energy.self_s"] = (
        _stat(snap, "power.cgra_energy", 2), "s")
    out["kernels.verify.self_s"] = (_stat(snap, "kernels.verify", 2),
                                    "s")

    for op in ("store_point", "get_point"):
        name = f"runtime.cache.{op}"
        out[f"{name}.calls"] = (_stat(snap, name, 0), "count")
        out[f"{name}.self_s"] = (_stat(snap, name, 2), "s")
        out[f"{name}.bytes"] = (counts.get(f"{name}.bytes", 0), "bytes")
    out["runtime.cache.hit_ratio"] = (
        _ratio(counts.get("runtime.cache.get_point.hits", 0),
               _stat(snap, "runtime.cache.get_point", 0)), "ratio")
    out["runtime.shard.sweep_json_payload.self_s"] = (
        _stat(snap, "runtime.shard.sweep_json_payload", 2), "s")
    out["runtime.stream.overhead_s"] = (
        _stat(snap, "runtime.stream", 2), "s")

    out["serve.jobs.queue_wait_ms"] = (
        _median_ms(snap, "serve.jobs.queue_wait_s"), "ms")
    out["serve.jobs.execute_ms"] = (
        _median_ms(snap, "serve.jobs.execute_s"), "ms")
    out["serve.server.requests_per_job"] = (
        _ratio(_stat(snap, "serve.server.handler", 0), jobs), "count")
    out["serve.server.handler_self_s"] = (
        _stat(snap, "serve.server.handler", 2), "s")
    for call in ("submit", "stream", "status"):
        out[f"serve.client.{call}_ms"] = (
            _median_ms(snap, f"serve.client.{call}"), "ms")
    out["serve.journal.record.calls"] = (
        _stat(snap, "serve.journal.record", 0), "count")
    out["serve.journal.record.self_s"] = (
        _stat(snap, "serve.journal.record", 2), "s")
    return out


def deterministic_counts(snap):
    """The counts that must not depend on the host or hash seed."""
    counts = {name: record[0] for name, record in snap["stats"].items()}
    counts.update({name: value for name, value in snap["counts"].items()
                   if not name.endswith(".bytes")})
    return counts
