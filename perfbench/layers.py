"""Outside-in tracing of thermobit's layers, and direct layer probes.

The tracer replaces public functions with timing wrappers at the module
attributes through which the program looks them up, so nothing under
`src/` changes.  Each call becomes a span (name, start, end, parent);
spans stay in memory and are written out when the benchmark ends.
Counts (random draws, first-passage steps, bytes written) are kept at
the same boundaries, per traced cycle.
"""

import inspect
import math
import os
import pickle
import statistics
import time
from collections import Counter, defaultdict
from functools import partial, wraps

import numpy as np


def _size_of(size):
    if size is None:
        return 1
    return size if isinstance(size, int) else math.prod(size)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and counts recorded by wrappers around public functions."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, on_return=None):
        """Return `fn` wrapped so every call records a span called `name`.

        `on_return(counts, parent_name, args, kwargs, result)` runs after
        the call, outside the span, to update counts.
        """
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                             self.parent, self._stack)
        counts = self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(counts, names[stack[-1]] if stack else "", args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_return=None):
        original = getattr(owner, attr, None)
        if original is None:  # the program no longer has this layer
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Wrap every traced layer of thermobit where it is looked up."""
        from thermobit import capacitor, cli, doublewell, ensemble
        from thermobit.streams import RngStream

        def drawn(kind):
            def hook(counts, parent, args, kwargs, result):
                size = args[1] if len(args) > 1 else kwargs.get("size")
                counts[kind, parent] += _size_of(size)
            return hook

        def write_steps(counts, parent, args, kwargs, result):
            counts["write_steps"] += result.n_samples - 1

        def traj_steps(fn):
            def hook(counts, parent, args, kwargs, result):
                n = _arg(fn, args, kwargs, "n_traj")
                steps = math.ceil(_arg(fn, args, kwargs, "t_total") / _arg(fn, args, kwargs, "dt"))
                counts["traj_steps", fn.__name__] += n * steps
            return hook

        escape = doublewell.measure_escape_time

        def escape_steps(counts, parent, args, kwargs, result):
            n = _arg(escape, args, kwargs, "n_traj")
            counts["escape_traj"] += n
            counts["escape_steps"] += round(result[0] / _arg(escape, args, kwargs, "dt") * n)

        def file_bytes(counts, parent, args, kwargs, result):
            counts["bytes_written"] += os.path.getsize(args[0])

        self.patch(ensemble, "make_stream", "streams.make_stream")
        self.patch(doublewell, "make_stream", "streams.make_stream")
        self.patch(RngStream, "standard_normal", "streams.standard_normal", drawn("draws"))
        self.patch(RngStream, "uniform", "streams.uniform", drawn("uniform"))
        self.patch(RngStream, "integers", "streams.integers")
        self.patch(capacitor, "ou_sample_stationary", "ou.ou_sample_stationary")
        self.patch(capacitor, "write_bit", "capacitor.write_bit", write_steps)
        self.patch(capacitor, "erase", "capacitor.erase")
        self.patch(capacitor, "run_erasure_experiment", "capacitor.run_erasure_experiment")
        self.patch(capacitor, "estimate_error_prob", "infotheory.estimate_error_prob")
        self.patch(capacitor, "run_parallel_ensemble", "ensemble.run_parallel_ensemble")
        self.patch(cli, "run_parallel_ensemble", "ensemble.run_parallel_ensemble")
        for fn_name in ("relax_ensemble", "heated_erase"):
            self.patch(doublewell, fn_name, "doublewell." + fn_name,
                       traj_steps(getattr(doublewell, fn_name)))
        self.patch(doublewell, "measure_escape_time", "doublewell.measure_escape_time",
                   escape_steps)
        self.patch(doublewell, "sample_well", "doublewell.sample_well")
        self.patch(cli, "write_csv", "reporting.write_csv", file_bytes)
        self.patch(cli, "write_manifest", "reporting.write_manifest", file_bytes)

    def take_counts(self):
        """Return the counts recorded since the last call, and reset them."""
        out = Counter(self.counts)
        self.counts.clear()
        return out

    def arrays(self):
        return (np.array(self.start), np.array(self.end),
                np.array(self.parent, dtype=np.int64))

    def save(self, path):
        start, end, parent = self.arrays()
        labels = sorted(set(self.names))
        code = {label: i for i, label in enumerate(labels)}
        np.savez_compressed(path, start=start, end=end, parent=parent,
                            name=np.array([code[n] for n in self.names], dtype=np.int32),
                            labels=np.array(labels))


def self_times(start, end, parent):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; their union, clipped to the
    parent's interval, is what is subtracted.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    children = defaultdict(list)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(i)
    covered = np.zeros(start.size)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        spans = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        total, cur_s, cur_e = 0.0, None, None
        for s, e in spans:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        covered[p] = total
    return (end - start) - covered


class LayerStats:
    """Per-name span totals over a set of index ranges (traced cycles)."""

    def __init__(self, tracer, self_s, ranges, counts):
        start, end, _ = tracer.arrays()
        mask = np.zeros(len(tracer.names), dtype=bool)
        for lo, hi in ranges:
            mask[lo:hi] = True
        self.cycles = len(ranges)
        self.calls = Counter()
        self.first_calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        lo0, hi0 = ranges[0]
        for i in np.nonzero(mask)[0].tolist():
            name = tracer.names[i]
            self.calls[name] += 1
            if lo0 <= i < hi0:
                self.first_calls[name] += 1
            self.incl[name] += end[i] - start[i]
            self.self_s[name] += self_s[i]
        self.counts = sum(counts, Counter())
        self.first_counts = counts[0]

    def has(self, name):
        return self.calls[name] > 0


PER_LAYER_UNITS = {
    "streams.make_stream.us_per_call": "us",
    "streams.make_stream.calls": "count",
    "streams.standard_normal.calls": "count",
    "streams.standard_normal.draws": "count",
    "streams.standard_normal.self_s": "s",
    "streams.ns_per_draw": "ns",
    "ou.ou_sample_stationary.self_s": "s",
    "capacitor.write_bit.us_per_call": "us",
    "capacitor.write_bit.self_s": "s",
    "capacitor.write_bit.draw_use_ratio": "ratio",
    "capacitor.erase.us_per_call": "us",
    "capacitor.erase.self_s": "s",
    "capacitor.erase.draws_per_call": "count",
    "capacitor.run_erasure_experiment.self_s": "s",
    "ensemble.run_parallel_ensemble.self_s": "s",
    "ensemble.w2_speedup": "ratio",
    "ensemble.pool_overhead_us_per_traj": "us",
    "ensemble.result_bytes_per_traj": "bytes",
    "doublewell.relax_ensemble.us_per_traj_step": "us",
    "doublewell.heated_erase.us_per_traj_step": "us",
    "doublewell.measure_escape_time.us_per_traj": "us",
    "doublewell.measure_escape_time.steps_per_traj": "count",
    "doublewell.self_s": "s",
    "doublewell.sample_well.us_per_call": "us",
    "doublewell.sample_well.accept_ratio": "ratio",
    "doublewell.escape.rel_err_2kT": "ratio",
    "doublewell.escape.rel_err_3kT": "ratio",
    "infotheory.estimate_error_prob.self_s": "s",
    "reporting.write_csv.self_s": "s",
    "reporting.write_manifest.self_s": "s",
    "reporting.bytes_written": "bytes",
    "reporting.nonplain_csv_fields": "count",
    "cli.main.self_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.thermobit_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(cycles, probe):
    """Per-layer metrics, each from the workload's traced cycles when the
    workload calls that layer, else from the probe pass over the other
    workloads.  A layer called nowhere reads 0."""
    def pick(name):
        return cycles if cycles.has(name) else probe

    def per_call_us(name):
        s = pick(name)
        return 1e6 * _ratio(s.incl[name], s.calls[name])

    def self_per_cycle(name):
        s = pick(name)
        return s.self_s[name] / s.cycles

    m = {}
    s = pick("streams.make_stream")
    m["streams.make_stream.us_per_call"] = per_call_us("streams.make_stream")
    m["streams.make_stream.calls"] = s.first_calls["streams.make_stream"]

    name = "streams.standard_normal"
    s = pick(name)
    total_draws = sum(v for k, v in s.counts.items() if k[0] == "draws")
    m[name + ".calls"] = s.first_calls[name]
    m[name + ".draws"] = sum(v for k, v in s.first_counts.items() if k[0] == "draws")
    m[name + ".self_s"] = self_per_cycle(name)
    m["streams.ns_per_draw"] = 1e9 * _ratio(s.incl[name], total_draws)

    m["ou.ou_sample_stationary.self_s"] = self_per_cycle("ou.ou_sample_stationary")

    name = "capacitor.write_bit"
    s = pick(name)
    m[name + ".us_per_call"] = per_call_us(name)
    m[name + ".self_s"] = self_per_cycle(name)
    m[name + ".draw_use_ratio"] = _ratio(s.counts["write_steps"], s.counts["draws", name])

    name = "capacitor.erase"
    s = pick(name)
    m[name + ".us_per_call"] = per_call_us(name)
    m[name + ".self_s"] = self_per_cycle(name)
    m[name + ".draws_per_call"] = _ratio(s.first_counts["draws", name], s.first_calls[name])

    for name in ("capacitor.run_erasure_experiment", "ensemble.run_parallel_ensemble"):
        m[name + ".self_s"] = self_per_cycle(name)

    for name in ("relax_ensemble", "heated_erase"):
        s = pick("doublewell." + name)
        m[f"doublewell.{name}.us_per_traj_step"] = (
            1e6 * _ratio(s.incl["doublewell." + name], s.counts["traj_steps", name]))
    name = "doublewell.measure_escape_time"
    s = pick(name)
    m[name + ".us_per_traj"] = 1e6 * _ratio(s.incl[name], s.counts["escape_traj"])
    m[name + ".steps_per_traj"] = _ratio(s.first_counts["escape_steps"],
                                         s.first_counts["escape_traj"])
    s = pick("doublewell.relax_ensemble")
    m["doublewell.self_s"] = sum(v for k, v in s.self_s.items()
                                 if k.startswith("doublewell.")) / s.cycles

    name = "doublewell.sample_well"
    s = pick(name)
    m[name + ".us_per_call"] = per_call_us(name)
    m[name + ".accept_ratio"] = _ratio(s.first_calls[name], s.first_counts["uniform", name])

    for name in ("infotheory.estimate_error_prob", "reporting.write_csv",
                 "reporting.write_manifest", "cli.main"):
        m[name + ".self_s"] = self_per_cycle(name)
    m["reporting.bytes_written"] = pick("reporting.write_csv").first_counts["bytes_written"]
    return m


def time_shares(stats, wall):
    """Self time per span name as a share of the traced cycles' wall time."""
    return {name: round(t / wall, 4) for name, t in
            sorted(stats.self_s.items(), key=lambda kv: -kv[1])}


# --- direct process-pool probe (tasks of the cap_short_pool workload) ---

def _write_task(stream, u0):
    from thermobit.capacitor import write_bit
    from thermobit.ou import CellParams
    wr = write_bit(1, u0, CellParams.reduced(), 0.01, stream)
    return (wr.bath_heat, wr.duration, wr.n_samples, wr.control_cost_lower_bound)


def _erase_task(stream, duration):
    from thermobit.capacitor import erase
    from thermobit.ou import CellParams
    return erase(1.0, duration, CellParams.reduced(), 0.01, stream).bath_heat


def pool_probe(master_seed, n=3000, reps=3):
    """Run the short-pool tasks through run_parallel_ensemble at 1 and 2
    workers, untraced.  Returns w2_speedup (median of reps), pool overhead
    in worker-microseconds per trajectory, and pickled result bytes per
    trajectory."""
    from thermobit.ensemble import run_parallel_ensemble

    tasks = [partial(_write_task, u0=0.5), partial(_erase_task, duration=0.1)]
    speedups, overheads = [], []
    result_bytes = 0
    for rep in range(reps):
        walls = {}
        for workers in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            results = [run_parallel_ensemble(task, n, master_seed, worker_count=workers)
                       for task in tasks]
            walls[workers] = time.perf_counter() - t0
        result_bytes = sum(len(pickle.dumps(r)) for r in results)
        speedups.append(walls[1] / walls[2])
        overheads.append(1e6 * (2 * walls[2] - walls[1]) / (len(tasks) * n))
    return {"ensemble.w2_speedup": statistics.median(speedups),
            "ensemble.pool_overhead_us_per_traj": statistics.median(overheads),
            "ensemble.result_bytes_per_traj": result_bytes / (len(tasks) * n)}
