"""One cold benchmark process: set up a workload, then run one unit of it.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/worker.py SPEC.json OUT.json

``SPEC.json`` holds ``workload``, ``setup_only``, ``trace`` and the
workload's generated inputs.  The worker imports ``repro``, builds what
the workload needs before its first cell (the ``setup_*`` functions),
notes the monotonic clock as *ready*, and unless ``setup_only`` runs
the unit and writes its measurements to ``OUT.json``.  With ``trace``
set, spans are recorded around every layer's entry points from the end
of the import onwards (``install_spans``) and the per-layer numbers are
added.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import SpanRecorder  # noqa: E402

#: PE counts of the table3 grid
TABLE3_PES = (4, 16)
#: replay schemes: ccdp has the bulk path, mesi has none (oracle armed)
REPLAY_SCHEMES = (("ccdp", False), ("mesi", True))
#: fallback reasons these workloads hit (always reported, 0 when absent);
#: any other reason the batched runtime records is reported as it occurs
FALLBACK_REASONS = ("protocol", "stale_overlap", "tiny_chunk")
#: every scheme these workloads run, for the per-scheme runtime metrics
SCHEMES = ("seq", "base", "ccdp", "naive", "mesi", "dir", "dir-lp")
#: simulated machine totals reported per workload: metric -> stats key
MACHINE_STATS = {
    "machine.sim_cycles": None,        # sum of elapsed cycles
    "machine.bus_stall_cycles": "bus_stall_cycles",
    "machine.dir_stall_cycles": "dir_stall_cycles",
    "machine.invalidations": "coh_invalidations",
    "machine.c2c": "c2c_transfers",
}


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


#: iterations of the speed probe, and the probe time that defines the
#: reference speed (about the probe's fastest time on a quiet 2-core
#: x86 VM)
PROBE_ITERATIONS = 25_000
PROBE_REF_S = 0.005
#: seconds between two speed samples within a cell
SAMPLE_S = 0.1


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now.  It runs no code of
    the program and its data stay small (a 256-entry dict), so its time
    tracks only how fast the host runs this process at the moment
    (other tenants' load on a shared host), not what the program left
    in the caches."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = table.get(i & 255, 0) + i
        total += len(str(i))
    return time.perf_counter() - start


class Timer:
    """Host time of each cell, ended by each completion callback, as
    measured and scaled to the reference speed.

    The host's speed drifts by half or more within seconds on a shared
    machine, for every process alike.  So the probe samples it every
    ``SAMPLE_S`` (from a timer signal, in this thread) outside the
    measured time, and each stretch between two samples is scaled by
    ``PROBE_REF_S`` over their mean probe time; a cell's *ref* time is
    the scaled time of the stretches it spans, what it would take at
    the reference speed.  ``wall_s`` / ``cpu_s`` (and their ``_ref``
    forms) add up everything from entry to exit, probes excluded."""

    def __enter__(self) -> "Timer":
        self._work = self._work_cpu = 0.0
        #: (work wall s, work cpu s, probe s) at each sample
        self._samples = [(0.0, 0.0, probe())]
        self._ends = []             # work wall s at each cell's end
        self._busy = False
        self._restart()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def _restart(self) -> None:
        self._last, self._cpu = time.perf_counter(), _cpu()

    def _stop(self) -> None:
        self._work += time.perf_counter() - self._last
        self._work_cpu += _cpu() - self._cpu

    def _sample(self, *_signal) -> None:
        """Probe the host's speed; a signal arriving while the clocks
        are being read is dropped."""
        if self._busy:
            return
        self._busy = True
        self._stop()
        self._samples.append((self._work, self._work_cpu, probe()))
        self._restart()
        self._busy = False

    def tick(self, *_args) -> None:
        """End the current cell (the sweeps' completion callback)."""
        self._busy = True
        self._stop()
        self._ends.append(self._work)
        self._restart()
        self._busy = False

    @property
    def n_cells(self) -> int:
        return len(self._ends)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)   # a late alarm
        self._sample()
        walls, cpus, probes = zip(*self._samples)
        scales = [2 * PROBE_REF_S / (a + b)
                  for a, b in zip(probes, probes[1:])]
        ref = [0.0]                 # scaled work time at each sample
        for scale, w0, w1 in zip(scales, walls, walls[1:]):
            ref.append(ref[-1] + scale * (w1 - w0))

        def ref_at(t: float) -> float:
            i = min(bisect.bisect_right(walls, t), len(scales)) - 1
            return ref[i] + scales[i] * (t - walls[i])

        self.wall_s, self.cpu_s, self.wall_ref_s = walls[-1], cpus[-1], ref[-1]
        self.cpu_ref_s = sum(scale * (c1 - c0) for scale, c0, c1
                             in zip(scales, cpus, cpus[1:]))
        bounds = [0.0] + self._ends
        self.cells_s = [b - a for a, b in zip(bounds, bounds[1:])]
        self.cells_ref_s = [ref_at(b) - ref_at(a)
                            for a, b in zip(bounds, bounds[1:])]


# -- set-up ---------------------------------------------------------------------

def setup_grid(spec: dict):
    """Build every kernel's IR and NumPy oracle at default sizes (the
    sweep's runners then find them in the in-process program cache)."""
    from repro.harness import progcache
    from repro.workloads import all_workloads

    for kernel in all_workloads():
        sizes = dict(kernel.default_args)
        progcache.get_program(kernel, sizes)
        progcache.get_oracle(kernel, sizes)
    return None


def setup_replay(spec: dict):
    """Bind and scan the generated text trace."""
    from repro.trace import TraceProgram

    return TraceProgram.from_text(spec["trace_path"])


def setup_fuzz(spec: dict):
    return None


# -- units ----------------------------------------------------------------------

def _grid_result(sweeps, timer: Timer, farm, attempted: int) -> dict:
    from repro.harness.paper_data import paper_improvement
    from repro.runtime import Version

    cells, failures, machine = [], [], dict.fromkeys(MACHINE_STATS, 0.0)
    refs = 0
    for sweep in sweeps:
        records = [sweep.seq] + list(sweep.runs.values())
        for version, pes in sweep.failed:
            failures.append(f"{sweep.workload}/{version}@{pes}: quarantined")
        for record in records:
            if record is None:
                continue
            desc = f"{record.workload}/{record.version}@{record.n_pes}"
            if not record.correct:
                failures.append(f"{desc}: oracle mismatch ({record.error})")
            if record.version in Version.COHERENT and record.stale_reads:
                failures.append(f"{desc}: {record.stale_reads} stale reads")
            refs += int(record.stats["reads"] + record.stats["writes"])
            _add_machine(machine, record.elapsed, record.stats)
            cells.append([desc, record.elapsed, sorted(record.stats.items())])
    table2 = []
    for sweep in sweeps:
        for pes in sweep.complete_pes():
            paper = paper_improvement(sweep.workload, pes)
            if paper is not None:
                table2.append([sweep.workload, pes,
                               sweep.improvement(pes), paper])
    return {"cells": cells, "failures": failures, "refs": refs,
            "machine": machine, "table2": table2,
            "attempted": attempted,
            "farm": {"retries": farm.retries,
                     "quarantined": farm.quarantined}}


def run_table1(spec: dict, state) -> dict:
    from repro.harness import progcache, sweep
    from repro.workloads import all_workloads

    specs = [sweep.SweepSpec.create(kernel.name, backend="batched")
             for kernel in all_workloads()]
    collect: dict = {}
    with Timer() as timer:
        sweeps = sweep.sweep_grid(specs, jobs=1, progress=timer.tick,
                                  collect=collect)
    out = _grid_result(sweeps, timer, collect["farm"],
                       len(sweep.plan_cells(specs)))
    # Cold discipline: no compiled plan may come from an earlier run.
    if progcache.COUNTERS["plan_hits"]:
        out["failures"].append(
            f"warm: {progcache.COUNTERS['plan_hits']} plan cache hits")
    return _finish(out, timer)


def run_table3(spec: dict, state) -> dict:
    from repro.farm import FarmConfig
    from repro.harness import sweep
    from repro.harness.tables import TABLE3_VERSIONS
    from repro.workloads import all_workloads

    specs = [sweep.SweepSpec.create(kernel.name, backend="batched",
                                    pe_counts=TABLE3_PES,
                                    versions=TABLE3_VERSIONS)
             for kernel in all_workloads()]
    collect: dict = {}
    with tempfile.TemporaryDirectory(dir=spec["tmp_dir"]) as farm_dir:
        farm = FarmConfig(jobs=1, farm_dir=farm_dir)
        with Timer() as timer:
            sweeps = sweep.sweep_grid(specs, jobs=1, progress=timer.tick,
                                      farm=farm, collect=collect)
    out = _grid_result(sweeps, timer, collect["farm"],
                       len(sweep.plan_cells(specs)))
    return _finish(out, timer)


def run_replay(spec: dict, program) -> dict:
    from repro.harness.experiment import SCALED_CACHE_BYTES
    from repro.machine.oracle import StaleReadViolation
    from repro.machine.params import t3d

    params = t3d(program.n_pes, cache_bytes=SCALED_CACHE_BYTES)
    cells, failures, counters = [], [], []
    machine = dict.fromkeys(MACHINE_STATS, 0.0)
    refs = 0
    epochs = []
    with Timer() as timer:
        for version, oracle in REPLAY_SCHEMES:
            first = timer.n_cells
            try:
                result = program.replay(params, version, backend="batched",
                                        oracle=oracle, epoch_cb=timer.tick)
            except StaleReadViolation as exc:
                failures.append(f"replay/{version}: oracle: {exc}")
                continue
            finally:
                epochs.append(slice(first, timer.n_cells))
            ops = result.counters.ops
            refs += ops
            if ops != spec["expected_ops"]:
                failures.append(f"replay/{version}: replayed {ops} ops, "
                                f"generated {spec['expected_ops']}")
            stats = result.stats_dict()
            if oracle and stats["stale_reads"]:
                failures.append(f"replay/{version}: {stats['stale_reads']} "
                                f"stale reads under a hardware protocol")
            _add_machine(machine, result.elapsed, stats)
            cells.append([f"replay/{version}@{program.n_pes}",
                          result.elapsed, sorted(stats.items())])
            c = result.counters
            counters.append([version, c.ops, c.bulk_ops, c.bulk_runs,
                             c.fallbacks])
    # A replay cell is one epoch: its time under every replayed scheme.
    timer.cells_s, timer.cells_ref_s = (
        [sum(times) for times in zip(*(cells_s[e] for e in epochs))]
        for cells_s in (timer.cells_s, timer.cells_ref_s))
    out = {"cells": cells, "failures": failures, "refs": refs,
           "machine": machine, "attempted": len(REPLAY_SCHEMES),
           "replay_counters": counters}
    return _finish(out, timer)


def run_fuzz(spec: dict, state) -> dict:
    from repro.harness import equivalence
    from repro.verify import fuzz

    refs = [0]

    def count(fn, stats_of):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stats = stats_of(result)
            refs[0] += int(stats["reads"] + stats["writes"])
            return result
        return counted

    # Count simulated references at the two calls that simulate: the
    # backend comparison runs the program twice (reference + batched,
    # bit-identical stats), the folded trace run once more.
    compare, run = equivalence.compare_backends, fuzz.run_program
    equivalence.compare_backends = count(
        compare, lambda r: {k: 2 * r.stats_batched[k]
                            for k in ("reads", "writes")})
    fuzz.run_program = count(run, lambda r: r.stats.as_dict())
    seeds = list(range(spec["fuzz_start"],
                       spec["fuzz_start"] + spec["fuzz_seeds"]))
    collect: dict = {}
    try:
        with Timer() as timer:
            results = fuzz.fuzz_seeds(seeds, n_pes=spec["fuzz_pes"], jobs=1,
                                      progress=timer.tick, collect=collect)
    finally:
        equivalence.compare_backends, fuzz.run_program = compare, run
    failures = [f"fuzz/{r.describe()}" for r in results if not r.ok]
    cells = [[f"fuzz/seed{r.seed}@{r.n_pes}",
              f"{'ok' if r.ok else 'FAIL'} naive_stale={r.naive_stale} "
              f"trace_events={r.trace_events}"]
             for r in results]
    farm = collect["farm"]
    out = {"cells": cells, "failures": failures, "refs": refs[0],
           "machine": dict.fromkeys(MACHINE_STATS, 0.0),
           "attempted": len(results),
           "farm": {"retries": farm.retries,
                    "quarantined": farm.quarantined}}
    return _finish(out, timer)


UNITS = {
    "table1": (setup_grid, run_table1),
    "table3": (setup_grid, run_table3),
    "replay": (setup_replay, run_replay),
    "fuzz": (setup_fuzz, run_fuzz),
}


def _add_machine(totals: dict, elapsed: float, stats: dict) -> None:
    for metric, key in MACHINE_STATS.items():
        totals[metric] += elapsed if key is None else stats.get(key, 0)


def _finish(out: dict, timer: Timer) -> dict:
    """Attach the timings and the digest of every simulated output."""
    out.update(wall_s=timer.wall_s, cpu_s=timer.cpu_s,
               wall_ref_s=timer.wall_ref_s, cpu_ref_s=timer.cpu_ref_s,
               cells_s=timer.cells_s, cells_ref_s=timer.cells_ref_s)
    blob = json.dumps(out["cells"], sort_keys=True, default=repr)
    out["sim_digest"] = hashlib.sha256(blob.encode()).hexdigest()
    return out


# -- tracing --------------------------------------------------------------------

def _arg(index: int, name: str):
    """attrs_of hook: the scheme/version argument, positional or not."""
    def attrs(args, kwargs):
        value = args[index] if len(args) > index else kwargs.get(name)
        return {"scheme": value}
    return attrs


def _run_attrs(span, result) -> None:
    total = result.stats.total()
    span.attrs.update(refs=total.reads + total.writes,
                      backend=result.config.backend,
                      batched_coverage=result.batched_coverage,
                      plane_coverage=result.plane_coverage,
                      fallbacks=dict(result.fallback_reasons))


def _replay_attrs(span, result) -> None:
    c = result.counters
    span.attrs.update(ops=c.ops, bulk_ops=c.bulk_ops, fallbacks=c.fallbacks)


def install_spans(rec: SpanRecorder) -> None:
    """Wrap each layer's public entry points where their callers look
    them up (``harness.experiment`` and ``verify.fuzz`` hold their own
    bindings of ``run_program`` / ``check_result`` / ``verify_transform``
    / ``ccdp_transform``; the others are looked up through their module
    or class at call time)."""
    from repro.harness import equivalence, experiment, progcache, sweep
    from repro.obs import fold
    from repro.trace.program import TraceProgram
    from repro.verify import fuzz

    run_hooks = {"attrs_of": _arg(2, "version"), "on_result": _run_attrs}
    rec.patch(progcache, "get_program", "workloads", "build")
    rec.patch(progcache, "get_oracle", "workloads", "oracle")
    rec.patch(progcache, "get_transform", "coherence", "get_transform")
    rec.patch(fuzz, "ccdp_transform", "coherence", "ccdp_transform")
    rec.patch(experiment, "run_program", "runtime", "run", **run_hooks)
    rec.patch(fuzz, "run_program", "runtime", "run", **run_hooks)
    rec.patch(experiment, "check_result", "harness", "check")
    rec.patch(equivalence, "compare_backends", "harness", "compare_backends",
              attrs_of=_arg(2, "version"))
    rec.patch(fuzz, "verify_transform", "verify", "safety")
    rec.patch(fold, "reconcile", "obs", "reconcile")
    rec.patch(TraceProgram, "from_text", "trace", "scan")
    rec.patch(TraceProgram, "replay", "trace", "replay",
              attrs_of=_arg(2, "version"), on_result=_replay_attrs)
    # Cells (the farm's work functions) and the entry points that farm
    # them out; the latter's self time is the farm's overhead.
    rec.patch(sweep, "_run_cell", "harness", "cell",
              attrs_of=lambda a, k: {"kernel": a[0][1].workload,
                                     "scheme": a[0][1].version})
    rec.patch(fuzz, "run_fuzz_cell", "verify", "cell",
              attrs_of=lambda a, k: {"seed": a[0][0]})
    rec.patch(sweep, "sweep_grid", "farm", "dispatch")
    rec.patch(fuzz, "fuzz_seeds", "farm", "dispatch")
    # The benchmark's own speed probe, so no layer's self time holds it.
    rec.patch(sys.modules[__name__], "probe", "bench", "probe")


def layer_metrics(rec: SpanRecorder, out: dict) -> dict:
    """Per-layer numbers of one traced unit: self seconds per entry
    point (``*_s``) and the counts measured at the same boundaries.
    Self seconds are at the reference speed: those of set-up's entry
    points scaled by the host's speed during set-up, the others by its
    mean speed over the unit."""
    from repro.harness import progcache

    unit_scale = out["wall_ref_s"] / out["wall_s"]

    def self_s(layer, name, scheme=None, scale=None):
        return rec.self_by([
            "x" if (s.layer == layer and s.name == name
                    and scheme in (None, s.attrs.get("scheme"))) else None
            for s in rec.spans]).get("x", 0.0) * (scale or unit_scale)

    setup_scale = out["setup_scale"]
    m = {
        "workloads.build_s": self_s("workloads", "build", scale=setup_scale),
        "workloads.oracle_s": self_s("workloads", "oracle",
                                     scale=setup_scale),
        "coherence.transform_s": (self_s("coherence", "get_transform")
                                  + self_s("coherence", "ccdp_transform")),
        "verify.safety_s": self_s("verify", "safety"),
        "harness.check_s": self_s("harness", "check"),
        "harness.compare_backends_s": self_s("harness", "compare_backends"),
        "obs.reconcile_s": self_s("obs", "reconcile"),
        "farm.overhead_s": self_s("farm", "dispatch"),
        "trace.scan_s": self_s("trace", "scan", scale=setup_scale),
        "runtime.plan_hits": progcache.COUNTERS["plan_hits"],
        "runtime.plan_misses": progcache.COUNTERS["plan_misses"],
        "farm.retries": out.get("farm", {}).get("retries", 0),
        "farm.quarantined": out.get("farm", {}).get("quarantined", 0),
    }
    # A transform runs on each program-cache miss and each direct call.
    m["coherence.transforms"] = (
        progcache.COUNTERS["transform_misses"]
        + sum(s.name == "ccdp_transform" for s in rec.spans))
    runs = [s for s in rec.spans if s.layer == "runtime"]
    fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
    batched_refs = covered = plane = 0.0
    for scheme in SCHEMES:
        m[f"runtime.run_s.{scheme}"] = self_s("runtime", "run", scheme)
        m[f"runtime.refs.{scheme}"] = sum(
            s.attrs.get("refs", 0) for s in runs
            if s.attrs["scheme"] == scheme)
    for s in runs:
        for reason, count in s.attrs.get("fallbacks", {}).items():
            fallbacks[reason] = fallbacks.get(reason, 0) + count
        if s.attrs.get("backend") == "batched":
            batched_refs += s.attrs["refs"]
            covered += s.attrs["batched_coverage"] * s.attrs["refs"]
            plane += s.attrs["plane_coverage"] * s.attrs["refs"]
    m["runtime.batched_coverage"] = covered / batched_refs if batched_refs else 0.0
    m["runtime.plane_coverage"] = plane / batched_refs if batched_refs else 0.0
    for reason, count in fallbacks.items():
        m[f"runtime.fallback.{reason}"] = count
    replays = [s for s in rec.spans if s.layer == "trace" and s.name == "replay"]
    for scheme, _ in REPLAY_SCHEMES:
        m[f"trace.replay_s.{scheme}"] = self_s("trace", "replay", scheme)
    bulk = [s for s in replays if s.attrs["scheme"] == "ccdp"]
    ops = sum(s.attrs["ops"] for s in bulk)
    m["trace.bulk_frac"] = (sum(s.attrs["bulk_ops"] for s in bulk) / ops
                            if ops else 0.0)
    m["trace.fallbacks"] = sum(s.attrs["fallbacks"] for s in replays)
    m.update(out["machine"])
    return m


def breakdown(rec: SpanRecorder) -> dict:
    """Self seconds by layer, and by the kernel / scheme each span
    works for, for the traced report."""
    return {"layer": rec.self_by([s.layer for s in rec.spans]),
            "kernel": rec.self_by(rec.inherited("kernel")),
            "scheme": rec.self_by(rec.inherited("scheme")),
            "spans": len(rec.spans)}


# -- main -----------------------------------------------------------------------

def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    setup, run = UNITS[spec["workload"]]
    rec = SpanRecorder() if spec["trace"] else None
    with Timer() as timer:
        # Set-up starts with what the ``ccdp`` command line imports.
        import repro.harness.cli  # noqa: F401

        if rec is not None:
            install_spans(rec)
        state = setup(spec)
    out = {"ready": time.monotonic(),
           # the host's speed during set-up, relative to the reference
           "setup_scale": timer.wall_ref_s / timer.wall_s}
    if not spec["setup_only"]:
        out.update(run(spec, state))
        out["end"] = time.monotonic()
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec is not None:
            rec.restore()
            out["layers"] = layer_metrics(rec, out)
            out["breakdown"] = breakdown(rec)
            rec.dump(spec["spans_path"])
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
