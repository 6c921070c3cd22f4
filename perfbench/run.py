"""Cold end-to-end benchmark of the CCDP reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 8 --trace 0

``--workload all`` runs the four workloads in turn, each with its own
report and JSON line.  Workloads (README.md in this directory says why
each exists):

* ``table1`` — the Table-1 grid: seq@1 plus base and ccdp at 1-64 PEs
  over the four kernels (60 cells), batched backend, ephemeral farm;
* ``table3`` — the Table-3 protocol race: seq@1 plus ccdp, mesi, dir
  and dir-lp at 4 and 16 PEs (36 cells), journaled farm in a fresh dir;
* ``replay`` — a seeded ~1M-access text trace replayed under ccdp (bulk
  path) and mesi (oracle armed);
* ``fuzz`` — ``fuzz_seeds`` over a fixed block of 60 generator seeds.

Every unit runs cold in a fresh worker process (``worker.py``).  A run
repeats units until ``--seconds`` of work have accumulated and reports
medians; set-up is timed in extra fresh processes too.  Host times are
scaled to a reference speed by a probe of the host's speed that the
worker runs beside the work (``worker.Timer``), so that the drift of a
shared host's speed cancels out; the report prints the measured values
beside them.  With
``--trace 0`` the last stdout line carries every ``end_to_end`` metric
of ``BENCHMARK.json``; with ``--trace 1`` the run makes one untraced and
one traced unit and carries every ``per_layer`` metric instead.  Lines
before it print every metric by name with its unit, the simulated
outputs and their digest.  Exit status: 0 on a completed run (the JSON
says whether outputs were correct), 1 when a worker fails, 2 when the
checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracegen  # noqa: E402

WORKLOADS = ("table1", "table3", "replay", "fuzz")
#: fresh-process set-ups per run: each unit's own, topped up with
#: set-up-only processes
SETUPS = 3
#: the fuzz unit's generator seeds, a fixed block: per-program cost varies
#: about tenfold between generator seeds, so a block drawn from ``--seed``
#: would spread every time metric across seeds by more than its bound
FUZZ_START, FUZZ_SEEDS = 0, 60
#: PEs of each fuzz cell
FUZZ_PES = 4
#: a run stops starting units after this many seconds
RUN_BUDGET_S = 100.0
#: a run ends within this many seconds: a worker still running then is
#: killed and the run fails
RUN_LIMIT_S = 170.0
#: outputs (span dumps) and per-run scratch live here, in the checkout
OUT_DIR = ROOT / ".perfbench"


class WorkerError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=8.0,
                   help="seconds of work (at the reference speed) after "
                        "which no further unit is started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """The workload's inputs, all derived from ``seed``."""
    spec = {"workload": workload, "seed": seed, "tmp_dir": str(work)}
    if workload == "replay":
        path = work / "trace.txt"
        with open(path, "w") as fh:
            spec["expected_ops"] = tracegen.write_trace(fh, seed)
        spec["trace_path"] = str(path)
    elif workload == "fuzz":
        spec.update(fuzz_start=FUZZ_START, fuzz_seeds=FUZZ_SEEDS,
                    fuzz_pes=FUZZ_PES)
    return spec


def spawn(spec: dict, work: Path, tag: str, deadline: float, *,
          setup_only: bool = False, trace: bool = False) -> dict:
    """Run one fresh worker process; returns its measurements plus
    ``setup_s`` (spawn to ready, on the shared monotonic clock)."""
    spec_path, out_path = work / f"spec-{tag}.json", work / f"out-{tag}.json"
    spans = OUT_DIR / f"spans-{spec['workload']}-seed{spec['seed']}.jsonl"
    spec_path.write_text(json.dumps(dict(spec, setup_only=setup_only,
                                         trace=trace,
                                         spans_path=str(spans))))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(out_path)],
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
            timeout=max(0.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {tag} still running after "
                          f"{RUN_LIMIT_S:.0f} s of the run")
    if proc.returncode != 0:
        raise WorkerError(f"worker {tag} exited with {proc.returncode}")
    result = json.loads(out_path.read_text())
    result["setup_s"] = result["ready"] - start
    result["setup_ref_s"] = result["setup_s"] * result["setup_scale"]
    result["spawned"] = start
    return result


def tail_level(n: int) -> float:
    """The highest percentile (as a fraction) of ``n`` cells that has at
    least ten cells beyond it; the maximum when there are fewer than 11."""
    return (n - 10) / n if n > 10 else 1.0


def tail(values) -> float:
    """The cell time at ``tail_level``: the eleventh slowest cell (the
    slowest when there are fewer than 11)."""
    xs = sorted(values)
    return xs[-11] if len(xs) > 10 else xs[-1]


def end_to_end(reps, setups, ref: bool = True) -> dict:
    """The end-to-end metrics, medians over units and set-ups; host
    times at the reference speed (``ref``) or as measured."""
    med = statistics.median
    x = "_ref" if ref else ""
    cells = f"cells{x}_s"
    return {
        "wall_s": med(r[f"wall{x}_s"] for r in reps),
        "cpu_s": med(r[f"cpu{x}_s"] for r in reps),
        "setup_s": med(s[f"setup{x}_s"] for s in setups),
        "refs_per_s": med(r["refs"] / r[f"wall{x}_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "cell_p50_ms": med(1e3 * med(r[cells]) for r in reps),
        "cell_tail_ms": med(1e3 * tail(r[cells]) for r in reps),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced unit, plus the tracing overhead:
    traced minus untraced wall time of the work, at the reference
    speed."""
    out = dict(traced["layers"])
    out["tracing.overhead_s"] = traced["wall_ref_s"] - untraced["wall_ref_s"]
    return out


def select(metrics: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"BENCHMARK.json metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


# -- report ---------------------------------------------------------------------

def report(args, spec, reps, setups, e2e, raw, failures, attempted,
           declared: list) -> None:
    w = spec["workload"]
    first = reps[0]
    fixed = "the seed does not change it"
    note = {"table1": f"deterministic grid; {fixed}",
            "table3": f"deterministic grid; {fixed}",
            "replay": f"{spec.get('expected_ops', 0):,}-access trace",
            "fuzz": f"generator seeds {FUZZ_START}.."
                    f"{FUZZ_START + FUZZ_SEEDS - 1} at {FUZZ_PES} PEs; "
                    f"{fixed}"}[w]
    print(f"perfbench {w}: seed {args.seed} ({note}); {len(reps)} cold "
          f"unit(s), {len(setups)} fresh set-ups")
    print(f"  host times at the reference speed (README.md), as measured "
          f"in brackets: the host ran at "
          f"{e2e['wall_s'] / raw['wall_s']:.2f}x the reference speed")
    n_cells = len(first["cells_s"])
    p = 100 * tail_level(n_cells)
    units = {m["name"]: m["unit"] for m in declared}
    notes = {"setup_s": f"median of {len(setups)} processes",
             "cell_p50_ms": f"{n_cells} cells",
             "cell_tail_ms": f"p{p:.0f}: 10 of {n_cells} cells beyond it",
             "refs_per_s": f"{first['refs']:,} simulated refs per unit"}
    for name, value in e2e.items():
        measured = f"[{raw[name]:.6g}] " if raw[name] != value else ""
        print(f"  {name:<16}{value:>16.6g} {units[name]:<4} "
              f"{measured}{notes.get(name, '')}")
    rate = len(failures) / attempted if attempted else 1.0
    print(f"  {'fail_rate':<16}{rate:>16.6g} {'':<4} "
          f"{len(failures)} failed / {attempted} attempted")
    for failure in failures[:20]:
        print(f"    FAILED {failure}")
    if first.get("table2"):
        rows = first["table2"]
        err = statistics.mean(abs(sim - paper) for _, _, sim, paper in rows)
        print(f"  {'table2_err_pct':<16}{err:>16.6g} {'%':<4} mean |sim - "
              f"paper| over {len(rows)} recoverable Table-2 cells")
        print("  Table 2, CCDP over BASE (%):  kernel PEs  sim  paper")
        for kernel, pes, sim, paper in rows:
            print(f"    {kernel:<8}{pes:>4}{sim:>9.2f}{paper:>8.2f}")
    print(f"  sim_digest      {first['sim_digest']}")
    label = "outcome" if w == "fuzz" else "simulated cycles"
    print(f"  per-cell {label}:")
    for cell in first["cells"]:
        value = cell[1]
        print(f"    {cell[0]:<24} "
              f"{value if isinstance(value, str) else f'{value:.0f}'}")
    for version, ops, bulk, runs, falls in first.get("replay_counters", []):
        print(f"    replay/{version}: {ops:,} ops, {bulk:,} bulk in {runs} "
              f"runs, {falls} fallbacks")


def report_traced(untraced: dict, traced: dict, layer: dict,
                  declared: list) -> None:
    base = traced["end"] - traced["spawned"]
    base_ref = base * traced["wall_ref_s"] / traced["wall_s"]
    b = traced["breakdown"]
    print(f"traced unit: {b['spans']} spans; work {traced['wall_ref_s']:.4f} s "
          f"traced vs {untraced['wall_ref_s']:.4f} s untraced at the "
          f"reference speed (tracing.overhead_s "
          f"{layer['tracing.overhead_s']:+.4f} s); spawn to end of work "
          f"took {base:.4f} s as measured")
    for key in ("layer", "kernel", "scheme"):
        rows = sorted(b[key].items(), key=lambda kv: -kv[1])
        if not rows:
            continue
        print(f"  self time by {key}, as measured: " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / base:.1f} %)" for k, v in rows))
    print(f"  per-layer metrics (times at the reference speed; shares of "
          f"spawn to end, {base_ref:.4f} s at the unit's mean speed):")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in layer.items():
        unit = units.get(name, "")
        share = f"  ({100 * value / base_ref:.1f} %)" if unit == "s" else ""
        print(f"    {name:<34}{value:>14.6g} {unit}{share}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run_workload(args, workload, bench)
        if status:
            return status
    return 0


def run_workload(args, workload: str, bench: dict) -> int:
    """Measure one workload and print its report and JSON line."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = OUT_DIR / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = make_inputs(workload, args.seed, work)
        if args.trace:
            reps = [spawn(spec, work, "untraced", deadline),
                    spawn(spec, work, "traced", deadline, trace=True)]
        else:
            reps = []
            while (not reps or sum(r["wall_ref_s"] for r in reps) < args.seconds
                   and time.monotonic() - started < RUN_BUDGET_S):
                reps.append(spawn(spec, work, f"unit{len(reps)}", deadline))
        setups = list(reps)
        while len(setups) < SETUPS:
            setups.append(spawn(spec, work, f"setup{len(setups)}", deadline,
                                setup_only=True))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in reps for f in r["failures"]]
    digests = {r["sim_digest"] for r in reps}
    if len(digests) > 1:
        failures.append(f"simulated outputs differ between units: {digests}")
    attempted = sum(r["attempted"] for r in reps)
    untraced = reps[:1] if args.trace else reps
    e2e = end_to_end(untraced, setups)
    raw = end_to_end(untraced, setups, ref=False)
    report(args, spec, untraced, setups, e2e, raw, failures, attempted,
           bench["end_to_end"])
    if args.trace:
        layer = per_layer(reps[0], reps[1])
        report_traced(reps[0], reps[1], layer, bench["per_layer"])
        metrics = select(layer, bench["per_layer"])
    else:
        metrics = select(e2e, bench["end_to_end"])
    expected = {"table1": 60, "table3": 36, "replay": 2,
                "fuzz": FUZZ_SEEDS}[workload] * len(reps)
    correct = not failures and attempted == expected and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
