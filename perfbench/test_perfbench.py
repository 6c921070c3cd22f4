"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracegen  # noqa: E402
import worker  # noqa: E402
from spans import Span, SpanRecorder  # noqa: E402

SMALL = dict(epochs=12, ops_per_pe=256, slice_words=512)


def small_trace(seed: int) -> str:
    out = io.StringIO()
    tracegen.write_trace(out, seed, **SMALL)
    return out.getvalue()


def test_trace_is_a_function_of_the_seed_and_its_size_is_not():
    assert small_trace(3) == small_trace(3)
    assert small_trace(3) != small_trace(4)
    for seed in (3, 4):
        lines = small_trace(seed).splitlines()
        ops = [line for line in lines if " read " in line or " write " in line]
        assert len(ops) == tracegen.n_ops(12, 256)
        assert sum(" write " in line for line in ops) == len(ops) // 4
        assert lines.count("barrier") == 12


@pytest.mark.parametrize("version,oracle", worker.REPLAY_SCHEMES)
def test_bulk_replay_equals_reference_replay(tmp_path, version, oracle):
    from repro.harness.experiment import SCALED_CACHE_BYTES
    from repro.machine.params import t3d
    from repro.trace import TraceProgram

    path = tmp_path / "trace.txt"
    path.write_text(small_trace(7))
    program = TraceProgram.from_text(path)
    params = t3d(program.n_pes, cache_bytes=SCALED_CACHE_BYTES)
    ref = program.replay(params, version, backend="reference", oracle=oracle)
    bulk = program.replay(params, version, backend="batched", oracle=oracle)
    assert bulk.elapsed == ref.elapsed
    assert bulk.stats_dict() == ref.stats_dict()
    assert bulk.epochs == ref.epochs
    for name, values in ref.machine.memory.values.items():
        assert np.array_equal(bulk.machine.memory.values[name], values)
    assert bulk.counters.ops == ref.counters.ops == tracegen.n_ops(12, 256)
    if version == "ccdp":
        assert bulk.counters.bulk_ops > 0      # the bulk path really ran
        assert bulk.counters.fallbacks > 0     # and so did its fallback


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    rec.spans = [Span("a", "farm", -1, 0, 100), Span("b", "harness", 0, 10, 60),
                 Span("c", "runtime", 1, 20, 50), Span("d", "runtime", 0, 70, 80)]
    assert rec.self_ns() == [40, 20, 30, 10]
    assert rec.self_by([s.layer for s in rec.spans]) == pytest.approx(
        {"farm": 40e-9, "harness": 20e-9, "runtime": 40e-9})


def test_patch_records_nested_spans_and_restores():
    class Owner:
        @classmethod
        def build(cls, x):
            return x + 1

    module = types.SimpleNamespace(outer=None)
    module.outer = lambda x: Owner.build(x) * 2
    original = Owner.__dict__["build"]
    rec = SpanRecorder()
    rec.patch(Owner, "build", "trace", "scan",
              on_result=lambda span, r: span.attrs.update(r=r))
    rec.patch(module, "outer", "farm", "dispatch",
              attrs_of=lambda a, k: {"x": a[0]})
    assert module.outer(3) == 8
    outer, inner = rec.spans
    assert (outer.name, outer.parent, outer.attrs) == ("dispatch", -1,
                                                       {"x": 3})
    assert (inner.name, inner.parent, inner.attrs) == ("scan", 0, {"r": 4})
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    rec.restore()
    assert Owner.__dict__["build"] is original
    assert module.outer(3) == 8 and len(rec.spans) == 2


def test_timer_scales_each_cell_by_the_probed_speed(monkeypatch):
    # A host at half the reference speed: every probe takes twice as long.
    monkeypatch.setattr(worker, "probe", lambda: 2 * worker.PROBE_REF_S)
    monkeypatch.setattr(worker, "SAMPLE_S", 0.01)
    with worker.Timer() as timer:
        for _ in range(3):
            end = time.perf_counter() + 0.03
            while time.perf_counter() < end:
                pass
            timer.tick()
    assert len(timer.cells_s) == len(timer.cells_ref_s) == 3
    assert sum(timer.cells_s) == pytest.approx(timer.wall_s, abs=1e-3)
    assert timer.wall_ref_s == pytest.approx(timer.wall_s / 2)
    assert timer.cpu_ref_s == pytest.approx(timer.cpu_s / 2)
    for raw, ref in zip(timer.cells_s, timer.cells_ref_s):
        assert ref == pytest.approx(raw / 2)
    assert len(timer._samples) > 3          # the timer signal sampled too


def test_tail_level_leaves_ten_cells_beyond():
    assert run.tail_level(60) == pytest.approx(50 / 60)
    assert run.tail_level(10) == 1.0


def test_tail_is_the_cell_with_ten_beyond_it():
    values = [float(v) for v in range(60, 0, -1)]
    assert run.tail(values) == 50.0
    assert run.tail([4.0, 1.0]) == 4.0


def test_traced_fuzz_unit_produces_every_declared_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = SpanRecorder()
    worker.install_spans(rec)
    try:
        out = worker.run_fuzz({"fuzz_start": 0, "fuzz_seeds": 2,
                               "fuzz_pes": 4}, None)
    finally:
        rec.restore()
    assert out["failures"] == [] and out["attempted"] == 2 and out["refs"]
    out.update(end=1.0, spawned=0.0, setup_scale=1.0)
    out["layers"] = worker.layer_metrics(rec, out)
    layer = run.per_layer(dict(out, wall_s=out["wall_s"]), out)
    run.select(layer, bench["per_layer"])
    assert layer["coherence.transforms"] == 2
    assert layer["harness.compare_backends_s"] > 0
    e2e = run.end_to_end([dict(out, peak_rss_mb=1.0)],
                         [{"setup_s": 0.6, "setup_ref_s": 0.5}])
    run.select(e2e, bench["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
