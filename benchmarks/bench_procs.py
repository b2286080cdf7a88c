"""Experiment E9 — the multi-process soak and its scaling gates.

Soaks :class:`~repro.runtime.procs.ProcessRuntime` on the fork-heavy
deep shape (dispatches x mids x leaves, every join TJ-SP-verified) and
asserts the properties the multi-process runtime claims:

* the run **never diverges** from the single-process threaded reference
  — same subtree results, zero rejected joins, zero worker deaths;
* the overwhelming majority of joins are local (joiner forked in the
  same process) — only the dispatched tasks' own joins are
  cross-process, so that share (``escalation_ratio``) must stay a
  small minority;
* at full parameters the soak verifies **over one million tasks across
  at least four workers**;
* aggregate verified tasks/second reaches **>=3x** the single-process
  threaded baseline — *when the box can actually run the pool in
  parallel*.  The speedup gate conditions on ``cpu_count >= workers+1``
  because on fewer cores the pool pays IPC for no parallelism; the
  measured cpu count and the honest speedup are recorded either way.

The measurement merges into ``BENCH_runtime.json`` (schema v5's
``procs`` block, via ``repro.analysis.io``) next to the wakeup,
journal, telemetry, and service instruments.  Running this file
directly performs the same soak + gates + merge; ``--smoke`` substitutes
the tiny CI shape and skips the volume/speedup gates (the ``procs-smoke``
CI job uses it, with the full soak left to benchmarking machines).
"""

from __future__ import annotations

import math
import os
import sys
import time

if __name__ == "__main__":  # script mode: make `repro` importable
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import pytest

from repro.analysis.io import load_runtime, save_runtime
from repro.analysis.runtime_overhead import (
    PROCS_PARAMS,
    SMOKE_PROCS_PARAMS,
    RuntimeOverheadResult,
    run_procs_soak,
)

#: the full soak must verify at least this many tasks
MIN_TASKS = 1_000_000

#: multi-process over threaded verified-tasks/s, enforced only when the
#: box has at least workers+1 cores (each process can own one)
SPEEDUP_GATE = 3.0

#: cross-process joins (decided in-process, like every join) must stay a
#: small minority: the deep shape puts ~1% of joins on the cross-process
#: edge, and the gate leaves room for the smoke shape's shallower tree
ESCALATION_GATE = 0.2

OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_runtime.json"
)

#: CI sets this to run the tiny shape (volume/speedup gates skipped)
_SMOKE = os.environ.get("REPRO_PROCS_SOAK_SMOKE") == "1"
_PARAMS = SMOKE_PROCS_PARAMS if _SMOKE else PROCS_PARAMS


def merge_into_bench_file(measurement, path: str = OUTPUT) -> None:
    """Attach the soak to ``BENCH_runtime.json``, preserving other blocks."""
    if os.path.exists(path):
        result = load_runtime(path)
    else:
        result = RuntimeOverheadResult(
            join_chain={}, reports=[], join_chain_params={}, overhead_params={}
        )
    result.procs = measurement
    result.procs_params = dict(_PARAMS)
    save_runtime(result, path)


def _summary(m) -> str:
    return (
        f"procs soak: {m.tasks} tasks in {m.elapsed:.2f}s "
        f"({m.tasks_per_second:,.0f} tasks/s) across {m.workers} workers "
        f"[{m.spawn_paths}] vs threaded {m.baseline_tasks_per_second:,.0f} "
        f"tasks/s (speedup {m.speedup:.2f}x, {m.cpu_count} cpu), "
        f"escalation {m.escalation_ratio:.4f}, "
        f"divergences {m.divergences}, deaths {m.worker_deaths}"
    )


@pytest.fixture(scope="module")
def soak():
    t0 = time.perf_counter()
    m = run_procs_soak(params=_PARAMS)
    print(f"\n{_summary(m)} (total wall {time.perf_counter() - t0:.1f}s)")
    return m


def test_soak_never_diverges(soak):
    """Zero divergence from the all-local reference is non-negotiable."""
    assert soak.divergences == 0
    assert soak.worker_deaths == 0


def test_soak_local_shard_resolves_the_majority(soak):
    assert soak.local_joins > soak.cross_joins
    assert soak.escalation_ratio <= ESCALATION_GATE
    assert soak.cross_joins > 0  # the cross-process path did run


@pytest.mark.skipif(_SMOKE, reason="volume gate needs the full parameters")
def test_soak_verifies_at_least_1m_tasks(soak):
    assert soak.tasks >= MIN_TASKS
    assert soak.workers >= 4


def test_soak_speedup_gate(soak):
    """>=3x aggregate throughput — on boxes that can host the pool."""
    assert not math.isnan(soak.speedup) and soak.speedup > 0
    if _SMOKE:
        pytest.skip("speedup gate needs the full parameters")
    if not soak.multi_core:
        pytest.skip(
            f"{soak.cpu_count} cpu < {soak.workers + 1} processes: the pool "
            f"cannot run in parallel here (measured {soak.speedup:.2f}x, "
            f"recorded honestly)"
        )
    assert soak.speedup >= SPEEDUP_GATE, (
        f"multi-process throughput {soak.tasks_per_second:,.0f} tasks/s is "
        f"only {soak.speedup:.2f}x the threaded baseline "
        f"{soak.baseline_tasks_per_second:,.0f} tasks/s"
    )


def test_soak_merges_into_bench_runtime_json(soak, tmp_path):
    """The procs block round-trips and coexists with other instruments."""
    path = str(tmp_path / "BENCH_runtime.json")
    merge_into_bench_file(soak, path)
    loaded = load_runtime(path)
    assert loaded.procs is not None
    assert loaded.procs.tasks == soak.tasks
    assert loaded.procs_params == dict(_PARAMS)
    merge_into_bench_file(soak, path)  # a rerun replaces the block
    assert load_runtime(path).procs.tasks == soak.tasks


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:] or _SMOKE
    params = SMOKE_PROCS_PARAMS if smoke else PROCS_PARAMS
    _PARAMS = params
    m = run_procs_soak(params=params)
    print(_summary(m))
    status = 0
    if m.divergences or m.worker_deaths:
        print("FAIL: the soak diverged from the all-local reference")
        status = 1
    if m.local_joins <= m.cross_joins or m.escalation_ratio > ESCALATION_GATE:
        print(
            f"FAIL: escalation ratio {m.escalation_ratio:.4f} — the local "
            f"shard must resolve the majority of joins"
        )
        status = 1
    if not smoke:
        if m.tasks < MIN_TASKS or m.workers < 4:
            print(f"FAIL: {m.tasks} tasks / {m.workers} workers below the soak floor")
            status = 1
        if m.multi_core and m.speedup < SPEEDUP_GATE:
            print(f"FAIL: speedup {m.speedup:.2f}x below the {SPEEDUP_GATE}x gate")
            status = 1
        elif not m.multi_core:
            print(
                f"note: {m.cpu_count} cpu < {m.workers + 1} processes — "
                f"speedup gate not applicable; recorded {m.speedup:.2f}x"
            )
        merge_into_bench_file(m)
        print(f"procs block merged into {OUTPUT}")
    sys.exit(status)
