"""Experiment E11 — distributed-telemetry overhead and its gates.

Runs the multi-process soak shape (ProcessRuntime + sidecar) twice per
repetition — telemetry disabled vs the full distributed stack (trace
context on every dispatch frame, worker metrics pushes, the observing
sidecar's span ring shipped home, everything merged in the parent) —
and asserts:

* the on/off median-time factor stays **≤ 1.25×**: the distributed
  plane must be cheap enough to leave on in production runs;
* the on arm actually produced distributed artifacts — a merged trace
  spanning **more than one process track** and a fleet snapshot with
  **more than one labelled source** (``process="parent"`` plus at least
  one ``worker=``).  A "fast" telemetry arm that silently dropped its
  payload would otherwise pass the factor gate vacuously.

The measurement merges into ``BENCH_runtime.json`` (schema v7's
``obs_dist`` block, via ``repro.analysis.io``) next to the other
instruments.  Running this file directly performs the same arms +
gates + merge; ``--smoke`` substitutes the tiny CI shape (the
``obs-dist-smoke`` CI job uses it).
"""

from __future__ import annotations

import math
import os
import sys

if __name__ == "__main__":  # script mode: make `repro` importable
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import pytest

from repro.analysis.io import load_runtime, save_runtime
from repro.analysis.runtime_overhead import (
    OBS_DIST_PARAMS,
    SMOKE_OBS_DIST_PARAMS,
    RuntimeOverheadResult,
    run_obs_dist_suite,
)

#: full-distributed-telemetry over disabled, median wall time
OVERHEAD_GATE = 1.25

OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_runtime.json"
)

#: CI sets this to run the tiny shape
_SMOKE = os.environ.get("REPRO_OBS_DIST_SMOKE") == "1"
_PARAMS = SMOKE_OBS_DIST_PARAMS if _SMOKE else OBS_DIST_PARAMS


def merge_into_bench_file(measurement, path: str = OUTPUT) -> None:
    """Attach the arms to ``BENCH_runtime.json``, preserving other blocks."""
    if os.path.exists(path):
        result = load_runtime(path)
    else:
        result = RuntimeOverheadResult(
            join_chain={}, reports=[], join_chain_params={}, overhead_params={}
        )
    result.obs_dist = measurement
    result.obs_dist_params = dict(_PARAMS)
    save_runtime(result, path)


def _summary(m) -> str:
    return (
        f"obs-dist: {m.tasks} tasks/arm on {m.workers} workers "
        f"({m.dispatches}x{m.mids}x{m.leaves}), off median {m.off_median:.2f}s "
        f"vs full {m.on_median:.2f}s (factor {m.overhead:.3f}x); "
        f"trace {m.trace_events} events / {m.trace_pids} tracks, "
        f"{m.metric_sources} metric sources"
    )


@pytest.fixture(scope="module")
def arms():
    m = run_obs_dist_suite(params=_PARAMS)
    print(f"\n{_summary(m)}")
    return m


def test_distributed_telemetry_overhead_gate(arms):
    """Full distributed telemetry must cost ≤1.25x over disabled."""
    assert not math.isnan(arms.overhead)
    assert arms.overhead <= OVERHEAD_GATE, (
        f"distributed telemetry factor {arms.overhead:.3f}x exceeds the "
        f"{OVERHEAD_GATE}x gate (off {arms.off_median:.3f}s, "
        f"on {arms.on_median:.3f}s)"
    )


def test_on_arm_shipped_the_distributed_payload(arms):
    """The factor gate is meaningless if the telemetry never crossed
    the process boundary — demand multi-track traces and a multi-source
    fleet snapshot."""
    assert arms.trace_events > 0
    assert arms.trace_pids > 1  # parent plus at least one worker/sidecar
    assert arms.metric_sources > 1  # process="parent" plus worker=...


def test_arms_merge_into_bench_runtime_json(arms, tmp_path):
    """The obs_dist block round-trips and coexists with other blocks."""
    path = str(tmp_path / "BENCH_runtime.json")
    merge_into_bench_file(arms, path)
    loaded = load_runtime(path)
    assert loaded.obs_dist is not None
    assert loaded.obs_dist.tasks == arms.tasks
    assert loaded.obs_dist.overhead == pytest.approx(arms.overhead)
    assert loaded.obs_dist_params == dict(_PARAMS)
    merge_into_bench_file(arms, path)  # a rerun replaces the block
    assert load_runtime(path).obs_dist.tasks == arms.tasks


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:] or _SMOKE
    _PARAMS = SMOKE_OBS_DIST_PARAMS if smoke else OBS_DIST_PARAMS
    m = run_obs_dist_suite(params=_PARAMS)
    print(_summary(m))
    status = 0
    if math.isnan(m.overhead) or m.overhead > OVERHEAD_GATE:
        print(f"FAIL: distributed telemetry factor {m.overhead:.3f}x > {OVERHEAD_GATE}x")
        status = 1
    if m.trace_events == 0 or m.trace_pids <= 1 or m.metric_sources <= 1:
        print(
            f"FAIL: on arm did not ship a distributed payload "
            f"({m.trace_events} events, {m.trace_pids} tracks, "
            f"{m.metric_sources} sources)"
        )
        status = 1
    if not smoke:
        merge_into_bench_file(m)
        print(f"obs_dist block merged into {OUTPUT}")
    sys.exit(status)
