"""The benchmark's own tests: determinism, the metric catalog, failure
accounting and a tiny run of every workload."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import metrics, spec as spec_mod
from perfbench.spec import join_targets, make_spec, tj_permits
from perfbench.programs import JoinLog
from perfbench.trace import SpanRecorder, installed
from perfbench.workloads import DISPATCHES, MIDS, FineSession, ProcsSession
from repro.armus.hybrid import HybridVerifier
from repro.errors import DeadlockAvoidedError
from repro.formal.actions import Fork, Init
from repro.formal.tj_relation import TJOrderOracle
from repro.tools.trace_export import validate_chrome_trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# specs and exact counts
# ----------------------------------------------------------------------
def test_same_seed_same_spec():
    a, b = make_spec(7), make_spec(7)
    assert a.nodes == b.nodes and a.checksum == b.checksum
    assert (a.tasks, a.joins, a.flagged) == (b.tasks, b.joins, b.flagged)
    assert make_spec(8).nodes != a.nodes


def test_spec_shapes():
    s = make_spec(3)
    assert s.flagged == s.younger + s.pairs
    assert 0.01 < s.younger / s.joins < 0.03


def test_restricted_oracle_matches_full_trace(monkeypatch):
    """The per-join TJ verdicts equal the oracle run on the whole trace."""
    monkeypatch.setattr(spec_mod, "FANOUT", 12)
    monkeypatch.setattr(spec_mod, "DNC_DEPTH", 3)
    monkeypatch.setattr(spec_mod, "WAVE", 30)
    s = make_spec(11)
    trace = [Init(s.root)]
    frontier = [s.root]
    while frontier:
        nid = frontier.pop(0)
        for child in s.nodes[nid].children:
            trace.append(Fork(nid, child))
            frontier.append(child)
    oracle = TJOrderOracle.from_trace(trace)
    cache: dict = {}
    joins = list(join_targets(s.nodes, s.parent))
    assert joins
    for a, b, _ in joins:
        assert tj_permits(s.nodes, s.parent, a, b, cache) == oracle.less(a, b)


def _coop_counts(seed: int) -> dict:
    session = FineSession(seed, "coop")
    sample = session.run()
    rt = sample.runtime
    assert sample.failed == 0
    vs, ds = rt.verifier.stats, rt.detector.stats
    return {
        "forks": vs.forks,
        "joins_checked": vs.joins_checked,
        "joins_rejected": vs.joins_rejected,
        "false_positives": ds.false_positives,
        "deadlocks_avoided": ds.deadlocks_avoided,
        "cycle_checks": ds.cycle_checks,
        "steps": rt.steps,
        "space_units": rt.policy.space_units(),
        "joins_timed": sample.latency_ns.size,
    }


def test_fine_coop_counts_repeat_exactly():
    first, second = _coop_counts(5), _coop_counts(5)
    assert first == second
    assert first["false_positives"] > 0 and first["deadlocks_avoided"] == spec_mod.PAIRS


def test_fine_threaded_schedule_free_counts_repeat():
    spec = make_spec(5)
    for _ in range(2):
        session = FineSession(5, "threaded")
        sample = session.run()
        rt = sample.runtime
        assert sample.failed == 0
        assert rt.verifier.stats.forks == spec.tasks
        assert rt.verifier.stats.joins_checked == spec.joins
        assert rt.verifier.stats.joins_rejected == spec.flagged
        assert rt.detector.stats.deadlocks_avoided == spec.pairs


# ----------------------------------------------------------------------
# failures are counted
# ----------------------------------------------------------------------
def test_wrong_checksum_is_a_failure():
    session = FineSession(2, "coop")
    session.spec.checksum ^= 1
    assert session.run().failed >= 1


def test_refused_safe_join_is_a_failure(monkeypatch):
    original = HybridVerifier.begin_join
    calls = []

    def refuse_first(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:  # the first join of a program is never a cycle
            raise DeadlockAvoidedError(cycle=("planted",))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HybridVerifier, "begin_join", refuse_first)
    assert FineSession(2, "coop").run().failed >= 1


def test_unrefused_cycle_is_a_failure(monkeypatch):
    session = FineSession(2, "coop")
    monkeypatch.setattr(JoinLog, "refused", lambda self, pair: None)
    assert session.run().failed >= spec_mod.PAIRS


# ----------------------------------------------------------------------
# the catalog against BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_units_layers():
    seen = set()
    for name, unit, better, layer in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("lower", "higher")
        assert layer, name
        assert name not in seen
        seen.add(name)


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (n, u, b) for n, u, b, _ in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, u, b) for n, u, b, _ in metrics.PER_LAYER
    ]
    assert {w["name"] for w in doc["workloads"]} == {
        "paper-suite", "fine-coop", "fine-threaded", "procs-sidecar"
    }
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_traced_run_self_times_and_chrome_trace():
    session = FineSession(4, "coop")
    traced = session.traced()
    rec = traced.recorder
    # every span nests in its parent, so self times sum to the top level
    top = sum(cpu for _, _, _, _, cpu, parent, _ in rec.spans if parent == 0)
    assert sum(rec.self_times().values()) == top
    assert validate_chrome_trace(rec.chrome_trace(traced.layers)) == []
    assert traced.counts["failed"] == 0


def test_wrappers_are_removed():
    from repro.core.verifier import Verifier
    from repro.runtime import CooperativeRuntime, Future, TaskRuntime

    before = (Verifier.on_fork, CooperativeRuntime.fork, TaskRuntime.join_batch, Future.join,
              HybridVerifier.begin_join)
    with installed(SpanRecorder("t"), blocked_waits=True):
        assert Verifier.on_fork is not before[0]
    after = (Verifier.on_fork, CooperativeRuntime.fork, TaskRuntime.join_batch, Future.join,
             HybridVerifier.begin_join)
    assert after == before
    assert "join_batch" not in TaskRuntime.__dict__


# ----------------------------------------------------------------------
# procs: exact schedule-free counts and a planted divergence
# ----------------------------------------------------------------------
def test_procs_round_counts_and_planted_divergence():
    session = ProcsSession(3)
    try:
        assert session.run().failed == 0
        session.expected[0] += 1
        assert session.run().failed == 1
    finally:
        final = session.close()
    rounds = 2
    assert final["cross_joins"] == rounds * DISPATCHES * MIDS
    assert final["degraded_joins"] == 0 and final["worker_deaths"] == 0


# ----------------------------------------------------------------------
# a tiny run of every workload, through the command line
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload,trace",
    [("paper-suite", "0"), ("fine-coop", "1"), ("fine-threaded", "1"), ("procs-sidecar", "1")],
)
def test_tiny_run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "9", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalog = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _, _ in catalog]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
