"""The metric catalog and the code that fills it.

Every metric has a name, a unit, which way is better and the layer it
belongs to.  End-to-end metrics are what a user of the system sees;
per-layer metrics come from the traced run and from the runtimes' own
counters.  ``BENCHMARK.json`` lists the same names, and the benchmark's
tests check that the two agree.
"""

from __future__ import annotations

import math

import numpy as np

from repro.benchsuite import ALL_BENCHMARKS

from .measure import CALIB_REF_NS, median, percentile

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "layer_table"]

#: (name, unit, better, layer)
END_TO_END = [
    ("setup_s", "s", "lower", "bench"),
    ("wall_s", "s", "lower", "bench"),
    ("tasks_per_s", "tasks/s", "higher", "bench"),
    ("join_p50_us", "us", "lower", "bench"),
    ("join_p99_us", "us", "lower", "bench"),
    ("peak_mem_mb", "MB", "lower", "bench"),
]

PER_LAYER = (
    [(f"benchsuite.{p}.wall_s", "s", "lower", "benchsuite") for p in ALL_BENCHMARKS]
    + [(f"benchsuite.{p}.overhead_x", "x", "lower", "benchsuite") for p in ALL_BENCHMARKS]
    + [
        ("benchsuite.overhead_geomean_x", "x", "lower", "benchsuite"),
        ("benchsuite.mem_overhead_geomean_x", "x", "lower", "benchsuite"),
        ("core.policy.add_child_ns", "ns", "lower", "core.policy"),
        ("core.policy.permits_ns", "ns", "lower", "core.policy"),
        ("core.policy.calls", "count", "lower", "core.policy"),
        ("core.policy.space_units", "count", "lower", "core.policy"),
        ("core.verifier.on_fork_ns", "ns", "lower", "core.verifier"),
        ("core.verifier.check_join_ns", "ns", "lower", "core.verifier"),
        ("core.verifier.self_ns_per_task", "ns", "lower", "core.verifier"),
        ("core.verifier.joins_checked", "count", "lower", "core.verifier"),
        ("core.verifier.joins_rejected", "count", "lower", "core.verifier"),
        ("core.verifier.share", "fraction", "lower", "core.verifier"),
        ("armus.begin_join_ns", "ns", "lower", "armus"),
        ("armus.flagged_joins", "count", "lower", "armus"),
        ("armus.false_positives", "count", "lower", "armus"),
        ("armus.deadlocks_avoided", "count", "higher", "armus"),
        ("armus.flag_ratio", "fraction", "lower", "armus"),
        ("runtime.cooperative.fork_ns", "ns", "lower", "runtime.cooperative"),
        ("runtime.cooperative.resume_ns", "ns", "lower", "runtime.cooperative"),
        ("runtime.cooperative.self_ns_per_task", "ns", "lower", "runtime.cooperative"),
        ("runtime.cooperative.steps_per_task", "steps/task", "lower", "runtime.cooperative"),
        ("runtime.threaded.fork_ns", "ns", "lower", "runtime.threaded"),
        ("runtime.threaded.join_self_ns", "ns", "lower", "runtime.threaded"),
        ("runtime.threaded.blocked_wait_us_p50", "us", "lower", "runtime.threaded"),
        ("runtime.threaded.blocked_wait_us_p99", "us", "lower", "runtime.threaded"),
        ("runtime.threaded.threads_started", "count", "lower", "runtime.threaded"),
        ("runtime.threaded.thread_reuse_ratio", "fraction", "higher", "runtime.threaded"),
        ("runtime.procs.spawn_s", "s", "lower", "runtime.procs"),
        ("runtime.procs.dispatch_us", "us", "lower", "runtime.procs"),
        ("runtime.procs.local_joins", "count", "higher", "runtime.procs"),
        ("runtime.procs.cross_joins", "count", "lower", "runtime.procs"),
        ("runtime.procs.degraded_joins", "count", "lower", "runtime.procs"),
        ("runtime.procs.escalation_ratio", "fraction", "lower", "runtime.procs"),
        ("runtime.procs.worker_deaths", "count", "lower", "runtime.procs"),
        ("runtime.procs.redispatched", "count", "lower", "runtime.procs"),
        ("service.start_s", "s", "lower", "service"),
        ("service.rtt_us_p50", "us", "lower", "service"),
        ("service.rtt_us_p99", "us", "lower", "service"),
        ("service.checks", "count", "lower", "service"),
        ("service.events", "count", "lower", "service"),
        ("service.degradations", "count", "lower", "service"),
        ("service.reconciles", "count", "lower", "service"),
        ("trace_overhead_x", "x", "lower", "bench"),
        ("trace.wall_s", "s", "lower", "bench"),
        ("trace.self_sum_s", "s", "lower", "bench"),
        ("failed_ratio", "fraction", "lower", "bench"),
        ("calib_ns", "ns", "lower", "bench"),
        ("bench.wall_raw_s", "s", "lower", "bench"),
        ("bench.setup_raw_s", "s", "lower", "bench"),
        ("bench.tasks_per_program", "count", "lower", "bench"),
    ]
)

_UNITS = {name: unit for name, unit, _, _ in END_TO_END + PER_LAYER}


def wall_s(samples, paper: bool, attr: str = "wall_s") -> float:
    """Median calibrated (or, with ``attr="raw_s"``, raw) wall time of one
    program run.

    On ``paper-suite`` one run is one pass over the six programs: the sum
    of each program's median, which is steadier than timing whole passes.
    """
    if not paper:
        return median(getattr(s, attr) for s in samples)
    by_program: dict = {}
    for s in samples:
        by_program.setdefault(s.program, []).append(getattr(s, attr))
    return sum(median(v) for v in by_program.values())


def end_to_end(samples, setups, peak_bytes: float, paper: bool) -> dict:
    """The end-to-end metrics of the timed TJ-SP samples.

    Join latencies are calibrated per sample (the tail as wall time is,
    see ``Sample.thread_scale``).  Each percentile is taken over the
    joins of one program run; per program, the median over its
    runs is kept, and on ``paper-suite`` the programs' values are combined
    by their geometric mean.  A pass's percentile would mix six programs
    whose tails differ by four orders of magnitude (a few
    Smith-Waterman and Strassen joins wait tens of milliseconds), and
    which of them lands at the 99th percentile changes from pass to pass.
    """
    by_program: dict = {}
    for s in samples:
        if s.latency_ns.size:
            by_program.setdefault(s.program, []).append(s)

    def join_us(q: float, scale: str) -> float:
        per_program = [
            median(percentile(s.latency_ns, q) * getattr(s, scale) for s in runs)
            for runs in by_program.values()
        ]
        return math.exp(np.mean(np.log(per_program))) / 1e3

    wall = wall_s(samples, paper)
    return {
        "setup_s": setup_s(setups, samples),
        "wall_s": wall,
        "tasks_per_s": tasks_per_run(samples, paper) / wall,
        "join_p50_us": join_us(50, "scale"),
        "join_p99_us": join_us(99, "thread_scale"),
        "peak_mem_mb": peak_bytes / 1e6,
    }


def setup_s(setups, samples) -> float:
    """Median set-up time, calibrated.

    A set-up in this process is scaled by the loop right after it, which
    tracks the host's speed from second to second.  ``procs-sidecar``'s
    set-up is mostly interpreter start-ups in its children, which that one
    loop tracks no better than chance; the median of all the run's loops
    tracks the host's load from one run to the next (between sets of ten
    runs an hour apart, its raw median moved from 0.70 s to 1.05 s while
    set-up over the run's loop time stayed within 2%).
    """
    if setups[0].calibrated:
        return median(s.wall_s for s in setups)
    calib = median(s.calib_ns for s in setups + samples)
    return median(s.raw_s for s in setups) * CALIB_REF_NS / calib


def tasks_per_run(samples, paper: bool) -> float:
    """Tasks forked by one program run (one pass on ``paper-suite``)."""
    if not paper:
        return median(s.tasks for s in samples)
    by_program: dict = {}
    for s in samples:
        by_program.setdefault(s.program, []).append(s.tasks)
    return sum(median(v) for v in by_program.values())


def _counter_sum(snapshot: dict, base: str) -> int:
    return sum(
        v for name, v in snapshot.get("counters", {}).items()
        if name.split("{", 1)[0] == base
    )


def _source_sum(snapshot: dict, prefix: str, field: str) -> int:
    return sum(
        fields.get(field, 0) for name, fields in snapshot.get("sources", {}).items()
        if name.split("{", 1)[0] == prefix
    )


def per_layer(workload: str, traced, samples, setups, untraced_wall_s: float, mem: dict) -> dict:
    """Every per-layer metric for one workload (0 where a layer is idle)."""
    out = {name: 0.0 for name, _, _, _ in PER_LAYER}
    rec, counts = traced.recorder, traced.counts
    spans = rec.by_name()
    # scaled as the untraced wall time is, so trace_overhead_x compares like
    scale = traced.scale

    def med(name: str, use_self: bool = False) -> float:
        if name not in spans:
            return 0.0
        durs, selfs = spans[name]
        return float(np.median(selfs if use_self else durs)) * scale

    def total_self(*names: str) -> float:
        return sum(float(spans[n][1].sum()) for n in names if n in spans)

    tasks = max(1, traced.tasks)
    layer_ns = rec.layer_self_ns(traced.layers)
    traced_wall_s = traced.wall_ns * scale / 1e9
    busy_ns = sum(layer_ns.values())

    # benchsuite: per-program medians and the paper's overhead factors
    if workload == "paper-suite":
        by_arm: dict = {}
        for s in samples:
            by_arm.setdefault((s.program, s.arm), []).append(s.wall_s)
        overheads, mem_overheads = [], []
        for p in ALL_BENCHMARKS:
            tj, base = median(by_arm.get((p, "TJ-SP"), [])), median(by_arm.get((p, "none"), []))
            out[f"benchsuite.{p}.wall_s"] = tj
            if base:
                out[f"benchsuite.{p}.overhead_x"] = tj / base
                overheads.append(tj / base)
            tj_mem, base_mem = mem.get((p, "TJ-SP"), 0), mem.get((p, "none"), 0)
            if tj_mem and base_mem:
                mem_overheads.append(tj_mem / base_mem)
        if overheads:
            out["benchsuite.overhead_geomean_x"] = math.exp(np.mean(np.log(overheads)))
        if mem_overheads:
            out["benchsuite.mem_overhead_geomean_x"] = math.exp(np.mean(np.log(mem_overheads)))

    # core.policy
    policy_names = ("policy.add_child", "policy.permits", "policy.permits_many")
    out["core.policy.add_child_ns"] = med("policy.add_child")
    out["core.policy.permits_ns"] = med("policy.permits")
    out["core.policy.calls"] = sum(len(spans[n][0]) for n in policy_names if n in spans)
    out["core.policy.space_units"] = counts.get("space_units", 0)

    # core.verifier
    verifier_names = [n for n in spans if n.startswith("Verifier.")]
    out["core.verifier.on_fork_ns"] = med("Verifier.on_fork")
    out["core.verifier.check_join_ns"] = med("Verifier.check_join")
    out["core.verifier.self_ns_per_task"] = total_self(*verifier_names) * scale / tasks
    out["core.verifier.joins_checked"] = counts.get("joins_checked", 0)
    out["core.verifier.joins_rejected"] = counts.get("joins_rejected", 0)
    if busy_ns:
        out["core.verifier.share"] = (
            layer_ns.get("core.verifier", 0) + layer_ns.get("core.policy", 0)
        ) / busy_ns

    # armus
    checked = counts.get("joins_checked", 0)
    flagged = counts.get("joins_rejected", 0)
    out["armus.begin_join_ns"] = med("HybridVerifier.begin_join")
    out["armus.flagged_joins"] = flagged if "HybridVerifier.begin_join" in spans else 0
    out["armus.false_positives"] = counts.get("false_positives", 0)
    out["armus.deadlocks_avoided"] = counts.get("deadlocks_avoided", 0)
    out["armus.flag_ratio"] = out["armus.flagged_joins"] / checked if checked else 0.0

    # runtime.cooperative
    if workload == "fine-coop":
        out["runtime.cooperative.fork_ns"] = med("CooperativeRuntime.fork")
        out["runtime.cooperative.resume_ns"] = med("bench.resume")
        out["runtime.cooperative.self_ns_per_task"] = (
            layer_ns.get("runtime.cooperative", 0) * scale / tasks
        )
        out["runtime.cooperative.steps_per_task"] = counts.get("steps", 0) / tasks

    # runtime.threaded
    if "TaskRuntime.fork" in spans:
        out["runtime.threaded.fork_ns"] = med("TaskRuntime.fork")
        out["runtime.threaded.join_self_ns"] = med("Future.join", use_self=True)
        if "wait" in spans:
            waits = spans["wait"][0] * scale
            out["runtime.threaded.blocked_wait_us_p50"] = percentile(waits, 50) / 1e3
            out["runtime.threaded.blocked_wait_us_p99"] = percentile(waits, 99) / 1e3
        started = counts.get("tasks_started", 0)
        out["runtime.threaded.threads_started"] = counts.get("threads_started", 0)
        if started:
            out["runtime.threaded.thread_reuse_ratio"] = 1 - counts["threads_started"] / started

    # runtime.procs and service (workers report through fleet metrics)
    if workload == "procs-sidecar":
        fleet = counts.get("fleet", {})
        out["runtime.procs.spawn_s"] = counts["spawn_ns"] * scale / 1e9
        out["runtime.procs.dispatch_us"] = med("ProcessRuntime.fork") / 1e3
        for key in ("local_joins", "cross_joins", "degraded_joins", "escalation_ratio",
                    "worker_deaths", "redispatched"):
            out[f"runtime.procs.{key}"] = counts.get(key, 0)
        out["core.verifier.joins_checked"] = _source_sum(fleet, "verifier", "joins_checked")
        out["core.verifier.joins_rejected"] = _source_sum(fleet, "verifier", "joins_rejected")
        out["service.start_s"] = counts["sidecar_start_ns"] * scale / 1e9
        rtt = np.asarray(counts.get("rtt_ns", []), np.float64) * scale
        out["service.rtt_us_p50"] = percentile(rtt, 50) / 1e3
        out["service.rtt_us_p99"] = percentile(rtt, 99) / 1e3
        out["service.checks"] = counts.get("checks", 0)
        out["service.events"] = counts.get("events", 0)
        out["service.degradations"] = _counter_sum(fleet, "repro_service_degradations_total")
        out["service.reconciles"] = _counter_sum(fleet, "repro_service_reconciles_total")

    # the traced run against the untraced one, and the benchmark's own numbers
    out["trace_overhead_x"] = traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0
    out["trace.wall_s"] = traced_wall_s
    out["trace.self_sum_s"] = busy_ns * scale / 1e9
    attempted = sum(s.attempted for s in samples)
    out["failed_ratio"] = sum(s.failed for s in samples) / attempted if attempted else 0.0
    out["calib_ns"] = median(s.calib_ns for s in samples)
    tj = [s for s in samples if s.arm == "TJ-SP"]
    out["bench.wall_raw_s"] = wall_s(tj, workload == "paper-suite", "raw_s")
    out["bench.setup_raw_s"] = median(s.raw_s for s in setups)
    out["bench.tasks_per_program"] = traced.tasks
    return out


def layer_table(traced) -> list:
    """Rows of (layer, spans, self CPU ms, share of traced wall) for printing."""
    rec = traced.recorder
    calls: dict = {}
    for _, name, *_ in rec.spans:
        layer = traced.layers.get(name, name)
        calls[layer] = calls.get(layer, 0) + 1
    layer_ns = rec.layer_self_ns(traced.layers)
    wall = traced.wall_ns or 1
    rows = [
        (layer, calls[layer], layer_ns[layer] / 1e6, layer_ns[layer] / wall)
        for layer in sorted(layer_ns, key=layer_ns.get, reverse=True)
    ]
    # worker processes, blocked waits and thread hand-offs outside any span
    rest = wall - sum(layer_ns.values())
    rows.append(("unattributed", 0, rest / 1e6, rest / wall))
    return rows


def unit(name: str) -> str:
    return _UNITS[name]
