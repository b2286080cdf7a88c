"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fine-coop --seed 1 --seconds 10 --trace 0

One process runs programs in a closed loop: each program starts
when the previous one returns.  The run sets up the workload several
times (``setup_s`` is the median), warms up, then measures for
``--seconds`` seconds in a seeded random order of programs and arms,
timing a calibration loop after every sample.  Every output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
traced run and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, seeds,
samples) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import threading
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 7
#: untimed runs under tracemalloc; ``peak_mem_mb`` is their median
MEM_REPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-suite", "fine-coop", "fine-threaded", "procs-sidecar"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare() -> None:
    """Make the package importable and pin the compiled TJ-SP kernel.

    Worker processes and the sidecar inherit the environment, so they
    load the same kernel and find the same sources.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}; run from a full checkout")
    os.environ["REPRO_TJ_BACKEND"] = "c"
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _build() -> None:
    """Compile (or load the cached) TJ-SP kernel; not part of set-up."""
    from repro.core._cbuild import compiled_module

    compiled_module()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import metrics
    from perfbench.measure import (
        Sample, calibrate, calibrate_threads, environment, settle, timed,
    )
    from perfbench.workloads import BACKEND, PINNED, PROCS_BACKEND, WORKLOADS

    cpus = sorted(os.sched_getaffinity(0))
    if workload in PINNED:
        # threads inherit the affinity of the thread that starts them
        cpus = cpus[-1:]
        os.sched_setaffinity(0, cpus)
    rng = random.Random(seed)
    make = WORKLOADS[workload]
    paper = workload == "paper-suite"

    idle = threading.active_count()
    setups = []
    session = None
    samples = []
    extra = []  # untimed runs: warm-up, memory; their checks still count
    mem: dict = {}

    def untimed(unit) -> None:
        sample = session.run(unit)
        sample.runtime = None
        extra.append(sample)

    try:
        for i in range(SETUP_REPS):
            if session is not None:
                closing, session = session, None
                closing.close()
                settle(idle)
            session, ns = timed(make, seed)
            setups.append(Sample("setup", ns, calibrate(), calibrated=session.calibrated))
        # the session's own threads (procs: the root's host thread and the
        # runtime's collector and monitor) stay; a program's threads must not
        quiet = threading.active_count()

        arms = session.arms if trace else ("TJ-SP",)
        units = session.units(arms)
        with session.timing_joins():
            for unit in units:
                untimed(unit)
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                order = list(units)
                rng.shuffle(order)
                for unit in order:
                    gc.collect()
                    sample = session.run(unit)
                    sample.runtime = None
                    settle(quiet)
                    sample.calib_ns = calibrate()
                    sample.calibrated = session.calibrated
                    if session.thread_calibrated:
                        sample.thread_calib_ns = calibrate_threads()
                    samples.append(sample)
        for unit in session.units(arms):
            peaks = []
            for _ in range(MEM_REPS):
                settle(quiet)
                gc.collect()
                tracemalloc.start()
                try:
                    untimed(unit)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            mem[unit] = metrics.median(peaks)
        # one pass runs the programs one after another: its peak is the largest
        peak = max(v for (_, arm), v in mem.items() if arm == "TJ-SP")
    finally:
        final = (session.close() if session is not None else None) or {}

    failed = sum(s.failed for s in samples + extra)
    attempted = sum(s.attempted for s in samples + extra)
    # procs: a degraded join, a dead worker or a redispatch is a divergence
    for key in ("degraded_joins", "worker_deaths", "redispatched"):
        failed += final.get(key, 0)

    tj_samples = [s for s in samples if s.arm == "TJ-SP"]
    e2e = metrics.end_to_end(tj_samples, setups, peak, paper)
    result = {"end_to_end": e2e}
    traced = None
    if trace:
        traced = session.traced()
        settle(idle)
        traced.calib_ns = calibrate()
        if session.thread_calibrated:
            traced.thread_calib_ns = calibrate_threads()
        failed += traced.counts["failed"]
        attempted += traced.counts["attempted"]
        result["per_layer"] = metrics.per_layer(
            workload, traced, samples, setups, e2e["wall_s"], mem
        )
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(
            ROOT,
            backend={"TJ-SP": BACKEND, "procs": PROCS_BACKEND},
            workers=session.workers,
            cpus=cpus,
            calib_ns=metrics.median(s.calib_ns for s in samples),
            seeds={"workload": seed},
        ),
        "samples": len(samples),
        "samples_per_arm": {a: sum(s.arm == a for s in samples) for a in arms},
        "raw": {
            "program": [s.program for s in tj_samples],
            "wall_s": [s.raw_s for s in tj_samples],
            "calib_ns": [s.calib_ns for s in tj_samples],
            "setup_s": [s.raw_s for s in setups],
            "setup_calib_ns": [s.calib_ns for s in setups],
        },
        "final": {k: v for k, v in final.items() if k != "fleet"},
        **result,
    }
    return {
        "record": record,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }


def _print_report(out: dict, trace: bool) -> dict:
    from perfbench import metrics
    from repro.tools.trace_export import validate_chrome_trace

    record = out["record"]
    env = record["env"]
    print(
        f"# {record['workload']} seed={record['seed']} samples={record['samples']} "
        f"per-arm={record['samples_per_arm']} nproc={env['nproc']} "
        f"cpus={env['cpus']} workers={env['workers']} calib_ns={env['calib_ns']:.0f}"
    )
    print(f"# cpu={env['cpu_model']} python={env['python']} numpy={env['numpy']} "
          f"backend={env['backend']} commit={env['git_commit']}")
    e2e = record["end_to_end"]
    for name, unit, _, _ in metrics.END_TO_END:
        print(f"{name:<44} {e2e[name]:>14.6g} {unit}")
    chosen = e2e
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    if trace:
        traced = out["traced"]
        print("# traced run: self time by layer")
        print(f"{'layer':<24} {'spans':>8} {'self CPU ms':>12} {'of wall':>8}")
        for layer, calls, ms, share in metrics.layer_table(traced):
            print(f"{layer:<24} {calls:>8} {ms:>12.2f} {share:>8.1%}")
        layers = record["per_layer"]
        for name, unit, _, _ in metrics.PER_LAYER:
            print(f"{name:<44} {layers[name]:>14.6g} {unit}")
        doc = traced.recorder.chrome_trace(traced.layers)
        problems = validate_chrome_trace(doc)
        if problems:
            print(f"# chrome trace invalid: {problems[:3]}", file=sys.stderr)
            out["correct"] = False
        with open(os.path.join(results, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        chosen = layers
    with open(os.path.join(results, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {
        name: {"value": value, "unit": metrics.unit(name)}
        for name, value in chosen.items()
    }


def _stop_children() -> None:
    """Stop and wait for every process this run started.

    Sessions stop their workers and sidecar on close; what is left is
    multiprocessing's own helper, the resource tracker that ``spawn``
    workers share, which would otherwise outlive this process.  Its
    clients (queue semaphores, shared memory) unregister from it when
    they are finalized, and an unregister after it has stopped starts
    a new one, so every finalizer runs first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()
    util._exit_function()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare()
    _build()
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_children()
    reported = _print_report(out, bool(args.trace))
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
