"""Slot-marketplace benchmark: run one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload service_burst --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run then replays the identical slots on a traced and an
untraced instance in lockstep and reports the per-layer metrics instead.
Earlier lines carry the environment stamp, the deterministic work counters
and the digest gate.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one thread per workload process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1
#: ``mallopt`` parameters of glibc's ``malloc.h``
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _git_rev() -> str:
    """The checkout's commit (``unknown`` outside a git work tree)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds at their dynamic maxima.

    glibc raises both thresholds the first time a large block is freed, after
    which arrays come from the heap instead of fresh, faulting pages.  When
    that happens depends on allocation history, so identical slots ran in
    two states (65k or 150 page faults per slot of a 2k-sensor aggregate
    storm).  Pinning the state a long-running process settles in makes it
    the same in every pass.  Returns whether the C library accepted it.
    """
    try:
        libc = ctypes.CDLL(None)
        return bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
                    and libc.mallopt(M_TRIM_THRESHOLD, 64 << 20))
    except (OSError, AttributeError):
        return False


def _load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return {}


def gate(workload: str, size: str, seconds: int, seed: int, hashes: list) -> tuple[int, str]:
    """Compare per-slot allocation hashes with the recorded reference.

    Returns ``(mismatched_slots, status)``; seeds without a reference are
    checked by ``AllocationResult.verify`` alone.
    """
    ref = _load_references().get(workload, {}).get(size, {}).get(str(seconds), {}).get(str(seed))
    if ref is None:
        return 0, "no-reference"
    bad = sum(1 for a, b in zip(ref, hashes) if a != b) + abs(len(ref) - len(hashes))
    return bad, "match" if bad == 0 else "MISMATCH"


def record_reference(workload: str, size: str, seconds: int, seed: int, hashes: list) -> None:
    refs = _load_references()
    by_seconds = refs.setdefault(workload, {}).setdefault(size, {}).setdefault(str(seconds), {})
    by_seconds[str(seed)] = hashes
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(p) -> dict:
    from workloads import median, quantile

    return {
        "setup_s": _metric(median(p.setup_s), "s"),
        "slot_p50_s": _metric(median(p.slot_s), "s"),
        "queries_per_s": _metric(p.settled / p.wall_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "query_latency_p50_s": _metric(quantile(p.latencies, 0.5), "s"),
        "query_latency_p90_s": _metric(quantile(p.latencies, 0.9), "s"),
        "admitted_ratio": _metric(p.admitted / p.submitted, "ratio"),
    }


#: per-layer time metrics: metric name -> span layer whose self time it sums.
SELF_TIME_METRICS = {
    "service.submit_s": "service.submit",
    "service.tick_self_s": "service.tick",
    "core.engine.step_self_s": "core.engine.step",
    "sensors.announce_s": "sensors.announce",
    "sensors.advance_s": "sensors.advance",
    "core.kernel.build_s": "core.kernel.build",
    "core.sharding.lookup_s": "core.sharding.lookup",
    "spatial.raster.coverage_rows_s": "spatial.raster.coverage_rows",
    "spatial.raster.exterior_s": "spatial.raster.exterior",
    "queries.gain_block_s": "queries.gain_block",
    "core.greedy.self_s": "core.greedy.allocate",
    "core.greedy.roster_s": "core.greedy.roster",
    "core.allocation.verify_s": "core.allocation.verify",
    "core.engine.settle_s": "core.engine.settle",
}


def per_layer(first, traced, plain, recorder) -> dict:
    """Per-slot layer metrics of the traced instance (counts are per slot too).

    ``first`` is the untraced pass of a fresh process (the state every
    end-to-end metric is measured in); ``plain`` is the untraced instance
    that ran in lockstep with ``traced``.
    """
    from workloads import median, quantile

    n = len(traced.slot_s)
    slot_total = sum(traced.slot_s)
    selfs = recorder.self_times()
    totals = recorder.total_times()
    out = {name: _metric(selfs.get(layer, 0.0) / n, "s")
           for name, layer in SELF_TIME_METRICS.items()}
    out["core.greedy.allocate_s"] = _metric(totals.get("core.greedy.allocate", 0.0) / n, "s")
    for name, layer in (("queries.gain_block_share", "queries.gain_block"),
                        ("core.greedy.self_share", "core.greedy.allocate"),
                        ("spatial.raster.coverage_rows_share", "spatial.raster.coverage_rows")):
        out[name] = _metric(selfs.get(layer, 0.0) / slot_total, "ratio")
    pairs = traced.counts.get("queries.gain_pairs", 0)
    out.update({
        "sensors.moved": _metric(traced.moved / n, "count"),
        "spatial.raster.cells": _metric(traced.counts.get("spatial.raster.cells", 0) / n, "count"),
        "queries.gain_pairs": _metric(pairs / n, "count"),
        "queries.useful_pair_ratio": _metric(traced.assignments / pairs if pairs else 0.0, "ratio"),
        "core.greedy.rounds": _metric(traced.rounds / n, "count"),
        "core.greedy.candidates": _metric(
            traced.counts.get("core.greedy.candidates", 0) / n, "count"),
        "service.queue_depth_mean": _metric(
            sum(traced.queue_depths) / n if traced.queue_depths else 0.0, "count"),
        "service.admission_wait_ticks_p90": _metric(
            quantile(traced.wait_slots, 0.9) if traced.queue_depths else 0.0, "ticks"),
        "process.minor_faults": _metric(first.minor_faults / len(first.slot_s), "count"),
        "host.ref_loop_s": _metric(sum(first.ref_loop_s) / 2, "s"),
        "trace.slot_p50_s": _metric(median(traced.slot_s), "s"),
        "trace.overhead_s": _metric(
            median([t - u for t, u in zip(traced.slot_s, plain.slot_s)]), "s"),
    })
    return out


def counters(p) -> dict:
    """The deterministic work of a pass: identical on every run of one commit."""
    from workloads import digest_of

    return {
        "sensors.moved": p.moved,
        "core.greedy.rounds": p.rounds,
        "core.greedy.candidates": p.counts.get("core.greedy.candidates", 0),
        "queries.gain_pairs": p.counts.get("queries.gain_pairs", 0),
        "spatial.raster.cells": p.counts.get("spatial.raster.cells", 0),
        "admitted": p.admitted,
        "refused": p.refused,
        "settled": p.settled,
        "slots": len(p.slot_hashes),
        "digest": digest_of(p.slot_hashes),
    }


def _write_spans(recorder, workload: str, seed: int) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "slot"],
        "spans": recorder.spans,
    }))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long size for the self-tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's slot hashes as the reference")
    args = parser.parse_args(argv)

    pinned = _pin_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import probes
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    n_timed = workload.timed_slots(args.size, args.seconds)

    print("env " + json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "malloc_pinned": pinned,
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "timed_slots_per_pass": n_timed,
        "passes": workload.reps,
    }))

    count_hooks, absent = probes.resolve(probes.COUNT_HOOKS)
    recorder = probes.Recorder(timing=False)
    with probes.Installed(recorder, count_hooks):
        result = workloads.run_repeated(workload, args.size, args.seed, n_timed, recorder,
                                        reps=workload.reps)

    failures = list(result.failures)
    failed = len(result.failures)
    mismatched, status = gate(args.workload, args.size, args.seconds, args.seed, result.slot_hashes)
    if args.record_reference:
        record_reference(args.workload, args.size, args.seconds, args.seed, result.slot_hashes)
        status = "recorded"
    elif mismatched:
        failed += mismatched
        failures.append(f"{mismatched} slot(s) differ from the reference allocation")
    print("counters " + json.dumps(counters(result)))
    print("samples " + json.dumps({
        "slots": len(result.slot_s),
        "latencies": len(result.latencies),
        "ticks_beyond_latency_p90": result.tail_slots,
        "pass_slot_p50_s": result.pass_slot_p50_s,
        "setup_s": result.setup_s,
    }))
    print("host " + json.dumps({"ref_loop_before_s": result.ref_loop_s[0],
                                "ref_loop_after_s": result.ref_loop_s[1]}))

    if args.trace:
        # The traced instance is compared with an untraced one run in
        # lockstep with it, so that both see the same host phase.
        trace_hooks, absent = probes.resolve(probes.TRACE_HOOKS)
        traced_rec = probes.Recorder(timing=True)
        traced, plain = workloads.lockstep(
            workload, args.size, args.seed, n_timed,
            probes.Installed(traced_rec, trace_hooks), probes.Recorder(timing=False))
        for label, p in (("traced", traced), ("untraced lockstep", plain)):
            diverged = sum(a != b for a, b in zip(p.slot_hashes, result.slot_hashes))
            if diverged or p.failures:
                failed += diverged + len(p.failures)
                failures.append(f"{label} instance allocated differently from the first pass")
        metrics = per_layer(result, traced, plain, traced_rec)
        print(f"spans {_write_spans(traced_rec, args.workload, args.seed).relative_to(ROOT)}")
    else:
        metrics = end_to_end(result)
    if absent:
        print("absent hooks " + json.dumps(absent))
    print("gate " + json.dumps({"reference": status, "failures": failures[:10]}))

    attempted = len(result.slot_hashes)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
