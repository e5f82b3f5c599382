"""Closed-loop benchmark of rfa.

    python3 bench/run.py --workload presets --seed 1 --seconds 40 --trace 0

One client runs one operation at a time, each starting only after the
previous one has finished and been checked.  The operations of a workload
form a round; every round runs the whole mix in a seeded shuffled order,
and the loop starts another round only while it is expected to end within
``--seconds``, after a minimum of two rounds (four for ``calculus``).

``--trace 0`` runs the speed gauge of ``calibrate.py`` beside the loop and
prints the end-to-end metrics with every time at nominal machine speed.
``--trace 1`` alternates traced and untraced rounds, prints the per-layer
metrics of the traced ones plus the tracing overhead, and runs the micro
set.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
environment, also go to ``.bench_out/results/`` and spans to
``.bench_out/traces/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, process_time

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
# kernel runs each set-up probe makes to gauge its speed
SETUP_KERNELS = 30
TAIL_BEYOND = 10
# a run stops starting rounds once its measured time would pass this many --seconds
RAW_LIMIT = 2.0

# Gated end-to-end metrics, as listed in BENCHMARK.json.
E2E_METRICS = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Record:
    label: str
    wall_s: float
    cpu_s: float
    traced: bool
    rel_error: float
    error: str | None
    start: float = 0.0


def run_one(op: workloads.Op, tracer=None) -> Record:
    """Run and check one operation; a raise or a failed check is a failure."""
    traced = tracer is not None
    c0, t0 = process_time(), perf_counter()
    try:
        out = tracer.run_op(op.label, op.run) if traced else op.run()
    except Exception as exc:  # the loop measures on; the failure is counted
        wall, cpu = perf_counter() - t0, process_time() - c0
        return Record(op.label, wall, cpu, traced, math.nan, f"{type(exc).__name__}: {exc}", t0)
    wall, cpu = perf_counter() - t0, process_time() - c0
    try:
        err = float(op.check(out))
    except Exception as exc:  # malformed output can break a check in any way
        return Record(op.label, wall, cpu, traced, math.nan, f"check: {type(exc).__name__}: {exc}", t0)
    error = None if err <= op.tolerance else f"relative error {err:.3g} exceeds {op.tolerance:g}"
    return Record(op.label, wall, cpu, traced, err, error, t0)


def run_loop(workload: workloads.Workload, seconds: float, rng: random.Random, tracer=None, gauge=None):
    """Whole rounds, as many as fit in ``seconds``; returns records and round times.

    With a ``gauge`` the rounds that fit are counted in nominal time, so a
    run makes as many rounds on a slow moment of the machine as on a fast
    one, within RAW_LIMIT times ``seconds`` of measured time.
    """
    records: list[Record] = []
    round_times: list[float] = []
    nominal: list[float] = []
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(round_times) % 2 == 0
        units = list(workload.units)
        rng.shuffle(units)
        r0 = perf_counter()
        if traced:
            tracer.install()
        try:
            for unit in units:
                for op in unit:
                    records.append(run_one(op, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        round_times.append(perf_counter() - r0)
        nominal.append(round_times[-1] if gauge is None else gauge.normalise(r0, round_times[-1], 0.0)[0])
        raw_next = perf_counter() - begin + statistics.fmean(round_times)
        if len(round_times) >= workload.min_rounds and (
            sum(nominal) + statistics.fmean(nominal) > seconds or raw_next > RAW_LIMIT * seconds
        ):
            return records, round_times


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until the first operation could start.

    Returns the probe times and, for each probe, the factor that states
    its time at the nominal machine speed, from kernel runs the probe made
    right after its set-up.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
        f"workloads.probe({workload!r}, {seed}, {str(ROOT)!r}, {SETUP_KERNELS})"
    )
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            after = proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(elapsed)
        scales.append(calibrate.scale(json.loads(after)))
    return times, scales


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def end_to_end(records: list[Record], gauge, setup_times, setup_scales) -> dict:
    """End-to-end metrics of the untraced records.

    With a ``gauge`` every time is stated at the gauge's nominal machine
    speed; without one, as measured.
    """
    timed = [r for r in records if not r.traced]
    if gauge is None:
        walls = [r.wall_s for r in timed]
        cpus = [r.cpu_s for r in timed]
        setup = statistics.median(setup_times)
    else:
        walls, cpus = zip(*(gauge.normalise(r.start, r.wall_s, r.cpu_s) for r in timed))
        setup = statistics.median(t * s for t, s in zip(setup_times, setup_scales))
    tail_s, tail_pct, n = tail(walls)
    return {
        "throughput_ops_s": len(walls) / sum(walls),
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "samples": n,
        "cpu_ms_per_op": 1e3 * sum(cpus) / len(cpus),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def checks(records: list[Record]) -> dict:
    errors = [r.rel_error for r in records if not math.isnan(r.rel_error)]
    failed = sum(r.error is not None for r in records)
    return {
        "failed_ops_ratio": failed / len(records),
        # with no operation checked there is no error to report: count it as 100%
        "max_rel_error": max(errors) if errors else 1.0,
    }


def layer(records: list[Record], tracer: tracing.Tracer, rfa) -> dict:
    traced = [r.wall_s for r in records if r.traced]
    untraced = [r.wall_s for r in records if not r.traced]
    plain = statistics.fmean(untraced)
    _, self_t = tracer.self_times()
    m = tracer.layer_metrics()
    m.update(tracing.micro(rfa))
    m["trace.overhead_ratio"] = statistics.fmean(traced) / plain
    m["trace.self_sum_ratio"] = float(self_t.sum()) / len(traced) / plain
    c = checks(records)
    m["check.max_rel_error"] = c["max_rel_error"]
    m["check.failed_ops_ratio"] = c["failed_ops_ratio"]
    return m


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        rfa = workloads.load_program(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, rfa, work_dir)
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    # Traced runs keep their spans free of gauge runs; their times are as measured.
    tracer = tracing.Tracer(rfa) if args.trace else None
    gauge = None if args.trace else calibrate.Gauge()
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_scales = measure_setup(args.workload, args.seed)
        with gauge or contextlib.nullcontext():
            records, round_times = run_loop(workload, args.seconds, rng, tracer, gauge)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    e2e = end_to_end(records, gauge, setup_times, setup_scales)
    measured = end_to_end(records, None, setup_times, setup_scales)
    c = checks(records)
    failed = sum(r.error is not None for r in records)
    result = {
        "environment": env,
        "rounds": len(round_times),
        "round_s": round_times,
        "setup_probes_s": setup_times,
        "end_to_end": {**e2e, **c},
        "end_to_end_as_measured": measured,
        "gauge_runs": 0 if gauge is None else len(gauge.at),
        "tolerances": workload.tolerances,
        "failures": [asdict(r) for r in records if r.error is not None][:20],
        # label, wall and CPU seconds as measured, traced, nominal wall seconds
        "ops": [
            [r.label, r.wall_s, r.cpu_s, r.traced, gauge and gauge.normalise(r.start, r.wall_s, r.cpu_s)[0]]
            for r in records
        ],
    }
    print(
        f"workload {args.workload} seed {args.seed}: {len(records)} ops in {len(round_times)} rounds "
        f"({sum(round_times):.1f} s), closed loop, 1 client"
    )
    if gauge is not None:
        print(f"  times at nominal speed ({len(gauge.at)} gauge runs); as measured in brackets")
    else:
        print("  times as measured (traced runs run no gauge)")
    for name, unit in E2E_METRICS:
        note = ""
        if gauge is not None and unit != "MB":
            note = f"  [{_fmt(measured[name])}]"
        if name == "latency_tail_ms":
            note += f"  (p{e2e['tail_percentile']:.1f} of {e2e['samples']} samples)"
        elif name == "setup_s":
            note += f"  (median of {SETUP_PROBES} fresh interpreters)"
        print(f"  {name:<28} {_fmt(e2e[name]):>14} {unit}{note}")
    print(f"  {'failed_ops_ratio':<28} {_fmt(c['failed_ops_ratio']):>14} ratio  ({failed}/{len(records)})")
    print(f"  {'max_rel_error':<28} {_fmt(c['max_rel_error']):>14} ratio  (tolerance {'/'.join(f'{t:g}' for t in workload.tolerances)})")
    if args.trace:
        layer_metrics = layer(records, tracer, rfa)
        result["per_layer"] = layer_metrics
        result["fig6_split"] = tracer.fig6_split()
        env["trace_overhead_ratio"] = layer_metrics["trace.overhead_ratio"]
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:<36} {_fmt(layer_metrics[name]):>14} {unit}")
        if result["fig6_split"]:
            split = result["fig6_split"]
            stages = ", ".join(f"{k} {v:.1f}" for k, v in split["ms"].items())
            print(f"  fig6 split (ms): {stages}; order {'matches' if split['matches_roadmap_order'] else 'differs from'} ROADMAP item 1")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "traces" / f"{args.workload}-seed{args.seed}.npz")
        metrics = {name: {"value": layer_metrics[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_METRICS}
    for r in result["failures"][:3]:
        print(f"  failed: {r['label']}: {r['error']}")
    print("env " + json.dumps(env, sort_keys=True))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    out_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
