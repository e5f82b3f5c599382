"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench/tests``.  The
subprocess smoke run takes about half a minute; the in-process runs of
every operation about as long again.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rfa():
    return workloads.load_program(ROOT)


def test_metric_and_workload_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_operation_of_each_workload_passes_its_checks(name, rfa, tmp_path):
    workload = workloads.build(name, 7, rfa, tmp_path)
    records = [run.run_one(op) for op in workload.ops]
    assert [r.error for r in records if r.error] == []
    assert all(r.rel_error <= op.tolerance for r, op in zip(records, workload.ops))


def test_same_seed_gives_same_inputs(rfa, tmp_path):
    def outputs(seed):
        ops = workloads.build("calculus", seed, rfa, tmp_path).ops
        return [op.run() for op in ops if op.label.startswith("eval")]

    assert outputs(3) == outputs(3) != outputs(4)


def test_wrong_reference_counts_as_failed_operation(rfa, tmp_path, monkeypatch):
    workload = workloads.build("calculus", 7, rfa, tmp_path)
    monkeypatch.setattr(
        workloads, "eval_reference", lambda fn, values: fn(*values) * (1.0 + 1e-3)
    )
    evals = [op for op in workload.ops if op.label.startswith("eval")]
    records = [run.run_one(op) for op in evals]
    assert all("exceeds" in r.error for r in records)
    assert run.checks(records)["failed_ops_ratio"] == 1.0


def test_broken_band_output_counts_as_failed_operation(rfa, tmp_path, monkeypatch):
    workload = workloads.build("presets", 7, rfa, tmp_path)
    op = next(op for op in workload.ops if op.label == "fig2")
    real_run = op.run

    def swapped_bands():
        table, written = real_run()
        lo, hi = table.band_columns["w"]["0"]
        i, j = table.columns.index(lo), table.columns.index(hi)
        for row in table.rows:
            row[i], row[j] = row[j] + 1.0, row[i]
        return table, written

    op.run = swapped_bands
    record = run.run_one(op)
    assert record.error is not None and "band" in record.error


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_gauge_takes_its_runs_out_and_scales_to_nominal_speed():
    gauge = calibrate.Gauge()
    ref = calibrate.REFERENCE_MS / 1e3
    # four kernel runs, each at half the nominal speed; the work spans the middle two
    for at in (0.0, 0.5, 1.0, 1.5):
        gauge.at.append(at)
        gauge.wall.append(2 * ref)
        gauge.cpu.append(4 * ref)
    wall, cpu = gauge.normalise(0.4, 0.7, 0.9)
    assert wall == pytest.approx((0.7 - 4 * ref) / 2)
    assert cpu == pytest.approx((0.9 - 8 * ref) / 4)
    # work between two runs is scaled by the nearest ones
    assert gauge.normalise(0.2, 0.01, 0.01)[0] == pytest.approx(0.005)


def test_gauge_runs_while_started_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Gauge() as gauge:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    assert len(gauge.at) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_self_times_cover_the_operation_and_restore_names(rfa, tmp_path):
    workload = workloads.build("calculus", 7, rfa, tmp_path)
    op = next(op for op in workload.ops if op.label.startswith("integrate-trapezoid"))
    original = rfa.cli_main.eval_expression
    tracer = tracing.Tracer(rfa)
    tracer.install()
    try:
        record = run.run_one(op, tracer)
    finally:
        tracer.uninstall()
    assert record.error is None
    assert rfa.cli_main.eval_expression is original
    _, own = tracer.self_times()
    assert abs(own.sum() - tracer.totals()[0][tracing.ROOT_SPAN]) < 1e-9
    m = tracer.layer_metrics()
    assert m["analytic.integrand_evals"] == workloads.SAMPLES
    assert m["cli.expressions.eval_calls"] == workloads.SAMPLES
    assert m["core.lc_ops"] > workloads.SAMPLES
    assert m["dynamics.rk4_steps"] == 0


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_of_its_mode(trace):
    proc = _bench("--workload", "calculus", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for line in ("failed_ops_ratio", "max_rel_error", "latency_tail_ms"):
        assert line in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = _bench("--workload", "calculus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
