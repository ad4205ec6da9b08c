"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/selftest.py

The file name keeps pytest's default collection from picking these up
in the library's suite; they start fresh interpreters and take about
half a minute.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import check
import run

FIG3_REFERENCE = run.REFERENCE / "figures-fixed" / "fig3.csv"
CHECKS_REFERENCE = run.REFERENCE / "verify-suite" / "checks.txt"


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                    encoding="utf-8")
    return path


def tiny_fig3_reference(path: Path) -> Path:
    """The rows of the default fig3 reference that ``--t-step 5`` reproduces.

    Both grids start at 0.25, so ``--t-step 5`` visits every 20th
    switching time of the default ``--t-step 0.25`` grid.
    """
    header, rows = check.read_csv(FIG3_REFERENCE)
    return write_csv(path, header, rows[::20])


def tiny_runner(tmp_path: Path) -> tuple[run.Runner, callable]:
    runner = run.Runner(run.HERE.parent, tmp_path, time.perf_counter() + 150.0)
    reference = tiny_fig3_reference(tmp_path / "reference.csv")
    csv = tmp_path / "fig3.csv"
    command = run.Command(["fig3", "--t-step", "5", "--output", str(csv)],
                          reference, csv)
    return runner, lambda: [command]


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(tmp_path, trace):
    runner, make_pass = tiny_runner(tmp_path)
    result = run.measure(runner, make_pass, seconds=0.0, trace=trace)
    lines, summary = run.summarize(result, trace)
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    named = spec["per_layer" if trace else "end_to_end"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 1 + 6
    assert set(summary["metrics"]) == {m["name"] for m in named}
    for metric in named:
        reported = summary["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert any(line.split()[:1] == [metric["name"]] for line in lines)
    if trace:
        metrics = {k: v["value"] for k, v in summary["metrics"].items()}
        assert metrics["quantum.rows"] == 6 * 101
        assert metrics["schrodinger.calls"] == 0
        assert metrics["cli.csv_bytes"] > 0
        assert 0 < metrics["trace.overhead_frac"] < 0.1
    else:
        assert len(result["samples"]["setup_s"]) == result["passes"]
        assert 0 < result["samples"]["setup_s"][0] < result["samples"]["wall_s"][0]


def test_layer_metrics_refuse_quantum_spans_without_rows():
    span = ["quantum", "transition_row_fixed", -1, 0.0, 1.0, 0.0, 1.0, None]
    traced = run.Pass(run_s=1.0, records=[{"run_s": 1.0, "spans": [span]}])
    with pytest.raises(RuntimeError, match="TransitionRow"):
        run.layer_metrics(traced)


def test_run_counts_a_row_that_differs_from_its_reference(tmp_path):
    runner, make_pass = tiny_runner(tmp_path)
    [command] = make_pass()
    header, rows = check.read_csv(command.reference)
    rows[2][3] = format(float(rows[2][3]) * (1 + 1e-9), ".12g")
    write_csv(command.reference, header, rows)
    result = runner.run_pass([command], trace=False)
    assert (result.attempted, result.failed) == (1 + 6, 1)


def test_csv_tolerance_passes_last_digit_and_catches_real_change(tmp_path):
    header, rows = check.read_csv(FIG3_REFERENCE)

    def perturbed(row: int, column: int, value: str) -> Path:
        changed = [list(r) for r in rows]
        changed[row][column] = value
        return write_csv(tmp_path / "perturbed.csv", header, changed)

    original = rows[40][3]
    assert check.compare_csv(FIG3_REFERENCE, FIG3_REFERENCE) == (len(rows), 0)
    last_digit = format(float(original) * (1 + 1e-12), ".12g")
    assert check.compare_csv(perturbed(40, 3, last_digit), FIG3_REFERENCE) \
        == (len(rows), 0)
    for relative in (2e-10, 1e-9, 1e-6):
        wrong = format(float(original) * (1 + relative), ".12g")
        assert check.compare_csv(perturbed(40, 3, wrong), FIG3_REFERENCE) \
            == (len(rows), 1)
    short = write_csv(tmp_path / "short.csv", header, rows[:-2])
    assert check.compare_csv(short, FIG3_REFERENCE) == (len(rows), 2)
    assert check.compare_csv(tmp_path / "missing.csv", FIG3_REFERENCE) \
        == (len(rows), len(rows))


def test_verify_check_failures_are_counted():
    names = CHECKS_REFERENCE.read_text().split()
    passing = "\n".join(f"PASS {name} observed=0 bound=1" for name in names)
    assert check.compare_checks(passing, CHECKS_REFERENCE) == (12, 0)
    one_fail = passing.replace("PASS oracle_agreement", "FAIL oracle_agreement")
    assert check.compare_checks(one_fail, CHECKS_REFERENCE) == (12, 1)
    assert check.compare_checks(passing + "\nPASS extra_check", CHECKS_REFERENCE) \
        == (13, 1)
    assert check.compare_checks("\n".join(passing.splitlines()[1:]),
                                CHECKS_REFERENCE) == (12, 1)


def test_verify_seeds_follow_the_benchmark_seed(tmp_path):
    def seeds(seed):
        rng = random.Random(seed)
        return [run.workload_commands("verify-suite", rng, tmp_path)[0].args
                for _ in range(3)]

    assert seeds(5) == seeds(5)
    assert seeds(5) != seeds(6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
