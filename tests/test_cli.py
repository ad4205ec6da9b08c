import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qentropy
from qentropy import quantum
from qentropy.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestFig1:
    def test_default_columns_and_values(self, runner, tmp_path):
        out = tmp_path / "fig1.csv"
        result = runner.invoke(
            main, ["fig1", "--n-trunc", "12", "--m-trunc", "400",
                   "--output", str(out)]
        )
        assert result.exit_code == 0
        comments, header, rows = read_csv(out)
        assert header == ["level", "classical_entropy", "quantum_entropy"]
        assert len(rows) == 13
        assert any("work=10" in c for c in comments)
        # classical column is ln(max(n + 1/2, work)), 12 significant digits
        first = rows[0]
        assert float(first[1]) == pytest.approx(math.log(10.0), rel=1e-11)
        last = rows[12]
        assert float(last[1]) == pytest.approx(math.log(12.5), rel=1e-11)
        # every quantum value finite, 12 significant digits formatting
        for row in rows:
            assert len(row) == 3
            float(row[2])

    def test_rejects_negative_work(self, runner, tmp_path):
        result = runner.invoke(
            main, ["fig1", "--work", "-1", "--output", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_fixed_cut_mass_loss_warns(self, runner, tmp_path):
        out = tmp_path / "fig1.csv"
        with pytest.warns(quantum.TruncationWarning) as caught:
            result = runner.invoke(
                main, ["fig1", "--n-trunc", "900", "--output", str(out)]
            )
        assert result.exit_code == 0
        # one block, so one warning, naming the worst row
        truncation = [w for w in caught
                      if issubclass(w.category, quantum.TruncationWarning)]
        assert len(truncation) == 1
        message = str(truncation[0].message)
        assert "level 900 keeps mass 0.658" in message
        assert "fixed top 1000" in message


class TestFig2:
    def test_small_grid(self, runner, tmp_path):
        out = tmp_path / "fig2.csv"
        result = runner.invoke(
            main,
            ["fig2", "--t-min", "1", "--t-max", "6", "--t-step", "1",
             "--m-trunc", "400", "--output", str(out)],
        )
        assert result.exit_code == 0
        _, header, rows = read_csv(out)
        assert header == ["switching_time", "work",
                          "classical_delta_entropy", "quantum_delta_entropy"]
        assert [float(r[0]) for r in rows] == [1, 2, 3, 4, 5, 6]
        for row in rows:
            work = float(row[1])
            classical = float(row[2])
            if work <= 2.5:
                assert classical == 0.0
            else:
                assert classical == pytest.approx(
                    math.log(work / 2.5), rel=1e-10
                )

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["fig2", "--t-min", "0.5", "--t-max", "4", "--t-step", "0.5",
                "--m-trunc", "300"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--output", str(out_a)]).exit_code == 0
        assert runner.invoke(main, args + ["--output", str(out_b)]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_adaptive_mode_matches_fixed_cut(self, runner, tmp_path):
        fixed = tmp_path / "fixed.csv"
        adaptive = tmp_path / "adaptive.csv"
        base = ["fig2", "--t-min", "2", "--t-max", "3", "--t-step", "1"]
        assert runner.invoke(
            main, base + ["--m-trunc", "1000", "--output", str(fixed)]
        ).exit_code == 0
        assert runner.invoke(
            main, base + ["--m-trunc", "0", "--output", str(adaptive)]
        ).exit_code == 0
        _, _, rows_fixed = read_csv(fixed)
        _, _, rows_adaptive = read_csv(adaptive)
        for fixed_row, adaptive_row in zip(rows_fixed, rows_adaptive):
            assert float(fixed_row[3]) == pytest.approx(
                float(adaptive_row[3]), abs=1e-9
            )

    def test_grid_validation(self, runner, tmp_path):
        for bad in (["--t-min", "0"], ["--t-step", "-1"], ["--t-step", "0"],
                    ["--t-min", "5", "--t-max", "1"], ["--level", "-1"],
                    ["--m-trunc", "-1"]):
            result = runner.invoke(
                main, ["fig2", *bad, "--output", str(tmp_path / "bad.csv")]
            )
            assert result.exit_code == 2, bad
            assert not (tmp_path / "bad.csv").exists()


class TestFig3:
    def test_small_grid_nonnegative(self, runner, tmp_path):
        out = tmp_path / "fig3.csv"
        result = runner.invoke(
            main,
            ["fig3", "--n-trunc", "25", "--t-min", "1", "--t-max", "8",
             "--t-step", "1", "--m-trunc", "400", "--output", str(out)],
        )
        assert result.exit_code == 0
        comments, header, rows = read_csv(out)
        assert header == ["switching_time", "work",
                          "classical_delta_entropy", "quantum_delta_entropy"]
        for row in rows:
            assert float(row[2]) >= 0.0
            assert float(row[3]) >= 0.0
        assert any("tail" in c for c in comments)
        assert any("caption" in c for c in comments)

    def test_rejects_bad_beta(self, runner, tmp_path):
        result = runner.invoke(
            main, ["fig3", "--beta", "0", "--output", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2


@pytest.mark.filterwarnings("error::qentropy.quantum.TruncationWarning")
@pytest.mark.parametrize("mode, m_trunc", [("fixed", "1000"), ("adaptive", "0")])
@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_default_figures_match_reference(runner, tmp_path, figure, mode, m_trunc):
    # reference CSVs written by the original per-row code; a field may
    # move by at most 1e-10 relative (absolute 1e-14 near zero)
    out = tmp_path / f"{figure}.csv"
    result = runner.invoke(main, [figure, "--m-trunc", m_trunc, "--output", str(out)])
    assert result.exit_code == 0, result.output
    _, header, rows = read_csv(out)
    reference = REFERENCE / f"figures-{mode}" / f"{figure}.csv"
    _, want_header, want_rows = read_csv(reference)
    assert header == want_header
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        assert len(got) == len(want)
        for value, expected in zip(map(float, got), map(float, want)):
            assert abs(value - expected) <= max(1e-10 * abs(expected), 1e-14), (
                got, want)


@pytest.mark.parametrize("args", [
    ["fig1", "--work", "nan"],
    ["fig1", "--work", "inf"],
    ["fig1", "--tail-mass", "nan"],
    ["fig2", "--amplitude", "nan"],
    ["fig2", "--t-min", "nan"],
    ["fig2", "--t-max", "inf"],
    ["fig2", "--t-step", "nan"],
    ["fig3", "--beta", "inf"],
    ["fig3", "--amplitude", "-inf"],
])
def test_rejects_non_finite_options(runner, tmp_path, args):
    out = tmp_path / "bad.csv"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 2
    assert "not a finite number" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["fig1", "--n-trunc", "1001"],
        ["fig2", "--level", "1001", "--t-max", "1"],
        ["fig3", "--n-trunc", "1001", "--t-max", "1"],
        ["fig2", "--level", "6000", "--m-trunc", "0", "--t-max", "1"],
    ],
    ids=["fig1-fixed", "fig2-fixed", "fig3-fixed", "fig2-adaptive"],
)
def test_rejects_level_above_the_truncation(runner, tmp_path, args):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 2
    assert "initial level" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["fig1", "--work", "4800", "--n-trunc", "0", "--m-trunc", "0"],
        ["fig2", "--amplitude", "80", "--m-trunc", "0"],
    ],
    ids=["fig1", "fig2"],
)
def test_truncation_error_is_one_line(runner, tmp_path, args):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: mass ")
    assert f"hard cap {quantum.HARD_CAP}" in result.output
    assert result.output.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig2", "fig3"])
def test_rejects_amplitude_whose_work_overflows(runner, tmp_path, figure):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [figure, "--amplitude", "1e200", "--t-max", "1",
                                  "--output", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and "--amplitude" in errors[0]
    assert "Traceback" not in result.output
    assert not out.exists()


def test_rejects_out_of_range_tail_mass(runner, tmp_path):
    # checked under a fixed cut too, where the rows never read it
    for m_trunc in ("0", "1000"):
        result = runner.invoke(main, ["fig1", "--m-trunc", m_trunc, "--tail-mass",
                                      "2", "--output", str(tmp_path / "bad.csv")])
        assert result.exit_code == 2
        assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["fig1", "--work", "2000", "--n-trunc", "5"],
        ["fig2", "--amplitude", "1e10", "--t-max", "1"],
        ["fig3", "--amplitude", "1e10", "--t-max", "1"],
    ],
    ids=["fig1", "fig2", "fig3"],
)
def test_rejects_fixed_cut_below_the_mean_level(runner, tmp_path, args):
    # the highest initial level plus the largest work is the mean final
    # level; a fixed cut below it would write rows that keep no mass
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 2
    assert "mean final level" in result.output
    assert "--m-trunc 1000" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fig1", "--n-trunc", "3"],
    ["fig2", "--t-max", "1"],
    ["fig3", "--t-max", "1", "--n-trunc", "5"],
])
def test_parameters_header_lists_the_declared_options(runner, tmp_path, args):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 0, result.output
    comments, _, _ = read_csv(out)
    assert comments[0] == f"# qentropy {args[0]}"
    assert comments[1].startswith("# parameters: ")
    header = dict(item.split("=") for item in comments[1].split()[2:])
    declared = [param.opts[0] for param in main.commands[args[0]].params]
    assert declared[-1] == "--output"
    assert ["--" + key for key in header] == declared[:-1]
    assert header[args[-2][2:]] == args[-1]


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only numerical dependency of the package; scipy is a
    # test-only reference
    script = (
        "import sys, qentropy.cli\n"
        "for args in (['fig1', '--n-trunc', '3'], ['fig2', '--t-max', '1'],\n"
        "             ['fig3', '--t-max', '1', '--n-trunc', '5'],\n"
        "             ['verify', '--trials', '10'], ['theorem-demo']):\n"
        "    try:\n"
        "        qentropy.cli.main(args=args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, None), exc.code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(qentropy.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["verify", "theorem-demo"])
def test_rejects_negative_seed(runner, command):
    # numpy's generators take only non-negative seeds
    result = runner.invoke(main, [command, "--seed", "-1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


class TestVerify:
    def test_passes_and_is_deterministic(self, runner):
        args = ["verify", "--trials", "60", "--seed", "321"]
        first = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        assert first.output.count("PASS") == 12
        assert "FAIL" not in first.output
        second = runner.invoke(main, args)
        assert second.output == first.output

    def test_rejects_bad_trials(self, runner):
        assert runner.invoke(main, ["verify", "--trials", "0"]).exit_code == 2

    def test_exit_one_on_violation(self, runner, monkeypatch):
        from qentropy import verify as verify_mod

        broken = verify_mod.CheckResult("synthetic", False, 1.0, 0.0)
        monkeypatch.setattr(verify_mod, "run_all", lambda seed, trials: [broken])
        result = runner.invoke(main, ["verify", "--trials", "1"])
        assert result.exit_code == 1
        assert "FAIL synthetic" in result.output


class TestTheoremDemo:
    def test_shows_both_orderings(self, runner):
        result = runner.invoke(main, ["theorem-demo", "--dim", "5", "--seed", "3"])
        assert result.exit_code == 0
        assert "is_decreasing=True" in result.output
        assert "is_decreasing=False" in result.output
        assert "guaranteed non-negative" in result.output
        assert "positivity reported, not asserted" in result.output

    def test_direct_equals_by_parts_in_output(self, runner):
        result = runner.invoke(main, ["theorem-demo", "--dim", "2", "--seed", "1"])
        assert result.exit_code == 0
        for line in result.output.splitlines():
            if line.startswith("entropy change"):
                parts = dict(
                    item.split("=") for item in line.split() if "=" in item
                )
                assert float(parts["direct"]) == pytest.approx(
                    float(parts["by-parts"]), abs=1e-12
                )

    def test_rejects_small_dim(self, runner):
        assert runner.invoke(main, ["theorem-demo", "--dim", "1"]).exit_code == 2
