import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qentropy
from qentropy import cli, quantum
from qentropy.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run(argv):
    """Call ``main(argv)`` in this process; its exit code, its stdout and
    stderr as one text, and the ``SystemExit`` it raised, if any."""
    output, exit_code, exception = StringIO(), 0, None
    with redirect_stdout(output), redirect_stderr(output):
        try:
            main(argv)
        except SystemExit as exc:
            exit_code, exception = exc.code or 0, exc
    return SimpleNamespace(exit_code=exit_code, output=output.getvalue(),
                           exception=exception)


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
    def test_default_columns_and_values(self, tmp_path):
        out = tmp_path / "fig1.csv"
        result = run(["fig1", "--n-trunc", "12", "--m-trunc", "400",
                      "--output", str(out)])
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

    def test_rejects_negative_work(self, tmp_path):
        result = run(["fig1", "--work", "-1", "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_fixed_cut_mass_loss_warns(self, tmp_path):
        out = tmp_path / "fig1.csv"
        with pytest.warns(quantum.TruncationWarning) as caught:
            result = run(["fig1", "--n-trunc", "900", "--output", str(out)])
        assert result.exit_code == 0
        # one block, so one warning, naming the worst row
        truncation = [w for w in caught
                      if issubclass(w.category, quantum.TruncationWarning)]
        assert len(truncation) == 1
        message = str(truncation[0].message)
        assert "level 900 keeps mass 0.658" in message
        assert "fixed top 1000" in message


class TestFig2:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "fig2.csv"
        result = run(["fig2", "--t-min", "1", "--t-max", "6", "--t-step", "1",
                      "--m-trunc", "400", "--output", str(out)])
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

    def test_byte_identical_reruns(self, tmp_path):
        args = ["fig2", "--t-min", "0.5", "--t-max", "4", "--t-step", "0.5",
                "--m-trunc", "300"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(args + ["--output", str(out_a)]).exit_code == 0
        assert run(args + ["--output", str(out_b)]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_adaptive_mode_matches_fixed_cut(self, tmp_path):
        fixed = tmp_path / "fixed.csv"
        adaptive = tmp_path / "adaptive.csv"
        base = ["fig2", "--t-min", "2", "--t-max", "3", "--t-step", "1"]
        assert run(base + ["--m-trunc", "1000", "--output", str(fixed)]).exit_code == 0
        assert run(base + ["--m-trunc", "0", "--output", str(adaptive)]).exit_code == 0
        _, _, rows_fixed = read_csv(fixed)
        _, _, rows_adaptive = read_csv(adaptive)
        for fixed_row, adaptive_row in zip(rows_fixed, rows_adaptive):
            assert float(fixed_row[3]) == pytest.approx(
                float(adaptive_row[3]), abs=1e-9
            )

    def test_grid_validation(self, tmp_path):
        for bad in (["--t-min", "0"], ["--t-step", "-1"], ["--t-step", "0"],
                    ["--t-min", "5", "--t-max", "1"], ["--level", "-1"],
                    ["--m-trunc", "-1"]):
            result = run(["fig2", *bad, "--output", str(tmp_path / "bad.csv")])
            assert result.exit_code == 2, bad
            assert not (tmp_path / "bad.csv").exists()


class TestFig3:
    def test_small_grid_nonnegative(self, tmp_path):
        out = tmp_path / "fig3.csv"
        result = run(["fig3", "--n-trunc", "25", "--t-min", "1", "--t-max", "8",
                      "--t-step", "1", "--m-trunc", "400", "--output", str(out)])
        assert result.exit_code == 0
        comments, header, rows = read_csv(out)
        assert header == ["switching_time", "work",
                          "classical_delta_entropy", "quantum_delta_entropy"]
        for row in rows:
            assert float(row[2]) >= 0.0
            assert float(row[3]) >= 0.0
        assert any("tail" in c for c in comments)
        assert any("caption" in c for c in comments)

    @pytest.mark.parametrize("m_trunc", ["1000", "0"])
    def test_default_thermal_sum_stops_by_level_29(self, tmp_path, m_trunc):
        out = tmp_path / "fig3.csv"
        result = run(["fig3", "--m-trunc", m_trunc, "--output", str(out)])
        assert result.exit_code == 0, result.output
        comments, _, _ = read_csv(out)
        [note] = [c for c in comments if "thermal sum" in c]
        last = int(note.split("at most level ")[1].split()[0])
        assert last <= 29
        assert "of n-trunc 100 " in note

    def test_rejects_bad_beta(self, tmp_path):
        result = run(["fig3", "--beta", "0", "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_rejects_beta_whose_product_with_the_work_overflows(self, tmp_path):
        out = tmp_path / "out.csv"
        result = run(["fig3", "--beta", "1e308", "--output", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1 and "--beta" in errors[0] and "overflows" in errors[0]
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("beta, expected", [("1e12", "30.1479337993"),
                                                ("1e300", "693.292440582")])
    def test_large_beta_writes_the_closed_form(self, tmp_path, beta, expected):
        # gamma + ln s + E1(s) at s = beta * 6.95664291704, where E1 is 0
        out = tmp_path / "out.csv"
        result = run(["fig3", "--beta", beta, "--t-min", "1", "--t-max", "1",
                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        [row] = read_csv(out)[2]
        assert row[2] == expected


@pytest.mark.filterwarnings("error::qentropy.quantum.TruncationWarning")
@pytest.mark.parametrize("mode, m_trunc", [("fixed", "1000"), ("adaptive", "0")])
@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_default_figures_match_reference(tmp_path, figure, mode, m_trunc):
    # reference CSVs written by the original per-row code; a field may
    # move by at most 1e-10 relative (absolute 1e-14 near zero)
    out = tmp_path / f"{figure}.csv"
    result = run([figure, "--m-trunc", m_trunc, "--output", str(out)])
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
    ["fig3", "--t-min", "inf"],
    ["fig2", "--amplitude", "nan"],
    ["fig2", "--t-min", "nan"],
    ["fig2", "--t-max", "inf"],
    ["fig2", "--t-step", "nan"],
    ["fig3", "--beta", "inf"],
    ["fig3", "--amplitude", "-inf"],
    ["fig2", "--t-max", "-Infinity"],
])
def test_rejects_non_finite_options(tmp_path, args):
    out = tmp_path / "bad.csv"
    result = run(args + ["--output", str(out)])
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
def test_rejects_level_above_the_truncation(tmp_path, args):
    out = tmp_path / "out.csv"
    result = run(args + ["--output", str(out)])
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
def test_truncation_error_is_one_line(tmp_path, args):
    out = tmp_path / "out.csv"
    result = run(args + ["--output", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: mass ")
    assert f"hard cap {quantum.HARD_CAP}" in result.output
    assert result.output.count("\n") == 1
    assert not out.exists()


def test_tiny_work_adaptive_rows_still_raise(tmp_path):
    # work 7.8e-13: the rows' own rounding takes level 90 below the 1e-12
    # tail target though no mass is lost (a known limit of the adaptive
    # cut); at beta 0.1 the thermal sum sweeps every level and meets it
    out = tmp_path / "out.csv"
    result = run(["fig3", "--m-trunc", "0", "--beta", "0.1",
                  "--t-min", "21.99115", "--t-max", "21.99115",
                  "--output", str(out)])
    assert result.exit_code == 1
    assert result.output == (
        "Error: mass 0.999999999998794 below target 0.999999999999000 at the hard "
        "cap 5000 (level=90, work=7.772082824405806e-13)\n")
    assert not out.exists()


def test_tiny_work_adaptive_sum_ends_before_the_rows_that_raise(tmp_path):
    # at beta 2 the same work's sum ends at level 33, within the tail
    # target of the fixed cut's value
    texts = []
    for m_trunc in ("0", "1000"):
        out = tmp_path / f"out{m_trunc}.csv"
        result = run(["fig3", "--m-trunc", m_trunc, "--t-min", "21.99115",
                      "--t-max", "21.99115", "--output", str(out)])
        assert result.exit_code == 0, result.output
        texts.append(out.read_text())
    assert "reaches at most level 33 of n-trunc 100" in texts[0]
    adaptive, fixed = (float(text.splitlines()[-1].split(",")[-1]) for text in texts)
    assert abs(adaptive - fixed) <= 1e-12


@pytest.mark.parametrize("figure", ["fig2", "fig3"])
def test_rejects_amplitude_whose_work_overflows(tmp_path, figure):
    out = tmp_path / "out.csv"
    result = run([figure, "--amplitude", "1e200", "--t-max", "1",
                  "--output", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and "--amplitude" in errors[0]
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fig2", "--t-step", "1e-12"],
    ["fig3", "--t-step", "5e-324"],
    ["fig2", "--t-min", "1", "--t-max", "1000001", "--t-step", "1"],
], ids=["fig2", "fig3-subnormal-step", "one-past-the-ceiling"])
def test_rejects_duration_grid_above_the_ceiling(tmp_path, args):
    out = tmp_path / "out.csv"
    result = run(args + ["--output", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith("Error: Invalid value")
    assert str(cli.MAX_DURATIONS) in errors[0]
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["fig1", "--work", "2000", "--n-trunc", "5"],
        ["fig2", "--amplitude", "1e10", "--t-max", "1"],
        ["fig3", "--amplitude", "1e10", "--t-max", "1"],
    ],
    ids=["fig1", "fig2", "fig3"],
)
def test_rejects_fixed_cut_below_the_mean_level(tmp_path, args):
    # the highest initial level plus the largest work is the mean final
    # level; a fixed cut below it would write rows that keep no mass
    out = tmp_path / "out.csv"
    result = run(args + ["--output", str(out)])
    assert result.exit_code == 2
    assert "mean final level" in result.output
    assert "--m-trunc 1000" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fig1", "--n-trunc", "3"],
    ["fig2", "--t-max", "1"],
    ["fig3", "--t-max", "1", "--n-trunc", "5"],
])
def test_parameters_header_lists_the_declared_options(tmp_path, args):
    out = tmp_path / "out.csv"
    result = run(args + ["--output", str(out)])
    assert result.exit_code == 0, result.output
    comments, _, _ = read_csv(out)
    assert comments[0] == f"# qentropy {args[0]}"
    assert comments[1].startswith("# parameters: ")
    header = dict(item.split("=") for item in comments[1].split()[2:])
    help_text = run([args[0], "--help"]).output
    declared = re.findall(r"^  (--[a-z-]+)", help_text, re.MULTILINE)
    assert declared[0] == "--help"
    declared = declared[1:]
    assert declared[-1] == "--output"
    assert ["--" + key for key in header] == declared[:-1]
    assert header[args[-2][2:]] == args[-1]


@pytest.mark.parametrize("m_trunc", ["0", "1000"])
def test_only_an_adaptive_csv_notes_the_tail_mass(tmp_path, m_trunc):
    out = tmp_path / "out.csv"
    result = run(["fig1", "--n-trunc", "3", "--m-trunc", m_trunc, "--output", str(out)])
    assert result.exit_code == 0, result.output
    comments, _, _ = read_csv(out)
    notes = [line for line in comments if "TAIL_MASS" in line]
    if m_trunc == "0":
        assert notes == ["# note: adaptive truncation: each row keeps all but "
                         f"quantum.TAIL_MASS = {quantum.TAIL_MASS:g} of its mass"]
    else:
        assert notes == []


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


def test_figure_commands_load_only_what_they_run(tmp_path):
    # verify and theorem-demo import their modules when they run, and the
    # package's names are read on first use; beyond what the interpreter
    # loads at start (site may load third-party modules of its own), the
    # figures need the standard library, numpy and the package alone
    script = (
        "import sys\n"
        "bare = {m.split('.')[0] for m in sys.modules}\n"
        "import qentropy.cli\n"
        "for args in (['fig1', '--n-trunc', '3'], ['fig2', '--t-max', '1'],\n"
        "             ['fig3', '--t-max', '1', '--n-trunc', '5']):\n"
        "    qentropy.cli.main(args=args)\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - bare\n"
        "             - set(sys.stdlib_module_names)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('qentropy.')))\n"
        "print('fractions' in sys.modules)\n"
        "from qentropy import ProbabilityVector, verify\n"
        "print(ProbabilityVector.__module__, verify.__name__)\n"
    )
    src = str(Path(qentropy.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    third_party, loaded, fractions, names = result.stdout.splitlines()[-4:]
    assert third_party == str(["numpy", "qentropy"])
    assert loaded == str(["qentropy.classical", "qentropy.cli", "qentropy.quadrature",
                          "qentropy.quantum"])
    assert fractions == "False"  # charlier_direct rounds with int division
    assert names == "qentropy.majorization qentropy.verify"


def test_closed_pipe_ends_quietly(tmp_path):
    # 2048 levels print about 200 kB, more than a pipe holds, so the
    # command is still writing when the reader closes the pipe
    src = str(Path(qentropy.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "qentropy.cli", "theorem-demo", "--dim", "2048"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as process:
        assert process.stdout.readline().startswith(b"--- decreasing populations")
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait(timeout=300) == 1
    assert stderr == b""


@pytest.mark.parametrize("command", ["verify", "theorem-demo"])
def test_rejects_negative_seed(command):
    # numpy's generators take only non-negative seeds
    result = run([command, "--seed", "-1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_rejects_unusable_output_before_computing(tmp_path, monkeypatch, where):
    monkeypatch.chdir(tmp_path)
    output = {"missing-directory": str(tmp_path / "missing" / "out.csv"),
              "directory": str(tmp_path), "empty": ""}[where]
    result = run(["fig1", "--output", output])
    assert result.exit_code == 2
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert "--output" in result.output
    assert list(tmp_path.iterdir()) == []


def test_negative_number_in_any_float_form_is_a_value(tmp_path):
    # argparse alone reads -1e1 as an option string
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(["fig2", "--amplitude", "-1e1", "--t-max", "1",
                "--output", str(spaced)]).exit_code == 0
    assert run(["fig2", "--amplitude=-1e1", "--t-max", "1",
                "--output", str(joined)]).exit_code == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("args", [
    ["fig1", "--wrk", "3"],
    ["fig1", "--wo", "3"],
    ["fig4"],
    [],
    ["fig1", "--tail-mass", "1e-9"],
], ids=["misspelt-option", "abbreviated-option", "unknown-command", "no-command",
        "retired-tail-mass"])
def test_rejects_unknown_input_in_one_line(args):
    result = run(args)
    assert result.exit_code == 2
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1


def test_help_lists_every_option_with_its_default_and_range():
    text = " ".join(run(["fig3", "--help"]).output.split())
    listed = dict(re.findall(r"(--[a-z-]+) [A-Z_]+ [^[]*\[default: ([^]]*)\]", text))
    assert listed == {
        "--amplitude": "6.0; float", "--beta": "2.0; x>0", "--n-trunc": "100; x>=1",
        "--t-min": "0.25; x>0", "--t-max": "30.0; float", "--t-step": "0.25; x>0",
        "--m-trunc": "1000; x>=0", "--output": "fig3.csv; path"}


class TestVerify:
    def test_passes_and_is_deterministic(self):
        args = ["verify", "--trials", "60", "--seed", "321"]
        first = run(args)
        assert first.exit_code == 0, first.output
        assert first.output.count("PASS") == 12
        assert "FAIL" not in first.output
        second = run(args)
        assert second.output == first.output

    @pytest.mark.parametrize("trials", [1, 2, 3])
    def test_few_trials_name_only_the_dimensions_drawn(self, trials):
        result = run(["verify", "--trials", str(trials)])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 12
        dims = ", ".join(["2", "8", "16"][:trials])
        assert f"({trials} trials, dims {dims})\n" in result.output

    def test_rejects_bad_trials(self):
        assert run(["verify", "--trials", "0"]).exit_code == 2

    def test_rejects_trials_above_the_maximum(self):
        # one past the bound only: a value the range admits would allocate
        result = run(["verify", "--trials", str(cli.MAX_TRIALS + 1)])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1 and str(cli.MAX_TRIALS) in errors[0]
        assert "Traceback" not in result.output
        assert f"1<=x<={cli.MAX_TRIALS}" in run(["verify", "--help"]).output

    def test_exit_one_on_violation(self, monkeypatch):
        from qentropy import verify as verify_mod

        broken = verify_mod.CheckResult("synthetic", False, 1.0, 0.0)
        monkeypatch.setattr(verify_mod, "run_all", lambda seed, trials: [broken])
        result = run(["verify", "--trials", "1"])
        assert result.exit_code == 1
        assert "FAIL synthetic" in result.output


class TestTheoremDemo:
    def test_shows_both_orderings(self):
        result = run(["theorem-demo", "--dim", "5", "--seed", "3"])
        assert result.exit_code == 0
        assert "is_decreasing=True" in result.output
        assert "is_decreasing=False" in result.output
        assert "guaranteed non-negative" in result.output
        assert "positivity reported, not asserted" in result.output

    def test_direct_equals_by_parts_in_output(self):
        result = run(["theorem-demo", "--dim", "2", "--seed", "1"])
        assert result.exit_code == 0
        for line in result.output.splitlines():
            if line.startswith("entropy change"):
                parts = dict(
                    item.split("=") for item in line.split() if "=" in item
                )
                assert float(parts["direct"]) == pytest.approx(
                    float(parts["by-parts"]), abs=1e-12
                )

    def test_rejects_small_dim(self):
        assert run(["theorem-demo", "--dim", "1"]).exit_code == 2

    def test_rejects_dim_above_the_maximum(self):
        # one past the bound only: a value the range admits would allocate
        result = run(["theorem-demo", "--dim", str(cli.MAX_DEMO_DIM + 1)])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1 and str(cli.MAX_DEMO_DIM) in errors[0]
        assert "Traceback" not in result.output
        help_text = run(["theorem-demo", "--help"]).output
        assert f"2<=x<={cli.MAX_DEMO_DIM}" in help_text
