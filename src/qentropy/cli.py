"""Command-line surface: figure data as CSV, verification, and a demo.

Commands
--------
fig1          microcanonical entropy after the drive versus initial level
fig2          microcanonical entropy change versus switching time
fig3          canonical entropy change versus switching time
verify        run the invariant suite; exit 0 only if everything passes
theorem-demo  walk one random instance of the entropy-increase theorem

CSV files are UTF-8 with ``#``-prefixed header comments recording every
parameter, then a column-name row, then data rows; floats carry 12
significant digits.  Identical inputs and seeds produce byte-identical
files (grid points are independent, so evaluation order never matters).
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import classical, quantum, verify as verify_mod
from .majorization import (
    ProbabilityVector,
    entropy_change,
    evolve_distribution,
    random_unistochastic,
)

_FLOAT_FMT = ".12g"


class _FiniteFloat(click.types.FloatParamType):
    """A float option that rejects nan and inf."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return value


FINITE = _FiniteFloat()


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def _write_csv(path: str, command: str, params: dict, notes: list[str],
               columns: list[str], rows) -> None:
    lines = [f"# qentropy {command}"]
    lines.append(
        "# parameters: "
        + " ".join(f"{key}={_fmt(value)}" for key, value in params.items())
    )
    for note in notes:
        lines.append(f"# note: {note}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _duration_grid(t_min: float, t_max: float, t_step: float) -> np.ndarray:
    if t_min <= 0.0:
        raise click.BadParameter("--t-min must be positive (the drive needs T > 0)")
    if t_step <= 0.0:
        raise click.BadParameter("--t-step must be positive")
    if t_max < t_min:
        raise click.BadParameter("--t-max must be >= --t-min")
    count = int(math.floor((t_max - t_min) / t_step + 1e-9)) + 1
    return t_min + t_step * np.arange(count)


def _works(amplitude: float, grid: np.ndarray) -> np.ndarray:
    """Half-sine work at every duration of the grid; it must fit a float."""
    with np.errstate(over="ignore"):
        works = classical.work_half_sine(amplitude, grid)
    if not np.isfinite(works).all():
        raise click.BadParameter(f"--amplitude {amplitude:g} makes the work overflow")
    return works


def _truncation(m_trunc: int, tail_mass: float, level: int) -> quantum.TruncationPolicy:
    """Fixed cut at m_trunc > 0, else adaptive; either must reach ``level``."""
    if m_trunc < 0:
        raise click.BadParameter("--m-trunc must be >= 0")
    top = m_trunc or quantum.HARD_CAP
    if level > top:
        raise click.BadParameter(f"initial level {level} is above the top "
                                 f"level {top} that --m-trunc {m_trunc} allows")
    if m_trunc > 0:
        return quantum.TruncationPolicy(top=m_trunc)
    try:
        return quantum.TruncationPolicy(tail_mass=tail_mass)
    except ValueError as exc:
        raise click.BadParameter(f"--tail-mass: {exc}") from exc


class _Commands(click.Group):
    """Reports a row that reaches the hard cap as a one-line error, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except quantum.TruncationError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main():
    """Entropy growth of the driven oscillator: figure data and checks."""


@main.command("fig1")
@click.option("--work", type=FINITE, default=10.0, show_default=True,
              help="Drive work parameter.")
@click.option("--n-trunc", type=int, default=40, show_default=True,
              help="Largest initial level tabulated.")
@click.option("--m-trunc", type=int, default=1000, show_default=True,
              help="Fixed top final level of every row (0 = adaptive).")
@click.option("--tail-mass", type=FINITE, default=1e-12, show_default=True,
              help="Mass a row may leave out when --m-trunc is 0.")
@click.option("--output", type=click.Path(dir_okay=False, writable=True),
              default="fig1.csv", show_default=True)
def fig1(work, n_trunc, m_trunc, tail_mass, output):
    """Microcanonical entropy after the drive versus initial level."""
    if work < 0.0:
        raise click.BadParameter("--work must be non-negative")
    if n_trunc < 0:
        raise click.BadParameter("--n-trunc must be >= 0")
    policy = _truncation(m_trunc, tail_mass, n_trunc)
    entropies = quantum.level_entropies(n_trunc, work, policy).tolist()
    rows = [(level, math.log(max(level + 0.5, work)), entropies[level])
            for level in range(n_trunc + 1)]
    _write_csv(
        output, "fig1",
        {"work": work, "n-trunc": n_trunc, "m-trunc": m_trunc,
         "tail-mass": tail_mass},
        ["classical column is ln(max(level + 1/2, work)); quantum column is "
         "the level-sum expectation of ln(m + 1/2)"],
        ["level", "classical_entropy", "quantum_entropy"], rows,
    )
    click.echo(f"wrote {len(rows)} rows to {output}")


@main.command("fig2")
@click.option("--amplitude", type=FINITE, default=6.0, show_default=True,
              help="Half-sine force amplitude.")
@click.option("--level", type=int, default=2, show_default=True,
              help="Initial level of the microcanonical start.")
@click.option("--t-min", type=FINITE, default=0.25, show_default=True)
@click.option("--t-max", type=FINITE, default=30.0, show_default=True)
@click.option("--t-step", type=FINITE, default=0.25, show_default=True)
@click.option("--m-trunc", type=int, default=1000, show_default=True,
              help="Fixed top final level of every row (0 = adaptive).")
@click.option("--tail-mass", type=FINITE, default=1e-12, show_default=True,
              help="Mass a row may leave out when --m-trunc is 0.")
@click.option("--output", type=click.Path(dir_okay=False, writable=True),
              default="fig2.csv", show_default=True)
def fig2(amplitude, level, t_min, t_max, t_step, m_trunc, tail_mass, output):
    """Microcanonical entropy change versus switching time."""
    if level < 0:
        raise click.BadParameter("--level must be >= 0")
    grid = _duration_grid(t_min, t_max, t_step)
    policy = _truncation(m_trunc, tail_mass, level)
    start_volume = level + 0.5
    works = _works(amplitude, grid)
    rows = []
    for duration, work in zip(grid.tolist(), works.tolist()):
        classical_delta = math.log(max(start_volume, work)) - math.log(start_volume)
        stats = quantum.microcanonical_stats(level, work, policy)
        quantum_delta = stats.entropy - math.log(start_volume)
        rows.append((duration, work, classical_delta, quantum_delta))
    _write_csv(
        output, "fig2",
        {"amplitude": amplitude, "level": level, "t-min": t_min, "t-max": t_max,
         "t-step": t_step, "m-trunc": m_trunc, "tail-mass": tail_mass},
        ["classical change is exactly zero wherever the work stays below the "
         "initial volume level + 1/2"],
        ["switching_time", "work", "classical_delta_entropy",
         "quantum_delta_entropy"], rows,
    )
    click.echo(f"wrote {len(rows)} rows to {output}")


@main.command("fig3")
@click.option("--amplitude", type=FINITE, default=6.0, show_default=True,
              help="Half-sine force amplitude.")
@click.option("--beta", type=FINITE, default=2.0, show_default=True,
              help="Inverse temperature of the initial thermal ensemble.")
@click.option("--n-trunc", type=int, default=100, show_default=True,
              help="Top level of the thermal sum.")
@click.option("--t-min", type=FINITE, default=0.25, show_default=True)
@click.option("--t-max", type=FINITE, default=30.0, show_default=True)
@click.option("--t-step", type=FINITE, default=0.25, show_default=True)
@click.option("--m-trunc", type=int, default=1000, show_default=True,
              help="Fixed top final level of every row (0 = adaptive).")
@click.option("--tail-mass", type=FINITE, default=1e-12, show_default=True,
              help="Mass a row may leave out when --m-trunc is 0.")
@click.option("--output", type=click.Path(dir_okay=False, writable=True),
              default="fig3.csv", show_default=True)
def fig3(amplitude, beta, n_trunc, t_min, t_max, t_step, m_trunc, tail_mass,
         output):
    """Canonical entropy change versus switching time."""
    if beta <= 0.0:
        raise click.BadParameter("--beta must be positive")
    if n_trunc < 1:
        raise click.BadParameter("--n-trunc must be >= 1")
    grid = _duration_grid(t_min, t_max, t_step)
    policy = _truncation(m_trunc, tail_mass, n_trunc)
    works = _works(amplitude, grid)
    rows = []
    for duration, work in zip(grid.tolist(), works.tolist()):
        classical_delta = classical.canonical_entropy_change(beta, work)
        quantum_delta = quantum.canonical_entropy_change(beta, work, n_trunc, policy)
        rows.append((duration, work, classical_delta, quantum_delta))
    tail = quantum.canonical_tail_bound(beta, float(works.max()), n_trunc)
    _write_csv(
        output, "fig3",
        {"amplitude": amplitude, "beta": beta, "n-trunc": n_trunc,
         "t-min": t_min, "t-max": t_max, "t-step": t_step,
         "m-trunc": m_trunc, "tail-mass": tail_mass},
        [f"geometric tail beyond n-trunc bounded by {tail:.6e} at the "
         "largest work on this grid",
         "the source figure caption quotes a microcanonical volume 5/2; the "
         "canonical data here depends only on beta and the drive work"],
        ["switching_time", "work", "classical_delta_entropy",
         "quantum_delta_entropy"], rows,
    )
    click.echo(f"wrote {len(rows)} rows to {output}")


@main.command("verify")
@click.option("--seed", type=int, default=20608, show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True,
              help="Random (population, matrix) pairs for the theorem check.")
def verify(seed, trials):
    """Run the invariant suite and exit non-zero on any failure."""
    if trials < 1:
        raise click.BadParameter("--trials must be >= 1")
    results = verify_mod.run_all(seed, trials)
    for result in results:
        click.echo(result.line())
    failed = [result.name for result in results if not result.passed]
    if failed:
        click.echo(f"FAILED {len(failed)} checks: {', '.join(failed)}")
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")


@main.command("theorem-demo")
@click.option("--dim", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
def theorem_demo(dim, seed):
    """Show the entropy-increase bookkeeping on one random instance."""
    if dim < 2:
        raise click.BadParameter("--dim must be >= 2")
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(dim))
    matrix = random_unistochastic(dim, seed + 1)
    for label, weights in (
        ("decreasing populations", np.sort(raw)[::-1]),
        ("unsorted populations", raw),
    ):
        p = ProbabilityVector(weights)
        evolved = evolve_distribution(p, matrix)
        report = entropy_change(p, evolved)
        partial = np.cumsum(p.weights - evolved.weights)
        click.echo(f"--- {label} (is_decreasing={p.is_decreasing})")
        click.echo("level  p_before      p_after       cumulative_gap")
        for n in range(dim):
            click.echo(
                f"{n:5d}  {p.weights[n]:.10f}  {evolved.weights[n]:.10f}  "
                f"{partial[n]:+.10f}"
            )
        click.echo(
            f"entropy change direct={report.delta_direct:+.12e} "
            f"by-parts={report.delta_by_parts:+.12e}"
        )
        if p.is_decreasing:
            click.echo(
                f"guaranteed non-negative; smallest cumulative gap "
                f"{report.min_cumulative_gap:+.3e}"
            )
        else:
            click.echo(
                f"ordering hypothesis not met: positivity reported, not "
                f"asserted (smallest cumulative gap "
                f"{report.min_cumulative_gap:+.3e})"
            )


if __name__ == "__main__":
    main()
