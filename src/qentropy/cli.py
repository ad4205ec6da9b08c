"""Command-line surface: figure data as CSV, verification, and a demo.

Commands
--------
fig1          microcanonical entropy after the drive versus initial level
fig2          microcanonical entropy change versus switching time
fig3          canonical entropy change versus switching time
verify        run the invariant suite; exit 0 only if everything passes
theorem-demo  walk one random instance of the entropy-increase theorem

Each option is declared once, with its range in its click type, so bad
input exits 2 before anything runs; a fixed cut (``--m-trunc`` > 0) must
also reach the mean final level, the highest initial level plus the
largest work.  CSV files are UTF-8 with ``#``-prefixed header comments
naming the command and every option but ``--output``, then a column-name
row, then data rows; floats carry 12 significant digits.  Identical
inputs and seeds produce byte-identical files (grid points are
independent, so evaluation order never matters).
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


class _Finite(click.FloatRange):
    """A finite float, inside the bounds if any are given; with none it
    shows in ``--help`` as a plain FLOAT with no range text."""

    def __init__(self, **bounds):
        super().__init__(**bounds)
        if not bounds:
            self.name = "float"

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{number!r} is not a finite number", param, ctx)
        return super().convert(number, param, ctx)

    def _describe_range(self) -> str:
        return "" if self.name == "float" else super()._describe_range()


_FINITE = _Finite()
_POSITIVE = _Finite(min=0, min_open=True)


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _write_csv(path: str, notes: list[str], columns: list[str], rows) -> None:
    """Write a figure CSV headed by the running command and every option
    but ``--output``, in declaration order."""
    ctx = click.get_current_context()
    params = " ".join(f"{param.opts[0][2:]}={_fmt(ctx.params[param.name])}"
                      for param in ctx.command.params if param.name != "output")
    lines = [f"# qentropy {ctx.command.name}", f"# parameters: {params}"]
    lines += [f"# note: {note}" for note in notes]
    lines.append(",".join(columns))
    lines += [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    click.echo(f"wrote {len(rows)} rows to {path}")


def _truncation(m_trunc: int, tail_mass: float, level: int,
                work: float) -> quantum.TruncationPolicy:
    """Fixed cut at m_trunc > 0, else adaptive; either must reach ``level``,
    and a fixed cut also the mean final level ``level + work``."""
    top = m_trunc or quantum.HARD_CAP
    if level > top:
        raise click.BadParameter(f"initial level {level} is above the top "
                                 f"level {top} that --m-trunc {m_trunc} allows")
    if m_trunc and level + work > m_trunc:
        raise click.BadParameter(f"mean final level {level} + work {work:g} is above "
                                 f"--m-trunc {m_trunc}; the rows would lose "
                                 "their mass")
    return quantum.TruncationPolicy(tail_mass=tail_mass, top=m_trunc or None)


def _scan(delta, level: int, amplitude: float, t_min: float, t_max: float,
          t_step: float, m_trunc: int, tail_mass: float) -> list[tuple]:
    """One ``(duration, work, classical, quantum)`` row per duration of the
    grid, the two changes from ``delta(work, policy)``; ``level`` is the
    highest initial level, checked with the largest work on the grid."""
    if t_max < t_min:
        raise click.BadParameter("--t-max must be >= --t-min")
    count = int(math.floor((t_max - t_min) / t_step + 1e-9)) + 1
    durations = t_min + t_step * np.arange(count)
    with np.errstate(over="ignore"):
        works = classical.work_half_sine(amplitude, durations)
    if not np.isfinite(works).all():
        raise click.BadParameter(f"--amplitude {amplitude:g} makes the work overflow")
    policy = _truncation(m_trunc, tail_mass, level, float(works.max()))
    return [(duration, work, *delta(work, policy))
            for duration, work in zip(durations.tolist(), works.tolist())]


class _Commands(click.Group):
    """Reports a row that reaches the hard cap as a one-line error, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except quantum.TruncationError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands, context_settings={"show_default": True})
def main():
    """Entropy growth of the driven oscillator: figure data and checks."""


def _figure(name: str, *options):
    """Register figure command ``name``: its own ``options``, then the
    shared truncation options and ``--output`` (default ``<name>.csv``)."""
    shared = (
        click.option("--m-trunc", type=click.IntRange(min=0), default=1000,
                     help="Fixed top final level of every row (0 = adaptive)."),
        click.option("--tail-mass", default=1e-12,
                     type=_Finite(min=0, max=1, min_open=True, max_open=True),
                     help="Mass a row may leave out when --m-trunc is 0."),
        click.option("--output", default=f"{name}.csv",
                     type=click.Path(dir_okay=False, writable=True)),
    )

    def register(command):
        for option in reversed(options + shared):
            command = option(command)
        return main.command(name)(command)

    return register


_AMPLITUDE = click.option("--amplitude", type=_FINITE, default=6.0,
                          help="Half-sine force amplitude.")
_DURATIONS = (
    click.option("--t-min", type=_POSITIVE, default=0.25),
    click.option("--t-max", type=_FINITE, default=30.0),
    click.option("--t-step", type=_POSITIVE, default=0.25),
)
_SCAN_COLUMNS = ["switching_time", "work", "classical_delta_entropy",
                 "quantum_delta_entropy"]


@_figure(
    "fig1",
    click.option("--work", type=_Finite(min=0), default=10.0,
                 help="Drive work parameter."),
    click.option("--n-trunc", type=click.IntRange(min=0), default=40,
                 help="Largest initial level tabulated."),
)
def fig1(work, n_trunc, m_trunc, tail_mass, output):
    """Microcanonical entropy after the drive versus initial level."""
    policy = _truncation(m_trunc, tail_mass, n_trunc, work)
    entropies = quantum.level_entropies(n_trunc, work, policy).tolist()
    rows = [(level, classical.microcanonical_stats(level + 0.5, work).log_mean,
             entropies[level]) for level in range(n_trunc + 1)]
    _write_csv(output, ["classical column is ln(max(level + 1/2, work)); quantum "
                        "column is the level-sum expectation of ln(m + 1/2)"],
               ["level", "classical_entropy", "quantum_entropy"], rows)


@_figure(
    "fig2", _AMPLITUDE,
    click.option("--level", type=click.IntRange(min=0), default=2,
                 help="Initial level of the microcanonical start."),
    *_DURATIONS,
)
def fig2(level, output, **scan):
    """Microcanonical entropy change versus switching time."""
    start = math.log(level + 0.5)

    def delta(work, policy):
        return (classical.microcanonical_stats(level + 0.5, work).log_mean - start,
                quantum.microcanonical_stats(level, work, policy).entropy - start)

    _write_csv(output, ["classical change is exactly zero wherever the work "
                        "stays below the initial volume level + 1/2"],
               _SCAN_COLUMNS, _scan(delta, level, **scan))


@_figure(
    "fig3", _AMPLITUDE,
    click.option("--beta", type=_POSITIVE, default=2.0,
                 help="Inverse temperature of the initial thermal ensemble."),
    click.option("--n-trunc", type=click.IntRange(min=1), default=100,
                 help="Top level of the thermal sum."),
    *_DURATIONS,
)
def fig3(beta, n_trunc, output, **scan):
    """Canonical entropy change versus switching time."""

    def delta(work, policy):
        return (classical.canonical_entropy_change(beta, work),
                quantum.canonical_entropy_change(beta, work, n_trunc, policy))

    rows = _scan(delta, n_trunc, **scan)
    tail = quantum.canonical_tail_bound(beta, max(row[1] for row in rows), n_trunc)
    _write_csv(output, [f"geometric tail beyond n-trunc bounded by {tail:.6e} at "
                        "the largest work on this grid",
                        "the source figure caption quotes a microcanonical volume "
                        "5/2; the canonical data here depends only on beta and the "
                        "drive work"], _SCAN_COLUMNS, rows)


@main.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=20608)
@click.option("--trials", type=click.IntRange(min=1), default=1000,
              help="Random (population, matrix) pairs for the theorem check.")
def verify(seed, trials):
    """Run the invariant suite and exit non-zero on any failure."""
    results = verify_mod.run_all(seed, trials)
    for result in results:
        click.echo(result.line())
    failed = [result.name for result in results if not result.passed]
    if failed:
        click.echo(f"FAILED {len(failed)} checks: {', '.join(failed)}")
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")


@main.command("theorem-demo")
@click.option("--dim", type=click.IntRange(min=2), default=8)
@click.option("--seed", type=click.IntRange(min=0), default=7)
def theorem_demo(dim, seed):
    """Show the entropy-increase bookkeeping on one random instance."""
    raw = np.random.default_rng(seed).dirichlet(np.ones(dim))
    matrix = random_unistochastic(dim, seed + 1)
    for label, weights in (("decreasing populations", np.sort(raw)[::-1]),
                           ("unsorted populations", raw)):
        p = ProbabilityVector(weights)
        evolved = evolve_distribution(p, matrix)
        report = entropy_change(p, evolved)
        partial = np.cumsum(p.weights - evolved.weights)
        click.echo(f"--- {label} (is_decreasing={p.is_decreasing})")
        click.echo("level  p_before      p_after       cumulative_gap")
        for n in range(dim):
            click.echo(f"{n:5d}  {p.weights[n]:.10f}  {evolved.weights[n]:.10f}  "
                       f"{partial[n]:+.10f}")
        click.echo(f"entropy change direct={report.delta_direct:+.12e} "
                   f"by-parts={report.delta_by_parts:+.12e}")
        gap = f"smallest cumulative gap {report.min_cumulative_gap:+.3e}"
        click.echo(f"guaranteed non-negative; {gap}" if p.is_decreasing else
                   "ordering hypothesis not met: positivity reported, not "
                   f"asserted ({gap})")


if __name__ == "__main__":
    main()
