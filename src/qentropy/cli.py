"""Command-line surface: figure data as CSV, verification, and a demo.

Commands
--------
fig1          microcanonical entropy after the drive versus initial level
fig2          microcanonical entropy change versus switching time
fig3          canonical entropy change versus switching time
verify        run the invariant suite; exit 0 only if everything passes
theorem-demo  walk one random instance of the entropy-increase theorem

Each option is declared once, in :data:`_COMMANDS`, with its range in its
type, and :func:`main` reads ``--flag value`` and ``--flag=value`` from that
table.  Bad input exits 2 with one ``Error:`` line before anything runs: so do
a fixed cut (``--m-trunc`` > 0) below the mean final level, the highest initial
level plus the largest work, a grid above :data:`MAX_DURATIONS` durations and an
``--output`` that cannot be written.  CSV files are UTF-8 with ``#``-prefixed
header comments naming the command, every option but ``--output`` and, for an
adaptive cut, :data:`quantum.TAIL_MASS`, a column-name row, then data rows with
12 significant digits; identical inputs and seeds give byte-identical files.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import classical, quantum

#: Most durations a fig2 or fig3 grid may hold.
MAX_DURATIONS = 1_000_000
#: Largest theorem-demo dim: a 32 MiB Gaussian, about 210 MB peak RSS.
MAX_DEMO_DIM = 2048
#: Most verify trials: the check lists one dimension per trial up front.
MAX_TRIALS = 1_000_000


class _Invalid(Exception):
    """A value that an option's type or a command's check rejects."""


def _number(kind, low=None, high=None, open_low=False, open_high=False):
    """An option type: a finite ``kind`` (int or float) within the bounds given,
    each open on request; its name is its range text, which ``--help`` shows."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise _Invalid(f"{text!r} is not a valid {kind.__name__}") from None
        if kind is float and not math.isfinite(value):
            raise _Invalid(f"{value!r} is not a finite number")
        if ((low is not None and (value <= low if open_low else value < low))
                or (high is not None and (value >= high if open_high else value > high))):
            raise _Invalid(f"{value} is not in the range {convert.__name__}.")
        return value

    below, above = ("<" if open_low else "<="), ("<" if open_high else "<=")
    convert.__name__ = (kind.__name__ if low is None
                        else f"x{'>' if open_low else '>='}{low}" if high is None
                        else f"{low}{below}x{above}{high}")
    return convert


def _path(text: str) -> str:
    """An ``--output`` file: named, not a directory, and writable, or new in
    a writable directory that exists."""
    target = text if os.path.exists(text) else os.path.dirname(text) or "."
    if not text or os.path.isdir(text) or not os.access(target, os.W_OK):
        raise _Invalid(f"cannot write the file {text!r}")
    return text


_path.__name__ = "path"


def _fail(message: str, code: int = 2) -> None:
    """Print one ``Error:`` line on stderr and exit ``code``."""
    print(f"Error: {message}", file=sys.stderr)
    sys.exit(code)


def _help(prog: str, doc: str, rows) -> None:
    """Print the usage of ``prog``, ``doc`` and a line per ``(name, text)``; exit 0."""
    rows = [("--help", "Show this message and exit."), *rows]
    column = 4 + max(len(name) for name, _ in rows)
    print(f"usage: {prog} [OPTION ...]\n\n{doc or ''}\n")  # python -OO drops docstrings
    print("\n".join(f"  {name:<{column - 2}}{text or ''}" for name, text in rows))
    sys.exit(0)


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _write_csv(args, notes: list[str], columns: list[str], rows) -> None:
    """Write ``args.output``, headed by the command and its options but ``--output``."""
    params = " ".join(f"{flag[2:]}={_fmt(getattr(args, flag[2:].replace('-', '_')))}"
                      for flag, *_ in _COMMANDS[args.command][1] if flag != "--output")
    if not args.m_trunc:
        notes = [f"adaptive truncation: each row keeps all but quantum.TAIL_MASS = "
                 f"{quantum.TAIL_MASS:g} of its mass", *notes]
    lines = [f"# qentropy {args.command}", f"# parameters: {params}",
             *(f"# note: {note}" for note in notes), ",".join(columns),
             *(",".join(map(_fmt, row)) for row in rows)]
    with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {args.output}")


def _truncation(args, level: int, work: float) -> int | None:
    """The top level of a fixed cut at ``--m-trunc`` > 0, else None for an
    adaptive one; either must reach ``level``, and a fixed cut also the mean
    final level ``level + work``."""
    top = args.m_trunc or quantum.HARD_CAP
    if level > top:
        raise _Invalid(f"initial level {level} is above the top level {top} "
                       f"that --m-trunc {args.m_trunc} allows")
    if args.m_trunc and level + work > args.m_trunc:
        raise _Invalid(f"mean final level {level} + work {work:g} is above "
                       f"--m-trunc {args.m_trunc}; the rows would lose their mass")
    return args.m_trunc or None


def _scan(args, level: int):
    """fig2's and fig3's durations, their works and the top level (None:
    adaptive), checked at ``level``, the highest initial level, and the
    largest work."""
    if args.t_max < args.t_min:
        raise _Invalid("--t-max must be >= --t-min")
    steps = (args.t_max - args.t_min) / args.t_step + 1e-9
    if not steps < MAX_DURATIONS:
        raise _Invalid(f"--t-step {args.t_step:g} puts more than "
                       f"{MAX_DURATIONS} durations between --t-min and --t-max")
    durations = args.t_min + args.t_step * np.arange(int(steps) + 1)
    with np.errstate(over="ignore"):
        works = classical.work_half_sine(args.amplitude, durations)
    if not np.isfinite(works).all():
        raise _Invalid(f"--amplitude {args.amplitude:g} makes the work overflow")
    return durations, works, _truncation(args, level, float(works.max()))


_SCAN_COLUMNS = ["switching_time", "work", "classical_delta_entropy",
                 "quantum_delta_entropy"]


def _fig1(args) -> None:
    """Microcanonical entropy after the drive versus initial level."""
    top = _truncation(args, args.n_trunc, args.work)
    [gains] = quantum.level_gains([args.n_trunc], [args.work], top)
    entropies = (gains + np.log(np.arange(args.n_trunc + 1) + 0.5)).tolist()
    rows = [(level, classical.microcanonical_stats(level + 0.5, args.work).log_mean,
             entropies[level]) for level in range(args.n_trunc + 1)]
    _write_csv(args, ["classical column is ln(max(level + 1/2, work)); quantum "
                      "column is the level-sum expectation of ln(m + 1/2)"],
               ["level", "classical_entropy", "quantum_entropy"], rows)


def _fig2(args) -> None:
    """Microcanonical entropy change versus switching time."""
    durations, works, top = _scan(args, args.level)
    start = math.log(args.level + 0.5)
    rows = [(duration, work,
             classical.microcanonical_stats(args.level + 0.5, work).log_mean - start,
             quantum.transition_row(args.level, work, top).gain)
            for duration, work in zip(durations.tolist(), works.tolist())]
    _write_csv(args, ["classical change is exactly zero wherever the work stays "
                      "below the initial volume level + 1/2"], _SCAN_COLUMNS, rows)


def _fig3(args) -> None:
    """Canonical entropy change versus switching time."""
    durations, works, top = _scan(args, args.n_trunc)
    total = quantum.canonical_sum(args.beta, works, args.n_trunc, top)
    try:
        changes = classical.canonical_entropy_change(args.beta, works)
    except ValueError as exc:  # beta * work overflows
        raise _Invalid(f"--beta: {exc}") from None
    rows = list(zip(durations.tolist(), works.tolist(), changes.tolist(),
                    total.value.tolist()))
    tail = quantum.canonical_tail_bound(args.beta, float(works.max()), args.n_trunc)
    _write_csv(args, [f"geometric tail beyond n-trunc bounded by {tail:.6e} at the "
                      "largest work on this grid",
                      f"the thermal sum reaches at most level {total.last_level.max()} "
                      f"of n-trunc {args.n_trunc} on this grid; the levels left out "
                      "cannot change its last bit",
                      "the source figure caption quotes a microcanonical volume 5/2; "
                      "the canonical data here depends only on beta and the drive "
                      "work"], _SCAN_COLUMNS, rows)


def _verify(args) -> None:
    """Run the invariant suite and exit non-zero on any failure."""
    from . import verify

    results = verify.run_all(args.seed, args.trials)
    for result in results:
        print(result.line())
    failed = [result.name for result in results if not result.passed]
    if failed:
        print(f"FAILED {len(failed)} checks: {', '.join(failed)}")
        sys.exit(1)
    print(f"all {len(results)} checks passed")


def _theorem_demo(args) -> None:
    """Show the entropy-increase bookkeeping on one random instance."""
    from .majorization import (ProbabilityVector, entropy_change, evolve_distribution,
                               random_unistochastic)

    raw = np.random.default_rng(args.seed).dirichlet(np.ones(args.dim))
    matrix = random_unistochastic(args.dim, args.seed + 1)
    for label, weights in (("decreasing populations", np.sort(raw)[::-1]),
                           ("unsorted populations", raw)):
        p = ProbabilityVector(weights)
        evolved = evolve_distribution(p, matrix)
        report = entropy_change(p, evolved)
        partial = np.cumsum(p.weights - evolved.weights)
        print(f"--- {label} (is_decreasing={p.is_decreasing})")
        print("level  p_before      p_after       cumulative_gap")
        for n in range(args.dim):
            print(f"{n:5d}  {p.weights[n]:.10f}  {evolved.weights[n]:.10f}  "
                  f"{partial[n]:+.10f}")
        print(f"entropy change direct={report.delta_direct:+.12e} "
              f"by-parts={report.delta_by_parts:+.12e}")
        gap = f"smallest cumulative gap {report.min_cumulative_gap:+.3e}"
        print(f"guaranteed non-negative up to rounding, >= -1e-12; {gap}" if p.is_decreasing
              else f"ordering hypothesis not met: positivity reported, not asserted ({gap})")


def _figure(name: str, *options) -> list[tuple]:
    """A figure's own ``options``, then ``--m-trunc`` and ``--output``."""
    return [*options,
            ("--m-trunc", _number(int, 0), 1000,
             "Fixed top final level of every row (0 = adaptive: each row keeps "
             f"all but {quantum.TAIL_MASS:g} of its mass)."),
            ("--output", _path, f"{name}.csv", "CSV file to write.")]


_AMPLITUDE = ("--amplitude", _number(float), 6.0, "Half-sine force amplitude.")
_POSITIVE = _number(float, 0, open_low=True)
_DURATIONS = (("--t-min", _POSITIVE, 0.25, "Shortest switching time."),
              ("--t-max", _number(float), 30.0, "Longest switching time."),
              ("--t-step", _POSITIVE, 0.25, "Switching-time step."))

#: Each command's function and its options as ``(flag, type, default,
#: help)``, in the order that ``--help`` and the CSV header list them.
_COMMANDS = {
    "fig1": (_fig1, _figure("fig1",
                            ("--work", _number(float, 0), 10.0, "Drive work parameter."),
                            ("--n-trunc", _number(int, 0), 40,
                             "Largest initial level tabulated."))),
    "fig2": (_fig2, _figure("fig2", _AMPLITUDE,
                            ("--level", _number(int, 0), 2,
                             "Initial level of the microcanonical start."), *_DURATIONS)),
    "fig3": (_fig3, _figure("fig3", _AMPLITUDE,
                            ("--beta", _POSITIVE, 2.0,
                             "Inverse temperature of the initial thermal ensemble."),
                            ("--n-trunc", _number(int, 1), 100, "Top level of the thermal "
                             "sum, which stops earlier where the remaining levels cannot "
                             "change the last bit."), *_DURATIONS)),
    "verify": (_verify, [
        ("--seed", _number(int, 0), 20608, "Seed of the random trials."),
        ("--trials", _number(int, 1, MAX_TRIALS), 1000,
         "Random (population, matrix) pairs for the theorem check.")]),
    "theorem-demo": (_theorem_demo, [
        ("--dim", _number(int, 2, MAX_DEMO_DIM), 8, "Levels of the random instance."),
        ("--seed", _number(int, 0), 7, "Seed of the random instance.")]),
}


def main(args=None, prog_name: str = "qentropy") -> None:
    """Run the command in ``args`` (default ``sys.argv[1:]``); bad input exits 2
    and a ``TruncationError`` exits 1, each with one ``Error:`` line.  Output
    cut short by a closed pipe (``| head``) exits 1 silently."""
    args = sys.argv[1:] if args is None else list(args)
    if args[:1] == ["--help"]:
        _help(f"{prog_name} COMMAND", "Driven-oscillator entropy: figure data and checks.",
              [(name, run.__doc__) for name, (run, _) in _COMMANDS.items()])
    if not args or args[0] not in _COMMANDS:
        _fail(f"choose a COMMAND from {', '.join(_COMMANDS)}, or --help")
    run, options = _COMMANDS[args[0]]
    values = {flag: default for flag, _, default, _ in options}
    for word in (words := iter(args[1:])):
        if word == "--help":
            _help(f"{prog_name} {args[0]}", run.__doc__,
                  [(f"{flag} {flag[2:].upper().replace('-', '_')}",
                    f"{text} [default: {default}; {kind.__name__}]")
                   for flag, kind, default, text in options])
        flag, joined, value = word.partition("=")
        if flag not in values:
            _fail(f"unrecognized argument: {word}")
        values[flag] = value if joined else next(words, "--")  # the last one wins
        if values[flag].startswith("--") and not joined:
            _fail(f"argument {flag}: expected one argument")
    parsed = SimpleNamespace(command=args[0])
    for flag, kind, _, _ in options:  # each default passes its type, as given text does
        try:
            setattr(parsed, flag[2:].replace("-", "_"), kind(values[flag]))
        except _Invalid as exc:
            _fail(f"argument {flag}: {exc}")
    try:
        run(parsed)
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except _Invalid as exc:
        _fail(f"Invalid value: {exc}")
    except quantum.TruncationError as exc:
        _fail(str(exc), 1)


if __name__ == "__main__":
    main()
