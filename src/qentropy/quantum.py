"""Driven-oscillator transition probabilities and entropy expectations.

A cyclic linear drive with work parameter ``w`` scatters the oscillator
from level ``n`` to level ``m`` with probability

    p(n -> m) = exp(-w) * w**(m+n) / (m! n!) * c(m, n; w)**2

where ``c`` is the Charlier polynomial

    c(m, n; w) = sum_l (-1)**l m! n! / (l! (m-l)! (n-l)! w**l),

symmetric in (m, n).  The rows are normalized and doubly stochastic,
with mean ``n + w`` and variance ``(2n + 1) w``.

:func:`charlier_direct` evaluates the sum literally in exact rational
arithmetic; its value overflows the float range beyond m, n of a few
hundred.  Everything else reads :func:`transition_block`, one sweep of
the three-term recurrence in the degree, vectorised over the arguments
``m``, with the magnitude rescaled whenever it leaves a safe window and
the prefactor accumulated in the log domain.  Each entry takes the
smaller index as its degree, which keeps the recurrence in the
oscillatory/dominant regime where forward recursion is stable; values
to m, n of a few thousand stay accurate in absolute terms.  Step ``k``
of the sweep gives row ``k`` from the diagonal on, and through the
exact symmetry ``p(n -> m) = p(m -> n)`` the entries left of the
diagonal of every later row.  A single row, or a single entry
(:func:`transition_probability`), is a one-row block;
:func:`level_entropies` and :func:`canonical_entropy_change` reduce
over the block of every initial level they sum over.

Every sum over levels is truncated by one :class:`TruncationPolicy`:
adaptively by a tail-mass target, never past :data:`HARD_CAP`, or at a
fixed top level for figure data whose source states an explicit
truncation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

_RESCALE_HI = 1e120
_RESCALE_LO = 1e-120

#: Highest level an adaptive row may reach before :class:`TruncationError`.
HARD_CAP = 5000

#: Largest mass a row cut at a fixed top may leave out before
#: :class:`TruncationWarning` is raised.
MASS_DEFICIT_TOL = 1e-9

#: ln(k!) for k = 0..size-1; grown on demand by :func:`_log_factorials`.
_LOG_FACTORIAL = np.zeros(0)


class TruncationError(RuntimeError):
    """:data:`HARD_CAP` was reached before the tail-mass target."""


class TruncationWarning(UserWarning):
    """A row cut at a fixed top level left out noticeable mass."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Where every level sum stops.

    By default a row is extended until its mass reaches
    ``1 - tail_mass``; reaching :data:`HARD_CAP` first raises
    :class:`TruncationError`.  An integer ``top`` instead cuts every row
    at level ``top``, leaving ``tail_mass`` unused, and reports the
    captured mass as-is, with a :class:`TruncationWarning` when a row
    leaves out more than :data:`MASS_DEFICIT_TOL`.
    """

    tail_mass: float = 1e-12
    top: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tail_mass < 1.0:
            raise ValueError("tail_mass must lie in (0, 1)")
        if self.top is not None and self.top < 0:
            raise ValueError("top must be >= 0")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class TransitionRow:
    """Transition probabilities out of one level, m = 0..len-1."""

    level: int
    work: float
    probabilities: np.ndarray
    captured_mass: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


class QuantumStats(NamedTuple):
    mean: float
    variance: float
    entropy: float


def charlier_direct(m: int, n: int, work: float) -> float:
    """Charlier polynomial by its explicit alternating sum.

    The sum is a finite combination of rationals, so it is accumulated
    in exact rational arithmetic (the float ``work`` is itself a
    rational) and rounded once on return; a plain floating sum would
    lose most digits to cancellation already around m = n = 20.
    Intended as the reference implementation for small indices; the
    value itself overflows the float range around m = n ~ 170 and is
    then flagged.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if work <= 0.0:
        raise ValueError("work must be positive")
    inv_work = 1 / Fraction(work)
    total = Fraction(0)
    for l in range(min(m, n) + 1):
        coeff = math.comb(m, l) * math.comb(n, l) * math.factorial(l)
        total += (-1) ** l * coeff * inv_work**l
    try:
        return float(total)
    except OverflowError as exc:
        raise ValueError(
            f"direct sum overflows at m={m}, n={n}; use transition_probability"
        ) from exc


def _check_work(work: float) -> None:
    if not 0.0 <= work < math.inf:
        raise ValueError(f"work must be finite and non-negative, got {work!r}")


def _charlier_sweep(args: np.ndarray, work: float, top_degree: int):
    """Yield c_k(args; work) for k = 0..top_degree as (mantissa, log scale).

    The value is ``mantissa * exp(log scale)``; both arrays are fresh at
    every step, so callers may keep them.
    """
    c_prev, c, shift = np.ones_like(args), np.ones_like(args), np.zeros_like(args)
    yield c, shift
    if top_degree > 0:
        c = 1.0 - args / work
        yield c, shift
    for k in range(1, top_degree):
        c_next = ((k + work - args) * c - k * c_prev) / work
        c_prev, c = c, c_next
        mag = np.maximum(np.abs(c), np.abs(c_prev))
        rescale = (mag > _RESCALE_HI) | ((mag > 0.0) & (mag < _RESCALE_LO))
        if rescale.any():
            factor = np.where(rescale, mag, 1.0)
            c = c / factor
            c_prev = c_prev / factor
            shift = shift + np.where(rescale, np.log(factor), 0.0)
        yield c, shift


def _log_factorials(top: int) -> np.ndarray:
    """Read-only ln(k!) for k = 0..top, from the module-level table."""
    global _LOG_FACTORIAL
    if _LOG_FACTORIAL.size <= top:
        size = max(top + 1, 2 * _LOG_FACTORIAL.size)
        table = np.array([math.lgamma(k + 1.0) for k in range(size)])
        table.setflags(write=False)
        _LOG_FACTORIAL = table
    return _LOG_FACTORIAL[: top + 1]


def transition_block(first: int, last: int, work: float, top: int) -> np.ndarray:
    """p(n -> m) for n = first..last and m = 0..top, clipped to [0, 1].

    One sweep over the arguments first..top: step k adds ``2 ln|c_k|``
    to row k from the diagonal on and, by symmetry, to column k of every
    later row.  ``ln p`` is formed in place in the returned array.
    """
    if not 0 <= first <= last <= top:
        raise ValueError(f"need 0 <= first <= last <= top, got {first}, {last}, {top}")
    _check_work(work)
    rows = last - first + 1
    if work == 0.0:
        return np.eye(rows, top + 1, k=first)
    n = np.arange(first, last + 1)[:, None]
    m = np.arange(top + 1)
    log_factorial = _log_factorials(top)
    # -work + (n+m) ln w - ln(max!) - ln(min!) + 2 ln|c|, in this order;
    # (argument, degree) order makes the square part exactly symmetric
    index = n + m
    log_p = index * math.log(work)
    log_p -= work
    log_p -= log_factorial[np.maximum(n, m, out=index)]
    log_p -= log_factorial[np.minimum(n, m, out=index)]
    with np.errstate(divide="ignore"):
        for k, (c, shift) in enumerate(
            _charlier_sweep(np.arange(first, top + 1, dtype=float), work, last)
        ):
            lo = max(k - first, 0)
            twice_log = np.abs(c[lo:] if k >= first else c[:rows])
            np.log(twice_log, out=twice_log)
            twice_log += shift[lo : lo + twice_log.size]
            twice_log *= 2.0
            column = log_p[lo:, k]
            column += twice_log[: rows - lo]
            if k >= first:
                row = log_p[lo, k + 1 :]
                row += twice_log[1:]
    with np.errstate(over="ignore"):
        np.exp(log_p, out=log_p)
    return np.minimum(log_p, 1.0, out=log_p)


def transition_probability(n: int, m: int, work: float) -> float:
    """Stable transition probability between levels n and m.

    The last entry of the one-row :func:`transition_block` out of the
    smaller index, cut at the larger: symmetric in (n, m), valid well
    past the overflow range of :func:`charlier_direct`, and delta_{nm}
    for ``work = 0``.
    """
    if n < 0 or m < 0:
        raise ValueError("levels must be non-negative")
    low, high = min(n, m), max(n, m)
    return float(transition_block(low, low, work, high)[0, high])


def _truncated_rows(first: int, last: int, work: float, policy: TruncationPolicy):
    """Rows first..last truncated by ``policy``.

    Returns the block, zero past each row's cut, with each row's length
    and captured mass.  Under a fixed cut, a :class:`TruncationWarning`
    names the row that leaves out most mass if that exceeds
    :data:`MASS_DEFICIT_TOL`.
    """
    if policy.top is not None:
        p = transition_block(first, last, work, policy.top)
        captured = p.sum(axis=1)
        short = int(captured.argmin())
        if 1.0 - captured[short] > MASS_DEFICIT_TOL:
            warnings.warn(
                f"row of level {first + short} keeps mass "
                f"{captured[short]:.15f} at the fixed top {policy.top} "
                f"(work={work}); raise the top",
                TruncationWarning,
                stacklevel=3,
            )
        return p, np.full(p.shape[0], p.shape[1]), captured
    if HARD_CAP < last:
        raise TruncationError(f"hard cap {HARD_CAP} is below level {last}")
    _check_work(work)
    target = 1.0 - policy.tail_mass
    top = min(
        int(last + work + 12.0 * math.sqrt((last + 0.5) * work + 1.0) + 30.0),
        HARD_CAP,
    )
    while True:
        p = transition_block(first, last, work, top)
        cumulative = np.cumsum(p, axis=1)
        lengths = np.sum(cumulative < target, axis=1) + 1
        if lengths.max() <= top:
            break
        if top >= HARD_CAP:
            short = int(lengths.argmax())
            raise TruncationError(
                f"mass {cumulative[short, -1]:.15f} below target {target:.15f} "
                f"at the hard cap {HARD_CAP} (level={first + short}, "
                f"work={work})"
            )
        top = min(2 * top + 16, HARD_CAP)
    p[np.arange(top + 1) >= lengths[:, None]] = 0.0
    return p, lengths, cumulative[np.arange(lengths.size), lengths - 1]


def transition_row(level: int, work: float,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> TransitionRow:
    """Row of transition probabilities out of ``level``, cut by ``policy``."""
    if level < 0:
        raise ValueError("level must be non-negative")
    p, lengths, captured = _truncated_rows(level, level, work, policy)
    return TransitionRow(level, work, p[0, : lengths[0]], float(captured[0]))


def microcanonical_stats(level: int, work: float,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> QuantumStats:
    """Mean, variance and entropy of the row out of a single level.

    The mean and variance reproduce the closed forms ``level + work``
    and ``(2*level + 1)*work``; the entropy is the truncated sum of
    ``p_m ln(m + 1/2)``.  An undriven oscillator returns exactly
    ``(level, 0, ln(level + 1/2))``.
    """
    p = transition_row(level, work, policy).probabilities
    m = np.arange(p.size)
    mean = float(np.dot(m, p))
    variance = float(np.dot((m - mean) ** 2, p))
    entropy = float(np.dot(p, np.log(m + 0.5)))
    return QuantumStats(mean, variance, entropy)


def level_entropies(last: int, work: float,
                    policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Row entropies ``sum_m p(n -> m) ln(m + 1/2)`` for n = 0..last,
    reduced over one block of rows cut by ``policy``."""
    p, _, _ = _truncated_rows(0, last, work, policy)
    return p @ np.log(np.arange(p.shape[1]) + 0.5)


def canonical_entropy_change(inv_temperature: float, work: float,
                             level_cutoff: int,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Entropy change of a thermal level ensemble after the drive.

    Geometric-weighted sum of the microcanonical entropy gains over
    levels 0..level_cutoff; the neglected remainder is bounded by
    :func:`canonical_tail_bound`.  The initial thermal weights are
    decreasing, so the result is non-negative by the entropy-increase
    theorem.
    """
    if not 0.0 < inv_temperature < math.inf:
        raise ValueError("inverse temperature must be positive and finite")
    if level_cutoff < 1:
        raise ValueError("level_cutoff must be >= 1")
    levels = np.arange(level_cutoff + 1)
    gains = level_entropies(level_cutoff, work, policy) - np.log(levels + 0.5)
    weights = (1.0 - math.exp(-inv_temperature)) * np.exp(-inv_temperature * levels)
    return float(weights @ gains)


def canonical_tail_bound(inv_temperature: float, work: float,
                         level_cutoff: int) -> float:
    """Upper bound on the canonical sum's neglected geometric tail.

    Uses concavity (entropy gain of level n is at most
    ``ln(1 + work/(n + 1/2))``) and the exact geometric remainder.
    """
    if not 0.0 < inv_temperature < math.inf:
        raise ValueError("inverse temperature must be positive and finite")
    _check_work(work)
    gain_cap = math.log1p(work / (level_cutoff + 1.5))
    return math.exp(-inv_temperature * (level_cutoff + 1)) * gain_cap
