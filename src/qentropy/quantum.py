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
hundred.  Everything else rests on one sweep of the three-term
recurrence in the degree, vectorised over the arguments ``m``, with the
magnitude rescaled whenever it leaves a safe window and the prefactor
accumulated in the log domain.  Each entry takes the smaller index as
its degree, which keeps the recurrence in the oscillatory/dominant
regime where forward recursion is stable; values to m, n of a few
thousand stay accurate in absolute terms.  Step ``k`` of the sweep
gives row ``k`` from the diagonal on, and through the exact symmetry
``p(n -> m) = p(m -> n)`` the entries left of the diagonal of every
later row.  A single row keeps only its own entries, so its working
memory is one row; :func:`canonical_entropy_change` keeps the whole
block of rows it sums over.

Every sum over levels is truncated by one :class:`TruncationPolicy`:
adaptively by a tail-mass target, or at a fixed top level for figure
data whose source states an explicit truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

_RESCALE_HI = 1e120
_RESCALE_LO = 1e-120


class TruncationError(RuntimeError):
    """The hard cap was reached before the tail-mass target."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Where every level sum stops.

    By default a row is extended until its mass reaches
    ``1 - tail_mass``; reaching ``hard_cap`` first raises
    :class:`TruncationError`.  An integer ``top`` instead cuts every row
    at level ``top``, leaving ``tail_mass`` and ``hard_cap`` unused, and
    reports the captured mass as-is.
    """

    tail_mass: float = 1e-12
    hard_cap: int = 5000
    top: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tail_mass < 1.0:
            raise ValueError("tail_mass must lie in (0, 1)")
        if self.hard_cap < 1:
            raise ValueError("hard_cap must be >= 1")
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


def _log_abs(mantissa, shift):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(mantissa)) + shift


def transition_probability(n: int, m: int, work: float) -> float:
    """Stable transition probability between levels n and m.

    Symmetric in (n, m) by construction, valid well past the overflow
    range of :func:`charlier_direct`, and clipped to [0, 1] against
    last-digit roundoff.  ``work = 0`` returns the adiabatic answer
    delta_{nm}.
    """
    if n < 0 or m < 0:
        raise ValueError("levels must be non-negative")
    _check_work(work)
    if work == 0.0:
        return 1.0 if n == m else 0.0
    degree, arg = min(n, m), max(n, m)
    for c, shift in _charlier_sweep(np.array([float(arg)]), work, degree):
        pass
    # accumulate in (degree, arg) order so the result is bit-identical
    # under swapping n and m
    log_p = (
        -work
        + (degree + arg) * math.log(work)
        - math.lgamma(degree + 1)
        - math.lgamma(arg + 1)
        + 2.0 * float(_log_abs(c, shift)[0])
    )
    if log_p == -math.inf:
        return 0.0
    return min(math.exp(log_p), 1.0)


def _transition_block(first: int, last: int, work: float, top: int) -> np.ndarray:
    """p(n -> m) for n = first..last and m = 0..top, with last <= top.

    One sweep over the arguments first..top: step k stores row k from
    the diagonal on and, by symmetry, column k of every later row.
    """
    rows = last - first + 1
    if work == 0.0:
        return np.eye(rows, top + 1, k=first)
    mantissa = np.empty((rows, top + 1))
    shift = np.empty((rows, top + 1))
    for k, (c, s) in enumerate(
        _charlier_sweep(np.arange(first, top + 1, dtype=float), work, last)
    ):
        lo = max(k - first, 0)
        mantissa[lo:, k], shift[lo:, k] = c[lo:rows], s[lo:rows]
        if k >= first:
            mantissa[lo, k:], shift[lo, k:] = c[lo:], s[lo:]
    n = np.arange(first, last + 1)[:, None]
    m = np.arange(top + 1)
    log_factorial = gammaln(m + 1.0)
    # (argument, degree) order makes the square part exactly symmetric
    log_p = (
        -work
        + (n + m) * math.log(work)
        - log_factorial[np.maximum(n, m)]
        - log_factorial[np.minimum(n, m)]
        + 2.0 * _log_abs(mantissa, shift)
    )
    with np.errstate(over="ignore"):
        return np.minimum(np.exp(log_p), 1.0)


def _truncated_rows(first: int, last: int, work: float, policy: TruncationPolicy):
    """Rows first..last truncated by ``policy``.

    Returns the block, zero past each row's cut, with each row's length
    and captured mass.
    """
    _check_work(work)
    if policy.top is not None:
        if policy.top < last:
            raise ValueError("the fixed top must reach the initial level")
        p = _transition_block(first, last, work, policy.top)
        return p, np.full(p.shape[0], p.shape[1]), p.sum(axis=1)
    if policy.hard_cap < last:
        raise TruncationError(f"hard cap {policy.hard_cap} is below level {last}")
    target = 1.0 - policy.tail_mass
    top = min(
        int(last + work + 12.0 * math.sqrt((last + 0.5) * work + 1.0) + 30.0),
        policy.hard_cap,
    )
    while True:
        p = _transition_block(first, last, work, top)
        cumulative = np.cumsum(p, axis=1)
        lengths = np.sum(cumulative < target, axis=1) + 1
        if lengths.max() <= top:
            break
        if top >= policy.hard_cap:
            short = int(lengths.argmax())
            raise TruncationError(
                f"mass {cumulative[short, -1]:.15f} below target {target:.15f} "
                f"at the hard cap {policy.hard_cap} (level={first + short}, "
                f"work={work})"
            )
        top = min(2 * top + 16, policy.hard_cap)
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
    p, _, _ = _truncated_rows(0, level_cutoff, work, policy)
    log_volume = np.log(np.arange(p.shape[1]) + 0.5)
    levels = np.arange(level_cutoff + 1)
    gains = p @ log_volume - log_volume[levels]
    weights = (1.0 - math.exp(-inv_temperature)) * np.exp(-inv_temperature * levels)
    return float(weights @ gains)


def canonical_tail_bound(inv_temperature: float, work: float,
                         level_cutoff: int) -> float:
    """Upper bound on the canonical sum's neglected geometric tail.

    Uses concavity (entropy gain of level n is at most
    ``ln(1 + work/(n + 1/2))``) and the exact geometric remainder.
    """
    if inv_temperature <= 0.0:
        raise ValueError("inverse temperature must be positive")
    gain_cap = math.log1p(work / (level_cutoff + 1.5))
    return math.exp(-inv_temperature * (level_cutoff + 1)) * gain_cap
