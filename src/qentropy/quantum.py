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
diagonal of every later row.  The sweep ends at an underflow top:
Laguerre's inequality ``|L_n^(d)(w)| <= C(m, n) e^(w/2)``, d = m - n,
gives ``ln p(n -> m) <= d ln w + ln m! - ln n! - 2 ln d!``, and past
the column where that bound falls below -800 every entry would round
to 0.0, so it is left at 0.0 unswept: blocks, and a fixed cut's meaning
and output, stay the same bit for bit.  A single row, or a single entry
(:func:`transition_probability`), is a one-row block;
:func:`level_entropies` and :func:`canonical_sum` reduce over the block
of every initial level they sum over.  The thermal sum ends at a weight
top: the first level past which the bounded gains of the remaining
levels, times their thermal weights, stay below 2**-54 of the partial
sum.  It stops there only where the same Laguerre bound, summed along
its last level past the top, shows that no level left out would have
lost the mass that raises :class:`TruncationWarning` or
:class:`TruncationError`; a row's own rounding is not covered (see
:func:`canonical_sum`).

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

#: ln p below which an entry is left at 0.0; ``exp`` underflows to 0.0
#: below about -745.1, so the margin covers the rounding of ``ln p``.
_UNDERFLOW_LOG = -800.0

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

    The sum is a finite combination of rationals, so it is evaluated
    exactly (the float ``work`` is itself a rational ``num/den``) and
    rounded once on return; a plain floating sum would lose most digits
    to cancellation already around m = n = 20.  With L = min(m, n) the
    terms share the denominator ``num**L``, so the numerator is summed
    in integers, ``sum_l (-1)^l C(m, l) C(n, l) l! den^l num^(L-l)``,
    and only the one quotient is a :class:`~fractions.Fraction`.
    Intended as the reference implementation for small indices; the
    value itself overflows the float range around m = n ~ 170 and is
    then flagged.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if work <= 0.0:
        raise ValueError("work must be positive")
    num, den = Fraction(work).as_integer_ratio()
    top = min(m, n)
    total = sum((-1) ** l * math.comb(m, l) * math.comb(n, l) * math.factorial(l)
                * den**l * num ** (top - l) for l in range(top + 1))
    try:
        return float(Fraction(total, num**top))
    except OverflowError as exc:
        raise ValueError(
            f"direct sum overflows at m={m}, n={n}; use transition_probability"
        ) from exc


def _check_work(work: float) -> None:
    if not 0.0 <= work < math.inf:
        raise ValueError(f"work must be finite and non-negative, got {work!r}")


def _charlier_sweep(args: np.ndarray, work: float, top_degree: int):
    """Yield c_k(args; work) for k = 0..top_degree as (mantissa, log scale).

    The value is ``mantissa * exp(log scale)``; callers may keep both
    arrays.  A step divides by the work, which can overflow for tiny
    work, so below work 1e-100 the mantissa is ``c_k * work**k``.
    """
    q, divisor = (work, 1.0) if work < 1e-100 else (1.0, work)
    c_prev, c, shift = np.ones_like(args), np.ones_like(args), np.zeros_like(args)
    yield c, shift
    for k in range(top_degree):
        if k == 0:
            c_prev, c = c, q - args / divisor
        else:
            c_prev, c = c, ((k + work - args) * c - k * q * c_prev) / divisor
        mag = np.maximum(np.abs(c), np.abs(c_prev))
        rescale = (mag > _RESCALE_HI) | ((mag > 0.0) & (mag < _RESCALE_LO))
        if rescale.any():
            factor = np.where(rescale, mag, 1.0)
            c = c / factor
            c_prev = c_prev / factor
            shift = shift + np.where(rescale, np.log(factor), 0.0)
        if q != 1.0:
            shift = shift - math.log(q)
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


def _laguerre_log_bound(last: int, work: float, m):
    """Laguerre's bound on ``ln p(last -> m)`` for columns m > last, and
    where it is monotone.

    ``|L_n^(d)(w)| <= C(m, n) e^(w/2)`` (Szego; Abramowitz & Stegun
    22.14.13), d = m - n, gives ``ln p(n -> m) <= d ln w + ln m! - ln n!
    - 2 ln d!``.  Where ``d**2 >= w (m + 1)`` at n = last the bound rises
    with n and falls with m, so it also bounds column m of every row
    n <= last.
    """
    d = m - last
    log_factorial = _log_factorials(int(np.max(m, initial=last)))
    bound = (d * math.log(work) + log_factorial[m] - log_factorial[last]
             - 2.0 * log_factorial[d])
    return bound, d * d >= work * (m + 1)


def _underflow_top(last: int, work: float, top: int) -> int:
    """Last column m <= top where some p(n -> m), n <= last, can be non-zero.

    The first column of row ``last`` where :func:`_laguerre_log_bound`
    is monotone and below :data:`_UNDERFLOW_LOG` starts the underflowed
    tail of every row.
    """
    m = np.arange(last + 1, top + 1)
    bound, monotone = _laguerre_log_bound(last, work, m)
    underflows = monotone & (bound < _UNDERFLOW_LOG)
    return int(m[underflows.argmax()]) - 1 if underflows.any() else top


def transition_block(first: int, last: int, work: float, top: int) -> np.ndarray:
    """p(n -> m) for n = first..last and m = 0..top, clipped to [0, 1].

    One sweep over the arguments first..top: step k adds ``2 ln|c_k|``
    to row k from the diagonal on and, by symmetry, to column k of every
    later row.  ``ln p`` is formed in place in the returned array.  The
    sweep ends at :func:`_underflow_top`; later columns stay 0.0, the
    value their ``exp`` would round to.
    """
    if not 0 <= first <= last <= top:
        raise ValueError(f"need 0 <= first <= last <= top, got {first}, {last}, {top}")
    _check_work(work)
    rows = last - first + 1
    if work == 0.0:
        return np.eye(rows, top + 1, k=first)
    stop = _underflow_top(last, work, top)
    n = np.arange(first, last + 1)[:, None]
    m = np.arange(stop + 1)
    log_factorial = _log_factorials(stop)
    p = np.zeros((rows, top + 1))
    log_p = p[:, : stop + 1]
    # -work + (n+m) ln w - ln(max!) - ln(min!) + 2 ln|c|, in this order;
    # (argument, degree) order makes the square part exactly symmetric
    index = n + m
    np.multiply(index, math.log(work), out=log_p)
    log_p -= work
    log_p -= log_factorial[np.maximum(n, m, out=index)]
    log_p -= log_factorial[np.minimum(n, m, out=index)]
    with np.errstate(divide="ignore"):
        for k, (c, shift) in enumerate(
            _charlier_sweep(np.arange(first, stop + 1, dtype=float), work, last)
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
    np.minimum(log_p, 1.0, out=log_p)
    return p


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


def _start_top(last: int, work: float) -> int:
    """First top an adaptive block of rows up to ``last`` is swept to."""
    return int(last + work + 12.0 * math.sqrt((last + 0.5) * work + 1.0) + 30.0)


def _tail_mass_bound(last: int, work: float, top: int) -> float:
    """Bound on the mass past column ``top >= last`` of every row n <= last.

    From column m to m + 1 of row ``last``, :func:`_laguerre_log_bound`
    changes by ``ln(w (m + 1) / (d + 1)**2)``.  Where the bound is
    monotone at m = top + 1 that ratio is below 1 and falls with m, so
    the first term past the top over one minus the ratio bounds the tail
    of every row; inf where it is not.
    """
    if work == 0.0:
        return 0.0
    m, d = top + 1, top + 1 - last
    log_bound, monotone = _laguerre_log_bound(last, work, m)
    if not monotone:
        return math.inf
    # a bound past 1 says nothing, and capped its exp cannot overflow
    return math.exp(min(log_bound, 0.0)) / (1.0 - work * (m + 1) / (d + 1) ** 2)


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
    top = min(_start_top(last, work), HARD_CAP)
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


class CanonicalSum(NamedTuple):
    value: float
    last_level: int


def canonical_sum(inv_temperature: float, work: float, level_cutoff: int,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> CanonicalSum:
    """Entropy change of a thermal level ensemble after the drive, and the
    last level whose gain it sums.

    Geometric-weighted sum of the microcanonical entropy gains over
    levels 0..level_cutoff; the remainder past level_cutoff is bounded
    by :func:`canonical_tail_bound`.  The initial thermal weights are
    decreasing, so the result is non-negative by the entropy-increase
    theorem.

    The gain of level n lies between ``-ln(2n + 1)`` (every
    ``ln(m + 1/2) >= ln(1/2)``) and ``ln(1 + w/(n + 1/2))`` (Jensen), so
    the weighted rows after level k add at most a known tail.  The sum
    stops at the first k whose tail is at most ``2**-54`` of the partial
    sum, where the rest cannot reach its last bit; a result of 0 or a
    rule not met by level_cutoff sums every level.  A guess that misses
    the rule is swept again from level 0, to the level its partial sum
    asks for; once the missed sweeps and the next would pass half of
    level_cutoff, the sum sweeps every level instead, so it costs at most
    1.5 full sweeps.  It gains where the thermal weights fall fast
    enough to meet the rule before half of level_cutoff: beta of about 1
    and more at 100 levels.

    Rows are left out only where :func:`_tail_mass_bound` along row
    level_cutoff shows that none of them has the mass past the top that
    raises a warning or error: under a fixed top, more than
    :data:`MASS_DEFICIT_TOL`, so no :class:`TruncationWarning` is lost;
    adaptively, more than ``tail_mass`` past column ``HARD_CAP - 1``,
    and with a first top below :data:`HARD_CAP`.  The bound does not
    cover a row's own rounding: at works near 0 that alone can take an
    adaptive row of level 60 or more below its target (work 1e-8 at
    100 levels), and where the sum leaves such rows out it returns a
    value where the full sum raises :class:`TruncationError`.
    """
    if not 0.0 < inv_temperature < math.inf:
        raise ValueError("inverse temperature must be positive and finite")
    if level_cutoff < 1:
        raise ValueError("level_cutoff must be >= 1")
    _check_work(work)
    if policy.top is None:
        may_cut = (_start_top(level_cutoff, work) < HARD_CAP and _tail_mass_bound(
            level_cutoff, work, HARD_CAP - 1) <= policy.tail_mass)
    elif level_cutoff <= policy.top:
        may_cut = _tail_mass_bound(level_cutoff, work, policy.top) <= MASS_DEFICIT_TOL
    else:
        raise ValueError(f"level_cutoff {level_cutoff} is above the top {policy.top}")
    levels = np.arange(level_cutoff + 1)
    weights = (1.0 - math.exp(-inv_temperature)) * np.exp(-inv_temperature * levels)
    caps = np.maximum(np.log(2.0 * levels + 1.0), np.log1p(work / (levels + 0.5)))
    # tails[k]: bound on the weighted gains of the levels after k
    tails = np.append(np.cumsum((weights * caps)[:0:-1])[::-1], 0.0)
    # first guess: where the tail falls below 2**-56 of its whole bound
    last = int(np.argmax(tails <= 2.0**-56 * tails[0])) if may_cut else level_cutoff
    missed = 0  # levels swept by guesses that missed the rule
    while True:
        if 2 * (missed + last) > level_cutoff:
            last = level_cutoff
        gains = level_entropies(last, work, policy) - np.log(levels[: last + 1] + 0.5)
        partial = np.cumsum(weights[: last + 1] * gains)
        met = np.flatnonzero(tails[: last + 1] <= 2.0**-54 * np.abs(partial))
        if may_cut and met.size:
            last = int(met[0])
        elif last < level_cutoff:
            missed += last
            last = int(np.argmax(tails <= 2.0**-55 * abs(partial[-1])))
            continue
        return CanonicalSum(float(weights[: last + 1] @ gains[: last + 1]), last)


def canonical_entropy_change(inv_temperature: float, work: float,
                             level_cutoff: int,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The value of :func:`canonical_sum`."""
    return canonical_sum(inv_temperature, work, level_cutoff, policy).value


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
