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
diagonal of every later row.  The sweep is elementwise in the work
too, so a 1-d array of works is swept in one pass, one block per work,
each the same bit for bit as swept alone.  A single row, or a single
entry (:func:`transition_probability`), is a one-row block;
:func:`level_gains` reduces over the block of every initial level of
one or more works, figure 1's in one call and :func:`canonical_sum`'s
for a whole duration column, swept in chunks of works whose size is
derived from the block shape: at most :data:`_CHUNK_ENTRIES` entries,
1 MB, at the chunk's largest last row and swept column.  A gain is the
row sum of ``p ln((m + 1/2)/(n + 1/2))``, so a weak drive's gain is not
the difference of two sums of order ``ln(n + 1/2)``; :func:`transition_row`
gives one level's gain by the same reduction, figure 2's per duration,
its one row swept as one block without the chunking.

Every column cut rests on one bound.  Laguerre's inequality
``|L_n^(d)(w)| <= C(m, n) e^(w/2)``, d = m - n, gives ``ln p(n -> m) <=
d ln w + ln m! - ln n! - 2 ln d!``; summed as a geometric series it
bounds the mass past a column of every row up to a last one, and
:func:`_column_top` finds the first column where that mass is at most a
given level, in one pass over every column for a small search (fig1's
and fig2's fixed rows) and in two for a large one.  Past the column at
exp(-800) every entry would round to 0.0, so the sweep ends there and
leaves them at 0.0: blocks, and a fixed cut's meaning and output, stay
the same bit for bit.  Past the column at 2**-56 no entry can move an
adaptive row's running sums, so an adaptive row is swept to there and
cut, kept or raised exactly as if swept to :data:`HARD_CAP`.  A fixed row of the thermal sum stops sooner, past the
column at ``2**-56 floor / ln(2 top + 1)``, with ``floor`` the theorem's
floor below: the entries left out there move the sum by at most 2**-56
of it.  The thermal sum ends at a weight top: the first level
past which the bounded gains of the remaining levels, times their
thermal weights, stay below 2**-54 of the partial sum, whose floor from
the entropy-increase theorem fixes in advance how far the rows are
swept.  It stops there only where the same Laguerre bound along its
last level shows that no level left out would have lost the mass that
raises :class:`TruncationWarning` or :class:`TruncationError`; a row's
own rounding is not covered (see :func:`canonical_sum`).

Every sum over levels is truncated by one argument, ``top``: an integer
cuts every row at that level, for figure data whose source states an
explicit truncation, and reports the captured mass as it is; None cuts
each row adaptively, where it keeps all but :data:`TAIL_MASS` of its
mass, never past :data:`HARD_CAP`.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_RESCALE_HI = 1e120
_RESCALE_LO = 1e-120

#: Highest level an adaptive row may reach before :class:`TruncationError`.
HARD_CAP = 5000

#: Mass an adaptive row (``top=None``) may leave out.
TAIL_MASS = 1e-12

#: Largest mass a row cut at a fixed top may leave out before
#: :class:`TruncationWarning` is raised.
MASS_DEFICIT_TOL = 1e-9

#: ln p below which an entry is left at 0.0; ``exp`` underflows to 0.0
#: below about -745.1, so the margin covers the rounding of ``ln p``.
_UNDERFLOW_LOG = -800.0

#: ln of the mass an adaptive row leaves unswept: 2**-56 is below half an
#: ulp of any cumulative mass of at least 1/4, so no entry past the swept
#: top could change the row's running sums.
_ABSORBED_LOG = -56 * math.log(2.0)

#: Most block entries swept at once, 2**17 float64 values (1 MB): a column
#: of works is swept in chunks of works whose blocks, at the largest rows
#: and swept columns among them, stay within it (a single work may exceed
#: it), and the thermal rule's per-work tables are sliced to it too.
_CHUNK_ENTRIES = 2**17

#: Most entries (works times columns) for which :func:`_column_top` tries
#: every column in one pass.  The two-pass search's cost is mostly fixed
#: per-call overhead, about that of one pass over 1700-1800 entries for one
#: or two works and over 2000 for 16 or more; so fig1's and fig2's fixed
#: rows (about 1000 entries) take the one pass, and a column of works or a
#: :data:`HARD_CAP` span keeps two.
_SINGLE_PASS_ENTRIES = 2**11

#: ln(k!) for k = 0..size-1; grown on demand by :func:`_log_factorials`.
_LOG_FACTORIAL = np.zeros(0)

#: ln(m + 1/2) for m = 0..size-1; grown on demand by :func:`_log_halves`.
_LOG_HALF = np.zeros(0)


class TruncationError(RuntimeError):
    """An adaptive row reached :data:`HARD_CAP` leaving out more than
    :data:`TAIL_MASS`, or a thermal sum fell below half the theorem's floor."""


class TruncationWarning(UserWarning):
    """A row cut at a fixed top level left out noticeable mass."""


@dataclass(frozen=True)
class TransitionRow:
    """Transition probabilities out of one level, m = 0..len-1, and the
    level's entropy gain, ``sum_m p ln((m + 1/2)/(level + 1/2))`` over the
    row as swept (see :func:`level_gains`)."""

    level: int
    work: float
    probabilities: np.ndarray
    captured_mass: float
    gain: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


def charlier_direct(m: int, n: int, work: float) -> float:
    """Charlier polynomial by its explicit alternating sum.

    The sum is a finite combination of rationals, so it is evaluated
    exactly (the float ``work`` is itself a rational ``num/den``) and
    rounded once on return; a plain floating sum would lose most digits
    to cancellation already around m = n = 20.  With L = min(m, n) the
    terms share the denominator ``num**L``, so the numerator is summed
    in integers, ``sum_l (-1)^l C(m, l) C(n, l) l! den^l num^(L-l)``,
    and the one quotient is Python's integer true division, which rounds
    the exact rational once.
    Intended as the reference implementation for small indices; the
    value itself overflows the float range around m = n ~ 170 and is
    then flagged.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if work <= 0.0:
        raise ValueError("work must be positive")
    num, den = float(work).as_integer_ratio()
    top = min(m, n)
    total = sum((-1) ** l * math.comb(m, l) * math.comb(n, l) * math.factorial(l)
                * den**l * num ** (top - l) for l in range(top + 1))
    try:
        return total / num**top
    except OverflowError as exc:
        raise ValueError(
            f"direct sum overflows at m={m}, n={n}; use transition_probability"
        ) from exc


def _check_work(work) -> np.ndarray:
    """``work``, a float or an array of them, as a float array; each must
    be finite and non-negative."""
    works = np.asarray(work, dtype=float)
    valid = (works >= 0.0) & (works < math.inf)
    if not valid.all():
        bad = works[~valid].flat[0].item()
        raise ValueError(f"work must be finite and non-negative, got {bad!r}")
    return works


def _check_level(name: str, value, low: int = 0) -> int:
    """``value``, an integer level of at least ``low``, as an int."""
    try:
        level = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if level < low:
        raise ValueError(f"{name} must be >= {low}, got {level}")
    return level


def _log(works) -> np.ndarray:
    """ln w of each work by :func:`math.log`, -inf at 0; numpy's vector
    log can round the last bit differently, and the figures' data was
    made with this one."""
    values = [math.log(w) if w > 0.0 else -math.inf for w in np.ravel(works).tolist()]
    return np.reshape(values, np.shape(works))


def _charlier_sweep(works: np.ndarray, args: np.ndarray, top_degree: int):
    """Yield |c_k(args; works)| for k = 0..top_degree as (mantissa, log
    scale), one row per work of the column ``works`` (shape (W, 1)) over
    the arguments ``args``.

    The value is ``mantissa * exp(log scale)``; callers may keep both
    arrays.  Every entry is computed alone, so a work's row is the same
    bit for bit whatever other works share the sweep.  A step divides by
    the work, which can overflow for tiny work, so below work 1e-100 the
    mantissa is ``|c_k| * work**k``.
    """
    tiny = works < 1e-100
    q, divisor, log_q = 1.0, works, None
    if tiny.any():
        q, divisor = np.where(tiny, works, 1.0), np.where(tiny, 1.0, works)
        log_q = _log(q)
    c = size = np.ones((works.size, args.size))  # size: |c|
    shift = np.zeros(c.shape)
    yield size, shift
    for k in range(top_degree):
        if k == 0:
            c_prev, c = c, q - args / divisor
        else:
            c_prev, c = c, ((k + works - args) * c - k * q * c_prev) / divisor
        size_prev, size = size, np.abs(c)
        mag = np.maximum(size, size_prev)
        # a zero mag is below the window too, but needs no rescaling
        rescale = (mag > _RESCALE_HI) | (mag < _RESCALE_LO)
        if rescale.any():
            rescale &= mag > 0.0
            factor = np.where(rescale, mag, 1.0)
            c, c_prev = c / factor, c_prev / factor
            size, size_prev = size / factor, size_prev / factor
            shift = shift + np.where(rescale, np.log(factor), 0.0)
        if log_q is not None:
            shift = shift - log_q
        yield size, shift


def _log_factorials(top: int) -> np.ndarray:
    """Read-only ln(k!) for k = 0..top, from the module-level table."""
    global _LOG_FACTORIAL
    if _LOG_FACTORIAL.size <= top:
        size = max(top + 1, 2 * _LOG_FACTORIAL.size)
        table = np.array([math.lgamma(k + 1.0) for k in range(size)])
        table.setflags(write=False)
        _LOG_FACTORIAL = table
    return _LOG_FACTORIAL[: top + 1]


def _log_halves(top: int) -> np.ndarray:
    """Read-only ln(m + 1/2) for m = 0..top, from the module-level table;
    each entry is numpy's log of the exact m + 1/2, whatever the size."""
    global _LOG_HALF
    if _LOG_HALF.size <= top:
        table = np.log(np.arange(0.5, max(top + 1, 2 * _LOG_HALF.size)))
        table.setflags(write=False)
        _LOG_HALF = table
    return _LOG_HALF[: top + 1]


def _column_top(last, work, top, log_level, log_work=None) -> np.ndarray:
    """First column s in last..top past which Laguerre's bound on the mass
    of every row n <= last is at most ``exp(log_level)``, or ``top`` if
    there is none; elementwise over lasts, works and tops that broadcast.
    ``log_work``, ``_log(work)``, may be passed where the caller has it.

    ``|L_n^(d)(w)| <= C(m, n) e^(w/2)`` (Szego; Abramowitz & Stegun
    22.14.13), d = m - n, gives ``ln p(n -> m) <= d ln w + ln m! - ln n!
    - 2 ln d!``.  Where ``d**2 >= w (m + 1)`` at n = last the bound rises
    with n and falls with m, so it also bounds column m of every row
    n <= last, and its ratio from m to m + 1, ``w (m + 1) / (d + 1)**2``,
    is below 1 and falls with m: the bound at m = s + 1 over one minus
    that ratio bounds the mass past s of every row, and only falls with
    s from there on.  Whether a column passes is thus a step in s.  When
    the broadcast block times the widest span holds at most
    :data:`_SINGLE_PASS_ENTRIES` entries, one vectorised pass tries every
    column of last..top; otherwise two do: 64 evenly spaced columns
    bracket the first that passes, and the columns of that bracket pick
    it.  A column's test is the same elementwise arithmetic either way,
    so both find the same column.
    """
    if log_work is None:
        log_work = _log(work)
    last, work, top, log_level, log_work = (
        np.asarray(a)[..., None] for a in (last, work, top, log_level, log_work))
    log_factorial = _log_factorials(int(top.max()) + 1)
    log_last = log_factorial[last]

    def first_passing(s):
        """Index along the last axis of the first column of ``s`` that passes."""
        m = s + 1
        d = m - last
        rise, square = work * (m + 1), d * d  # monotone where square >= rise
        # capped at d**2 where it is not, so that the log stays finite
        ratio = np.minimum(rise, square) / (d + 1) ** 2
        log_tail = (d * log_work + log_factorial[m] - log_last - 2.0 * log_factorial[d]
                    - np.log1p(-ratio))
        passes = (s >= top) | ((square >= rise) & (log_tail <= log_level))
        return passes.argmax(axis=-1, keepdims=True)

    span = top - last
    widest = int(span.max(initial=0)) + 1
    if np.broadcast(span, work, log_level).size * widest <= _SINGLE_PASS_ENTRIES:
        return (last + first_passing(np.minimum(last + np.arange(widest), top)))[..., 0]
    hi = last + span * first_passing(last + span * np.arange(64) // 63) // 63
    lo = np.maximum(hi - span // 63, last)
    columns = np.minimum(lo + np.arange(int((hi - lo).max(initial=0)) + 1), hi)
    return (lo + first_passing(columns))[..., 0]


def _fill_block(first: int, works: np.ndarray, out: np.ndarray,
                log_works: np.ndarray) -> None:
    """Write p(n -> m) of work ``works[i]``, whose ``_log`` is
    ``log_works[i]``, into ``out[i, n - first, m]`` for the rows n =
    first.. and columns m = 0.. that ``out`` spans.

    One sweep over the arguments first..width - 1 for all works at once:
    step k adds ``2 ln|c_k|`` to row k from the diagonal on and, by
    symmetry, to column k of every later row.  ``ln p`` is formed in
    place in ``out``, entry by entry in the same order for any number of
    works, so each work's block is the same bit for bit as swept alone.
    A zero work's block is the identity.
    """
    rows, width = out.shape[1:]
    last = first + rows - 1
    driven = works > 0.0
    if not driven.all():
        # swept as work 1, ln 1 = 0, then overwritten
        works, log_works = np.where(driven, works, 1.0), np.where(driven, log_works, 0.0)
    n = np.arange(first, last + 1)[:, None]
    m = np.arange(width)
    log_factorial = _log_factorials(width - 1)
    # -work + (n+m) ln w - ln(max!) - ln(min!) + 2 ln|c|, in this order;
    # (argument, degree) order makes the square part exactly symmetric
    index = n + m
    np.multiply(index, log_works[:, None, None], out=out)
    out -= works[:, None, None]
    out -= log_factorial[np.maximum(n, m, out=index)]
    out -= log_factorial[np.minimum(n, m, out=index)]
    with np.errstate(divide="ignore"):
        for k, (size, shift) in enumerate(_charlier_sweep(
                works[:, None], np.arange(first, width, dtype=float), last)):
            lo = max(k - first, 0)
            twice_log = np.log(size[:, lo:] if k >= first else size[:, :rows])
            twice_log += shift[:, lo : lo + twice_log.shape[1]]
            twice_log *= 2.0
            out[:, lo:, k] += twice_log[:, : rows - lo]
            if k >= first:
                out[:, lo, k + 1 :] += twice_log[:, 1:]
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.minimum(out, 1.0, out=out)
    if not driven.all():
        out[~driven] = np.eye(rows, width, k=first)


def transition_block(first: int, last: int, work, top: int) -> np.ndarray:
    """p(n -> m) for n = first..last and m = 0..top, clipped to [0, 1];
    for a 1-d array of works, one such block per work, stacked along a
    first axis and swept together.

    The sweep ends at the largest of the works' columns past which
    Laguerre's bound leaves at most exp(-800) of mass (:func:`_column_top`);
    later columns stay 0.0, the value their ``exp`` would round to.
    """
    first, last, top = (_check_level(name, value) for name, value
                        in (("first", first), ("last", last), ("top", top)))
    if not first <= last <= top:
        raise ValueError(f"need 0 <= first <= last <= top, got {first}, {last}, {top}")
    works = _check_work(work)
    stop = int(np.max(_column_top(last, works, top, _UNDERFLOW_LOG), initial=last))
    p = np.zeros((works.size, last - first + 1, top + 1))
    _fill_block(first, works.reshape(-1), p[..., : stop + 1], _log(works.reshape(-1)))
    return p.reshape(works.shape + p.shape[1:])


def transition_probability(n: int, m: int, work: float) -> float:
    """Stable transition probability between levels n and m.

    The last entry of the one-row :func:`transition_block` out of the
    smaller index, cut at the larger: symmetric in (n, m), valid well
    past the overflow range of :func:`charlier_direct`, and delta_{nm}
    for ``work = 0``.
    """
    n, m = _check_level("n", n), _check_level("m", m)
    low, high = min(n, m), max(n, m)
    return float(transition_block(low, low, work, high)[0, high])


def _chunks(rows: list, widths: list):
    """Slices of consecutive works swept as one block, with the block's
    shape: at least one work each, and at most :data:`_CHUNK_ENTRIES`
    entries at the largest rows and widths among them."""
    start = 0
    while start < len(rows):
        stop, most_rows, most_width = start + 1, rows[start], widths[start]
        while stop < len(rows):
            grown_rows = max(most_rows, rows[stop])
            grown_width = max(most_width, widths[stop])
            if (stop + 1 - start) * grown_rows * grown_width > _CHUNK_ENTRIES:
                break
            stop, most_rows, most_width = stop + 1, grown_rows, grown_width
        yield slice(start, stop), (stop - start, most_rows, most_width)
        start = stop


def _cap(first: int, last: int, top: int | None) -> int:
    """The column that rows first..last may be swept to: a fixed ``top``,
    which must reach ``last``, or :data:`HARD_CAP` for an adaptive cut."""
    if top is None:
        if HARD_CAP < last:
            raise TruncationError(f"hard cap {HARD_CAP} is below level {last}")
        return HARD_CAP
    if not 0 <= first <= last <= _check_level("top", top):
        raise ValueError(f"need 0 <= first <= last <= top, got {first}, {last}, {top}")
    return top


def _cut(first: int, p: np.ndarray, top: int | None, work: float, stacklevel: int):
    """The lengths (None under a fixed cut) and captured masses of the rows
    n = first.. of one work's ``p``, as :func:`_truncated_rows` yields
    them, with its warning or error; the warning points ``stacklevel``
    frames above the caller."""
    if top is not None:
        captured = p.sum(axis=1)
        short = int(captured.argmin())
        if 1.0 - captured[short] > MASS_DEFICIT_TOL:
            warnings.warn(
                f"row of level {first + short} keeps mass {captured[short]:.15f} "
                f"at the fixed top {top} (work={work}); raise the top",
                TruncationWarning,
                stacklevel=stacklevel + 1,
            )
        return None, captured
    target = 1.0 - TAIL_MASS
    cumulative = np.cumsum(p, axis=1)
    missed = cumulative[:, -1] < target
    if missed.any():
        short = int(missed.argmax())
        raise TruncationError(
            f"mass {cumulative[short, -1]:.15f} below target {target:.15f} "
            f"at the hard cap {HARD_CAP} (level={first + short}, work={work})"
        )
    lengths = np.sum(cumulative < target, axis=1) + 1
    return lengths, cumulative[np.arange(p.shape[0]), lengths - 1]


def _truncated_rows(first: int, lasts: np.ndarray, works: np.ndarray,
                    top: int | None, log_mass=_UNDERFLOW_LOG):
    """Rows first..lasts[i] out of each work ``works[i]``, cut at the level
    ``top``, or adaptively where it is None.

    Yields ``(p, lengths, captured)`` once per work, in order: ``p``
    holds the rows up to the last column the work's own sweep reaches,
    each row cut at its length (None under a fixed cut: every row runs
    to ``top``, and the entries past ``p`` are 0.0), with its captured
    mass.  ``p`` is a view that the next item may overwrite.
    Consecutive works are swept together, in :func:`_chunks` of their own
    rows and swept columns; each work is judged on its own rows and
    columns only, so it yields what it would alone.  Under a fixed cut a
    work's sweep ends at the first column past which Laguerre's bound
    leaves at most ``exp(log_mass)`` of mass in each row; by default
    exp(-800), where every later entry would round to 0.0, and for the
    thermal sum a level from its floor (:func:`_thermal_sums`), one per
    work.  A :class:`TruncationWarning` names the row of a work that
    leaves out most mass if that exceeds :data:`MASS_DEFICIT_TOL`.

    Adaptively, ``log_mass`` is unused: a work's rows are swept to the
    first column past which Laguerre's bound leaves at most 2**-56 of
    mass in each (at most :data:`HARD_CAP`).  Every entry past it is then
    below 2**-56, under half an ulp of a running sum that has reached
    1/4, and a row's sum
    reaches about 1 by that column; so ``np.cumsum``'s sequential sums
    could not change past it, and each row's cut column, captured mass,
    and its mass at the top, equal those of a sweep to :data:`HARD_CAP`
    bit for bit.  A row that leaves out more than :data:`TAIL_MASS` there
    raises :class:`TruncationError`, with the mass it keeps.
    """
    lasts = np.asarray(lasts)
    cap = _cap(first, int(lasts.max()), top)
    log_works = _log(works)
    stops = _column_top(lasts, works, cap, _ABSORBED_LOG if top is None else log_mass,
                        log_works)
    listed = works.tolist()
    rows, widths = (lasts - first + 1).tolist(), (stops + 1).tolist()
    chunks = list(_chunks(rows, widths))
    # one buffer serves every chunk: a chunk's rows are read as they are
    # yielded, before the next chunk is swept over them
    buffer = np.empty(max(math.prod(shape) for _, shape in chunks))
    for chunk, shape in chunks:
        block = buffer[: math.prod(shape)].reshape(shape)
        _fill_block(first, works[chunk], block, log_works[chunk])
        for i, p in enumerate(block, chunk.start):
            p = p[: rows[i], : widths[i]]
            yield (p, *_cut(first, p, top, listed[i], 3))


def _gains(first: int, p: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Entropy gain of each row n = first.. of ``p``, cut at its length:
    ``sum_m p(n -> m) ln((m + 1/2)/(n + 1/2))``, where an entry past the
    row's length, which its cut sum leaves out, adds ``-p ln(n + 1/2)``;
    with no lengths (a fixed cut), every entry of ``p`` is inside."""
    rows, width = p.shape
    log_levels = _log_halves(width - 1)
    inside = log_levels if lengths is None else np.where(
        np.arange(width) < lengths[:, None], log_levels, 0.0)
    ratios = inside - log_levels[first : first + rows, None]
    ratios *= p
    return ratios.sum(axis=1)


def transition_row(level: int, work: float, top: int | None = None) -> TransitionRow:
    """Row of transition probabilities out of ``level`` for one work, cut
    at ``top``, or adaptively where it is None, with the level's gain.

    The row is the one-row block :func:`_truncated_rows` would yield,
    swept alone and judged by the same :func:`_cut`; a fixed row is
    padded with 0.0 to ``top + 1`` entries."""
    level, works = _check_level("level", level), _check_work(work).reshape(-1)
    if works.size != 1:
        raise ValueError(f"work must be a single value, got {works.size} values")
    log_works = _log(works)
    log_mass = _ABSORBED_LOG if top is None else _UNDERFLOW_LOG
    stop = int(_column_top(level, works, _cap(level, level, top), log_mass, log_works)[0])
    # a fixed row is swept into the head of its padded row
    row = np.zeros(stop + 1 if top is None else top + 1)
    p = row[None, : stop + 1]
    _fill_block(level, works, p[None], log_works)
    lengths, captured = _cut(level, p, top, works.item(), 2)
    if lengths is not None:
        row = row[: lengths[0]]
    return TransitionRow(level, works.item(), row, float(captured[0]),
                         float(_gains(level, p, lengths)[0]))


def level_gains(lasts, works, top: int | None = None,
                log_mass=_UNDERFLOW_LOG) -> np.ndarray:
    """Entropy gains of the rows n = 0..lasts[i] out of each work
    ``works[i]``: the row's ``sum_m p(n -> m) ln(m + 1/2)``, cut at
    ``top`` or adaptively, less ``ln(n + 1/2)``, zero past each work's
    last row; fixed rows are swept to ``log_mass`` (see
    :func:`_truncated_rows`).

    Each entry adds ``p ln((m + 1/2)/(n + 1/2))``, exactly 0 at m = n,
    and an entry past an adaptive cut, which the cut row's sum leaves
    out, adds ``-p ln(n + 1/2)``: a weak drive's gain, of the order of
    the work, is then not the difference of two sums of order
    ``ln(n + 1/2)``.  Those entries are carried up to the adaptive row's
    swept top; the ones past it, at most 2**-56 of mass, would add at
    most ``2**-56 ln(n + 1/2)``.  A row's entry equals the gain of
    :func:`transition_row` out of that level bit for bit.
    """
    lasts, works = np.asarray(lasts), _check_work(works)
    if lasts.ndim != 1 or lasts.shape != works.shape:
        raise ValueError(f"need one last level per work, got shapes {lasts.shape} "
                         f"and {works.shape}")
    if lasts.dtype.kind not in "iu":
        raise ValueError(f"lasts must be integer levels, got dtype {lasts.dtype}")
    if lasts.min() < 0:
        raise ValueError("last must be non-negative")
    gains = np.zeros((works.size, int(lasts.max()) + 1))
    for i, (p, lengths, _) in enumerate(
            _truncated_rows(0, lasts, works, top, log_mass)):
        gains[i, : p.shape[0]] = _gains(0, p, lengths)
    return gains


def _check_thermal(inv_temperature: float, work, level_cutoff: int):
    """The level cutoff, as an int, and the works of a thermal sum, once the
    inverse temperature is checked."""
    if not 0.0 < inv_temperature < math.inf:
        raise ValueError("inverse temperature must be positive and finite")
    return _check_level("level_cutoff", level_cutoff, 1), _check_work(work)


class CanonicalSum(NamedTuple):
    value: float | np.ndarray
    last_level: int | np.ndarray


def canonical_sum(inv_temperature: float, work, level_cutoff: int,
                  top: int | None = None) -> CanonicalSum:
    """Entropy change of a thermal level ensemble after the drive, and the
    last level whose gain it sums; for a 1-d array of works, both for
    every work of the column, as arrays.

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
    rule not met by level_cutoff sums every level.  The theorem bounds
    that k in advance: a uniform start on levels 0..n is decreasing, so
    ``g_0 + ... + g_n >= 0``, and by Abel summation every partial sum is
    at least ``(1-q)**2 g_0 >= (1-q)**2 (1 - e^-w) ln 3``, q = e^-beta.
    Each work's rows are swept once, to the first level whose tail is at
    most ``2**-55`` of that floor (the factor 2 absorbs rounding).  A sum
    below half the floor raises :class:`TruncationError`: its rows' own
    error is then over half the floor (adaptive work 1e-20 at beta 2),
    and a sum that misses the rule at that level is always such a sum.

    Under a fixed top the floor also ends each row's sweep, at the
    column past which Laguerre's bound leaves at most ``2**-56 floor /
    ln(2 top + 1)`` of mass in a row, or exp(-800) if that is larger.
    An entry p left out would add at most ``p ln((top + 1/2)/(1/2))`` to
    its row's gain and the thermal weights sum below 1, so the sum moves
    by at most ``2**-56 floor``.  A weak drive keeps its gain: at work
    1e-20 and beta 0.1 the level is about e^-91, below row 100's entries
    of about 1e-18 next to the diagonal.  A row leaves out under 2**-56,
    under an ulp of its captured mass, so it warns as if swept to
    exp(-800).

    A column is sorted by work, and each sweep takes consecutive works
    in chunks (:func:`_truncated_rows`).  Every work gets the value,
    last level, warning or error it would get alone; where several works
    raise, the error is the first one met, so it does not depend on the
    column's order: works go in sorted order, and a group's rows are
    checked before its sums.  The per-work tables of the rule hold at
    most :data:`_CHUNK_ENTRIES` entries, so longer columns go in groups.

    Rows are left out only where Laguerre's bound on the mass along row
    level_cutoff (:func:`_column_top`) shows that none of them has the
    mass past the top that raises a warning or error: under a fixed top,
    more than :data:`MASS_DEFICIT_TOL`, so no :class:`TruncationWarning`
    is lost; adaptively, more than :data:`TAIL_MASS` past column
    ``HARD_CAP - 1``.  The bound does not cover a row's own rounding: at
    works near 0 that alone can take an adaptive row of level 60 or more
    below its target (work 1e-8 at 100 levels), and where the sum leaves
    such rows out it returns a value where the full sum raises
    :class:`TruncationError`.
    """
    level_cutoff, works = _check_thermal(inv_temperature, work, level_cutoff)
    if top is not None and level_cutoff > _check_level("top", top):
        raise ValueError(f"level_cutoff {level_cutoff} is above the top {top}")
    flat = works.reshape(-1)
    values, last_levels = np.zeros(flat.size), np.zeros(flat.size, dtype=int)
    order = np.argsort(flat, kind="stable")
    size = max(1, _CHUNK_ENTRIES // (level_cutoff + 1))
    for start in range(0, order.size, size):
        group = order[start : start + size]
        values[group], last_levels[group] = _thermal_sums(
            inv_temperature, flat[group], level_cutoff, top)
    if works.ndim == 0:
        return CanonicalSum(float(values[0]), int(last_levels[0]))
    return CanonicalSum(values, last_levels)


def _thermal_sums(inv_temperature: float, works: np.ndarray, level_cutoff: int,
                  top: int | None):
    """Values and last levels of :func:`canonical_sum` for a group of works."""
    if top is None:
        cut, log_level = HARD_CAP - 1, math.log(TAIL_MASS)
    else:
        cut, log_level = top, math.log(MASS_DEFICIT_TOL)
    # a column found at most at the cut bounds the mass past it: the
    # search runs a column further so that finding none reads above it,
    # and from a level_cutoff above the cut it finds none
    may_cut = _column_top(level_cutoff, works, max(cut, level_cutoff) + 1, log_level) <= cut
    levels = np.arange(level_cutoff + 1)
    # 1 - q, q = e^-beta; 1.0 - math.exp(-beta) would lose digits at small beta
    gap = -math.expm1(-inv_temperature)
    with np.errstate(over="ignore"):  # beta * level past the largest double
        weights = gap * np.exp(-inv_temperature * levels)
    caps = np.maximum(np.log(2.0 * levels + 1.0),
                      np.log1p(works[:, None] / (levels + 0.5)))
    # tails[:, k]: bound on the weighted gains of the levels after k
    tails = np.zeros_like(caps)
    tails[:, :-1] = np.cumsum((weights * caps)[:, :0:-1], axis=1)[:, ::-1]
    # every partial sum is at least (1-q)^2 g_0 >= (1-q)^2 (1 - e^-w) ln 3
    floor = gap**2 * -np.expm1(-works) * math.log(3.0)
    # how far a fixed row is swept: at most 2**-56 floor of gain left out
    with np.errstate(divide="ignore"):
        log_mass = np.maximum(_UNDERFLOW_LOG,
                              np.log(2.0**-56 * floor / math.log(2.0 * cut + 1.0)))
    lasts = np.where(may_cut, np.argmax(tails <= 2.0**-55 * floor[:, None], axis=1),
                     level_cutoff)
    gains = level_gains(lasts, works, top, log_mass)
    partial = np.cumsum(weights[: gains.shape[1]] * gains, axis=1)
    met = ((levels[: gains.shape[1]] <= lasts[:, None])
           & (tails[:, : gains.shape[1]] <= 2.0**-54 * np.abs(partial)))
    ends = np.where(may_cut & met.any(axis=1), met.argmax(axis=1), lasts)
    values = np.array([weights[: end + 1] @ gains[k, : end + 1]
                       for k, end in enumerate(ends.tolist())])
    # the rule misses at lasts only where |partial| < floor / 2, so this
    # one check raises there too
    for work, value, bound in zip(works.tolist(), values.tolist(), floor.tolist()):
        if value < 0.5 * bound:
            raise TruncationError(f"sum {value:.3e} below half the theorem's floor "
                                  f"{bound:.3e} (work={work})")
    return values, ends


def canonical_tail_bound(inv_temperature: float, work, level_cutoff: int):
    """Upper bound on the canonical sum's neglected geometric tail; for a
    1-d array of works, one bound per work.

    Uses concavity (entropy gain of level n is at most
    ``ln(1 + work/(n + 1/2))``) and the exact geometric remainder.
    """
    level_cutoff, works = _check_thermal(inv_temperature, work, level_cutoff)
    bounds = math.exp(-inv_temperature * (level_cutoff + 1)) * np.log1p(
        works / (level_cutoff + 1.5))
    return float(bounds) if works.ndim == 0 else bounds
