"""Property-based checks of the identities the figures rest on."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qentropy import classical, quantum
from qentropy.majorization import (
    ProbabilityVector,
    entropy_change,
    evolve_distribution,
    random_unistochastic,
)

WORKS = st.floats(min_value=0.0, max_value=60.0)


def populations(min_size=2, max_size=32):
    weights = st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=min_size, max_size=max_size)
    return weights.filter(lambda w: sum(w) > 1e-3)


def normalized(weights):
    w = np.asarray(weights)
    return w / w.sum()


@given(st.integers(2, 32).flatmap(
    lambda dim: st.tuples(populations(dim, dim), populations(dim, dim))))
def test_byparts_identity(pair):
    p, q = (ProbabilityVector(normalized(w)) for w in pair)
    report = entropy_change(p, q)
    assert abs(report.delta_direct - report.delta_by_parts) <= 1e-10


@given(populations(), st.integers(0, 2**32 - 1))
def test_theorem_positivity(weights, seed):
    p = ProbabilityVector(np.sort(normalized(weights))[::-1])
    d = random_unistochastic(len(p), seed)
    report = entropy_change(p, evolve_distribution(p, d))
    assert report.delta_direct >= -1e-12
    assert report.min_cumulative_gap >= -1e-12


@given(st.integers(0, 60), st.floats(min_value=0.0, max_value=200.0))
def test_square_block_exactly_symmetric(top, work):
    block = quantum.transition_block(0, top, work, top)
    assert np.array_equal(block, block.T)


@given(st.integers(0, 8), WORKS)
def test_block_row_sums_tend_to_one(last, work):
    spread = 12.0 * math.sqrt((2 * last + 1) * work + 1.0)
    tops = [last, last + int(work), last + int(work + spread) + 30]
    sums = np.array([quantum.transition_block(0, last, work, top).sum(axis=1)
                     for top in tops])
    assert np.all(np.diff(sums, axis=0) >= -1e-15)
    assert np.abs(sums[-1] - 1.0).max() <= 1e-10


@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 300),
       st.one_of(WORKS, st.floats(min_value=60.0, max_value=300.0),
                 st.floats(min_value=5e-324, max_value=1e-90)))
def test_underflow_cut_leaves_the_block_unchanged(first, span, extra, work):
    last = first + span
    top = last + extra
    cut = quantum.transition_block(first, last, work, top)
    calls = []

    def no_cut(last, work, top, log_level):
        calls.append(log_level)
        return top

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "_column_top", no_cut)
        assert np.array_equal(cut, quantum.transition_block(first, last, work, top))
    assert calls == [quantum._UNDERFLOW_LOG]


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 200),
       st.lists(st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e-100),
                          st.floats(min_value=0.0, max_value=700.0)),
                min_size=1, max_size=6))
def test_batched_block_equals_its_works(first, span, extra, works):
    last = first + span
    top = last + extra
    batched = quantum.transition_block(first, last, np.array(works), top)
    assert batched.shape == (len(works), span + 1, top + 1)
    for block, work in zip(batched, works):
        assert np.array_equal(block, quantum.transition_block(first, last, work, top))


EDGE_WORKS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-13]),
                      st.floats(min_value=1e-20, max_value=1e-8),
                      st.floats(min_value=0.0, max_value=700.0))


def column_top_by_scan(last, work, top, log_level):
    """The first column of last..top that passes the bound of
    ``quantum._column_top``, by evaluating it at every column."""
    s = np.arange(last, top)
    m, d = s + 1, s + 1 - last
    rise = work * (m + 1)
    log_factorial = quantum._log_factorials(top + 1)
    log_work = math.log(work) if work > 0.0 else -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = (d * log_work + log_factorial[m] - log_factorial[last]
                    - 2.0 * log_factorial[d] - np.log1p(-rise / (d + 1) ** 2))
    passes = (d * d >= rise) & (log_tail <= log_level)
    return int(s[passes.argmax()]) if passes.any() else top


@given(st.lists(st.tuples(st.integers(0, 300), EDGE_WORKS), min_size=1, max_size=4),
       st.integers(0, quantum.HARD_CAP),
       st.one_of(st.sampled_from([quantum._UNDERFLOW_LOG, quantum._ABSORBED_LOG,
                                  math.log(quantum.MASS_DEFICIT_TOL), math.log(1e-12)]),
                 st.floats(min_value=-900.0, max_value=0.0)))
def test_column_top_equals_a_linear_scan(cases, extra, log_level):
    lasts, works = (np.array(column) for column in zip(*cases))
    top = min(int(lasts.max()) + extra, quantum.HARD_CAP)
    found = quantum._column_top(lasts, works, top, log_level)
    assert found.shape == lasts.shape
    for last, work, column in zip(lasts.tolist(), works.tolist(), found.tolist()):
        assert column == column_top_by_scan(last, work, top, log_level), (last, work)


@given(st.integers(0, 20), st.integers(0, 30), EDGE_WORKS)
def test_adaptive_rows_equal_rows_swept_to_the_underflow(first, span, work):
    # past the adaptive top no entry can move a running sum, so every cut,
    # captured mass and error is that of the rows swept until they underflow
    last = first + span
    stop = int(quantum._column_top(last, work, quantum.HARD_CAP, quantum._UNDERFLOW_LOG))
    cumulative = np.cumsum(quantum.transition_block(first, last, work, stop), axis=1)
    target = 1.0 - quantum.TAIL_MASS
    missed = cumulative[:, -1] < target
    rows = quantum._truncated_rows(first, np.array([last]), np.array([work]), None)
    if missed.any():
        short = int(missed.argmax())
        with pytest.raises(quantum.TruncationError) as error:
            next(rows)
        assert str(error.value) == (
            f"mass {cumulative[short, -1]:.15f} below target {target:.15f} at the "
            f"hard cap {quantum.HARD_CAP} (level={first + short}, work={work})")
        return
    [(_, lengths, captured)] = rows
    assert np.array_equal(lengths, np.sum(cumulative < target, axis=1) + 1)
    assert np.array_equal(captured, cumulative[np.arange(span + 1), lengths - 1])


@given(st.floats(min_value=0.05, max_value=20.0), WORKS, st.integers(1, 60),
       st.booleans())
def test_thermal_cut_matches_the_full_sum(beta, work, cutoff, adaptive):
    spread = 12.0 * math.sqrt((2 * cutoff + 1) * work + 1.0)
    top = None if adaptive else cutoff + int(work + spread) + 30

    def gains(last):
        return quantum.level_gains([last], [work], top)[0]

    try:
        row_gains = gains(cutoff)
    except quantum.TruncationError:
        # at tiny work the rows carry about (n + m)|ln w| ulps of rounding,
        # which can exceed the 1e-12 tail target.  The sum then raises
        # too, or ends before the rows that raise: compare the levels it sums
        try:
            total = quantum.canonical_sum(beta, work, cutoff, top)
        except quantum.TruncationError:
            return
        assert total.last_level < cutoff
        row_gains = gains(total.last_level)
    levels = np.arange(cutoff + 1)
    weights = (1.0 - math.exp(-beta)) * np.exp(-beta * levels)
    terms = weights[: row_gains.size] * row_gains
    full = terms.sum()
    rounding = 4 * 2.0**-52 * np.abs(terms).sum()
    # the theorem's floor on every partial sum; at tiny work the adaptive
    # rows' own error can exceed half of it, and such a sum raises
    floor = (1.0 - math.exp(-beta)) ** 2 * -math.expm1(-work) * math.log(3.0)
    try:
        total = quantum.canonical_sum(beta, work, cutoff, top)
    except quantum.TruncationError:
        # the rows passed, so the sum fell below half the floor, and the
        # full sum is at most the tail past its last level above it
        assert full <= (0.5 + 2.0**-55) * floor + 2.0**-53 * abs(full) + rounding
        return
    assert abs(total.value - full) <= 2.0**-54 * abs(full) + rounding
    assert total.value >= 0.5 * floor
    # a cut ends where the bounded gains of the later levels are at most
    # 2**-54 of the partial sum
    caps = np.maximum(np.log(2.0 * levels + 1.0), np.log1p(work / (levels + 0.5)))
    tail = (weights * caps)[total.last_level + 1 :].sum()
    assert total.last_level == cutoff or (
        tail <= 2.0**-54 * abs(terms[: total.last_level + 1].sum()))


@given(st.floats(min_value=0.05, max_value=20.0),
       st.one_of(st.just(0.0), st.floats(min_value=1e-20, max_value=1e-6), WORKS),
       st.integers(1, 100), st.integers(0, 300))
def test_fixed_thermal_rows_end_where_the_floor_cannot_see(beta, work, cutoff, extra):
    # a fixed row's sweep ends where its bounded mass is at most 2**-56 of
    # the theorem's floor over ln(2 top + 1), the most an entry's gain can
    # weigh; swept on to the underflow column, the sum moves by at most
    # 2**-56 of the floor, and its last level and warnings do not move.
    # The top follows the mean-level rule: the highest level plus the work
    top = cutoff + math.ceil(work) + extra
    level_gains, calls = quantum.level_gains, []

    def to_the_underflow(lasts, works, top, *_):
        calls.append(lasts)
        return level_gains(lasts, works, top)

    def thermal_sum():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            total = quantum.canonical_sum(beta, work, cutoff, top)
        return total, [(w.category, str(w.message)) for w in caught]

    (value, last_level), warned = thermal_sum()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "level_gains", to_the_underflow)
        (swept, swept_last_level), swept_warned = thermal_sum()
    assert calls
    q = math.exp(-beta)
    floor = (1.0 - q) ** 2 * -math.expm1(-work) * math.log(3.0)
    assert abs(value - swept) <= 2.0**-56 * floor + 4 * np.spacing(abs(swept))
    assert value >= 0.5 * floor
    assert last_level == swept_last_level
    assert warned == swept_warned


def near(center, width):
    return st.floats(min_value=center - width, max_value=center + width)


DURATIONS = st.one_of(
    st.floats(min_value=1e-3, max_value=200.0),
    near(math.pi, 2e-3),
    st.integers(1, 20).flatmap(lambda k: near((2 * k + 1) * math.pi, 1e-3)),
)


@given(st.floats(min_value=0.01, max_value=100.0),
       st.lists(DURATIONS, min_size=1, max_size=40))
def test_work_table_matches_scalar(amplitude, durations):
    table = classical.work_half_sine(amplitude, np.array(durations))
    scalar = np.array([classical.work_half_sine(amplitude, t) for t in durations])
    assert table.shape == scalar.shape
    assert np.abs(table - scalar).max() <= 4e-15 * amplitude**2


@given(st.integers(1, 8).flatmap(lambda rows: st.integers(1, 64).flatmap(
    lambda dim: arrays(float, (rows, dim), elements=st.floats(0.0, 1.0)).filter(
        lambda w: np.all(w.sum(axis=-1) > 1e-3)))),
       st.integers(0, 2**32 - 1))
def test_stack_equals_its_rows(weights, seed):
    weights = weights / weights.sum(axis=-1, keepdims=True)
    p = ProbabilityVector(weights)
    d = random_unistochastic(len(p), seed, len(weights))
    report = entropy_change(p, evolve_distribution(p, d))
    rng = np.random.default_rng(seed)
    for b, w in enumerate(weights):
        row = ProbabilityVector(w)
        alone = entropy_change(row, evolve_distribution(row, random_unistochastic(len(row), rng)))
        for name in ("s_initial", "s_final", "delta_direct", "delta_by_parts",
                     "min_cumulative_gap"):
            assert getattr(report, name)[b] == getattr(alone, name), name
