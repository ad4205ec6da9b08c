import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from qentropy import classical, quantum
from qentropy.quantum import (
    TruncationError,
    canonical_sum,
    canonical_tail_bound,
    charlier_direct,
    level_gains,
    transition_probability,
    transition_row,
)

RESONANT_WORK = 44.41321980490211  # half-sine work at the resonant duration


def moments(row):
    """Mean and variance of the final level over a row's probabilities."""
    p = row.probabilities
    m = np.arange(p.size)
    mean = float(np.dot(m, p))
    return mean, float(np.dot((m - mean) ** 2, p))


def direct_probability(n, m, work):
    """Reference route: exact polynomial, log-domain prefactor."""
    prefactor = math.exp(
        -work
        + (m + n) * math.log(work)
        - math.lgamma(m + 1)
        - math.lgamma(n + 1)
    )
    return prefactor * charlier_direct(m, n, work) ** 2


class TestCharlierDirect:
    def test_degree_zero_is_one(self):
        for m in range(9):
            for work in (0.3, 1.0, 5.0):
                assert charlier_direct(m, 0, work) == 1.0

    def test_two_term_values(self):
        assert charlier_direct(1, 1, 1.0) == 0.0
        assert charlier_direct(1, 1, 4.0) == pytest.approx(0.75, abs=1e-15)
        assert charlier_direct(2, 1, 8.0) == pytest.approx(0.75, abs=1e-15)

    def test_symmetric(self):
        for work in (0.5, 3.7):
            for m in range(6):
                for n in range(6):
                    assert charlier_direct(m, n, work) == charlier_direct(
                        n, m, work
                    )

    def test_overflow_flagged(self):
        with pytest.raises(ValueError, match="overflow"):
            charlier_direct(250, 250, 0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            charlier_direct(-1, 0, 1.0)
        with pytest.raises(ValueError):
            charlier_direct(1, 1, 0.0)


class TestTransitionProbability:
    def test_ground_state_row_is_poisson(self):
        for work in (0.5, 10.0):
            for m in range(40):
                poisson = math.exp(
                    -work + m * math.log(work) - math.lgamma(m + 1)
                )
                assert transition_probability(0, m, work) == pytest.approx(
                    poisson, rel=1e-13
                )

    def test_adiabatic_is_kronecker(self):
        assert transition_probability(3, 3, 0.0) == 1.0
        assert transition_probability(3, 4, 0.0) == 0.0

    def test_node_of_the_polynomial(self):
        assert transition_probability(1, 1, 1.0) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            m = int(rng.integers(0, 60))
            work = float(rng.uniform(0.2, 30.0))
            assert transition_probability(n, m, work) == transition_probability(
                m, n, work
            )

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(0, 80))
            m = int(rng.integers(0, 80))
            work = float(rng.uniform(0.0, 50.0))
            p = transition_probability(n, m, work)
            assert 0.0 <= p <= 1.0

    def test_matches_direct_sum(self):
        # the direct sum is exact rational arithmetic, so this pins the
        # stable evaluator at 1e-10 relative.  At exact polynomial nodes
        # (e.g. c(16, 2; 20) = 1 - 1.6 + 0.6 = 0) any floating evaluator
        # leaves roundoff, so entries below 1e-25 on both routes count
        # as zero rather than entering the relative comparison.
        worst = 0.0
        for work in (0.5, 2.0, 10.0, 20.0):
            for n in range(26):
                for m in range(26):
                    direct = direct_probability(n, m, work)
                    stable = transition_probability(n, m, work)
                    scale = max(direct, stable)
                    if scale > 1e-25:
                        worst = max(worst, abs(direct - stable) / scale)
        assert worst <= 1e-10

    def test_large_indices_stay_finite(self):
        p = transition_probability(1800, 1850, 30.0)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize(
        "n, m, work", [(200, 230, 30.0), (600, 640, 50.0), (1500, 1560, 60.0)]
    )
    def test_large_indices_against_high_precision(self, n, m, work):
        # the direct sum at 400 digits; doubling the precision leaves the
        # reference unchanged at double precision
        with mpmath.workdps(400):
            w = mpmath.mpf(work)
            c = mpmath.fsum(
                (-1) ** l * math.comb(m, l) * math.comb(n, l)
                * math.factorial(l) / w**l
                for l in range(min(n, m) + 1)
            )
            reference = float(
                mpmath.exp(-w) * w ** (n + m) * c**2
                / (mpmath.factorial(n) * mpmath.factorial(m))
            )
        stable = transition_probability(n, m, work)
        assert abs(stable - reference) <= 1e-11 * reference


class TestTransitionBlock:
    """The one degree sweep that every row and sum reduces over."""

    WORKS = (0.1, 10.0, RESONANT_WORK)
    LEVELS = np.unique(np.r_[0:6, 6:151:9, 150])

    @pytest.mark.parametrize("work", WORKS)
    def test_entries_match_point_evaluator(self, work):
        # both sides of the diagonal, up to level 150; at work 0.1 the
        # high levels run through the rescaling.  Entries below the
        # normal float range are compared absolutely.
        block = quantum.transition_block(0, 150, work, 160)
        for n in self.LEVELS:
            for m in np.r_[self.LEVELS, 155, 160]:
                np.testing.assert_allclose(
                    block[n, m], transition_probability(int(n), int(m), work),
                    rtol=1e-12, atol=np.finfo(float).tiny,
                )

    @pytest.mark.parametrize("work", WORKS)
    def test_square_part_exactly_symmetric(self, work):
        square = quantum.transition_block(0, 150, work, 160)[:, :151]
        assert np.array_equal(square, square.T)

    @pytest.mark.parametrize("work", WORKS)
    def test_row_ranges_are_rows_of_the_full_block(self, work):
        full = quantum.transition_block(0, 150, work, 160)
        for first, last in ((0, 0), (37, 37), (150, 150), (100, 150)):
            part = quantum.transition_block(first, last, work, 160)
            assert np.array_equal(part, full[first : last + 1])

    @pytest.mark.parametrize("work", WORKS)
    def test_doubly_stochastic(self, work):
        block = quantum.transition_block(0, 800, work, 800)
        np.testing.assert_allclose(block[:41].sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(block[:, :41].sum(axis=0), 1.0, atol=1e-10)

    def test_undriven_block_is_identity(self):
        assert np.array_equal(
            quantum.transition_block(3, 5, 0.0, 8), np.eye(3, 9, k=3)
        )

    @pytest.mark.parametrize("work", [1e-99, 1e-101, 1e-200, 5e-324])
    def test_tiny_work(self, work):
        # the recurrence divides by the work at every step; below 1e-100
        # the sweep carries c_k w**k instead, so nothing overflows
        block = quantum.transition_block(0, 8, work, 30)
        assert np.array_equal(block[:, :9], block[:, :9].T)
        np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-10)
        levels = np.arange(1, 9)
        # p(n-1 -> n) = n w + O(w**2)
        np.testing.assert_allclose(block[levels - 1, levels] / work, levels,
                                   rtol=1e-10)


def mp_log_probability(n, m, work):
    """ln p(n -> m), m >= n, from mpmath's Laguerre polynomial."""
    with mpmath.workdps(40):
        w, d = mpmath.mpf(work), m - n
        laguerre = mpmath.laguerre(n, d, w)
        return (-w + d * mpmath.log(w) + mpmath.loggamma(n + 1)
                - mpmath.loggamma(m + 1) + 2 * mpmath.log(abs(laguerre)))


class TestUnderflowTop:
    """The sweep ends where Laguerre's inequality puts every entry of the
    remaining columns below exp(-800)."""

    FIG3_WORKS = classical.work_half_sine(6.0, 0.25 + 0.25 * np.arange(120))

    @pytest.mark.parametrize(
        "work", [0.0, 1e-300, 1e-120, 1e-3, 0.5, 10.0, RESONANT_WORK, 200.0, 700.0])
    def test_laguerre_bound_holds(self, work):
        # ln p <= d ln w + ln m! - ln n! - 2 ln d!, d = m - n
        for n in (0, 1, 5, 40, 300):
            for d in (1, 2, 10, 100, 1000):
                m = n + d
                with mpmath.workdps(40):
                    bound = (d * mpmath.log(work) + mpmath.loggamma(m + 1)
                             - mpmath.loggamma(n + 1) - 2 * mpmath.loggamma(d + 1))
                    log_p = mp_log_probability(n, m, work)
                    # at n = 0 the bound exceeds ln p by only w, which 40
                    # digits may round away; at work 0 both sides are -inf
                    assert log_p <= bound or log_p - bound <= 1e-25 * abs(bound), (
                        n, m)

    @pytest.mark.parametrize("last, work, top", [
        (100, 3e-5, 1000), (100, 1.0, 1000), (100, 10.0, 1000),
        (100, 53.0, 1000), (2, 10.0, 1000), (0, 1e-3, 200), (8, 1e-200, 30),
        (300, 100.0, 2000),
    ])
    def test_cut_columns_are_below_the_float_range(self, last, work, top):
        stop = quantum._column_top(last, work, top, quantum._UNDERFLOW_LOG)
        assert last <= stop < top
        for n in (0, last // 2, last):
            for m in (stop + 1, top):
                assert mp_log_probability(n, m, work) < math.log(1e-320), (n, m)

    @pytest.mark.parametrize("last, work, top", [
        (100, 200.0, 1000), (0, 700.0, 1000), (50, 1.0, 50),
    ])
    def test_no_cut_where_the_tail_can_be_normal(self, last, work, top):
        assert quantum._column_top(last, work, top, quantum._UNDERFLOW_LOG) == top

    def test_cut_blocks_are_bit_identical(self, monkeypatch):
        # fig3's default blocks and fig2's level-2 rows, with the sweep cut
        # and swept to the top; about 40% of fig3's columns are swept
        def blocks(first, last):
            return [quantum.transition_block(first, last, work, 1000)
                    for work in self.FIG3_WORKS.tolist()]

        cut = blocks(0, 100), blocks(2, 2)
        stops = quantum._column_top(100, self.FIG3_WORKS, 1000, quantum._UNDERFLOW_LOG)
        assert stops.sum() + stops.size < 0.45 * 1001 * stops.size
        calls = []

        def no_cut(last, work, top, log_level):
            calls.append(log_level)
            return top

        monkeypatch.setattr(quantum, "_column_top", no_cut)
        for with_cut, without in zip(cut, (blocks(0, 100), blocks(2, 2))):
            for a, b in zip(with_cut, without):
                assert np.array_equal(a, b)
        assert calls == [quantum._UNDERFLOW_LOG] * (2 * stops.size)


class TestTransitionRow:
    def test_poisson_row_extension(self):
        row = transition_row(0, 10.0)
        assert row.captured_mass >= 1.0 - 1e-12
        assert 35 <= row.probabilities.size <= 80
        assert np.all(row.probabilities >= 0.0)

    def test_adiabatic_row(self):
        row = transition_row(4, 0.0)
        assert row.probabilities.size == 5
        assert row.probabilities[4] == 1.0
        assert row.captured_mass == 1.0

    def test_row_mean_cross_check(self):
        row = transition_row(2, 10.0)
        m = np.arange(row.probabilities.size)
        assert float(m @ row.probabilities) == pytest.approx(12.0, rel=1e-9)

    def test_hard_cap_raises(self):
        # the row out of level 0 at work 4800 needs levels past the cap
        with pytest.raises(TruncationError):
            transition_row(0, 4800.0)

    def test_normalization_grid(self):
        for work in (0.1, 1.0, 10.0, RESONANT_WORK):
            for level in (0, 3, 17, 50):
                row = transition_row(level, work)
                assert row.captured_mass >= 1.0 - 1e-12

    def test_fixed_cut(self):
        row = transition_row(2, 10.0, top=1000)
        assert row.probabilities.size == 1001
        assert row.captured_mass == pytest.approx(1.0, abs=1e-12)

    def test_fixed_top_validation(self):
        # a negative top fails the checks that every fixed top passes
        with pytest.raises(ValueError):
            transition_row(0, 1.0, top=-1)
        with pytest.raises(ValueError):
            level_gains([0], [1.0], top=-1)
        with pytest.raises(ValueError):
            canonical_sum(2.0, 1.0, 1, top=-1)
        with pytest.raises(ValueError):
            transition_row(5, 1.0, top=4)
        with pytest.raises(ValueError):
            canonical_sum(2.0, 1.0, 30, top=20)

    def test_hard_cap_below_level_raises(self):
        with pytest.raises(TruncationError):
            transition_row(quantum.HARD_CAP + 1, 1.0)

    def test_one_work_is_stored_as_a_float(self):
        row = transition_row(2, np.array([3.0]))
        assert type(row.work) is float and row.work == 3.0

    @pytest.mark.parametrize("top", [1000, None], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("level", [0, 2, 17])
    def test_gain_equals_the_level_gains_column(self, level, top):
        # fig2's default grid, whose works are fig3's: fig2 may read one
        # level_gains column in place of a row per work and move no bit
        works = TestUnderflowTop.FIG3_WORKS
        column = level_gains(np.full(works.size, level), works, top)
        gains = [transition_row(level, work, top).gain for work in works.tolist()]
        assert np.array_equal(gains, column[:, level])


class TestMicrocanonicalStats:
    """A single level's row: its moments, and its gain, which fig2 prints."""

    def test_moment_identities(self):
        for work in (0.1, 1.0, 10.0, RESONANT_WORK):
            for level in (0, 3, 17, 50):
                mean, variance = moments(transition_row(level, work))
                assert mean == pytest.approx(level + work, rel=1e-8)
                assert variance == pytest.approx((2.0 * level + 1.0) * work, rel=1e-8)

    def test_adiabatic_exact(self):
        row = transition_row(7, 0.0)
        assert moments(row) == (7.0, 0.0)
        assert row.gain == 0.0

    def test_reference_point(self):
        row = transition_row(2, 10.0)
        mean, variance = moments(row)
        assert mean == pytest.approx(12.0, rel=1e-9)
        assert variance == pytest.approx(50.0, rel=1e-9)
        assert row.gain >= 0.0
        assert row.gain + math.log(2.5) == pytest.approx(2.3013586598611973, rel=1e-10)

    def test_entropy_gain_positive_at_and_below_corner(self):
        # single-level starts gain entropy whenever the drive work
        # dominates the initial volume
        for work, top in ((1.0, 0), (10.0, 15), (RESONANT_WORK, 43)):
            for level in range(top + 1):
                assert transition_row(level, work).gain > 0.0

    def test_entropy_gain_negative_above_corner(self):
        # a single level is not a decreasing population, so the
        # entropy-increase theorem does not cover it; far above the
        # corner the gain is in fact slightly negative.  Frozen values
        # confirmed by exact rational arithmetic and an independent
        # propagator run.
        gap40 = transition_row(40, 10.0).gain
        assert gap40 == pytest.approx(-4.897068254594572e-05, abs=1e-10)
        assert transition_row(17, 10.0).gain < -1e-3

    def test_weak_drive_first_order_coefficient(self):
        # gain/work -> (n+1) ln((n+3/2)/(n+1/2)) - n ln((n+1/2)/(n-1/2)),
        # which is positive only for n = 0
        work = 1e-6
        for level in (0, 1, 2, 5):
            gain = transition_row(level, work).gain
            if level == 0:
                coeff = math.log(3.0)
            else:
                coeff = (level + 1) * math.log((level + 1.5) / (level + 0.5)) - (
                    level
                ) * math.log((level + 0.5) / (level - 0.5))
            assert gain / work == pytest.approx(coeff, abs=1e-5)

    def test_fixed_cut_agrees_with_adaptive(self):
        adaptive = transition_row(2, 10.0).gain
        assert transition_row(2, 10.0, top=1000).gain == pytest.approx(adaptive, abs=1e-10)

    @pytest.mark.parametrize("work", [3e-5, 1e-3])
    def test_weak_drive_gain_against_exact_row(self, work):
        # fig2's weak drives: each entry adds p ln((m + 1/2)/(n + 1/2)), so
        # no sum of order ln(n + 1/2) cancels; the row's entropy less
        # ln(2.5) errs by 1.5e-8 and 3.3e-10 relative here.  Adaptive rows
        # err by about 1e-7 from the mass their cut leaves out.
        with mpmath.workdps(50):
            exact = mpmath.fsum(p * mpmath.log((m + mpmath.mpf(0.5)) / mpmath.mpf(2.5))
                                for m, p in enumerate(exact_row(2, work)))
        gain = transition_row(2, work, top=1000).gain
        assert abs(gain - exact) <= 1e-11 * abs(exact)


@functools.lru_cache(maxsize=None)
def exact_row(n, work):
    """p(n -> m) at 50 digits for m = 0, 1, ... until past the mean final
    level an entry is below 1e-60, from the Charlier sum in exact integers
    (as :func:`charlier_direct`, rounded to 50 digits instead of a float)."""
    num, den = work.as_integer_ratio()
    row = []
    with mpmath.workdps(50):
        w = mpmath.mpf(work)
        while not (len(row) > n + work and row[-1] < 1e-60):
            m, low = len(row), min(len(row), n)
            total = sum((-1) ** l * math.comb(m, l) * math.comb(n, l) * math.factorial(l)
                        * den**l * num ** (low - l) for l in range(low + 1))
            c = mpmath.mpf(total) / mpmath.mpf(num) ** low
            row.append(mpmath.exp(-w) * w ** (m + n) * c**2
                       / (mpmath.factorial(m) * mpmath.factorial(n)))
    return row


class TestLevelEntropies:
    """Figure 1's entropies, ``ln(n + 1/2)`` plus each level's gain from
    :func:`level_gains`, against the cut rows' sums at 50 digits."""

    LEVELS = {0.1: [2, 40], 10.0: [3, 17, 40], RESONANT_WORK: [0, 20, 40]}
    #: exp(ln p), with ln p of the order of the work, rounds each entry by
    #: about work * 2**-52 of itself: the gains err by at most 5.5e-15 at
    #: works 0.1 and 10 and by 2.9e-14 at the resonant work.  A gain formed
    #: as the row's entropy less ln(n + 1/2) errs by up to 1.4e-13 at works
    #: 0.1 and 10 and 6.7e-14 at the resonant work, past either bound.
    BOUND = {0.1: 2e-14, 10.0: 2e-14, RESONANT_WORK: 4e-14}

    @pytest.mark.parametrize("top", [None, 1000],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("work", [0.1, 10.0, RESONANT_WORK])
    def test_match_row_entropies(self, work, top):
        [gains] = level_gains([40], [work], top)
        assert gains.shape == (41,)
        entropies = gains + np.log(np.arange(41) + 0.5)
        for level in self.LEVELS[work]:
            # the cut row's entropy; the mass past the cut adds -p ln(n + 1/2)
            # to the gain, so the gain is that entropy less ln(n + 1/2)
            length = transition_row(level, work, top).probabilities.size
            with mpmath.workdps(50):
                entropy = mpmath.fsum(p * mpmath.log(m + mpmath.mpf(0.5)) for m, p
                                      in enumerate(exact_row(level, work)[:length]))
                gain = entropy - mpmath.log(level + mpmath.mpf(0.5))
            assert abs(gains[level] - gain) <= self.BOUND[work], level
            assert abs(entropies[level] - entropy) <= self.BOUND[work], level

    @pytest.mark.parametrize("top", [None, 1000],
                             ids=["adaptive", "fixed"])
    def test_rejects_a_negative_last_level(self, top):
        with pytest.raises(ValueError, match="last must be non-negative"):
            level_gains([-1], [1.0], top)

    @pytest.mark.parametrize("lasts, works", [([4], [10.0, 2.0]), ([40, 3], [10.0]),
                                              (4, 10.0), ([[4]], [[1.0]])])
    def test_rejects_anything_but_one_last_level_per_work(self, lasts, works):
        with pytest.raises(ValueError, match="need one last level per work"):
            level_gains(lasts, works, 1000)


class TestLogFactorials:
    def test_equals_lgamma_and_survives_growing(self, monkeypatch):
        monkeypatch.setattr(quantum, "_LOG_FACTORIAL", np.zeros(0))
        for top in (0, 5, 7, 300, 40, 2500):
            table = quantum._log_factorials(top)
            assert table.size == top + 1
            assert all(table[k] == math.lgamma(k + 1) for k in range(top + 1))
        with pytest.raises(ValueError):
            table[0] = 1.0


class TestFixedCutMassWarning:
    def test_short_row_warns_with_level_mass_and_top(self):
        with pytest.warns(quantum.TruncationWarning,
                          match=r"level 40 keeps mass 0\.\d+ at the fixed top 45"):
            row = transition_row(40, 10.0, top=45)
        assert 1.0 - row.captured_mass > quantum.MASS_DEFICIT_TOL

    def test_block_names_its_worst_row(self):
        with pytest.warns(quantum.TruncationWarning, match="level 30 "):
            canonical_sum(2.0, 10.0, 30, top=60)


class TestColumnSums:
    def test_column_sums_approach_one(self):
        # double stochasticity: summing over the initial level at fixed
        # final level recovers 1 once enough levels are included
        for m in range(11):
            total = sum(
                transition_probability(n, m, 1.0) for n in range(201)
            )
            assert total == pytest.approx(1.0, abs=1e-8)


class TestCanonical:
    def test_no_drive(self):
        assert canonical_sum(2.0, 0.0, 100).value == 0.0

    def test_positive_on_drive_family(self):
        for work in (1e-6, 0.1, 1.0, 10.0, RESONANT_WORK):
            assert canonical_sum(2.0, work, 60).value > 0.0

    def test_zero_temperature_limit_collapses_to_ground_gain(self):
        work = 3.0
        gain0 = transition_row(0, work).gain
        assert canonical_sum(40.0, work, 30).value == pytest.approx(
            gain0, abs=1e-15
        )

    @pytest.mark.parametrize("work, beta", [(1e-15, 2.0), (1e-20, 2.0), (1e-15, 0.1),
                                            (1e-20, 0.1)],
                             ids=["1e-15", "1e-20", "1e-15-beta0.1", "1e-20-beta0.1"])
    def test_weak_drive_gain_is_first_order(self, work, beta):
        # every term of a row's gain is p ln((m + 1/2)/(n + 1/2)), so none
        # of order ln(n + 1/2) cancels: to first order in the work, level n
        # gains (n+1) ln((n+3/2)/(n+1/2)) + n ln((n-1/2)/(n+1/2)) per unit work.
        # At beta 0.1 every level up to 100 counts, and row 100's entries
        # next to the diagonal, about 1e-18 at work 1e-20, must be summed
        n = np.arange(101)
        coefficients = (n + 1) * np.log((n + 1.5) / (n + 0.5)) + n * np.log(
            np.abs(n - 0.5) / (n + 0.5))
        weights = (1.0 - math.exp(-beta)) * np.exp(-beta * n)
        value = canonical_sum(beta, work, 100, top=1000).value
        assert value >= 0.0
        first_order = work * (weights @ coefficients)
        assert value == pytest.approx(first_order, rel=1e-9, abs=0.0)

    def test_tail_bound_dominates_truncation_error(self):
        value_30 = canonical_sum(0.5, 5.0, 30).value
        value_100 = canonical_sum(0.5, 5.0, 100).value
        assert abs(value_100 - value_30) <= canonical_tail_bound(0.5, 5.0, 30)

    def test_tail_bound_of_a_column_is_elementwise(self):
        works = TestUnderflowTop.FIG3_WORKS
        bounds = canonical_tail_bound(2.0, works, 100)
        assert bounds.shape == works.shape
        for bound, work in zip(bounds.tolist(), works.tolist()):
            assert bound == canonical_tail_bound(2.0, work, 100)
        assert isinstance(canonical_tail_bound(2.0, 5.0, 100), float)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            canonical_sum(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            canonical_sum(1.0, 1.0, 0)

    @pytest.mark.parametrize("level_cutoff", [-2, 0])
    def test_tail_bound_rejects_a_cutoff_below_one(self, level_cutoff):
        with pytest.raises(ValueError, match="level_cutoff must be >= 1"):
            canonical_tail_bound(2.0, 3.0, level_cutoff)


def thermal_floor(beta, work):
    """The theorem's floor (1-q)^2 (1 - e^-w) ln 3 on every partial sum."""
    return (1.0 - math.exp(-beta)) ** 2 * -math.expm1(-work) * math.log(3.0)


#: (beta, work, cutoff) whose adaptive sums fall below half the floor.
BELOW_HALF_THE_FLOOR = [(1.0, 1e-13, 86), (2.0, 8.554672535565054e-14, 40)]


def thermal_terms(beta, work, cutoff, top):
    """Weighted gains of levels 0..cutoff, every level swept in one block."""
    levels = np.arange(cutoff + 1)
    [gains] = level_gains([cutoff], [work], top)
    return (1.0 - math.exp(-beta)) * np.exp(-beta * levels) * gains


def first_level_meeting_the_rule(beta, work, terms):
    """First k where the weighted gains after k, each bounded by
    max(ln(2n + 1), ln(1 + w/(n + 1/2))), are at most 2**-54 of the
    partial sum; the last level if none is."""
    levels = np.arange(terms.size)
    caps = np.maximum(np.log(2.0 * levels + 1.0), np.log1p(work / (levels + 0.5)))
    bounds = (1.0 - math.exp(-beta)) * np.exp(-beta * levels) * caps
    tails = [bounds[k + 1 :].sum() for k in levels]
    met = tails <= 2.0**-54 * np.abs(np.cumsum(terms))
    return int(met.argmax()) if met.any() else terms.size - 1


#: The cut and the full sum add the same terms in a different order, from
#: rows that may be reduced at a different width: a few ulps of sum |term|.
ROUNDING = 4 * 2.0**-52


class TestThermalRowCut:
    """The canonical sum stops where the remaining levels cannot reach the
    last bit, and only where no skipped row could warn or raise."""

    WORKS = TestUnderflowTop.FIG3_WORKS[[0, 7, 15, 39, 59, 87, 100, 119]]

    @pytest.mark.parametrize("top", [1000, None],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 2.0, 5.0])
    def test_matches_the_full_sum(self, beta, top):
        for work in self.WORKS.tolist():
            terms = thermal_terms(beta, work, 100, top)
            full = float(terms.sum())
            total = canonical_sum(beta, work, 100, top)
            assert abs(total.value - full) <= (
                2.0**-54 * abs(full) + ROUNDING * np.abs(terms).sum()), work
            assert total.last_level == first_level_meeting_the_rule(beta, work, terms)

    def test_near_zero_row(self):
        # T = 22: the smallest value on fig3's grid
        total = canonical_sum(2.0, float(self.WORKS[5]), 100, top=1000)
        assert total.value == pytest.approx(2.8e-5, rel=0.01)
        assert total.last_level < 30

    def test_near_zero_work_leaves_out_the_rows_whose_rounding_raises(self):
        # rows of level 60 and more carry enough rounding at work 1e-8 to
        # fall below the 1e-12 tail target, so level_gains([100], [1e-8])
        # and the full adaptive sum raise TruncationError, though no mass
        # is lost; at beta 2 the sum ends before them and returns a value
        total = canonical_sum(2.0, 1e-8, 100)
        terms = thermal_terms(2.0, 1e-8, total.last_level, None)
        assert total.last_level < 60
        assert abs(total.value - terms.sum()) <= ROUNDING * np.abs(terms).sum()
        fixed = canonical_sum(2.0, 1e-8, 100, top=1000).value
        assert total.value == pytest.approx(fixed, rel=1e-6)

    @staticmethod
    def sweeps(monkeypatch):
        """The last row each work is swept to, sweep by sweep."""
        sweeps = {}
        truncated_rows = quantum._truncated_rows

        def recorded(first, lasts, works, *rest):
            for last, work in zip(lasts.tolist(), works.tolist()):
                sweeps.setdefault(work, []).append(last)
            return truncated_rows(first, lasts, works, *rest)

        monkeypatch.setattr(quantum, "_truncated_rows", recorded)
        return sweeps

    @pytest.mark.parametrize("top", [1000, None],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_each_work_is_swept_once(self, beta, top, monkeypatch):
        # the floor (1-q)^2 (1 - e^-w) ln 3 on every partial sum fixes the
        # last row in advance, and the rule is met by then
        sweeps = self.sweeps(monkeypatch)
        total = canonical_sum(beta, self.WORKS, 100, top)
        assert sorted(sweeps) == sorted(self.WORKS.tolist())
        for work, last_level in zip(self.WORKS.tolist(), total.last_level.tolist()):
            [last] = sweeps[work]
            assert last >= last_level, work
            if beta == 0.1:
                assert last == 100, work

    def test_rows_that_miss_the_floor_raise_after_one_sweep(self, monkeypatch):
        # at adaptive work 1e-20 the rows' own error exceeds half the floor:
        # the partial sum misses the rule at the floor's level, so it is
        # below half the floor and raises without a second sweep
        sweeps = self.sweeps(monkeypatch)
        with pytest.raises(TruncationError, match=r"below half the theorem's floor "
                           r"\d\.\d{3}e-21 \(work=1e-20\)$"):
            canonical_sum(2.0, 1e-20, 100)
        assert sweeps == {1e-20: [42]}

    @pytest.mark.parametrize("beta, work, cutoff", BELOW_HALF_THE_FLOOR)
    def test_sum_below_half_the_floor_raises(self, beta, work, cutoff):
        # the adaptive rows' own rounding takes these sums below half the
        # floor: at beta 1 to -7.0e-14, and at beta 2 to 2.57e-14 after the
        # rule was missed at the floor's level
        with pytest.raises(TruncationError) as error:
            canonical_sum(beta, work, cutoff)
        match = re.fullmatch(r"sum (\S+) below half the theorem's floor (\S+) "
                             r"\(work=(\S+)\)", str(error.value))
        value, floor, named = (float(group) for group in match.groups())
        assert named == work
        assert floor == float(f"{thermal_floor(beta, work):.3e}")
        assert value < 0.5 * floor
        fixed = canonical_sum(beta, work, cutoff, top=1000).value
        assert fixed >= thermal_floor(beta, work)

    def test_fixed_rows_end_short_of_the_underflow(self, monkeypatch):
        # fig3's default column: a fixed row needs no entry past the column
        # where its bounded mass is 2**-56 of the floor over ln(2 top + 1),
        # far inside the exp(-800) column that transition_block sweeps to
        swept = []
        fill_block = quantum._fill_block

        def recorded(first, works, out):
            swept.append((first + out.shape[1] - 1, np.copy(works), out.shape[2] - 1))
            return fill_block(first, works, out)

        monkeypatch.setattr(quantum, "_fill_block", recorded)
        canonical_sum(2.0, TestUnderflowTop.FIG3_WORKS, 100, top=1000)
        assert swept
        for last, works, widest in swept:
            underflow = quantum._column_top(last, works, 1000, quantum._UNDERFLOW_LOG)
            assert widest < underflow.max(), (last, widest)

    def test_weak_coupling_sums_every_level(self):
        assert canonical_sum(0.1, 10.0, 100).last_level == 100

    def test_no_drive_sums_every_level(self):
        assert canonical_sum(2.0, 0.0, 100) == (0.0, 100)

    @pytest.mark.parametrize("work", [3800.0, 4000.0])
    def test_adaptive_rows_past_the_hard_cap_still_raise(self, work):
        with pytest.raises(TruncationError):
            canonical_sum(2.0, work, 100)

    def test_level_above_the_hard_cap_raises(self):
        with pytest.raises(TruncationError):
            canonical_sum(2.0, 1.0, quantum.HARD_CAP + 1)

    @pytest.mark.parametrize("last, work, top", [
        (100, 10.0, 205), (30, 10.0, 100), (0, 1.0, 5), (5, 50.0, 165),
        (100, 53.0, 405), (100, 2000.0, 1000), (5, 0.0, 5),
        (100, 1625.0, quantum.HARD_CAP - 1),
    ])
    def test_tail_mass_bound_holds(self, last, work, top):
        # past the column found at each level, no row n <= last holds more
        # than exp(level); searched to top + 1, a column at most top says
        # so of the columns past the top too, and top + 1 says nothing
        for log_level in [math.log(mass) for mass in (
                0.5, 1e-2, 1e-6, quantum.MASS_DEFICIT_TOL, 1e-12, 2.0**-56)]:
            stop = int(quantum._column_top(last, work, top + 1, log_level))
            assert last <= stop <= top + 1
            for n in (0, last // 2, last):
                tail = quantum.transition_block(n, n, work, top + 300)[0, stop + 1 :]
                assert stop > top or tail.sum() <= math.exp(log_level), (n, log_level)


class TestColumn:
    """A column of works swept together gives every work what it gets
    alone, bit for bit, with the same warnings and errors."""

    WORKS = TestUnderflowTop.FIG3_WORKS
    SAMPLED = [0, 7, 15, 39, 59, 87, 100, 119]

    @pytest.mark.parametrize("top", [1000, None],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_column_equals_its_works(self, beta, top):
        works = np.r_[self.WORKS, 0.0, 1e-3]
        column = canonical_sum(beta, works, 100, top)
        assert column.value.shape == column.last_level.shape == works.shape
        for k in self.SAMPLED + [120, 121]:
            alone = canonical_sum(beta, float(works[k]), 100, top)
            assert column.value[k] == alone.value, k
            assert column.last_level[k] == alone.last_level, k

    @pytest.mark.parametrize("top", [1000, None],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("beta", [0.1, 2.0])
    def test_chunks_stay_within_their_budget(self, beta, top, monkeypatch):
        assert quantum._CHUNK_ENTRIES == 2**17
        shapes = []
        fill_block = quantum._fill_block

        def recorded(first, works, out):
            shapes.append(out.shape)
            return fill_block(first, works, out)

        monkeypatch.setattr(quantum, "_fill_block", recorded)
        canonical_sum(beta, self.WORKS, 100, top)
        assert max(count for count, _, _ in shapes) > 1
        for shape in shapes:
            assert math.prod(shape) <= quantum._CHUNK_ENTRIES, shape

    def test_fixed_cut_warns_once_per_work(self):
        works = [10.0, 0.5, 12.0, 1e-3]
        top = 60
        expected = []
        for work in works:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                canonical_sum(2.0, work, 30, top)
            expected += [str(w.message) for w in caught]
        assert len(expected) == 2
        assert all(re.match(r"row of level 30 keeps mass 0\.\d{15} at the fixed top "
                            r"60 \(work=.*\); raise the top$", text) for text in expected)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            canonical_sum(2.0, np.array(works), 30, top)
        assert sorted(str(w.message) for w in caught) == sorted(expected)
        assert all(issubclass(w.category, quantum.TruncationWarning) for w in caught)

    @pytest.mark.parametrize("works", [[1.0, 1e-15, 1e-20, 5.0], [1.0, 1e-20, 1e-15, 5.0]])
    def test_error_names_the_first_failing_work(self, works):
        # at beta 0.1 both tiny works sum every level and raise; sorted
        # by work the column meets 1e-20 first, in either order
        with pytest.raises(TruncationError) as first:
            canonical_sum(0.1, 1e-20, 100)
        with pytest.raises(TruncationError) as column:
            canonical_sum(0.1, np.array(works), 100)
        assert str(column.value) == str(first.value)

    @pytest.mark.parametrize("beta, work, cutoff", BELOW_HALF_THE_FLOOR)
    def test_sum_below_half_the_floor_raises_in_a_column(self, beta, work, cutoff):
        with pytest.raises(TruncationError) as alone:
            canonical_sum(beta, work, cutoff)
        column = np.insert(self.WORKS, 60, work)
        for works in (column, column[::-1]):
            with pytest.raises(TruncationError) as error:
                canonical_sum(beta, works, cutoff)
            assert str(error.value) == str(alone.value)

    def test_rows_past_a_work_are_not_judged(self):
        # work 1e-8 to row 30 is swept with a chunk-mate to row 100, the
        # same work, whose rows of level 60 and more fall below the
        # adaptive target by rounding; rows 0..30 pass and are yielded
        # before the chunk-mate raises
        works = np.array([1e-8, 1e-8])
        rows = quantum._truncated_rows(0, np.array([30, 100]), works, None)
        yielded = [np.copy(a) for a in next(rows)]
        with pytest.raises(TruncationError, match=r"\(level=\d+, work=1e-08\)$"):
            next(rows)
        [alone] = quantum._truncated_rows(0, np.array([30]), works[:1], None)
        for got, want in zip(yielded, alone):
            assert np.array_equal(got, want)


class TestNonFiniteInput:
    @pytest.mark.parametrize("work", [math.nan, math.inf, -math.inf])
    def test_work_rejected_by_every_entry_point(self, work):
        with pytest.raises(ValueError):
            transition_probability(2, 3, work)
        with pytest.raises(ValueError):
            transition_row(2, work)
        with pytest.raises(ValueError):
            transition_row(2, work, top=100)
        with pytest.raises(ValueError):
            canonical_sum(2.0, work, 10)

    @pytest.mark.parametrize("inv_temperature", [math.nan, math.inf])
    def test_canonical_rejects_non_finite_beta(self, inv_temperature):
        with pytest.raises(ValueError):
            canonical_sum(inv_temperature, 1.0, 10)


@pytest.mark.parametrize("call, name", [
    (lambda: transition_row(2.5, 1.0), "level"),
    (lambda: transition_row(2, 1.0, top=40.5), "top"),
    (lambda: level_gains([2.5], [1.0]), "lasts"),
    (lambda: transition_row(2, [1.0, 2.0]), "work"),
    (lambda: canonical_tail_bound(2.0, 1.0, 10.5), "level_cutoff"),
    (lambda: canonical_sum(2.0, 1.0, 10.5), "level_cutoff"),
    (lambda: transition_probability(2, 3.5, 1.0), "m"),
    (lambda: quantum.transition_block(0, 2.5, 1.0, 10), "last"),
], ids=["row-level", "row-top", "gains-lasts", "row-works", "tail-cutoff", "sum-cutoff",
        "entry-m", "block-last"])
def test_boundary_names_the_bad_argument(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()
