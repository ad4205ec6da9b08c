import math

import mpmath
import numpy as np
import pytest

from qentropy import quantum
from qentropy.quantum import (
    DEFAULT_POLICY,
    TruncationError,
    TruncationPolicy,
    canonical_entropy_change,
    canonical_tail_bound,
    charlier_direct,
    level_entropies,
    microcanonical_stats,
    transition_probability,
    transition_row,
)

RESONANT_WORK = 44.41321980490211  # half-sine work at the resonant duration


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
        row = transition_row(2, 10.0, TruncationPolicy(top=1000))
        assert row.probabilities.size == 1001
        assert row.captured_mass == pytest.approx(1.0, abs=1e-12)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_mass=0.0)

    def test_fixed_top_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(top=-1)
        with pytest.raises(ValueError):
            transition_row(5, 1.0, TruncationPolicy(top=4))
        with pytest.raises(ValueError):
            canonical_entropy_change(2.0, 1.0, 30, TruncationPolicy(top=20))

    def test_hard_cap_below_level_raises(self):
        with pytest.raises(TruncationError):
            transition_row(quantum.HARD_CAP + 1, 1.0)


class TestMicrocanonicalStats:
    def test_moment_identities(self):
        for work in (0.1, 1.0, 10.0, RESONANT_WORK):
            for level in (0, 3, 17, 50):
                stats = microcanonical_stats(level, work)
                assert stats.mean == pytest.approx(level + work, rel=1e-8)
                assert stats.variance == pytest.approx(
                    (2.0 * level + 1.0) * work, rel=1e-8
                )

    def test_adiabatic_exact(self):
        stats = microcanonical_stats(7, 0.0)
        assert stats.mean == 7.0
        assert stats.variance == 0.0
        assert stats.entropy == math.log(7.5)

    def test_reference_point(self):
        stats = microcanonical_stats(2, 10.0)
        assert stats.mean == pytest.approx(12.0, rel=1e-9)
        assert stats.variance == pytest.approx(50.0, rel=1e-9)
        assert stats.entropy >= math.log(2.5)
        assert stats.entropy == pytest.approx(2.3013586598611973, rel=1e-10)

    def test_entropy_gain_positive_at_and_below_corner(self):
        # single-level starts gain entropy whenever the drive work
        # dominates the initial volume
        for work, top in ((1.0, 0), (10.0, 15), (RESONANT_WORK, 43)):
            for level in range(top + 1):
                stats = microcanonical_stats(level, work)
                assert stats.entropy - math.log(level + 0.5) > 0.0

    def test_entropy_gain_negative_above_corner(self):
        # a single level is not a decreasing population, so the
        # entropy-increase theorem does not cover it; far above the
        # corner the gain is in fact slightly negative.  Frozen values
        # confirmed by exact rational arithmetic and an independent
        # propagator run.
        gap40 = microcanonical_stats(40, 10.0).entropy - math.log(40.5)
        assert gap40 == pytest.approx(-4.897068254594572e-05, abs=1e-10)
        gap17 = microcanonical_stats(17, 10.0).entropy - math.log(17.5)
        assert gap17 < -1e-3

    def test_weak_drive_first_order_coefficient(self):
        # gain/work -> (n+1) ln((n+3/2)/(n+1/2)) - n ln((n+1/2)/(n-1/2)),
        # which is positive only for n = 0
        work = 1e-6
        for level in (0, 1, 2, 5):
            gain = microcanonical_stats(level, work).entropy - math.log(level + 0.5)
            if level == 0:
                coeff = math.log(3.0)
            else:
                coeff = (level + 1) * math.log((level + 1.5) / (level + 0.5)) - (
                    level
                ) * math.log((level + 0.5) / (level - 0.5))
            assert gain / work == pytest.approx(coeff, abs=1e-5)

    def test_fixed_cut_agrees_with_adaptive(self):
        adaptive = microcanonical_stats(2, 10.0)
        fixed = microcanonical_stats(2, 10.0, TruncationPolicy(top=1000))
        assert fixed.entropy == pytest.approx(adaptive.entropy, abs=1e-10)


class TestLevelEntropies:
    @pytest.mark.parametrize("policy", [DEFAULT_POLICY, TruncationPolicy(top=1000)],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("work", [0.1, 10.0, RESONANT_WORK])
    def test_match_row_entropies(self, work, policy):
        entropies = level_entropies(40, work, policy)
        assert entropies.shape == (41,)
        for level, entropy in enumerate(entropies):
            expected = microcanonical_stats(level, work, policy).entropy
            assert abs(entropy - expected) <= 1e-14


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
            row = transition_row(40, 10.0, TruncationPolicy(top=45))
        assert 1.0 - row.captured_mass > quantum.MASS_DEFICIT_TOL

    def test_block_names_its_worst_row(self):
        with pytest.warns(quantum.TruncationWarning, match="level 30 "):
            canonical_entropy_change(2.0, 10.0, 30, TruncationPolicy(top=60))


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
        assert canonical_entropy_change(2.0, 0.0, 100) == 0.0

    def test_positive_on_drive_family(self):
        for work in (1e-6, 0.1, 1.0, 10.0, RESONANT_WORK):
            assert canonical_entropy_change(2.0, work, 60) > 0.0

    def test_zero_temperature_limit_collapses_to_ground_gain(self):
        work = 3.0
        gain0 = microcanonical_stats(0, work).entropy - math.log(0.5)
        assert canonical_entropy_change(40.0, work, 30) == pytest.approx(
            gain0, abs=1e-15
        )

    def test_tail_bound_dominates_truncation_error(self):
        value_30 = canonical_entropy_change(0.5, 5.0, 30)
        value_100 = canonical_entropy_change(0.5, 5.0, 100)
        assert abs(value_100 - value_30) <= canonical_tail_bound(0.5, 5.0, 30)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            canonical_entropy_change(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            canonical_entropy_change(1.0, 1.0, 0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("work", [math.nan, math.inf, -math.inf])
    def test_work_rejected_by_every_entry_point(self, work):
        with pytest.raises(ValueError):
            transition_probability(2, 3, work)
        with pytest.raises(ValueError):
            transition_row(2, work)
        with pytest.raises(ValueError):
            microcanonical_stats(2, work)
        with pytest.raises(ValueError):
            canonical_entropy_change(2.0, work, 10)
        with pytest.raises(ValueError):
            microcanonical_stats(2, work, TruncationPolicy(top=100))

    @pytest.mark.parametrize("inv_temperature", [math.nan, math.inf])
    def test_canonical_rejects_non_finite_beta(self, inv_temperature):
        with pytest.raises(ValueError):
            canonical_entropy_change(inv_temperature, 1.0, 10)
