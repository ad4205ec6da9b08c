import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from qentropy import classical, quantum, verify
from qentropy.classical import (
    HalfSineDrive,
    WORK_BOUND_COEFFICIENT,
    _half_sine_response,
    _work_half_sine_direct,
    canonical_entropy_change,
    kernel_density,
    microcanonical_quadrature,
    microcanonical_stats,
    work_half_sine,
)

EULER_GAMMA = 0.5772156649015329

#: Durations where a closed form of the half-sine response could lose
#: digits, and the ones the figures use.
PINNED_DURATIONS = {
    "near_pi": np.concatenate([
        math.pi - np.logspace(-16, -1, 16), math.pi + np.logspace(-16, -1, 16),
        [math.pi - 1.03e-3, math.pi],
    ]),
    "odd_multiples": np.array([
        (2 * k + 1) * math.pi + offset
        for k in range(1, 21) for offset in (-1e-3, -1e-6, 0.0, 1e-5, 1e-3)
    ]),
    "figure_grid": 0.25 * np.arange(1, 121),
    "wide": np.logspace(-8, 4, 97),
}


def response(drive):
    """The closed-form drive response as one complex number."""
    return complex(*_half_sine_response(drive.amplitude, drive.duration))


def sample_final_volumes(volume, work, count, seed):
    """Monte Carlo final volumes ``v + w + 2 sqrt(v w) cos(psi)`` of orbits
    with uniform phases ``psi``; the drive's phase shift, and so its
    duration, drop out of a uniform phase."""
    psi = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=count)
    return volume + work + 2.0 * math.sqrt(volume * work) * np.cos(psi)


def quad_response(drive):
    """Independent oracle: adaptive quadrature of f(t) exp(i t)."""
    re, _ = quad(lambda t: drive.force(t) * math.cos(t), 0.0, drive.duration,
                 limit=400)
    im, _ = quad(lambda t: drive.force(t) * math.sin(t), 0.0, drive.duration,
                 limit=400)
    return complex(re, im)


class TestDriveResponse:
    def test_zero_amplitude(self):
        drive = HalfSineDrive(0.0, 3.0)
        assert response(drive) == 0.0
        assert work_half_sine(drive.amplitude, drive.duration) == 0.0

    def test_resonant_duration(self):
        # removable singularity of the closed form at duration = pi
        drive = HalfSineDrive(6.0, math.pi)
        work = work_half_sine(6.0, math.pi)
        assert work == pytest.approx(4.5 * math.pi**2, rel=1e-12)
        assert cmath.phase(response(drive)) == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_full_period(self):
        drive = HalfSineDrive(6.0, 2.0 * math.pi)
        # direct substitution gives 288 pi^4 / (9 pi^4) = 32
        assert work_half_sine(6.0, 2.0 * math.pi) == pytest.approx(32.0, rel=1e-10)
        assert abs(response(drive) - quad_response(drive)) < 1e-9

    @pytest.mark.parametrize("duration", [0.7, 2.0, math.pi - 5e-4, math.pi,
                                          math.pi + 5e-4, 4.3, 10.0])
    def test_against_quadrature(self, duration):
        drive = HalfSineDrive(6.0, duration)
        assert abs(response(drive) - quad_response(drive)) < 1e-9

    def test_work_and_phase_fields(self):
        # 1 + exp(iT) = 2 cos(T/2) exp(iT/2): the response points along
        # exp(iT/2), here with a positive scale
        drive = HalfSineDrive(3.0, 5.0)
        r = response(drive)
        assert work_half_sine(3.0, 5.0) == pytest.approx(0.5 * abs(r) ** 2, abs=1e-12)
        assert cmath.phase(r) == pytest.approx(2.5, abs=1e-15)


class TestDriveValidation:
    @pytest.mark.parametrize(
        "amplitude, duration",
        [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf),
         (1.0, 0.0), (1.0, -1.0)],
    )
    def test_half_sine_rejects_bad_parameters(self, amplitude, duration):
        with pytest.raises(ValueError):
            HalfSineDrive(amplitude, duration)


class TestWorkHalfSine:
    def test_zero_amplitude(self):
        assert work_half_sine(0.0, 1.7) == 0.0

    def test_series_matches_direct_across_the_window(self):
        series_value = work_half_sine(6.0, math.pi)
        for duration in (math.pi - 1e-4, math.pi + 1e-4):
            direct = _work_half_sine_direct(6.0, duration)
            branched = work_half_sine(6.0, duration)
            assert abs(direct - branched) / branched < 1e-6
            assert abs(branched - series_value) / series_value < 1e-4

    @pytest.mark.parametrize("name", sorted(PINNED_DURATIONS))
    def test_matches_mpmath(self, name):
        durations = PINNED_DURATIONS[name]
        works = work_half_sine(6.0, durations)
        with mpmath.workdps(50):
            for duration, work in zip(durations.tolist(), works.tolist()):
                t = mpmath.mpf(duration)
                exact = 6 * mpmath.pi * t * (1 + mpmath.expj(t)) / (mpmath.pi**2 - t**2)
                closed = response(HalfSineDrive(6.0, duration))
                assert abs(work - abs(exact) ** 2 / 2) <= 4e-15 * abs(exact) ** 2 / 2
                assert abs(mpmath.mpc(closed) - exact) <= 4e-15 * abs(exact)

    def test_matches_response_work(self):
        for duration in (0.5, 2.0, math.pi, 7.0, 29.75):
            fro = 0.5 * abs(response(HalfSineDrive(6.0, duration))) ** 2
            assert work_half_sine(6.0, duration) == fro

    def test_array_of_durations(self):
        grid = np.arange(1, 121).reshape(4, 30) * 0.25
        works = work_half_sine(6.0, grid)
        assert isinstance(works, np.ndarray)
        assert works.shape == grid.shape
        scalar = np.array([work_half_sine(6.0, t) for t in grid.ravel().tolist()])
        assert np.abs(works.ravel() - scalar).max() <= 4e-15 * 6.0**2

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
    def test_array_rejects_one_bad_duration(self, bad):
        grid = np.linspace(0.5, 10.0, 20)
        grid[7] = bad
        with pytest.raises(ValueError):
            work_half_sine(6.0, grid)

    def test_nonnegative_and_bounded(self):
        durations = np.arange(1, 2001) * 0.03
        works = np.array([work_half_sine(2.5, t) for t in durations])
        assert works.min() >= 0.0
        assert works.max() <= WORK_BOUND_COEFFICIENT * 2.5**2

    def test_envelope_minima_vanish(self):
        for k in (1, 2, 3):
            assert work_half_sine(6.0, (2 * k + 1) * math.pi) < 1e-12

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            work_half_sine(1.0, 0.0)

    @pytest.mark.parametrize(
        "amplitude, duration",
        [(math.nan, 2.0), (math.inf, 2.0), (6.0, math.nan), (6.0, math.inf)],
    )
    def test_rejects_non_finite_input(self, amplitude, duration):
        with pytest.raises(ValueError):
            work_half_sine(amplitude, duration)

    def test_bound_coefficient_derivation(self):
        # one scan over [1e-3, 200], then one between the neighbours of
        # its maximum; the supremum sits near duration 4.2953, away from pi
        points = 200_000
        grid = np.linspace(1e-3, 200.0, points)
        i = int(work_half_sine(1.0, grid).argmax())
        fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], points)
        derived = float(work_half_sine(1.0, fine).max())
        assert derived <= WORK_BOUND_COEFFICIENT
        assert WORK_BOUND_COEFFICIENT - derived < 1e-8


class TestKernel:
    def test_support_geometry(self):
        # the density is positive exactly between (sqrt v -+ sqrt w)**2
        root_v, root_w = math.sqrt(2.0), math.sqrt(0.5)
        lower, upper = (root_v - root_w) ** 2, (root_v + root_w) ** 2
        assert upper - lower == pytest.approx(4.0 * math.sqrt(2.0 * 0.5), rel=1e-14)
        inside = np.linspace(lower, upper, 9)[1:-1]
        assert np.all(kernel_density(inside, 2.0, 0.5) > 0.0)
        assert kernel_density(lower * (1.0 - 1e-9), 2.0, 0.5) == 0.0
        assert kernel_density(upper * (1.0 + 1e-9), 2.0, 0.5) == 0.0

    def test_center_value(self):
        v, w = 2.0, 0.7
        assert kernel_density(v + w, v, w) == pytest.approx(
            1.0 / (2.0 * math.pi * math.sqrt(v * w)), rel=1e-14
        )

    def test_outside_support_is_zero(self):
        assert kernel_density(10.0, 1.0, 1.0) == 0.0
        assert kernel_density(0.01, 4.0, 1.0) == 0.0

    def test_endpoints_map_to_zero(self):
        root_v, root_w = math.sqrt(2.0), math.sqrt(0.5)
        assert kernel_density((root_v - root_w) ** 2, 2.0, 0.5) == 0.0
        assert kernel_density((root_v + root_w) ** 2, 2.0, 0.5) == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            kernel_density(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kernel_density(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("v", [0.1, 3.1622776601683795, 100.0])
    @pytest.mark.parametrize("w", [0.1, 3.1622776601683795, 100.0])
    def test_mass_one_both_ways(self, v, w):
        # integrate the density against the analytic angle Jacobian; any
        # error in the kernel formula would break mass = 1
        nodes, weights = np.polynomial.legendre.leggauss(80)
        psi = 0.5 * math.pi * (nodes + 1.0)
        w_psi = 0.5 * math.pi * weights
        spread = 2.0 * math.sqrt(v * w)
        jac = spread * np.sin(psi)
        theta = v + w + spread * np.cos(psi)
        row = float(np.dot(w_psi, kernel_density(theta, v, w) * jac))
        col = float(np.dot(
            w_psi, np.array([kernel_density(v, t, w) for t in theta]) * jac
        ))
        assert row == pytest.approx(1.0, abs=1e-8)
        assert col == pytest.approx(1.0, abs=1e-8)

    def test_array_arguments_equal_scalar_calls(self):
        finals = np.array([0.3, 2.0, 5.5, 9.0, 30.0])
        volumes = np.array([0.1, 1.0, 3.1622776601683795, 7.0, 100.0])
        works = np.array([0.1, 2.0, 0.5, 3.1622776601683795, 10.0])
        single = [kernel_density(*args) for args in zip(finals, volumes, works)]
        assert np.array_equal(kernel_density(finals, volumes, works), single)
        assert np.count_nonzero(single) == 4
        column = [kernel_density(2.0, v, 1.5) for v in volumes]
        assert np.array_equal(kernel_density(2.0, volumes, 1.5), column)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_array_arguments_reject_a_bad_entry(self, bad):
        entries = np.array([1.0, bad, 2.0])
        with pytest.raises(ValueError):
            kernel_density(1.5, entries, 1.0)
        with pytest.raises(ValueError):
            kernel_density(1.5, 1.0, entries)

    def test_mass_check_catches_a_scaled_density(self, monkeypatch):
        density, calls = classical.kernel_density, []

        def scaled(*args):
            calls.append(args)
            return density(*args) * (1.0 + 1e-6)

        monkeypatch.setattr(classical, "kernel_density", scaled)
        check = verify.kernel_stochasticity()
        assert len(calls) == 18  # one call per mass: 9 (a, b) pairs, 2 ways
        assert not check.passed and check.observed > 9e-7


class TestMicrocanonicalStats:
    def test_reference_point(self):
        stats = microcanonical_stats(2.5, 10.0)
        assert stats.mean == 12.5
        assert stats.variance == 50.0
        assert stats.log_mean == pytest.approx(math.log(10.0), abs=1e-15)

    def test_adiabatic(self):
        stats = microcanonical_stats(3.0, 0.0)
        assert stats == (3.0, 0.0, pytest.approx(math.log(3.0)))

    def test_corner(self):
        stats = microcanonical_stats(4.0, 4.0)
        assert stats.log_mean == pytest.approx(math.log(4.0), abs=1e-15)

    def test_clausius_lower_bound(self):
        # log-mean never falls below the initial log-volume
        for v in (0.2, 1.0, 7.0):
            for w in (0.0, 0.5, 5.0, 80.0):
                if v == 0.0 and w == 0.0:
                    continue
                assert microcanonical_stats(v, w).log_mean >= math.log(v) - 1e-15

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            microcanonical_stats(0.0, 0.0)


class TestMicrocanonicalQuadrature:
    def test_reference_point(self):
        stats = microcanonical_quadrature(2.5, 10.0, nodes=512)
        assert stats.log_mean == pytest.approx(math.log(10.0), abs=1e-8)
        assert stats.mean == pytest.approx(12.5, rel=1e-12)
        assert stats.variance == pytest.approx(50.0, rel=1e-12)

    def test_corner_log_singularity(self):
        stats = microcanonical_quadrature(1.0, 1.0, nodes=512)
        assert stats.log_mean == pytest.approx(0.0, abs=1e-6)

    def test_adiabatic_exact_at_any_node_count(self):
        stats = microcanonical_quadrature(2.7, 0.0, nodes=16)
        assert stats.log_mean == math.log(2.7)
        assert stats.variance == 0.0

    def test_grid_against_closed_forms(self):
        for v in np.logspace(-1, 2, 4):
            for w in np.logspace(-1, 2, 4):
                exact = microcanonical_stats(v, w)
                quad_stats = microcanonical_quadrature(v, w, nodes=512)
                assert quad_stats.mean == pytest.approx(exact.mean, rel=1e-8)
                assert quad_stats.variance == pytest.approx(exact.variance, rel=1e-8)
                assert abs(quad_stats.log_mean - exact.log_mean) < 1e-6

    def test_low_node_count_warns(self):
        from qentropy.quadrature import QuadratureWarning

        with pytest.warns(QuadratureWarning):
            microcanonical_quadrature(1.0, 1.0, nodes=16)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            microcanonical_quadrature(1.0, 1.0, nodes=8)


class TestCanonicalEntropyChange:
    def test_no_drive(self):
        assert canonical_entropy_change(2.0, 0.0) == 0.0

    def test_small_work_limit(self):
        # leading order: delta S -> beta * work
        s = 1e-3
        value = canonical_entropy_change(2.0, s / 2.0)
        assert value == pytest.approx(s, rel=1e-2)

    def test_exponential_integral_identity(self):
        # independent special-function route: gamma + ln s + E1(s)
        for s in (0.1, 1.0, 10.0, 105.0):
            value = canonical_entropy_change(1.0, s)
            assert value == pytest.approx(
                EULER_GAMMA + math.log(s) + exp1(s), abs=1e-12
            )

    def test_matches_the_exponential_integral_at_every_scale(self):
        # quadrature up to s = 745, the closed form gamma + ln s past it,
        # where E1(s) < exp(-s) underflows and the rule cannot resolve
        # exp(-s x); s = 6.96e12 is fig3 --beta 1e12 at duration 1
        grid = np.r_[np.logspace(-3, math.log10(1.7e308), 241),
                     [744.0, 745.0, 746.0, 6.95664291704e12, 1.7e308]]
        values = canonical_entropy_change(1.0, grid)
        with mpmath.workdps(40):
            for s, value in zip(grid.tolist(), values.tolist()):
                exact = float(mpmath.euler + mpmath.log(s) + mpmath.e1(s))
                assert abs(value - exact) <= 1e-13 * exact, s
                assert canonical_entropy_change(1.0, s) == value, s

    @pytest.mark.parametrize("beta, work", [(1e308, 10.0), (2.0, 1e308),
                                            (1e300, np.array([1.0, 1e10]))])
    def test_rejects_a_product_that_overflows(self, beta, work):
        with pytest.raises(ValueError, match="overflows"):
            canonical_entropy_change(beta, work)

    def test_positive_along_drive_family(self):
        for duration in np.arange(1, 121) * 0.25:
            work = work_half_sine(6.0, float(duration))
            assert canonical_entropy_change(2.0, work) >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            canonical_entropy_change(0.0, 1.0)
        with pytest.raises(ValueError):
            canonical_entropy_change(1.0, -1.0)
        with pytest.raises(ValueError):
            canonical_entropy_change(1.0, np.array([1.0, math.nan]))

    @pytest.mark.parametrize("beta", [0.1, 2.0, 8.0])
    def test_array_of_works_equals_scalar_calls(self, beta):
        # fig3's column, plus tiny and large works: more than one chunk
        works = np.r_[0.0, work_half_sine(6.0, 0.25 + 0.25 * np.arange(120)),
                      np.logspace(-300, 3, 200)]
        changes = canonical_entropy_change(beta, works)
        assert changes.shape == works.shape
        assert changes.tolist() == [canonical_entropy_change(beta, work)
                                    for work in works.tolist()]
        assert isinstance(canonical_entropy_change(beta, 1.0), float)


class TestSampling:
    def test_no_drive_is_constant(self):
        samples = sample_final_volumes(2.5, 0.0, 100, seed=1)
        assert np.all(samples == 2.5)

    def test_mean_matches_moment_formula(self):
        # unit work and unit initial volume: mean must sit within the
        # central-limit band around 2
        samples = sample_final_volumes(1.0, 1.0, 1_000_000, seed=42)
        sigma = math.sqrt(2.0 / samples.size)
        assert abs(samples.mean() - 2.0) < 3.0 * sigma

    def test_histogram_approaches_kernel(self):
        work = work_half_sine(2.0, 2.0)
        lower, upper = (1.0 - math.sqrt(work)) ** 2, (1.0 + math.sqrt(work)) ** 2
        lo = lower + 0.1 * (upper - lower)
        hi = upper - 0.1 * (upper - lower)
        edges = np.linspace(lo, hi, 21)
        centers = 0.5 * (edges[:-1] + edges[1:])
        reference = kernel_density(centers, 1.0, work)

        def sup_discrepancy(count, seed):
            samples = sample_final_volumes(1.0, work, count, seed)
            hist, _ = np.histogram(samples, bins=edges)
            density = hist / (count * np.diff(edges))
            return float(np.max(np.abs(density - reference)))

        coarse = sup_discrepancy(50_000, seed=3)
        fine = sup_discrepancy(1_600_000, seed=4)
        assert fine < coarse


@pytest.mark.parametrize(
    "func, args",
    [
        (canonical_entropy_change, (math.nan, 1.0)),
        (canonical_entropy_change, (2.0, math.nan)),
        (canonical_entropy_change, (2.0, math.inf)),
        (canonical_entropy_change, (math.inf, 1.0)),
        (microcanonical_stats, (1.0, math.inf)),
        (microcanonical_stats, (math.nan, 1.0)),
        (microcanonical_quadrature, (math.nan, 1.0, 64)),
        (microcanonical_quadrature, (1.0, math.inf, 64)),
        (kernel_density, (1.0, math.nan, 1.0)),
        (kernel_density, (1.0, 1.0, math.inf)),
        (quantum.canonical_tail_bound, (math.nan, 1.0, 10)),
        (quantum.canonical_tail_bound, (2.0, math.inf, 10)),
    ],
    ids=lambda v: v.__name__ if callable(v) else ",".join(
        str(a) for a in v if isinstance(a, (int, float))
    ),
)
def test_non_finite_input_rejected(func, args):
    with pytest.raises(ValueError):
        func(*args)
