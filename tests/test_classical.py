import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import exp1

from qentropy import quantum
from qentropy.classical import (
    HalfSineDrive,
    KernelSupport,
    TabulatedDrive,
    WORK_BOUND_COEFFICIENT,
    WorkDescriptor,
    _simpson,
    _work_half_sine_direct,
    canonical_entropy_change,
    drive_response,
    final_volume,
    kernel_density,
    kernel_support,
    microcanonical_quadrature,
    microcanonical_stats,
    sample_final_volumes,
    work_bound_coefficient,
    work_half_sine,
)

EULER_GAMMA = 0.5772156649015329


def quad_response(drive):
    """Independent oracle: adaptive quadrature of f(t) exp(i t)."""
    re, _ = quad(lambda t: drive.force(t) * math.cos(t), 0.0, drive.duration,
                 limit=400)
    im, _ = quad(lambda t: drive.force(t) * math.sin(t), 0.0, drive.duration,
                 limit=400)
    return complex(re, im)


class TestDriveResponse:
    def test_zero_amplitude(self):
        wd = drive_response(HalfSineDrive(0.0, 3.0))
        assert wd.response == 0.0
        assert wd.work == 0.0

    def test_resonant_duration(self):
        # removable singularity of the closed form at duration = pi
        wd = drive_response(HalfSineDrive(6.0, math.pi))
        assert wd.work == pytest.approx(4.5 * math.pi**2, rel=1e-12)
        assert wd.phase == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_full_period(self):
        wd = drive_response(HalfSineDrive(6.0, 2.0 * math.pi))
        # direct substitution gives 288 pi^4 / (9 pi^4) = 32
        assert wd.work == pytest.approx(32.0, rel=1e-10)
        oracle = quad_response(HalfSineDrive(6.0, 2.0 * math.pi))
        assert abs(wd.response - oracle) < 1e-9

    @pytest.mark.parametrize("duration", [0.7, 2.0, math.pi - 5e-4, math.pi,
                                          math.pi + 5e-4, 4.3, 10.0])
    def test_against_quadrature(self, duration):
        drive = HalfSineDrive(6.0, duration)
        wd = drive_response(drive)
        assert abs(wd.response - quad_response(drive)) < 1e-9

    def test_work_and_phase_fields(self):
        wd = drive_response(HalfSineDrive(3.0, 5.0))
        assert wd.work == pytest.approx(0.5 * abs(wd.response) ** 2, abs=1e-12)
        assert wd.phase == pytest.approx(cmath.phase(wd.response), abs=1e-15)
        assert -math.pi < wd.phase <= math.pi

    def test_phase_convention_at_minus_pi(self):
        wd = WorkDescriptor.from_response(complex(-2.0, -0.0))
        assert wd.phase == math.pi

    def test_tabulated_matches_closed_form(self):
        duration = 2.0
        grid = np.linspace(0.0, duration, 10_001)
        drive = TabulatedDrive(6.0 * np.sin(math.pi * grid / duration), duration)
        closed = drive_response(HalfSineDrive(6.0, duration))
        tabulated = drive_response(drive)
        assert abs(tabulated.response - closed.response) < 1e-8

    def test_unknown_drive_type(self):
        with pytest.raises(TypeError):
            drive_response(object())

    @pytest.mark.parametrize("count", [3, 4, 5, 10, 4001, 10_000])
    def test_simpson_matches_scipy(self, count):
        duration = 2.5
        grid = np.linspace(0.0, duration, count)
        samples = (1.0 + grid**2) * np.exp(1j * grid) + np.cos(3.0 * grid)
        ours = _simpson(samples, duration / (count - 1))
        reference = complex(simpson(samples, x=grid))
        assert abs(ours - reference) <= 1e-12 * abs(reference)


class TestDriveValidation:
    @pytest.mark.parametrize(
        "amplitude, duration",
        [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf),
         (1.0, 0.0), (1.0, -1.0)],
    )
    def test_half_sine_rejects_bad_parameters(self, amplitude, duration):
        with pytest.raises(ValueError):
            HalfSineDrive(amplitude, duration)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_tabulated_rejects_non_finite_samples(self, bad):
        samples = np.sin(np.linspace(0.0, math.pi, 11))
        samples[4] = bad
        with pytest.raises(ValueError):
            TabulatedDrive(samples, 2.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0])
    def test_tabulated_rejects_bad_duration(self, duration):
        with pytest.raises(ValueError):
            TabulatedDrive(np.ones(5), duration)


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

    def test_matches_response_work(self):
        for duration in (0.5, 2.0, math.pi, 7.0, 29.75):
            fro = drive_response(HalfSineDrive(6.0, duration)).work
            assert work_half_sine(6.0, duration) == pytest.approx(fro, rel=1e-10)

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
        derived = work_bound_coefficient(points=200_000)
        assert derived <= WORK_BOUND_COEFFICIENT
        assert WORK_BOUND_COEFFICIENT - derived < 1e-8


class TestFinalVolume:
    def test_no_drive(self):
        wd = WorkDescriptor.from_response(0.0)
        for phase in (0.0, 1.0, 5.0):
            assert final_volume(3.2, phase, wd, 4.0) == pytest.approx(3.2, abs=0)

    def test_start_at_rest(self):
        wd = drive_response(HalfSineDrive(2.0, 3.0))
        assert final_volume(0.0, 1.2, wd, 3.0) == pytest.approx(wd.work, abs=1e-14)

    def test_support_endpoints(self):
        wd = drive_response(HalfSineDrive(2.0, 3.0))
        support = kernel_support(1.5, wd.work)
        # choose initial phases that put the cosine at +-1
        phase_hi = 3.0 - wd.phase
        phase_lo = phase_hi - math.pi
        assert final_volume(1.5, phase_hi, wd, 3.0) == pytest.approx(
            support.upper, abs=1e-12
        )
        assert final_volume(1.5, phase_lo, wd, 3.0) == pytest.approx(
            support.lower, abs=1e-12
        )

    def test_always_inside_support(self):
        wd = drive_response(HalfSineDrive(4.0, 2.0))
        support = kernel_support(2.0, wd.work)
        phases = np.linspace(0.0, 2.0 * math.pi, 193)
        values = final_volume(2.0, phases, wd, 2.0)
        assert values.min() >= support.lower - 1e-12
        assert values.max() <= support.upper + 1e-12

    def test_rejects_negative_volume(self):
        wd = WorkDescriptor.from_response(1.0)
        with pytest.raises(ValueError):
            final_volume(-0.5, 0.0, wd, 1.0)


class TestKernel:
    def test_support_geometry(self):
        support = kernel_support(2.0, 0.5)
        assert isinstance(support, KernelSupport)
        assert 0.0 <= support.lower <= support.upper
        assert support.upper - support.lower == pytest.approx(
            4.0 * math.sqrt(2.0 * 0.5), rel=1e-14
        )

    def test_center_value(self):
        v, w = 2.0, 0.7
        assert kernel_density(v + w, v, w) == pytest.approx(
            1.0 / (2.0 * math.pi * math.sqrt(v * w)), rel=1e-14
        )

    def test_outside_support_is_zero(self):
        assert kernel_density(10.0, 1.0, 1.0) == 0.0
        assert kernel_density(0.01, 4.0, 1.0) == 0.0

    def test_endpoints_map_to_zero(self):
        support = kernel_support(2.0, 0.5)
        assert kernel_density(support.lower, 2.0, 0.5) == 0.0
        assert kernel_density(support.upper, 2.0, 0.5) == 0.0

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

    def test_positive_along_drive_family(self):
        for duration in np.arange(1, 121) * 0.25:
            work = work_half_sine(6.0, float(duration))
            assert canonical_entropy_change(2.0, work) >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            canonical_entropy_change(0.0, 1.0)
        with pytest.raises(ValueError):
            canonical_entropy_change(1.0, -1.0)


class TestSampling:
    def test_no_drive_is_constant(self):
        wd = WorkDescriptor.from_response(0.0)
        samples = sample_final_volumes(2.5, wd, 1.0, 100, seed=1)
        assert np.all(samples == 2.5)

    def test_mean_matches_moment_formula(self):
        # unit work and unit initial volume: mean must sit within the
        # central-limit band around 2
        wd = WorkDescriptor.from_response(complex(math.sqrt(2.0)))
        assert wd.work == pytest.approx(1.0, abs=1e-15)
        samples = sample_final_volumes(1.0, wd, 2.0, 1_000_000, seed=42)
        sigma = math.sqrt(2.0 / samples.size)
        assert abs(samples.mean() - 2.0) < 3.0 * sigma

    def test_deterministic(self):
        wd = drive_response(HalfSineDrive(2.0, 2.0))
        a = sample_final_volumes(1.0, wd, 2.0, 1000, seed=9)
        b = sample_final_volumes(1.0, wd, 2.0, 1000, seed=9)
        assert np.array_equal(a, b)

    def test_histogram_approaches_kernel(self):
        wd = drive_response(HalfSineDrive(2.0, 2.0))
        support = kernel_support(1.0, wd.work)
        lo = support.lower + 0.1 * (support.upper - support.lower)
        hi = support.upper - 0.1 * (support.upper - support.lower)
        edges = np.linspace(lo, hi, 21)
        centers = 0.5 * (edges[:-1] + edges[1:])
        reference = kernel_density(centers, 1.0, wd.work)

        def sup_discrepancy(count, seed):
            samples = sample_final_volumes(1.0, wd, 2.0, count, seed)
            hist, _ = np.histogram(samples, bins=edges)
            density = hist / (count * np.diff(edges))
            return float(np.max(np.abs(density - reference)))

        coarse = sup_discrepancy(50_000, seed=3)
        fine = sup_discrepancy(1_600_000, seed=4)
        assert fine < coarse

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_final_volumes(1.0, WorkDescriptor.from_response(1.0), 1.0, 0, 1)


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
        (kernel_support, (1.0, math.nan)),
        (kernel_support, (math.inf, 1.0)),
        (final_volume, (math.nan, 0.0, WorkDescriptor.from_response(1.0), 1.0)),
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
