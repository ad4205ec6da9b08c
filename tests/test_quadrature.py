import math

import numpy as np
import pytest

from qentropy.quadrature import (
    integrate_left_singular,
    periodic_average,
    tanh_sinh_rule,
)


def test_rule_is_symmetric_and_normalized():
    x, w, gap_lo, gap_hi, coarse = tanh_sinh_rule(64)
    assert x.size == 129
    assert np.allclose(x, -x[::-1])
    # weights integrate the constant 1 over (-1, 1)
    assert abs(w.sum() - 2.0) < 1e-14
    # gaps reproduce 1 +- x wherever no cancellation occurs
    mid = np.abs(x) < 0.5
    assert np.allclose(gap_lo[mid], 1.0 + x[mid], rtol=1e-14)
    assert np.allclose(gap_hi[mid], 1.0 - x[mid], rtol=1e-14)
    assert coarse.sum() == 65


def test_endpoint_gaps_keep_precision():
    _, _, gap_lo, _, _ = tanh_sinh_rule(64)
    # the innermost nodes sit far below float spacing from the endpoint,
    # yet the gap is a clean positive number
    assert gap_lo.min() > 0.0
    assert gap_lo.min() < 1e-18


def test_log_singularity():
    value, err = integrate_left_singular(np.log, 1.0, 64)
    assert value == pytest.approx(-1.0, abs=1e-13)
    assert err < 1e-12


def test_inverse_sqrt_singularity():
    value, _ = integrate_left_singular(lambda x: 1.0 / np.sqrt(x), 1.0, 64)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_smooth_integrand_and_scaling():
    value, _ = integrate_left_singular(np.sin, math.pi, 64)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_error_estimate_tracks_refinement():
    coarse_val, coarse_err = integrate_left_singular(np.log, 1.0, 8)
    fine_val, fine_err = integrate_left_singular(np.log, 1.0, 128)
    assert fine_err < coarse_err
    assert abs(fine_val + 1.0) < abs(coarse_val + 1.0) + 1e-15


def test_stack_of_integrands_equals_each_alone():
    scales = np.logspace(-3, 2, 40)
    values, errors = integrate_left_singular(
        lambda x: np.exp(-scales[:, None] * x) * np.log(x), 1.0, 256)
    assert values.shape == errors.shape == scales.shape
    for scale, value, error in zip(scales.tolist(), values.tolist(), errors.tolist()):
        alone = integrate_left_singular(lambda x: np.exp(-scale * x) * np.log(x), 1.0, 256)
        assert (value, error) == alone


def test_rejects_bad_upper_limit():
    with pytest.raises(ValueError):
        integrate_left_singular(np.log, 0.0, 32)


def test_periodic_average_exact_for_trig_polynomials():
    assert periodic_average(np.cos, 16) == pytest.approx(0.0, abs=1e-15)
    assert periodic_average(lambda p: np.cos(p) ** 2, 16) == pytest.approx(
        0.5, abs=1e-15
    )
    assert periodic_average(lambda p: 3.0 + np.sin(2 * p), 16) == pytest.approx(
        3.0, abs=1e-14
    )


def test_periodic_average_needs_two_nodes():
    with pytest.raises(ValueError):
        periodic_average(np.cos, 1)
