import math
from types import SimpleNamespace

import numpy as np
import pytest

from qentropy.classical import HalfSineDrive, drive_response
from qentropy.quantum import transition_probability
from qentropy.schrodinger import (
    BasisLeakWarning,
    PropagatorResult,
    UnitarityError,
    _position,
    numeric_transition_row,
    propagate,
)


class TestHamiltonianMatrix:
    def test_unit_force_coupling(self):
        h = np.diag([0.5, 1.5]) + _position(2)  # H at unit force
        expected = np.array([[0.5, 1.0 / math.sqrt(2.0)],
                             [1.0 / math.sqrt(2.0), 1.5]])
        assert np.allclose(h, expected, atol=1e-15)

    def test_symmetric_tridiagonal(self):
        x = _position(12)
        assert np.array_equal(x, x.T)
        beyond = np.triu(x, 2)
        assert np.all(beyond == 0.0)


class TestPropagate:
    def test_free_evolution_phases(self):
        duration = 2.0
        result = propagate(HalfSineDrive(0.0, duration), dim=24, steps=150)
        expected = np.exp(-1j * (np.arange(24) + 0.5) * duration)
        assert result.unitarity_defect <= 1e-12
        assert np.allclose(np.diag(result.matrix), expected, atol=1e-10)
        off = result.matrix - np.diag(np.diag(result.matrix))
        assert np.max(np.abs(off)) < 1e-12

    def test_defect_at_reference_resolution(self):
        result = propagate(HalfSineDrive(1.0, 2.0), dim=120, steps=4000)
        assert result.unitarity_defect <= 1e-10

    def test_second_order_self_convergence(self):
        drive = HalfSineDrive(1.0, 2.0)
        block = 12
        rows = {}
        for steps in (200, 400, 800):
            u = propagate(drive, dim=80, steps=steps).matrix
            rows[steps] = np.abs(u[:block, :block]) ** 2
        err_coarse = np.max(np.abs(rows[200] - rows[800]))
        err_fine = np.max(np.abs(rows[400] - rows[800]))
        slope = math.log2(err_coarse / err_fine)
        assert slope >= 1.9

    @pytest.mark.parametrize("force", [math.nan, math.inf])
    def test_non_finite_force_raises(self, force):
        drive = SimpleNamespace(duration=2.0, force=lambda t: force)
        with pytest.raises(UnitarityError):
            propagate(drive, dim=20, steps=100)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            propagate(HalfSineDrive(1.0, 2.0), dim=1, steps=200)
        with pytest.raises(ValueError):
            propagate(HalfSineDrive(1.0, 2.0), dim=30, steps=99)


class TestNumericTransitionRow:
    def test_free_drive_gives_kronecker_rows(self):
        drive = HalfSineDrive(0.0, 1.5)
        result = propagate(drive, dim=30, steps=120)
        for n in (0, 4, 9):
            row = numeric_transition_row(n, result)
            expected = np.zeros(30)
            expected[n] = 1.0
            assert np.allclose(row, expected, atol=1e-12)

    def test_ground_state_row_is_poisson(self):
        drive = HalfSineDrive(1.0, 2.0)
        work = drive_response(drive).work
        row = numeric_transition_row(0, propagate(drive, dim=80, steps=1500))
        for m in range(12):
            poisson = math.exp(-work + m * math.log(work) - math.lgamma(m + 1))
            assert abs(row[m] - poisson) < 1e-6

    def test_matches_charlier_block(self):
        drive = HalfSineDrive(2.0, 2.0)
        work = drive_response(drive).work
        result = propagate(drive, dim=140, steps=1200)
        worst = 0.0
        for n in range(11):
            row = numeric_transition_row(n, result)
            for m in range(11):
                worst = max(worst, abs(row[m] - transition_probability(n, m, work)))
        assert worst <= 1e-6

    def test_basis_robustness(self):
        # the low block must not feel the truncation boundary
        drive = HalfSineDrive(6.0, 2.0)
        block = 21
        small = propagate(drive, dim=200, steps=400).matrix
        large = propagate(drive, dim=300, steps=400).matrix
        diff = np.abs(np.abs(small[:block, :block]) ** 2
                      - np.abs(large[:block, :block]) ** 2)
        assert np.max(diff) <= 1e-8

    def test_leak_warning_on_small_basis(self):
        result = propagate(HalfSineDrive(6.0, 2.0), dim=44, steps=400)
        with pytest.warns(BasisLeakWarning):
            numeric_transition_row(0, result)

    def test_headroom_precondition(self):
        result = propagate(HalfSineDrive(1.0, 2.0), dim=40, steps=200)
        with pytest.raises(ValueError):
            numeric_transition_row(20, result)

    def test_result_matrix_immutable(self):
        result = propagate(HalfSineDrive(0.5, 1.0), dim=20, steps=100)
        assert isinstance(result, PropagatorResult)
        with pytest.raises(ValueError):
            result.matrix[0, 0] = 0.0
