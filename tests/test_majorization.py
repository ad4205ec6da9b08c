import math
from collections import Counter

import numpy as np
import pytest

from qentropy import verify
from qentropy.majorization import (
    DoublyStochasticError,
    ProbabilityVector,
    TransitionMatrix,
    check_doubly_stochastic,
    diagonal_entropy,
    entropy_change,
    evolve_distribution,
    random_decreasing,
    random_unistochastic,
    von_neumann_entropy,
)


def delta_vector(dim, at):
    w = np.zeros(dim)
    w[at] = 1.0
    return ProbabilityVector(w)


class TestProbabilityVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, -0.1, 0.6])

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.5 + 1e-9])

    def test_renormalizes_small_drift(self):
        p = ProbabilityVector([0.5, 0.5 + 5e-13])
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_decreasing_flag(self):
        assert ProbabilityVector([0.5, 0.3, 0.2]).is_decreasing
        assert ProbabilityVector([0.4, 0.3, 0.3]).is_decreasing  # ties allowed
        assert not ProbabilityVector([0.3, 0.5, 0.2]).is_decreasing

    def test_weights_are_immutable(self):
        p = ProbabilityVector([0.7, 0.3])
        with pytest.raises(ValueError):
            p.weights[0] = 0.0


class TestDiagonalEntropy:
    def test_ground_state(self):
        assert diagonal_entropy(delta_vector(1, 0)) == pytest.approx(
            math.log(0.5), abs=1e-15
        )

    def test_single_level_five(self):
        assert diagonal_entropy(delta_vector(8, 5)) == pytest.approx(
            math.log(5.5), abs=1e-15
        )

    def test_two_term(self):
        p = ProbabilityVector([0.5, 0.5])
        expected = 0.5 * (math.log(0.5) + math.log(1.5))  # -0.143841...
        assert diagonal_entropy(p) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.143841, abs=1e-6)


class TestVonNeumann:
    def test_pure_state(self):
        assert von_neumann_entropy(delta_vector(6, 3)) == 0.0

    def test_uniform(self):
        p = ProbabilityVector(np.full(4, 0.25))
        assert von_neumann_entropy(p) == pytest.approx(math.log(4.0), abs=1e-14)

    def test_two_level(self):
        p = ProbabilityVector([0.7, 0.3])
        assert von_neumann_entropy(p) == pytest.approx(0.6108643020548935, abs=1e-12)


class TestEvolve:
    def test_identity_is_adiabatic(self):
        p = ProbabilityVector([0.6, 0.25, 0.15])
        d = check_doubly_stochastic(np.eye(3), 1e-12)
        assert np.allclose(evolve_distribution(p, d).weights, p.weights, atol=0)

    def test_complete_mixing(self):
        p = ProbabilityVector([0.7, 0.3])
        d = check_doubly_stochastic([[0.5, 0.5], [0.5, 0.5]], 1e-12)
        assert np.allclose(evolve_distribution(p, d).weights, [0.5, 0.5], atol=1e-15)

    def test_permutation(self):
        p = ProbabilityVector([0.7, 0.3])
        swap = check_doubly_stochastic([[0.0, 1.0], [1.0, 0.0]], 1e-12)
        evolved = evolve_distribution(p, swap)
        assert np.allclose(evolved.weights, [0.3, 0.7], atol=0)
        assert not evolved.is_decreasing  # re-evaluated, not inherited

    def test_dimension_mismatch(self):
        p = ProbabilityVector([0.7, 0.3])
        d = check_doubly_stochastic(np.eye(3), 1e-12)
        with pytest.raises(ValueError):
            evolve_distribution(p, d)

    def test_inputs_not_mutated(self):
        p = ProbabilityVector([0.7, 0.3])
        d = random_unistochastic(2, 5)
        before = p.weights.copy()
        evolve_distribution(p, d)
        assert np.array_equal(p.weights, before)


class TestEntropyChange:
    def test_no_change(self):
        p = ProbabilityVector([0.6, 0.4])
        report = entropy_change(p, p)
        assert report.delta_direct == 0.0
        assert report.delta_by_parts == pytest.approx(0.0, abs=1e-16)
        assert report.min_cumulative_gap == 0.0

    def test_mixing_two_levels(self):
        report = entropy_change(
            ProbabilityVector([0.7, 0.3]), ProbabilityVector([0.5, 0.5])
        )
        assert report.delta_direct == pytest.approx(0.21972245773362195, abs=1e-13)

    def test_swap_doubles_by_linearity(self):
        report = entropy_change(
            ProbabilityVector([0.7, 0.3]), ProbabilityVector([0.3, 0.7])
        )
        assert report.delta_direct == pytest.approx(0.4394449154672439, abs=1e-13)

    def test_report_consistency(self):
        p = ProbabilityVector([0.5, 0.2, 0.2, 0.1])
        q = ProbabilityVector([0.1, 0.2, 0.3, 0.4])
        report = entropy_change(p, q)
        assert report.s_final - report.s_initial == pytest.approx(
            report.delta_direct, abs=1e-12
        )
        assert report.delta_direct == pytest.approx(report.delta_by_parts, abs=1e-10)

    def test_byparts_identity_random_unordered(self):
        # pure algebra: no ordering or stochasticity needed
        rng = np.random.default_rng(11)
        for _ in range(300):
            dim = int(rng.integers(2, 65))
            p = ProbabilityVector(rng.dirichlet(np.ones(dim)))
            q = ProbabilityVector(rng.dirichlet(np.ones(dim)))
            report = entropy_change(p, q)
            assert abs(report.delta_direct - report.delta_by_parts) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            entropy_change(
                ProbabilityVector([0.7, 0.3]), ProbabilityVector([1.0, 0.0, 0.0])
            )


class TestCheckDoublyStochastic:
    def test_identity_accepted(self):
        m = check_doubly_stochastic(np.eye(5), 1e-15)
        assert isinstance(m, TransitionMatrix)
        assert m.dim == 5

    def test_column_violation_rejected(self):
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic([[0.9, 0.1], [0.2, 0.8]], 1e-9)
        assert info.value.axis == "column"
        assert info.value.deviation == pytest.approx(0.1, abs=1e-12)

    def test_mixing_accepted_tight(self):
        check_doubly_stochastic([[0.5, 0.5], [0.5, 0.5]], 1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic([[1.1, -0.1], [-0.1, 1.1]], 1e-6)
        assert info.value.axis == "entry"

    def test_nan_entry_rejected(self):
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic([[math.nan, 0.0], [0.0, 1.0]], 1e-9)
        assert (info.value.axis, info.value.index) == ("entry", 0)
        stack = np.array([np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, math.nan]]])
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic(stack, 1e-9)
        assert (info.value.axis, info.value.index) == ("entry", (2, 1))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            check_doubly_stochastic(np.ones((2, 3)) / 3.0, 1e-9)


class TestRandomUnistochastic:
    def test_dim_one(self):
        m = random_unistochastic(1, 3)
        assert np.array_equal(m.entries, [[1.0]])

    def test_passes_check_at_tight_tolerance(self):
        m = random_unistochastic(8, 42)
        check_doubly_stochastic(m.entries, 1e-10)

    def test_deterministic(self):
        a = random_unistochastic(6, 123)
        b = random_unistochastic(6, 123)
        assert np.array_equal(a.entries, b.entries)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            random_unistochastic(0, 1)


class TestTheorem:
    """Entropy increase for decreasing populations (the core theorem)."""

    def test_positivity_over_random_pairs(self):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            dim = int(rng.integers(2, 33))
            p = random_decreasing(dim, rng)
            d = random_unistochastic(dim, int(rng.integers(0, 2**63)))
            report = entropy_change(p, evolve_distribution(p, d))
            assert report.delta_direct >= -1e-12
            assert report.min_cumulative_gap >= -1e-12

    def test_permutation_cases(self):
        p = ProbabilityVector([0.5, 0.3, 0.2])
        identity = check_doubly_stochastic(np.eye(3), 1e-15)
        assert entropy_change(p, evolve_distribution(p, identity)).delta_direct == 0.0

        swap_12 = check_doubly_stochastic(
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]], 1e-15
        )
        moved = entropy_change(p, evolve_distribution(p, swap_12))
        assert moved.delta_direct == pytest.approx(
            0.1 * (math.log(2.5) - math.log(1.5)), abs=1e-14
        )
        assert moved.delta_direct > 0.0

        # permuting tied weights keeps the same multiset: equality case
        tied = ProbabilityVector([0.4, 0.3, 0.3])
        gained = entropy_change(tied, evolve_distribution(tied, swap_12))
        assert gained.delta_direct == pytest.approx(0.0, abs=1e-15)

    def test_von_neumann_contrast(self):
        # the spectrum entropy depends on the populations alone and is
        # untouched by unitary evolution; the level-counting entropy moves
        rng = np.random.default_rng(5)
        p = random_decreasing(10, rng)
        d = random_unistochastic(10, 77)
        evolved = evolve_distribution(p, d)
        assert abs(diagonal_entropy(evolved) - diagonal_entropy(p)) > 1e-6
        assert von_neumann_entropy(p) == von_neumann_entropy(p)


def assert_same_report(stacked, row, b):
    for name in ("s_initial", "s_final", "delta_direct", "delta_by_parts",
                 "min_cumulative_gap"):
        assert getattr(stacked, name)[b] == getattr(row, name), name


def stack_shapes(monkeypatch, reports):
    """The ``(size, dim)`` of every stack ``reports`` passes to
    ``entropy_change``."""
    shapes = []

    def spy(p, p_final):
        shapes.append(p.weights.shape)
        return entropy_change(p, p_final)

    monkeypatch.setattr(verify, "entropy_change", spy)
    list(reports)
    return shapes


class TestStacks:
    """A stack along the last axis gives every row's 1-d result, bit for bit."""

    def test_theorem_stacks_equal_one_dimensional_calls(self):
        counts = {dim: 10 for dim in verify._THEOREM_DIMS}
        stacks = list(verify._stacks(5, 0, counts, lambda dim: dim**2))
        reports = list(verify._theorem_reports(5, 40))
        assert len(reports) == len(stacks)
        for (rng, dim, size), stacked in zip(stacks, reports):
            ps = [random_decreasing(dim, rng) for _ in range(size)]
            ds = [random_unistochastic(dim, rng) for _ in range(size)]
            for b, (p, d) in enumerate(zip(ps, ds)):
                assert_same_report(stacked, entropy_change(p, evolve_distribution(p, d)), b)

    def test_byparts_stacks_equal_one_dimensional_calls(self):
        dims = np.random.default_rng(8).integers(2, 65, size=200)
        stacks = list(verify._stacks(8, 1, Counter(dims.tolist()), lambda dim: 2 * dim))
        reports = list(verify._byparts_reports(8, 200))
        assert len(reports) == len(stacks)
        for (rng, dim, size), stacked in zip(stacks, reports):
            draws = [ProbabilityVector(rng.dirichlet(np.ones(dim))) for _ in range(2 * size)]
            for b, (p, q) in enumerate(zip(draws[:size], draws[size:])):
                assert_same_report(stacked, entropy_change(p, q), b)

    def test_the_two_checks_draw_from_different_streams(self):
        [(theorem, _, _)], [(byparts, _, _)] = (
            list(verify._stacks(5, check, {8: 1}, lambda dim: dim)) for check in (0, 1))
        assert theorem.random() != byparts.random()

    def test_stacked_fields_are_frozen_arrays(self):
        rng = np.random.default_rng(1)
        p = random_decreasing(3, rng, 2)
        report = entropy_change(p, evolve_distribution(p, random_unistochastic(3, rng, 2)))
        assert p.is_decreasing.tolist() == [True, True]
        assert len(p) == 3
        for value in (report.delta_direct, report.min_cumulative_gap, p.weights):
            assert not value.flags.writeable
        assert report.delta_direct.shape == (2,)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, 1e-11])
    def test_one_bad_row_rejects_the_stack(self, bad):
        rows = np.full((3, 4), 0.25)
        rows[1, 2] += bad
        with pytest.raises(ValueError):
            ProbabilityVector(rows)

    def test_drift_names_the_row(self):
        rows = np.full((3, 2), 0.5)
        rows[2, 0] += 1e-9
        with pytest.raises(ValueError, match="in row 2"):
            ProbabilityVector(rows)

    def test_one_dimensional_rejection_unchanged(self):
        with pytest.raises(ValueError, match=r"^weights sum to 1\.000000001; "
                                             r"drift above 1e-12$"):
            ProbabilityVector([0.5, 0.5 + 1e-9])
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic([[0.9, 0.1], [0.2, 0.8]], 1e-9)
        assert (info.value.axis, info.value.index) == ("column", 0)
        assert type(info.value.index) is int

    def test_bad_matrix_located_in_stack(self):
        stack = np.array([np.eye(2), [[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.2, 0.8]]])
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic(stack, 1e-9)
        assert (info.value.axis, info.value.index) == ("column", (2, 0))
        assert info.value.deviation == pytest.approx(0.1, abs=1e-12)
        stack = np.array([np.eye(2), [[1.1, -0.1], [-0.1, 1.1]]])
        with pytest.raises(DoublyStochasticError) as info:
            check_doubly_stochastic(stack, 1e-9)
        assert (info.value.axis, info.value.index) == ("entry", (1, 0))

    def test_stacked_matrices_are_each_unistochastic_draws(self):
        stack = random_unistochastic(5, 11, 3)
        populations = random_decreasing(5, np.random.default_rng(12), 3)
        matrices, vectors = np.random.default_rng(11), np.random.default_rng(12)
        for b in range(3):
            assert np.array_equal(stack.entries[b], random_unistochastic(5, matrices).entries)
            assert np.array_equal(populations.weights[b],
                                  random_decreasing(5, vectors).weights)

    def test_stack_memory_does_not_grow_with_trials(self, monkeypatch):
        for entries in range(1, 64**2 + 1):
            assert verify._stack_size(entries) * entries <= 2**14
        dims = np.random.default_rng(3).integers(2, 65, size=1500)
        theorem_dims = np.resize(verify._THEOREM_DIMS, 1200)
        # a byparts instance holds two populations, a theorem instance a matrix
        for reports, drawn, entries in (
                (verify._byparts_reports(3, 1500), dims, lambda dim: 2 * dim),
                (verify._theorem_reports(3, 1200), theorem_dims, lambda dim: dim**2)):
            held = Counter()
            for size, dim in stack_shapes(monkeypatch, reports):
                assert size <= verify._stack_size(entries(dim))
                held[dim] += size
            assert held == Counter(drawn.tolist())
