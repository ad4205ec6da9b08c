"""Level-counting entropy and its growth under doubly stochastic evolution.

The entropy of a population vector ``p`` over non-degenerate energy
levels is taken as the expectation of ``ln(n + 1/2)``: the log of the
number of states at or below level ``n``, counting the ground state as
half a state.  When the populations
are rearranged by any doubly stochastic matrix (squared moduli of a
unitary always form one) and the initial populations are decreasing,
this entropy cannot decrease.  The module provides the entropy
functional, the evolution map, the change-of-entropy bookkeeping in
both its direct and summation-by-parts forms, and generators of random
test instances.

Everything here is a pure function of immutable values; instances can
be shared freely across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORMALIZATION_TOL = 1e-12


class DoublyStochasticError(ValueError):
    """A matrix failed the doubly stochastic test.

    Attributes
    ----------
    axis : str
        ``"row"``, ``"column"`` or ``"entry"`` naming the failing check.
    index : int
        Location of the worst violation.
    deviation : float
        Magnitude of the worst violation.
    """

    def __init__(self, axis: str, index: int, deviation: float):
        self.axis = axis
        self.index = index
        self.deviation = deviation
        super().__init__(
            f"not doubly stochastic: worst {axis} violation {deviation:.3e} "
            f"at index {index}"
        )


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProbabilityVector:
    """Finite population vector p_0..p_K over quantum numbers.

    Construction validates non-negativity and renormalizes drifts of the
    total mass below 1e-12; larger drifts are rejected because the
    downstream cumulative sums amplify them.  ``is_decreasing`` records
    whether ``p_m >= p_n`` holds for all ``m < n`` (exact comparison,
    ties allowed).
    """

    weights: np.ndarray
    is_decreasing: bool = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"weights sum to {total!r}; drift above {_NORMALIZATION_TOL}"
            )
        w = w / total
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "is_decreasing", bool(np.all(np.diff(w) <= 0.0)))

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class TransitionMatrix:
    """Doubly stochastic matrix of inter-level transition probabilities."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EntropyReport:
    """Entropy change between two population vectors, both ways.

    ``delta_direct`` is ``sum_n (p'_n - p_n) ln(n + 1/2)``;
    ``delta_by_parts`` re-expresses it as
    ``sum_m ln((m + 3/2)/(m + 1/2)) * sum_{n<=m} (p_n - p'_n)``.
    The two agree identically for normalized inputs, independent of any
    ordering or stochasticity assumption.  ``min_cumulative_gap`` is the
    smallest partial sum ``sum_{n<=m} (p_n - p'_n)``; it is the quantity
    the entropy-increase theorem proves non-negative for decreasing
    initial populations.
    """

    s_initial: float
    s_final: float
    delta_direct: float
    delta_by_parts: float
    min_cumulative_gap: float


def diagonal_entropy(p: ProbabilityVector) -> float:
    """Expectation of ln(n + 1/2) over the populations, in nats."""
    n = np.arange(len(p))
    return float(np.dot(p.weights, np.log(n + 0.5)))


def von_neumann_entropy(p: ProbabilityVector) -> float:
    """Spectrum entropy -sum p ln p with the 0 ln 0 = 0 convention.

    Unitary evolution leaves the density-matrix spectrum alone, so this
    value, evaluated on the initial populations, is the constant
    spectrum entropy at all times; it is reported only to contrast with
    :func:`diagonal_entropy`, which does change.
    """
    w = p.weights[p.weights > 0.0]
    return float(-np.dot(w, np.log(w)))


def evolve_distribution(p: ProbabilityVector, d: TransitionMatrix) -> ProbabilityVector:
    """Apply the transition matrix: p'_n = sum_k p_k d[k, n].

    The decreasing flag of the result is re-evaluated from the new
    weights, never inherited.
    """
    if d.entries.shape[0] != len(p):
        raise ValueError(
            f"dimension mismatch: vector has {len(p)}, matrix has "
            f"{d.entries.shape[0]}"
        )
    return ProbabilityVector(p.weights @ d.entries)


def entropy_change(p: ProbabilityVector, p_final: ProbabilityVector) -> EntropyReport:
    """Entropy change from ``p`` to ``p_final`` by both formulas."""
    if len(p) != len(p_final):
        raise ValueError(
            f"dimension mismatch: {len(p)} versus {len(p_final)}"
        )
    n = np.arange(len(p))
    levels = np.log(n + 0.5)
    diff = p.weights - p_final.weights
    delta_direct = float(-np.dot(diff, levels))
    partial = np.cumsum(diff)
    rungs = np.log((2.0 * n + 3.0) / (2.0 * n + 1.0))
    delta_by_parts = float(np.dot(rungs, partial))
    return EntropyReport(
        s_initial=diagonal_entropy(p),
        s_final=diagonal_entropy(p_final),
        delta_direct=delta_direct,
        delta_by_parts=delta_by_parts,
        min_cumulative_gap=float(partial.min()),
    )


def check_doubly_stochastic(matrix, tol: float) -> TransitionMatrix:
    """Validate a raw square matrix as doubly stochastic.

    Every entry must be non-negative and every row and column sum must
    lie within ``tol`` of 1.  Raises :class:`DoublyStochasticError`
    carrying the worst violation and its location.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(m < 0.0):
        idx = int(np.argmin(m.min(axis=1)))
        raise DoublyStochasticError("entry", idx, float(-m.min()))
    row_dev = np.abs(m.sum(axis=1) - 1.0)
    col_dev = np.abs(m.sum(axis=0) - 1.0)
    if row_dev.max() > tol or col_dev.max() > tol:
        if row_dev.max() >= col_dev.max():
            raise DoublyStochasticError("row", int(row_dev.argmax()), float(row_dev.max()))
        raise DoublyStochasticError("column", int(col_dev.argmax()), float(col_dev.max()))
    return TransitionMatrix(m)


def random_unistochastic(dim: int, seed: int) -> TransitionMatrix:
    """Random unistochastic matrix: squared entries of an orthogonal matrix.

    Draws a matrix of independent standard normals, orthonormalizes its
    columns, and squares entries element-wise.  The result is exactly
    unistochastic up to roundoff.  The orthogonal factor is not
    Haar-distributed (no sign correction is applied), which is
    sufficient for property testing.  Deterministic for a fixed seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(gauss)
    return check_doubly_stochastic(q * q, tol=1e-10)


def random_decreasing(dim: int, rng: np.random.Generator) -> ProbabilityVector:
    """Random decreasing population vector (sorted uniform weights)."""
    w = np.sort(rng.uniform(0.0, 1.0, size=dim))[::-1]
    return ProbabilityVector(w / w.sum())
