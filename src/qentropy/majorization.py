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

Vectors live along the last axis and matrices along the last two, so a
``(B, K)`` stack of populations, or a ``(B, K, K)`` stack of matrices,
passes through the same functions as one vector does: validation is
row by row, and every row of a stack gives the same bits as that row
taken alone.  Inner products go through :func:`_dot`, whose batched
``(..., 1, K) @ (K, 1)`` product is the same BLAS dot a 1-d pair uses.

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
    index : int or tuple of int
        Location of the worst violation: the row or column of a single
        matrix, or ``(matrix, row or column)`` in a stack.
    deviation : float
        Magnitude of the worst violation.
    """

    def __init__(self, axis: str, index, deviation: float):
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


def _unstacked(value, dtype=float):
    """A Python scalar for one vector's value, a frozen array for a stack's."""
    return dtype(value) if np.ndim(value) == 0 else _frozen_array(value, dtype)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_k a[..., k] b[..., k]``, each row summed as ``np.dot`` sums a
    1-d pair; a 2-d ``a @ b`` (gemv) rounds differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _worst(deviation: np.ndarray):
    """Location and size of the largest entry: an int in a 1-d array, a
    tuple of ints in a stack."""
    flat = int(deviation.argmax())
    index = tuple(int(i) for i in np.unravel_index(flat, deviation.shape))
    return index[0] if deviation.ndim == 1 else index, float(deviation.flat[flat])


@dataclass(frozen=True)
class ProbabilityVector:
    """Finite population vector p_0..p_K over quantum numbers, or a
    stack of them along the last axis.

    Construction validates non-negativity and renormalizes drifts of the
    total mass below 1e-12; larger drifts are rejected because the
    downstream cumulative sums amplify them.  A stack is validated and
    renormalized row by row, and one bad row rejects it.
    ``is_decreasing`` records whether ``p_m >= p_n`` holds for all
    ``m < n`` (exact comparison, ties allowed): a bool for one vector, a
    boolean array for a stack.
    """

    weights: np.ndarray
    is_decreasing: bool | np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 0 or w.size == 0:
            raise ValueError("weights must be a non-empty sequence or stack")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        total = w.sum(axis=-1, keepdims=True)
        drift = np.abs(total - 1.0)
        if drift.max() > _NORMALIZATION_TOL:
            row = int(drift.argmax())
            where = "" if w.ndim == 1 else f" in row {row}"
            raise ValueError(
                f"weights sum to {float(total.flat[row])!r}{where}; drift "
                f"above {_NORMALIZATION_TOL}"
            )
        w = w / total
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "is_decreasing", _unstacked(
            np.all(np.diff(w, axis=-1) <= 0.0, axis=-1), bool))

    def __len__(self) -> int:
        """Number of levels, per vector of a stack."""
        return self.weights.shape[-1]


@dataclass(frozen=True)
class TransitionMatrix:
    """Doubly stochastic matrix of inter-level transition probabilities,
    or a stack of them along the last two axes."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


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
    initial populations.  Each field is a float for a pair of vectors
    and a frozen array, one value per row, for a pair of stacks.
    """

    s_initial: float | np.ndarray
    s_final: float | np.ndarray
    delta_direct: float | np.ndarray
    delta_by_parts: float | np.ndarray
    min_cumulative_gap: float | np.ndarray


def diagonal_entropy(p: ProbabilityVector) -> float | np.ndarray:
    """Expectation of ln(n + 1/2) over the populations, in nats."""
    n = np.arange(len(p))
    return _unstacked(_dot(p.weights, np.log(n + 0.5)))


def von_neumann_entropy(p: ProbabilityVector) -> float:
    """Spectrum entropy -sum p ln p with the 0 ln 0 = 0 convention.

    Unitary evolution leaves the density-matrix spectrum alone, so this
    value, evaluated on the initial populations, is the constant
    spectrum entropy at all times; it is reported only to contrast with
    :func:`diagonal_entropy`, which does change.  One vector only.
    """
    if p.weights.ndim != 1:
        raise ValueError("von_neumann_entropy takes one vector, not a stack")
    w = p.weights[p.weights > 0.0]
    return float(-np.dot(w, np.log(w)))


def evolve_distribution(p: ProbabilityVector, d: TransitionMatrix) -> ProbabilityVector:
    """Apply the transition matrix: p'_n = sum_k p_k d[k, n].

    A stack of vectors goes through a stack of matrices row by row.
    The decreasing flag of the result is re-evaluated from the new
    weights, never inherited.
    """
    if d.dim != len(p):
        raise ValueError(
            f"dimension mismatch: vector has {len(p)}, matrix has {d.dim}"
        )
    return ProbabilityVector((p.weights[..., None, :] @ d.entries)[..., 0, :])


def entropy_change(p: ProbabilityVector, p_final: ProbabilityVector) -> EntropyReport:
    """Entropy change from ``p`` to ``p_final`` by both formulas."""
    if len(p) != len(p_final):
        raise ValueError(
            f"dimension mismatch: {len(p)} versus {len(p_final)}"
        )
    n = np.arange(len(p))
    diff = p.weights - p_final.weights
    partial = np.cumsum(diff, axis=-1)
    rungs = np.log((2.0 * n + 3.0) / (2.0 * n + 1.0))
    return EntropyReport(
        s_initial=diagonal_entropy(p),
        s_final=diagonal_entropy(p_final),
        delta_direct=_unstacked(-_dot(diff, np.log(n + 0.5))),
        delta_by_parts=_unstacked(_dot(partial, rungs)),
        min_cumulative_gap=_unstacked(partial.min(axis=-1)),
    )


def check_doubly_stochastic(matrix, tol: float) -> TransitionMatrix:
    """Validate a raw square matrix, or a stack of them, as doubly
    stochastic.

    Every entry must be non-negative (a NaN entry is an ``entry``
    violation) and every row and column sum must lie within ``tol`` of
    1.  Raises :class:`DoublyStochasticError` carrying the worst
    violation and its location; in a stack the location names the matrix
    too.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(m >= 0.0):  # also false for NaN, which min() carries
        raise DoublyStochasticError("entry", *_worst(-m.min(axis=-1)))
    row_dev = np.abs(m.sum(axis=-1) - 1.0)
    col_dev = np.abs(m.sum(axis=-2) - 1.0)
    if row_dev.max() > tol or col_dev.max() > tol:
        if row_dev.max() >= col_dev.max():
            raise DoublyStochasticError("row", *_worst(row_dev))
        raise DoublyStochasticError("column", *_worst(col_dev))
    return TransitionMatrix(m)


def random_unistochastic(dim: int, seed, size: int | None = None) -> TransitionMatrix:
    """Random unistochastic matrix: squared entries of an orthogonal matrix.

    Draws a matrix of independent standard normals, orthonormalizes its
    columns, and squares entries element-wise.  The result is exactly
    unistochastic up to roundoff.  The orthogonal factor is not
    Haar-distributed (no sign correction is applied), which is
    sufficient for property testing.  ``seed`` is an int or a Generator.
    ``size`` gives a stack, drawn in one call and orthonormalized in one
    batched QR: the matrices of ``size`` draws in turn.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    shape = (dim, dim) if size is None else (size, dim, dim)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(shape))
    return check_doubly_stochastic(q * q, tol=1e-10)


def random_decreasing(dim: int, rng, size: int | None = None) -> ProbabilityVector:
    """Random decreasing population vector (sorted uniform weights); with
    ``size``, a stack of that many, the same as ``size`` draws in turn."""
    w = np.sort(rng.uniform(size=dim if size is None else (size, dim)))[..., ::-1]
    return ProbabilityVector(w / w.sum(axis=-1, keepdims=True))
