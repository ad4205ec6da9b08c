"""Independent numerical propagator for the driven oscillator.

Integrates H(t) = diag(n + 1/2) + f(t) * x in a truncated number basis
and exposes the squared propagator entries as transition probabilities.
This route never touches the Charlier closed forms, so it serves as the
cross-check oracle for :mod:`qentropy.quantum`.

The position operator is diagonalised once, x = V diag(x_k) V^T.  The
basic slice is a Strang split (Feit, Fleck & Steiger, J. Comput. Phys.
47, 412 (1982)): half a free step exp(-i (n + 1/2) dt/2), the position
phase V exp(-i f(t_mid) dt x_k) V^T at the slice midpoint, and another
half free step.  The slice is symmetric, so Yoshida's triple jump
(Phys. Lett. A 150, 262 (1990)) of three slices of widths g1 dt, g0 dt
and g1 dt, with g1 = 1/(2 - 2^(1/3)) and g0 = 1 - 2 g1 < 0, is accurate
to fourth order in the step width dt.  Every factor is unitary to
roundoff by construction, so the Gram defect of the propagated columns
measures only accumulation, not scheme error.

Only the columns that a caller reads are propagated: ``levels`` initial
number states, so the cost of a step scales with ``dim**2 * levels``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

#: Largest acceptable max-norm deviation from the identity of U_c^H U_c,
#: the Gram matrix of the propagated columns U_c.
UNITARITY_THRESHOLD = 1e-9

#: Fraction of the basis treated as headroom by the leak monitor.
_LEAK_FLOOR = 0.75
_LEAK_TOL = 1e-8

#: Yoshida's triple-jump weights: slices of g1, g0, g1 times the step.
_G1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_G0 = 1.0 - 2.0 * _G1


class UnitarityError(RuntimeError):
    """Propagation produced an unacceptable unitarity defect, or met a
    non-finite force, which no unitary step can carry."""


class BasisLeakWarning(UserWarning):
    """Noticeable probability reached the top of the truncated basis."""


@dataclass(frozen=True)
class PropagatorResult:
    """Leading ``levels`` columns of the evolution operator over one drive
    interval: column n is the final state grown from the number state n."""

    matrix: np.ndarray
    unitarity_defect: float
    dim: int
    steps: int
    levels: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _position(dim: int) -> np.ndarray:
    """Position operator in the number basis: <n|x|n+1> = sqrt((n+1)/2)."""
    coupling = np.sqrt((np.arange(dim - 1) + 1.0) / 2.0)
    return np.diag(coupling, 1) + np.diag(coupling, -1)


def propagate(drive, dim: int, steps: int, levels: int) -> PropagatorResult:
    """Evolve the number states ``0..levels-1`` over the drive interval.

    Returns the first ``levels`` columns of the propagator; ``levels=dim``
    gives the whole matrix.  Each of the ``steps`` steps is Yoshida's
    triple jump of the Strang slice: three position phases at their
    slice midpoints (all inside the step; skipped where the force is 0)
    between free steps, with adjacent free steps merged.  Fourth order in
    ``duration / steps``; every factor is unitary to roundoff.
    Deterministic; raises :class:`UnitarityError` unless the Gram defect
    ``max|U_c^H U_c - I|`` of the propagated columns ``U_c`` is at most
    :data:`UNITARITY_THRESHOLD` (raise ``steps`` or lower ``dim`` if that
    happens) or if the force is not finite at a slice midpoint.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if not 1 <= levels <= dim:
        raise ValueError(f"levels must be in 1..{dim}")
    dt = drive.duration / steps
    positions, modes = np.linalg.eigh(_position(dim))
    modes_t = np.ascontiguousarray(modes.T)  # faster matmuls than the view
    energies = np.arange(dim) + 0.5

    def free(width):
        return np.exp(-1j * width * dt * energies)[:, None]

    # free widths between the position phases: g1/2 before the first and
    # after the last, (g1 + g0)/2 inside a step, g1 across a step boundary
    inner, across, edge = free(0.5 * (_G1 + _G0)), free(_G1), free(0.5 * _G1)
    weights = np.array([_G1, _G0, _G1])
    offsets = np.cumsum(weights) - 0.5 * weights  # slice midpoints
    midpoints = (np.arange(steps)[:, None] + offsets).ravel() * dt
    forces = np.broadcast_to(drive.force(midpoints), 3 * steps)
    if not np.isfinite(forces).all():
        raise UnitarityError("the drive force is not finite")
    kicks = (forces * np.tile(weights * dt, steps)).tolist()
    gaps = [inner, inner, across] * steps
    gaps[-1] = edge
    u = edge * np.eye(dim, levels)
    for kick, gap in zip(kicks, gaps):
        if kick:  # zero force: the phase is exactly 1, V V^T only nearly
            # V and V^T are real: apply them to the real and imaginary
            # parts at once through a float view of the complex columns
            w = (modes_t @ u.view(float)).view(complex)
            w *= np.exp(-1j * kick * positions)[:, None]
            u = (modes @ w.view(float)).view(complex)
        u *= gap
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(levels))))
    if not defect <= UNITARITY_THRESHOLD:
        raise UnitarityError(
            f"unitarity defect {defect:.3e} above {UNITARITY_THRESHOLD:.0e}; "
            f"raise steps (got {steps})"
        )
    return PropagatorResult(u, defect, dim, steps, levels)


def numeric_transition_row(level: int, propagator: PropagatorResult) -> np.ndarray:
    """Transition probabilities out of ``level`` from a :func:`propagate`
    result.

    The drive is cyclic, so the final eigenbasis coincides with the
    initial number basis and the row is just the squared magnitudes of
    one propagator column.  ``level`` must be below the number of
    propagated columns ``propagator.levels``, and below half the basis
    size ``propagator.dim`` to keep headroom against truncation
    reflection; a :class:`BasisLeakWarning` is emitted if more than 1e-8
    of the mass sits in the top quarter of the basis.
    """
    dim = propagator.dim
    if level < 0:
        raise ValueError("level must be non-negative")
    if level >= propagator.levels:
        raise ValueError(f"level {level} was not propagated "
                         f"(levels={propagator.levels})")
    if level >= dim / 2:
        raise ValueError(f"level {level} needs dim > {2 * level} for headroom")
    row = np.abs(propagator.matrix[:, level]) ** 2
    leaked = float(row[int(math.floor(_LEAK_FLOOR * dim)):].sum())
    if leaked > _LEAK_TOL:
        warnings.warn(
            f"{leaked:.2e} of the mass beyond {_LEAK_FLOOR:.0%} of the basis; "
            f"raise dim (got {dim})",
            BasisLeakWarning,
            stacklevel=2,
        )
    return row
