"""Independent numerical propagator for the driven oscillator.

Integrates H(t) = diag(n + 1/2) + f(t) * x in a truncated number basis
and exposes the squared propagator entries as transition probabilities.
This route never touches the Charlier closed forms, so it serves as the
cross-check oracle for :mod:`qentropy.quantum`.

The position operator is diagonalised once, x = V diag(x_k) V^T.  Each
time slice is then a Strang split (Feit, Fleck & Steiger, J. Comput.
Phys. 47, 412 (1982)): half a free step exp(-i (n + 1/2) dt/2), the
position phase V exp(-i f(t_mid) dt x_k) V^T at the slice midpoint, and
another half free step.  Every factor is unitary to roundoff by
construction, so the product's unitarity defect measures only
accumulation, not scheme error.  The scheme is second-order accurate in
the slice width.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

#: Largest acceptable max-norm deviation of U*U^H from the identity.
UNITARITY_THRESHOLD = 1e-9

#: Fraction of the basis treated as headroom by the leak monitor.
_LEAK_FLOOR = 0.75
_LEAK_TOL = 1e-8


class UnitarityError(RuntimeError):
    """Propagation produced an unacceptable unitarity defect."""


class BasisLeakWarning(UserWarning):
    """Noticeable probability reached the top of the truncated basis."""


@dataclass(frozen=True)
class PropagatorResult:
    """Time-ordered evolution operator over one drive interval."""

    matrix: np.ndarray
    unitarity_defect: float
    dim: int
    steps: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _position(dim: int) -> np.ndarray:
    """Position operator in the number basis: <n|x|n+1> = sqrt((n+1)/2)."""
    coupling = np.sqrt((np.arange(dim - 1) + 1.0) / 2.0)
    return np.diag(coupling, 1) + np.diag(coupling, -1)


def propagate(drive, dim: int, steps: int) -> PropagatorResult:
    """Compose Strang-split slices over the drive interval.

    One eigendecomposition of the truncated position matrix serves every
    slice; each slice is half a free step, the position phase at the
    slice midpoint, and half a free step, with adjacent half steps
    merged.  Second order in ``duration / steps``; every factor is
    unitary to roundoff.  Deterministic; raises :class:`UnitarityError`
    unless the accumulated full-matrix defect is at most
    :data:`UNITARITY_THRESHOLD` (raise ``steps`` or lower ``dim`` if
    that happens; a non-finite drive also lands here).
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    dt = drive.duration / steps
    positions, modes = np.linalg.eigh(_position(dim))
    energies = np.arange(dim) + 0.5
    free_half = np.exp(-0.5j * dt * energies)[:, None]
    free_full = np.exp(-1j * dt * energies)[:, None]
    u = np.diag(free_half[:, 0])
    for j in range(steps):
        force = float(drive.force((j + 0.5) * dt))
        # V and V^T are real: apply them to the real and imaginary parts
        # at once through a float view of the complex matrix
        w = (modes.T @ u.view(float)).view(complex)
        w *= np.exp(-1j * force * dt * positions)[:, None]
        u = (modes @ w.view(float)).view(complex)
        u *= free_full if j + 1 < steps else free_half
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if not defect <= UNITARITY_THRESHOLD:
        raise UnitarityError(
            f"unitarity defect {defect:.3e} above {UNITARITY_THRESHOLD:.0e}; "
            f"raise steps (got {steps})"
        )
    return PropagatorResult(u, defect, dim, steps)


def numeric_transition_row(level: int, propagator: PropagatorResult) -> np.ndarray:
    """Transition probabilities out of ``level`` from a :func:`propagate`
    result.

    The drive is cyclic, so the final eigenbasis coincides with the
    initial number basis and the row is just the squared magnitudes of
    one propagator column.  ``level`` must stay below half the basis
    size ``propagator.dim`` to keep headroom against truncation
    reflection; a :class:`BasisLeakWarning` is emitted if more than 1e-8
    of the mass sits in the top quarter of the basis.
    """
    dim = propagator.dim
    if level < 0:
        raise ValueError("level must be non-negative")
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
