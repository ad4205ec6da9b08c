"""Independent numerical propagator for the driven oscillator.

Integrates H(t) = diag(n + 1/2) + f(t) * x in a truncated number basis
and exposes the squared propagator entries as transition probabilities.
This route never touches the Charlier closed forms, so it serves as the
cross-check oracle for :mod:`qentropy.quantum`.

Each step is Chin's fourth-order force-gradient factorization (Phys.
Lett. A 226, 344 (1997); time-dependent drives: Chin & Chen, J. Chem.
Phys. 117, 1409 (2002)): position kicks exp(-i c f(t) x) of weights
c = dt/6, 2 dt/3 and dt/6 at t, t + dt/2 and t + dt, with half free
steps exp(-i (n + 1/2) dt/2) between them.  Its gradient term, dt^3/72
times [V,[H0,V]] = f^2 [x,[H0,x]] in the middle kick, is a c-number for
a drive linear in x: [x,[H0,x]] = 1 - dim |dim-1><dim-1| in the
truncated basis.  The identity part is one scalar phase per step, so
the propagator keeps its phase, not only |U|^2; the remainder acts on
level dim-1 alone, whose mass the leak monitor bounds.

x maps even levels to odd ones, so x[even, odd] = A diag(s) B^T (for
odd dim A is square, with one unpaired x = 0 mode) diagonalises it in
pairs.  With the odd sector carried as i u_odd, a kick turns each pair
(A^T u_even, B^T (i u_odd)) by the real angle c f s_j.  The two halves
are held as one stacked state, so a kick is two batched products of
(A^T, B^T) and (A, B), half the multiply-adds of two full ones; for odd
dim the odd half carries one zero pad level, paired with A's unpaired
mode at angle 0.
LAPACK gives only s; A and B come from x's eigenvectors, Hermite
functions, by recurrence (:func:`_pairs`), so no LAPACK eigenvector
routine wakes OpenBLAS's worker thread and leaves it spinning.  Every
factor is unitary to roundoff by construction, so the Gram defect of the
propagated columns measures only accumulation, not scheme error.

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

#: Entries in one chunk of the kicks' cos and sin tables.
_TABLE_ENTRIES = 2**14


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


def _pairs(dim: int):
    """x's parity pairs ``(A, s, B)``: ``x[even, odd] B = A diag(s)``,
    with A and B orthogonal and s the singular values, largest first.

    The truncated x is the Jacobi matrix of the Hermite polynomials
    (Golub & Welsch, Math. Comp. 23, 221 (1969)), so its eigenvector v at
    the eigenvalue s_j is a Hermite function, ``v[n+1] = (sqrt(2) s_j
    v[n] - sqrt(n) v[n-1]) / sqrt(n+1)`` from ``v[0] = 1``, stable
    forward; a column is scaled by 2**-500 (exactly) whenever it grows
    past 2**500.  The even rows of v give column j of A, the odd rows
    column j of B, each set re-orthonormalised by one QR.  For odd dim,
    A's last column is the even part of the eigenvector at 0, the mode
    x[even, odd] leaves unpaired."""
    s = np.linalg.svd(_position(dim)[0::2, 1::2], compute_uv=False)
    roots = np.append(s, 0.0) if dim % 2 else s
    v = np.empty((dim, roots.size))
    v[0], v[1] = 1.0, math.sqrt(2.0) * roots
    for n in range(1, dim - 1):
        v[n + 1] = (math.sqrt(2.0) * roots * v[n] - math.sqrt(n) * v[n - 1]) \
            / math.sqrt(n + 1)
        big = np.abs(v[n + 1]) > 2.0**500
        if big.any():
            v[:n + 2, big] *= 2.0**-500
    return _orthonormal(v[0::2]), s, _orthonormal(v[1::2, :s.size])


def _orthonormal(columns: np.ndarray) -> np.ndarray:
    """Orthonormal columns of the square ``columns`` by QR, each turned to
    point as its original column does."""
    q, r = np.linalg.qr(columns)
    return q * np.sign(np.diag(r))


def propagate(drive, dim: int, steps: int, levels: int) -> PropagatorResult:
    """Evolve the number states ``0..levels-1`` over the drive interval.

    Returns the first ``levels`` columns of the propagator; ``levels=dim``
    gives the whole matrix.  The ``steps`` steps make ``2 * steps + 1``
    position kicks at ``k * duration / (2 * steps)`` (adjacent dt/6
    kicks merged; skipped where the force is 0) between half free
    steps, plus one scalar phase per step.  Fourth order in
    ``dt = duration / steps``; every factor is unitary to roundoff.
    The kicks turn x's parity pairs (:func:`_pairs`, no LAPACK
    eigenvector call).
    Deterministic; raises :class:`UnitarityError` unless the Gram defect
    ``max|U_c^H U_c - I|`` of the propagated columns ``U_c`` is at most
    :data:`UNITARITY_THRESHOLD` (raise ``steps`` or lower ``dim`` if that
    happens) or if the force is not finite at a kick.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if not 1 <= levels <= dim:
        raise ValueError(f"levels must be in 1..{dim}")
    dt = drive.duration / steps
    a, s, b = _pairs(dim)
    h = a.shape[0]  # levels per parity half
    if dim % 2:  # pad the odd half with a zero level that turns by angle 0
        b, s = np.pad(b, (0, 1)), np.append(s, 0.0)
        b[-1, -1] = 1.0
    to_pairs, from_pairs = np.stack([a.T, b.T]), np.stack([a, b])
    free = np.exp(-0.5j * dt * (np.arange(2 * h) + 0.5)).reshape(h, 2).T[..., None]
    times = np.linspace(0.0, drive.duration, 2 * steps + 1)  # ends exactly
    forces = np.broadcast_to(drive.force(times), times.shape)
    if not np.isfinite(forces).all():
        raise UnitarityError("the drive force is not finite")
    weights = np.full(times.size, dt / 3)
    weights[1::2], weights[[0, -1]] = 2 * dt / 3, dt / 6
    kicks = forces * weights
    # the gradient terms dt^3/72 f(t + dt/2)^2 of all steps: one phase
    phase = np.exp(1j * dt**3 / 72 * (forces[1::2] ** 2).sum())
    cols = phase * np.eye(2 * h, levels)
    x = np.stack([cols[0::2], 1j * cols[1::2]])  # even and odd halves
    chunk = max(1, _TABLE_ENTRIES // h)
    for first in range(0, kicks.size, chunk):
        turns = np.multiply.outer(kicks[first:first + chunk], s)[..., None]
        # sin signed per half: the even half turns by -sin, the odd by +sin
        signed = np.sin(turns)[:, None] * np.array([-1.0, 1.0])[:, None, None]
        tables = zip(range(first, kicks.size), np.cos(turns), signed)
        for k, cos, sin in tables:
            if k:
                x *= free
            if kicks[k]:  # zero force: the kick is 1, A A^T only nearly
                # A and B are real: turn the real and imaginary parts at
                # once through float views of the complex halves
                pairs = to_pairs @ x.view(float)
                turned = pairs[::-1] * sin
                pairs *= cos
                pairs += turned
                x = (from_pairs @ pairs).view(complex)
    u = np.empty((dim, levels), complex)
    u[0::2], u[1::2] = x[0], -1j * x[1, :dim // 2]
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
