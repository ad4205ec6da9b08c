"""Exact classical solution of the linearly driven harmonic oscillator.

Units are fixed to m = omega = hbar = 1, so the phase-space volume
enclosed by an orbit equals its energy and a single non-negative number
("volume" below) labels each orbit.  A cyclic force f(t) acting on
[0, duration] maps an orbit of volume ``v`` to

    v_final = v + w + 2*sqrt(v*w)*cos(psi)

where ``psi`` is the orbit's initial phase shifted by the drive's, and
the work ``w = |response|**2 / 2`` comes from the complex drive response

    response = integral_0^duration f(t) exp(i t) dt.

A uniform initial phase makes ``psi`` uniform, so the shift drops out of
every phase average: the transition kernel between volumes, its first
two moments (v + w and 2*v*w), and the log-average ln(max(v, w)), which
is the microcanonical entropy after the drive.

The drive is the half-sine pulse f(t) = amplitude*sin(pi*t/duration),
whose response has a closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import QuadratureWarning, integrate_left_singular, periodic_average

#: pi minus its nearest double, so ``(math.pi - T) + _PI_LOW`` is the
#: true ``pi - T`` to within one rounding.
_PI_LOW = 1.2246467991473532e-16

#: sup over durations of work/amplitude**2 for the half-sine pulse,
#: attained near duration 4.2953 and rounded up in the last digit; the
#: tests recompute it by a two-scan search over durations up to 200.
WORK_BOUND_COEFFICIENT = 1.4714850659

_QUAD_ERROR_BOUND = 1e-8
_CANONICAL_N_HALF = 256
#: Works integrated at once by :func:`canonical_entropy_change`: 256 rows
#: of the 513 tanh-sinh nodes, about 1 MB.
_CANONICAL_CHUNK = 256


def _check_duration(duration) -> None:
    if not np.all((0.0 < np.asarray(duration)) & (np.asarray(duration) < math.inf)):
        raise ValueError("every duration must be positive and finite")


def _check_non_negative(*values: float) -> None:
    if not all(0.0 <= value < math.inf for value in values):
        raise ValueError(f"volumes and work must be finite and non-negative: {values}")


@dataclass(frozen=True)
class HalfSineDrive:
    """Half-sine pulse: amplitude * sin(pi*t/duration) on [0, duration]."""

    amplitude: float
    duration: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        _check_duration(self.duration)

    def force(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.duration)
        out = np.where(
            inside, self.amplitude * np.sin(math.pi * t / self.duration), 0.0
        )
        return out if out.ndim else float(out)


class MicrocanonicalStats(NamedTuple):
    mean: float
    variance: float
    log_mean: float


def _half_sine_response(amplitude: float, duration):
    """Real and imaginary parts of ``a pi T (1 + exp(iT)) / (pi**2 - T**2)``
    per duration T, written with the exact identity ``1 + exp(iT) =
    2 cos(T/2) exp(iT/2)`` as ``a pi T 2 cos(T/2) exp(iT/2) / ((pi - T)
    (pi + T))``, which cancels nowhere.  Near T = pi, ``cos(T/2)`` and
    ``pi - T`` both vanish like the distance to the true pi; ``pi - T``
    carries the low part of pi, so it is never 0 for a float T and the
    quotient stays accurate with no branch."""
    t = np.asarray(duration, dtype=float)
    half = 0.5 * t
    cos_half = np.cos(half)
    scale = amplitude * math.pi * t * 2.0 * cos_half / (
        ((math.pi - t) + _PI_LOW) * (math.pi + t)
    )
    return scale * cos_half, scale * np.sin(half)


def _work_half_sine_direct(amplitude: float, duration: float) -> float:
    """Unguarded closed form; 0/0 at duration = pi. Kept for validation."""
    return (
        amplitude**2
        * math.pi**2
        * duration**2
        * (1.0 + math.cos(duration))
        / (math.pi**2 - duration**2) ** 2
    )


def work_half_sine(amplitude: float, durations):
    """Work done by the half-sine pulse: a float for one duration, an
    array of the same shape for an array of them.  Half the squared
    modulus of :func:`_half_sine_response`, equal to ``amplitude**2 pi**2
    T**2 (1 + cos T) / (pi**2 - T**2)**2`` and to ``amplitude**2 pi**2 / 8``
    at T = pi."""
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    _check_duration(durations)
    works = 0.5 * np.hypot(*_half_sine_response(amplitude, durations)) ** 2
    return works if works.ndim else float(works)


def kernel_density(final_vol, initial_volume, work):
    """Transition density between enclosed volumes.

    ``(1/pi) / sqrt(4*v*w - (v' - v - w)**2)`` strictly inside the
    support, 0 outside; the endpoints themselves map to 0 (the
    singularity there is integrable and carries no mass).  Broadcasts
    over all three arguments, each entry the same as computed alone.
    Every initial volume and work must be finite; degenerate drives
    (``work == 0``) or orbits (``initial_volume == 0``) produce a delta
    distribution and are rejected; callers must special-case them.
    """
    v0, w = np.asarray(initial_volume, dtype=float), np.asarray(work, dtype=float)
    if not np.all((0.0 < v0) & (v0 < math.inf) & (0.0 < w) & (w < math.inf)):
        raise ValueError("kernel density needs finite initial_volume > 0 and work > 0")
    v = np.asarray(final_vol, dtype=float)
    disc = 4.0 * v0 * w - (v - v0 - w) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(disc > 0.0, 1.0 / (math.pi * np.sqrt(np.abs(disc))), 0.0)
    return dens if dens.ndim else float(dens)


def microcanonical_stats(initial_volume: float, work: float) -> MicrocanonicalStats:
    """Closed-form phase-averaged moments of the final volume.

    mean = v + w, variance = 2*v*w, log-mean = ln(max(v, w)).  The
    log-mean requires max(v, w) > 0.
    """
    _check_non_negative(initial_volume, work)
    top = max(initial_volume, work)
    if top <= 0.0:
        raise ValueError("log-mean undefined for initial_volume = work = 0")
    return MicrocanonicalStats(
        mean=initial_volume + work,
        variance=2.0 * initial_volume * work,
        log_mean=math.log(top),
    )


def microcanonical_quadrature(initial_volume: float, work: float,
                              nodes: int) -> MicrocanonicalStats:
    """Phase-average moments by quadrature instead of the closed forms.

    The mean and variance use the periodic trapezoidal rule (exact for
    these trigonometric integrands).  The log-average is split at its
    singular phase and integrated with a tanh-sinh rule, which keeps
    full accuracy through the logarithmic blow-up that appears on the
    ``initial_volume == work`` diagonal.  A :class:`QuadratureWarning`
    is emitted if the internal error estimate exceeds 1e-8.
    """
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    _check_non_negative(initial_volume, work)
    if max(initial_volume, work) <= 0.0:
        raise ValueError("log-mean undefined for initial_volume = work = 0")
    if work == 0.0:
        return MicrocanonicalStats(initial_volume, 0.0, math.log(initial_volume))
    if initial_volume == 0.0:
        return MicrocanonicalStats(work, 0.0, math.log(work))

    spread = 2.0 * math.sqrt(initial_volume * work)
    center = initial_volume + work

    def volume(phi):
        return center + spread * np.cos(phi)

    mean = periodic_average(volume, nodes)
    second = periodic_average(lambda phi: volume(phi) ** 2, nodes)
    variance = second - mean * mean

    # (1/2pi) int_0^2pi ln(center + spread cos phi) dphi, split at the
    # singular phase phi = pi and written against the exact gap
    # (sqrt(v) - sqrt(w))**2 to avoid cancellation near the diagonal.
    gap = (math.sqrt(initial_volume) - math.sqrt(work)) ** 2

    def log_integrand(u):
        return np.log(gap + 2.0 * spread * np.sin(0.5 * u) ** 2)

    raw, err = integrate_left_singular(log_integrand, math.pi, max(nodes // 2, 8))
    if err > _QUAD_ERROR_BOUND:
        warnings.warn(
            f"log-average estimate error {err:.2e} above {_QUAD_ERROR_BOUND:.0e}; "
            f"increase nodes (got {nodes})",
            QuadratureWarning,
            stacklevel=2,
        )
    return MicrocanonicalStats(mean, variance, raw / math.pi)


def canonical_entropy_change(inv_temperature: float, work):
    """Entropy change of a thermal orbit ensemble driven with given work;
    for an array of works, an array of changes, each what the work gets
    alone.

    Evaluates ``-s * integral_0^1 exp(-s*x) ln(x) dx`` with
    ``s = inv_temperature * work`` using an endpoint-robust tanh-sinh
    rule; the result is non-negative, tends to ``s`` as ``s -> 0``, and
    is exactly 0 for an undriven ensemble.  Works are integrated
    :data:`_CANONICAL_CHUNK` at a time.
    """
    if not 0.0 < inv_temperature < math.inf:
        raise ValueError("inverse temperature must be positive and finite")
    works = np.asarray(work, dtype=float)
    if not np.all((0.0 <= works) & (works < math.inf)):
        raise ValueError("work must be finite and non-negative")
    s = inv_temperature * works.reshape(-1, 1)
    changes = np.zeros(s.size)
    for start in range(0, s.size, _CANONICAL_CHUNK):
        chunk = s[start : start + _CANONICAL_CHUNK]
        # the integral is negative, so an undriven s = 0 gives +0.0
        value, _ = integrate_left_singular(lambda x: np.exp(-chunk * x) * np.log(x),
                                           1.0, _CANONICAL_N_HALF)
        changes[start : start + chunk.size] = -chunk[:, 0] * value
    return changes.reshape(works.shape) if works.ndim else float(changes[0])
