"""Quadrature helpers used by the classical-oscillator formulas and by
the kernel check of :mod:`qentropy.verify`.

Two tools cover everything this package integrates:

* a tanh-sinh (double-exponential) rule for integrands with an
  integrable singularity at one endpoint (logarithmic endpoints show up
  in both the microcanonical log-average and the canonical entropy
  change), and
* the plain periodic trapezoidal rule, which is spectrally accurate for
  smooth 2*pi-periodic integrands and exact for low-order trigonometric
  polynomials such as the oscillator moments.

The tanh-sinh rule reports node positions both as coordinates and as
distances from each endpoint; the distance form keeps full relative
precision for nodes that cluster within 1e-20 of a singular endpoint.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class QuadratureWarning(UserWarning):
    """Emitted when an internal error estimate exceeds the requested bound."""


_T_MAX = 4.0  # truncation of the double-exponential sum; tail weight ~ 1e-36


@lru_cache(maxsize=32)
def tanh_sinh_rule(n_half: int):
    """Tanh-sinh nodes and weights on (-1, 1).

    Parameters
    ----------
    n_half : int
        Number of nodes on each side of the origin; the rule uses
        ``2*n_half + 1`` points with mesh ``h = _T_MAX/n_half``.

    Returns
    -------
    x, w : ndarray
        Node coordinates in (-1, 1) and positive weights.
    gap_lo, gap_hi : ndarray
        ``1 + x`` and ``1 - x`` evaluated in a cancellation-free form,
        so endpoint distances are exact even when ``x`` rounds to +-1.
    coarse : ndarray of bool
        Marks the embedded half-resolution rule (every other node);
        doubling those weights gives the mesh-2h estimate for free.
    """
    h = _T_MAX / n_half
    k = np.arange(-n_half, n_half + 1)
    t = k * h
    s = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(s)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    gap_hi = 2.0 / (np.exp(2.0 * s) + 1.0)
    gap_lo = 2.0 / (np.exp(-2.0 * s) + 1.0)
    coarse = (k % 2) == 0
    for arr in (x, w, gap_lo, gap_hi, coarse):
        arr.setflags(write=False)
    return x, w, gap_lo, gap_hi, coarse


def integrate_left_singular(f, upper: float, n_half: int):
    """Integrate ``f`` over ``(0, upper]`` with a singularity allowed at 0.

    ``f`` must accept an ndarray of strictly positive abscissae; the
    abscissae near 0 are computed as exact endpoint distances, so
    ``f`` may contain ``log(x)`` or similar integrable blow-ups.  It may
    return a stack of integrands, shape ``(..., len(x))``; each is summed
    by the batched product ``(..., 1, N) @ (N, 1)``, the same BLAS dot a
    1-d pair uses, so it gets what it would alone (a 2-d gemv rounds
    differently).

    Returns
    -------
    value, error_estimate : float, or ndarray for a stack
        The integral and the difference against the embedded
        half-resolution rule.
    """
    if upper <= 0.0:
        raise ValueError("upper limit must be positive")
    _, w, gap_lo, _, coarse = tanh_sinh_rule(n_half)
    half = 0.5 * upper
    # contiguous rows, also from compress: BLAS sums a strided row differently
    fx = np.ascontiguousarray(f(half * gap_lo))[..., None, :]
    value = half * (fx @ w[:, None])[..., 0, 0]
    coarse_fx = np.compress(coarse, fx, axis=-1)
    coarse_value = half * 2.0 * (coarse_fx @ w[coarse, None])[..., 0, 0]
    error = np.abs(value - coarse_value)
    return (value, error) if value.ndim else (float(value), float(error))


def periodic_average(f, nodes: int) -> float:
    """Average of ``f`` over one period of 2*pi via the trapezoidal rule.

    Exact (to roundoff) whenever ``f`` is a trigonometric polynomial of
    degree below ``nodes``.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    phi = 2.0 * math.pi * np.arange(nodes) / nodes
    return float(np.mean(f(phi)))
