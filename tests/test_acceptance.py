"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two sub-clauses are asserted exactly as specified although measurement
shows they cannot hold (see the corresponding failure messages): the
single-level entropy gain is genuinely negative above the corner
``level + 1/2 = work`` (confirmed independently by exact rational
arithmetic and by the Schrodinger propagator, and explained by the
first-order coefficient ``(n+1) ln((n+3/2)/(n+1/2)) - n ln((n+1/2)/(n-1/2))``
being negative for every n >= 1).  A single-level start is not a
decreasing population, so the entropy-increase theorem never covered it.
"""

import math
import time

import numpy as np
import pytest

from qentropy import classical, quantum, schrodinger, verify
from qentropy.majorization import (
    entropy_change,
    evolve_distribution,
    random_decreasing,
    random_unistochastic,
)

T_GRID = 0.25 + 0.25 * np.arange(120)  # 0.25 .. 30.00


def report(name: str, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {name} -- {detail}")
    return passed


def test_criterion_1_theorem_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_delta = math.inf
    worst_partial = math.inf
    for dim in (2, 8, 16, 64):
        for _ in range(250):
            p = random_decreasing(dim, rng)
            d = random_unistochastic(dim, int(rng.integers(0, 2**63)))
            rep = entropy_change(p, evolve_distribution(p, d))
            worst_delta = min(worst_delta, rep.delta_direct)
            worst_partial = min(worst_partial, rep.min_cumulative_gap)
    elapsed = time.perf_counter() - start
    ok = worst_delta >= -1e-12 and worst_partial >= -1e-12 and elapsed < 30.0
    assert report(
        "criterion 1 theorem suite",
        ok,
        f"1000 pairs, min delta {worst_delta:.2e}, min partial sum "
        f"{worst_partial:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_algebraic_identity():
    start = time.perf_counter()
    check = verify.byparts_identity(202, 10_000)  # bound 1e-10
    elapsed = time.perf_counter() - start
    ok = check.passed and elapsed < 5.0
    assert report(
        "criterion 2 algebraic identity",
        ok,
        f"10^4 unordered pairs, worst gap {check.observed:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_charlier_validation():
    works = (0.5, 2.0, 10.0)
    worst_mass = 0.0
    worst_moment = 0.0
    for work in works:
        for level in range(51):
            row = quantum.transition_row(level, work)
            worst_mass = max(worst_mass, 1.0 - row.captured_mass)
            m = np.arange(row.probabilities.size)
            mean = float(np.dot(m, row.probabilities))
            variance = float(np.dot((m - mean) ** 2, row.probabilities))
            worst_moment = max(
                worst_moment,
                abs(mean - (level + work)) / (level + work),
                abs(variance - (2.0 * level + 1.0) * work)
                / ((2.0 * level + 1.0) * work),
            )
    worst_match = 0.0
    for work in works:
        for n in range(26):
            for m in range(26):
                direct = math.exp(
                    -work
                    + (m + n) * math.log(work)
                    - math.lgamma(m + 1)
                    - math.lgamma(n + 1)
                ) * quantum.charlier_direct(m, n, work) ** 2
                stable = quantum.transition_probability(n, m, work)
                scale = max(direct, stable)
                if scale > 1e-25:  # exact polynomial nodes count as zero
                    worst_match = max(worst_match, abs(direct - stable) / scale)
    ok = worst_mass <= 1e-12 and worst_moment <= 1e-8 and worst_match <= 1e-10
    assert report(
        "criterion 3 charlier validation",
        ok,
        f"mass deficit {worst_mass:.2e}, moments rel {worst_moment:.2e}, "
        f"stable-vs-direct rel {worst_match:.2e}",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    drive = classical.HalfSineDrive(6.0, 2.0)
    work = classical.work_half_sine(6.0, 2.0)
    result = schrodinger.propagate(drive, dim=300, steps=2000, levels=21)
    worst = 0.0
    for n in range(21):
        row = schrodinger.numeric_transition_row(n, result)
        for m in range(21):
            worst = max(
                worst, abs(row[m] - quantum.transition_probability(n, m, work))
            )
    elapsed = time.perf_counter() - start
    ok = result.unitarity_defect <= 1e-9 and worst <= 1e-6 and elapsed < 120.0
    assert report(
        "criterion 4 oracle equivalence",
        ok,
        f"defect {result.unitarity_defect:.1e}, max |numeric - formula| "
        f"{worst:.2e}, {elapsed:.0f} s",
    )


def test_criterion_5_classical_identities():
    grid = np.logspace(-1, 2, 5)
    worst_stat = 0.0
    for v in grid:
        for w in grid:
            exact = classical.microcanonical_stats(v, w)
            quad = classical.microcanonical_quadrature(v, w, nodes=512)
            worst_stat = max(
                worst_stat,
                abs(quad.mean - exact.mean) / exact.mean,
                abs(quad.variance - exact.variance) / exact.variance,
                abs(quad.log_mean - exact.log_mean),
            )
    nodes, weights = np.polynomial.legendre.leggauss(96)
    psi = 0.5 * math.pi * (nodes + 1.0)
    w_psi = 0.5 * math.pi * weights
    worst_mass = 0.0
    for v in grid:
        for w in grid:
            spread = 2.0 * math.sqrt(v * w)
            jac = spread * np.sin(psi)
            theta = v + w + spread * np.cos(psi)
            row = float(np.dot(w_psi, classical.kernel_density(theta, v, w) * jac))
            col = float(np.dot(
                w_psi,
                np.array([classical.kernel_density(v, t, w) for t in theta]) * jac,
            ))
            worst_mass = max(worst_mass, abs(row - 1.0), abs(col - 1.0))
    ok = worst_stat <= 1e-6 and worst_mass <= 1e-8
    assert report(
        "criterion 5 classical identities",
        ok,
        f"5x5 grid incl. diagonal, worst stat dev {worst_stat:.2e}, "
        f"worst kernel mass dev {worst_mass:.2e}",
    )


def test_criterion_6_figure1_regression():
    work = 10.0
    corner = work - 0.5
    gaps = {}
    clausius_floor = 0.0
    for level in range(81):
        gain = quantum.transition_row(level, work, top=1000).gain
        gaps[level] = gain + math.log(level + 0.5) - math.log(max(level + 0.5, work))
        if level <= 40:
            clausius_floor = min(clausius_floor, gain)
    clausius_ok = clausius_floor >= 0.0

    monotone_ok = True
    breaks = []
    for level in range(10, 80):  # moving right, away from the corner
        if abs(gaps[level + 1]) > abs(gaps[level]) + 1e-12:
            monotone_ok = False
            breaks.append(level + 1)
    for level in range(9, 0, -1):  # moving left, away from the corner
        if abs(gaps[level - 1]) > abs(gaps[level]) + 1e-12:
            monotone_ok = False
            breaks.append(level - 1)

    far_ok = abs(gaps[80]) <= 0.02

    ok = clausius_ok and monotone_ok and far_ok
    assert report(
        "criterion 6 figure 1 regression",
        ok,
        f"min quantum-vs-ln(n+1/2) gain {clausius_floor:.2e} (>= 0 required), "
        f"|gap| monotone away from corner {corner}: {monotone_ok} "
        f"(breaks at {breaks[:4]}), |gap(80)| = {abs(gaps[80]):.2e} <= 0.02",
    ), (
        "single-level entropy gain is negative above the corner "
        f"(min {clausius_floor:.3e} over n <= 40) and |quantum - classical| "
        f"is not monotone through its sign change near n + 1/2 = work; "
        "confirmed by exact rational arithmetic and the propagator oracle"
    )


def test_criterion_7_figure2_regression():
    level = 2
    start_volume = level + 0.5
    quantum_min = math.inf
    quantum_argmin = None
    flat_zero_ok = True
    for duration in T_GRID:
        work = classical.work_half_sine(6.0, float(duration))
        classical_delta = math.log(max(start_volume, work)) - math.log(start_volume)
        quantum_delta = quantum.transition_row(level, work, top=1000).gain
        if quantum_delta < quantum_min:
            quantum_min, quantum_argmin = quantum_delta, float(duration)
        if work <= start_volume and classical_delta != 0.0:
            flat_zero_ok = False
    positivity_ok = quantum_min >= -1e-9

    adiabatic_ok = True
    for k in (1, 2, 3, 4):
        duration = (2 * k + 1) * math.pi
        work = classical.work_half_sine(6.0, duration)
        classical_delta = math.log(max(start_volume, work)) - math.log(start_volume)
        quantum_delta = quantum.transition_row(level, work, top=1000).gain
        if abs(classical_delta) > 1e-9 or abs(quantum_delta) > 1e-9:
            adiabatic_ok = False

    series_ok = True
    series_dev = 0.0
    for duration in (math.pi - 1e-4, math.pi + 1e-4):
        branched = classical.work_half_sine(6.0, duration)
        direct = classical._work_half_sine_direct(6.0, duration)
        series_dev = max(series_dev, abs(direct - branched) / branched)
    series_ok = series_dev <= 1e-6

    ok = positivity_ok and flat_zero_ok and adiabatic_ok and series_ok
    assert report(
        "criterion 7 figure 2 regression",
        ok,
        f"min quantum delta {quantum_min:.2e} at T = {quantum_argmin} "
        f"(>= -1e-9 required), classical flat zero {flat_zero_ok}, envelope "
        f"minima vanish {adiabatic_ok}, series-vs-direct rel {series_dev:.2e}",
    ), (
        f"quantum microcanonical entropy change from level {level} is "
        f"genuinely negative for weak drives (min {quantum_min:.3e} at "
        f"T = {quantum_argmin}); a single level is not a decreasing "
        "population, so the theorem's hypothesis is not met there"
    )


def test_criterion_8_figure3_regression():
    start = time.perf_counter()
    beta = 2.0
    classical_min = math.inf
    quantum_min = math.inf
    small_rows = 0
    small_dev = 0.0
    for duration in T_GRID:
        work = classical.work_half_sine(6.0, float(duration))
        classical_delta = classical.canonical_entropy_change(beta, work)
        quantum_delta = quantum.canonical_sum(beta, work, 100, top=1000).value
        classical_min = min(classical_min, classical_delta)
        quantum_min = min(quantum_min, quantum_delta)
        scaled = beta * work
        if scaled <= 1e-3:
            small_rows += 1
            small_dev = max(small_dev, abs(classical_delta / scaled - 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        classical_min >= 0.0
        and quantum_min >= 0.0
        and small_rows > 0
        and small_dev <= 0.01
    )
    assert report(
        "criterion 8 figure 3 regression",
        ok,
        f"min classical {classical_min:.2e}, min quantum {quantum_min:.2e}, "
        f"{small_rows} small-work rows within {small_dev:.2e} of beta*work, "
        f"{elapsed:.0f} s",
    )


def test_criterion_9_thomson():
    amplitude = 6.0
    durations = np.concatenate([T_GRID, 0.01 + 0.01 * np.arange(6000)])
    works = np.array(
        [classical.work_half_sine(amplitude, float(t)) for t in durations]
    )
    cap = classical.WORK_BOUND_COEFFICIENT * amplitude**2
    ok = bool(works.min() >= 0.0 and works.max() <= cap)
    assert report(
        "criterion 9 thomson",
        ok,
        f"min work {works.min():.2e} >= 0, max work {works.max():.6f} <= "
        f"bound {cap:.6f}",
    )
