"""Machine-checkable invariant suite behind ``qentropy verify``.

Each check is a pure function returning a :class:`CheckResult`; the CLI
renders one line per check and sets the exit status.  Tests reuse the
same functions so the command and the suite cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classical, quantum, schrodinger
from .majorization import (
    DoublyStochasticError,
    ProbabilityVector,
    check_doubly_stochastic,
    diagonal_entropy,
    entropy_change,
    evolve_distribution,
    random_decreasing,
    random_unistochastic,
    von_neumann_entropy,
)

_THEOREM_DIMS = (2, 8, 16, 64)
_WORK_GRID = (0.1, 1.0, 10.0, 44.41321980490211)
_LEVEL_GRID = (0, 3, 17, 50)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status} {self.name} observed={self.observed:.6e} "
            f"bound={self.bound:.6e}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


def _trial_seeds(seed: int, trials: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)


def theorem_positivity(seed: int, trials: int) -> CheckResult:
    """Entropy never drops for decreasing populations under any
    unistochastic evolution; every cumulative gap stays non-negative."""
    seeds = _trial_seeds(seed, trials)
    worst = math.inf
    for i, trial_seed in enumerate(seeds):
        dim = _THEOREM_DIMS[i % len(_THEOREM_DIMS)]
        rng = np.random.default_rng(trial_seed)
        p = random_decreasing(dim, rng)
        d = random_unistochastic(dim, int(trial_seed) ^ 0x5EED)
        report = entropy_change(p, evolve_distribution(p, d))
        worst = min(worst, report.delta_direct, report.min_cumulative_gap)
    return CheckResult(
        "theorem_positivity", worst >= -1e-12, worst, -1e-12,
        f"{trials} trials, dims {_THEOREM_DIMS}",
    )


def byparts_identity(seed: int, pairs: int) -> CheckResult:
    """Direct and summation-by-parts entropy changes agree for arbitrary
    (unordered) population pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        dim = int(rng.integers(2, 65))
        p = ProbabilityVector(rng.dirichlet(np.ones(dim)))
        q = ProbabilityVector(rng.dirichlet(np.ones(dim)))
        report = entropy_change(p, q)
        worst = max(worst, abs(report.delta_direct - report.delta_by_parts))
    return CheckResult(
        "byparts_identity", worst <= 1e-10, worst, 1e-10, f"{pairs} pairs"
    )


def negative_control() -> CheckResult:
    """A column-sum violation must be rejected."""
    try:
        check_doubly_stochastic([[0.9, 0.1], [0.2, 0.8]], tol=1e-9)
    except DoublyStochasticError as exc:
        return CheckResult(
            "negative_control", True, exc.deviation, 0.1,
            f"rejected at {exc.axis} {exc.index}",
        )
    return CheckResult("negative_control", False, 0.0, 0.1, "accepted bad matrix")


def von_neumann_contrast(seed: int) -> CheckResult:
    """The level-counting entropy moves while the spectrum entropy,
    fixed by unitarity, is computed from the initial populations alone."""
    rng = np.random.default_rng(seed)
    p = random_decreasing(12, rng)
    d = random_unistochastic(12, seed + 1)
    evolved = evolve_distribution(p, d)
    moved = diagonal_entropy(evolved) - diagonal_entropy(p)
    constant = von_neumann_entropy(p)
    return CheckResult(
        "von_neumann_contrast", abs(moved) > 1e-6, abs(moved), 1e-6,
        f"spectrum entropy stays {constant:.6f}",
    )


def row_normalization() -> CheckResult:
    """Adaptive rows capture all but the tail-mass target."""
    worst = 0.0
    for work in _WORK_GRID:
        for level in _LEVEL_GRID:
            row = quantum.transition_row(level, work)
            worst = max(worst, 1.0 - row.captured_mass)
    return CheckResult("row_normalization", worst <= 1e-12, worst, 1e-12)


def quantum_moments() -> CheckResult:
    """Row mean and variance match level + work and (2*level + 1)*work."""
    worst = 0.0
    for work in _WORK_GRID:
        for level in _LEVEL_GRID:
            stats = quantum.microcanonical_stats(level, work)
            worst = max(
                worst,
                abs(stats.mean - (level + work)) / (level + work),
                abs(stats.variance - (2.0 * level + 1.0) * work)
                / ((2.0 * level + 1.0) * work),
            )
    return CheckResult("quantum_moments", worst <= 1e-8, worst, 1e-8)


def charlier_consistency() -> CheckResult:
    """Stable evaluator against the exact direct sum on small indices.

    Entries below 1e-25 on both routes sit at exact polynomial nodes
    and count as zero instead of entering the relative comparison.
    """
    worst = 0.0
    for work in (0.5, 2.0, 10.0):
        block = quantum.transition_block(0, 20, work, 20)
        for n in range(21):
            for m in range(21):
                direct = math.exp(
                    -work
                    + (m + n) * math.log(work)
                    - math.lgamma(m + 1)
                    - math.lgamma(n + 1)
                ) * quantum.charlier_direct(m, n, work) ** 2
                stable = float(block[n, m])
                scale = max(direct, stable)
                if scale > 1e-25:
                    worst = max(worst, abs(direct - stable) / scale)
    return CheckResult("charlier_consistency", worst <= 1e-10, worst, 1e-10)


def kernel_stochasticity() -> CheckResult:
    """Kernel mass equals 1 along both arguments (angle substitution)."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    psi = 0.5 * math.pi * (nodes + 1.0)
    w_psi = 0.5 * math.pi * weights
    worst = 0.0
    for a in (0.1, 3.1622776601683795, 100.0):
        for b in (0.1, 3.1622776601683795, 100.0):
            # mass over final volumes at fixed initial volume a
            spread = 2.0 * math.sqrt(a * b)
            theta = a + b + spread * np.cos(psi)
            jac = spread * np.sin(psi)
            row_mass = float(np.dot(w_psi, classical.kernel_density(theta, a, b) * jac))
            # mass over initial volumes at fixed final volume a
            phi = a + b + spread * np.cos(psi)
            col_mass = float(
                np.dot(
                    w_psi,
                    np.array([classical.kernel_density(a, v, b) for v in phi]) * jac,
                )
            )
            worst = max(worst, abs(row_mass - 1.0), abs(col_mass - 1.0))
    return CheckResult("kernel_stochasticity", worst <= 1e-8, worst, 1e-8)


def quadrature_vs_closed() -> CheckResult:
    """Quadrature moments agree with the closed forms, diagonal included."""
    grid = np.logspace(-1, 2, 4)
    worst = 0.0
    for a in grid:
        for b in grid:
            exact = classical.microcanonical_stats(a, b)
            quad = classical.microcanonical_quadrature(a, b, nodes=512)
            worst = max(
                worst,
                abs(quad.mean - exact.mean) / exact.mean,
                abs(quad.variance - exact.variance) / max(exact.variance, 1.0),
                abs(quad.log_mean - exact.log_mean),
            )
    return CheckResult("quadrature_vs_closed", worst <= 1e-6, worst, 1e-6)


def canonical_small_work() -> CheckResult:
    """Classical canonical entropy change tends to beta*work from above."""
    s = 1e-3
    value = classical.canonical_entropy_change(2.0, s / 2.0)
    deviation = abs(value / s - 1.0)
    return CheckResult("canonical_small_work", deviation <= 0.01, deviation, 0.01)


def thomson_bound() -> CheckResult:
    """Work is non-negative and below the envelope bound at every duration."""
    amplitude = 6.0
    durations = np.arange(1, 1201) * 0.05
    works = classical.work_half_sine(amplitude, durations)
    cap = classical.WORK_BOUND_COEFFICIENT * amplitude**2
    passed = bool(works.min() >= 0.0 and works.max() <= cap)
    return CheckResult(
        "thomson_bound", passed, float(works.max()), cap,
        f"min work {works.min():.3e}",
    )


def oracle_agreement() -> CheckResult:
    """Propagator rows against the Charlier formula on a reduced instance."""
    drive = classical.HalfSineDrive(amplitude=2.0, duration=2.0)
    work = classical.work_half_sine(2.0, 2.0)
    result = schrodinger.propagate(drive, dim=140, steps=600, levels=11)
    formula = quantum.transition_block(0, 10, work, 10)
    worst = 0.0
    for n in range(11):
        numeric = schrodinger.numeric_transition_row(n, result)
        worst = max(worst, float(np.abs(numeric[:11] - formula[n]).max()))
    return CheckResult(
        "oracle_agreement", worst <= 1e-6, worst, 1e-6,
        f"dim=140 steps=600 levels=11 defect={result.unitarity_defect:.1e}",
    )


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Full verification suite in a deterministic order."""
    return [
        theorem_positivity(seed, trials),
        byparts_identity(seed + 1, max(trials, 500)),
        negative_control(),
        von_neumann_contrast(seed + 2),
        row_normalization(),
        quantum_moments(),
        charlier_consistency(),
        kernel_stochasticity(),
        quadrature_vs_closed(),
        canonical_small_work(),
        thomson_bound(),
        oracle_agreement(),
    ]
