"""Shared generators for randomized property tests.

Random trial profiles come in two flavors: interior-supported sampled
profiles (vanishing to high order at the grid start, Gaussian-dead at the
end) for the raw/reduced identity checks, and analytic Gaussian-kernel
mixtures for closed-form evaluations.
"""

import numpy as np
import pytest

from upsharp.profiles import AnalyticProfile, MixtureProfile, SampledProfile

IDENTITY_GRID = np.linspace(0.003, 12.0, 4096)


def interior_values(rng, grid, scale_power=None):
    """Smooth random values vanishing to order >= 4 at the grid start."""
    power = 2 * int(rng.integers(2, 4)) if scale_power is None else scale_power
    amps = rng.uniform(-1.0, 1.0, 3)
    rates = rng.uniform(0.5, 1.2, 3)
    vals = sum(a * np.exp(-b * grid**2) for a, b in zip(amps, rates))
    if np.max(np.abs(vals)) < 0.05:
        vals = vals + np.exp(-grid**2)
    return grid**power * vals


def interior_profile(rng, grid=IDENTITY_GRID):
    return SampledProfile(grid, interior_values(rng, grid))


def gaussian_mixture(rng, degree=0, components=2):
    """Analytic mixture r^degree * (sum of Gaussians); exact closed forms."""
    parts = []
    for _ in range(components):
        amp = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
        rate = float(rng.uniform(0.5, 1.5))
        parts.append(AnalyticProfile("monomial_cutoff", amp, rate, power=float(degree)))
    return MixtureProfile(tuple(parts))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
