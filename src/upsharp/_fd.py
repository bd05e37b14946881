"""Finite-difference stencils on radial grids.

Two schemes are supported:

* ``cd4``: 4th-order central differences on a uniform grid, falling back to
  2nd-order one-sided stencils on the two rows at each boundary.
* ``cd2``: 2nd-order 3-point stencils with Fornberg weights, valid on any
  strictly increasing grid.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

SCHEMES = ("cd4", "cd2")

#: Highest polynomial degree the scheme differentiates exactly at interior nodes.
SCHEME_ORDER = {"cd4": 4, "cd2": 2}


def _require_uniform(grid: np.ndarray) -> float:
    steps = np.diff(grid)
    h = steps.mean()
    if np.max(np.abs(steps - h)) > 1e-8 * h:
        raise UsageError("scheme 'cd4' requires a uniform grid; use 'cd2' instead")
    return float(h)


def fornberg_weights(x0: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Weights of the m-th derivative at x0 from values at nodes xs."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = xs[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def diff_values(values: np.ndarray, grid: np.ndarray, order: int, scheme: str = "cd4") -> np.ndarray:
    """Differentiate node values along the grid (``order`` 1 or 2)."""
    if scheme not in SCHEMES:
        raise UsageError(f"unknown differentiation scheme {scheme!r}")
    if order not in (1, 2):
        raise UsageError("derivative order must be 1 or 2")
    f = np.asarray(values, dtype=float)
    if scheme == "cd4":
        return _cd4_values(f, grid, order)
    return _cd2_values(f, grid, order)


def _cd4_values(f: np.ndarray, grid: np.ndarray, order: int) -> np.ndarray:
    h = _require_uniform(grid)
    d = np.empty_like(f)
    if order == 1:
        d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
        d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        d[1] = (f[2] - f[0]) / (2.0 * h)
        d[-2] = (f[-1] - f[-3]) / (2.0 * h)
        d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    else:
        h2 = h * h
        d[2:-2] = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h2)
        d[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
        d[1] = (f[0] - 2.0 * f[1] + f[2]) / h2
        d[-2] = (f[-1] - 2.0 * f[-2] + f[-3]) / h2
        d[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return d


def _cd2_values(f: np.ndarray, grid: np.ndarray, order: int) -> np.ndarray:
    n = len(grid)
    d = np.empty_like(f)
    for i in range(n):
        lo = min(max(i - 1, 0), n - 3)
        w = fornberg_weights(grid[i], grid[lo : lo + 3], order)
        d[i] = w @ f[lo : lo + 3]
    return d
