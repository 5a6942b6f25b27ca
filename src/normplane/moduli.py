"""Moduli of uniform convexity and strong extremality, power-type-2 fits,
and the support-line decomposition inequality.

The uniform-convexity modulus is computed in its equality form (pairs at
gauge distance exactly eps), which turns the infimum into a one-parameter
family of root finds along the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BadEps, NonSmoothPoint
from .geometry import SpherePoint, Vec2
from .numerics import bisect_batch, phase_grid

#: eps grid for cached modulus curves (log-spaced)
CURVE_GRID_N = 64
CURVE_EPS_MIN = 0.02

#: outer sweep resolution for the uniform-convexity modulus
UC_SWEEP_N = 1024

#: direction count for the strong-extremality modulus
STRONG_DIRS = 512

#: a power-2 coefficient below this floor counts as vanishing
POWER2_FLOOR = 1e-6


@dataclass
class ModulusCurve:
    """Sampled eps -> modulus data with an optional power-type-2 coefficient."""

    kind: str  # "uniform_convexity" or "strong_extremality"
    eps_grid: np.ndarray
    values: np.ndarray
    power2_coeff: float | None = None
    base_point: SpherePoint | None = None

    def interp(self, eps) -> np.ndarray:
        """Piecewise-linear lookup, 0 below the grid, last value above."""
        return np.interp(eps, self.eps_grid, self.values, left=0.0, right=self.values[-1])

    def to_csv(self) -> str:
        lines = ["eps,delta"]
        for e, v in zip(self.eps_grid, self.values):
            lines.append(f"{float(e)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _zoom_min(f, n: int) -> float:
    """Min over the circle of f (an array of angles to an array of values):
    the phase-offset n-grid, then two rounds of 33 points around the running
    argmin, the window shrinking 16x a round. A zoom, not a golden search:
    each round is one batched call of f."""
    thetas = phase_grid(n)
    h = 2.0 * np.pi / n
    vals = f(thetas)
    j = int(np.argmin(vals))
    best, center = float(vals[j]), thetas[j]
    for _ in range(2):
        local = center + np.linspace(-h, h, 33)
        vals = f(local)
        j = int(np.argmin(vals))
        best = min(best, float(vals[j]))
        center = local[j]
        h /= 16.0
    return best


def delta_uc(model, eps: float) -> float:
    """Modulus of uniform convexity at eps in (0, 2]: worst midpoint depth
    over sphere pairs at gauge distance eps, zoomed in from a 1024-point
    sweep in the base point."""
    if not (0.0 < eps <= 2.0):
        raise BadEps(f"eps {eps!r} outside (0, 2]")
    return _zoom_min(lambda thetas: _uc_depths(model, eps, thetas), UC_SWEEP_N)


def _uc_depths(model, eps: float, thetas: np.ndarray) -> np.ndarray:
    """Min midpoint depth over the pairs at gauge distance eps from each base
    point thetas."""
    xs = model.sphere_points_at(thetas)
    n = len(thetas)
    best = np.full(n, np.inf)
    for direction in (1.0, -1.0):
        # partner angle phi = theta + direction * s, s in (0, pi]; the gauge
        # distance grows from 0 to gauge(2x) = 2 along each branch.
        def dist(s):
            ys = model.sphere_points_at(thetas + direction * s)
            return model.gauge_many(xs - ys) - eps

        lo = np.full(n, 1e-9)
        hi = np.full(n, np.pi)
        bad = dist(hi) < 0  # cannot happen for eps <= 2, kept defensive
        s = bisect_batch(dist, lo, hi, iters=50)
        ys = model.sphere_points_at(thetas + direction * s)
        depth = 1.0 - model.gauge_many(0.5 * (xs + ys))
        depth[bad] = np.inf
        best = np.minimum(best, depth)
    return best


def delta_strong(model, x: SpherePoint, eps: float) -> float:
    """Modulus of strong extremality at x: the least 1 - rho over
    perturbations y of gauge eps keeping both rho x + y and rho x - y in the
    ball, maximized in rho by bisection over each of 512 directions.

    The best direction from the grid is zoomed in on (the objective is only
    first-order flat there, so the coarse grid alone is not enough).
    """
    if not (0.0 < eps <= 1.0):
        raise BadEps(f"eps {eps!r} outside (0, 1]")
    xa = x.point.as_array()

    def rho_max(phis: np.ndarray) -> np.ndarray:
        ys = model.sphere_points_at(phis) * eps

        def slack(rho):
            zp = rho[:, None] * xa[None, :] + ys
            zm = rho[:, None] * xa[None, :] - ys
            return np.maximum(model.gauge_many(zp), model.gauge_many(zm)) - 1.0

        return bisect_batch(slack, np.zeros(len(phis)), np.full(len(phis), 2.0), iters=50)

    return 1.0 + _zoom_min(lambda phis: -rho_max(phis), STRONG_DIRS)


def power2_fit(curve: ModulusCurve) -> float | None:
    """min value / eps^2 over the grid when it stays above the floor 1e-6,
    else None (the modulus is not of power type 2 at this resolution)."""
    vals = np.clip(curve.values, 0.0, None)
    ratio = vals / curve.eps_grid**2
    c = float(ratio.min())
    if c < POWER2_FLOOR:
        return None
    return c


def delta_curve(model) -> ModulusCurve:
    """Uniform-convexity curve on the standard log-spaced grid, kept on the
    model after the first call."""
    if model._delta_curve is None:
        eps_grid = np.geomspace(CURVE_EPS_MIN, 2.0, CURVE_GRID_N)
        values = np.array([delta_uc(model, float(e)) for e in eps_grid])
        curve = ModulusCurve("uniform_convexity", eps_grid, values)
        curve.power2_coeff = power2_fit(curve)
        model._delta_curve = curve
    return model._delta_curve


def decomposition_check(model, x: SpherePoint, z) -> tuple[float, Vec2, bool]:
    """Split a ball point z along x and its support line, z = t x + u, and
    test t^2 + delta(gauge(u)) <= 1 + 1e-4 against the cached modulus curve.

    Returns (t, u, holds).
    """
    if not x.smooth:
        raise NonSmoothPoint("decomposition needs a unique support functional")
    z = geometry.as_vec(z)
    t = x.support.dot(z)
    u = z - x.point.scale(t)
    curve = delta_curve(model)
    gu = model.gauge(u)
    holds = t * t + float(curve.interp(gu)) <= 1.0 + 1e-4
    return float(t), u, bool(holds)
