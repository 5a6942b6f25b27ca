"""Moduli of uniform convexity and strong extremality, power-type-2 fits,
and the support-line decomposition inequality.

The uniform-convexity modulus is computed in its equality form (pairs at
gauge distance exactly eps), which turns the infimum into a one-parameter
family of root finds along the sphere: for each base point and branch, the
smallest partner offset at gauge distance eps. The pair (-x, -y) has the
depth and distance of (x, y), so the depth is pi-periodic in the base
point: one sweep over the first half of the sphere cache's grid, on both
branches (``_sweep_depths``), brackets each root between two grid offsets,
for any number of eps, gauging at each bracket step the pairs its open
lanes read, and places it with one polish (``_polish_depths``).
``delta_uc`` and ``delta_curve`` run that one sweep, so the curve is
``delta_uc`` at each of its eps. The sweep only chooses where one lane-wise
zoom (``_zoom_min``, over the half circle) starts, and the zoom's values
come from a 50-step bisection (``_uc_depths``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BadEps, NonSmoothPoint
from .geometry import SpherePoint, Vec2
from .models import SPHERE_CACHE_N
from .numerics import bisect_batch, illinois_batch, phase_grid

#: eps grid for cached modulus curves (log-spaced)
CURVE_GRID_N = 64
CURVE_EPS_MIN = 0.02

#: Illinois steps placing each bracketed root of the modulus sweeps
UC_POLISH_STEPS = 8

#: points per batched call of the modulus curve's sweep, bounding its memory
UC_BLOCK = 1 << 14

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

    def interp(self, eps) -> np.ndarray:
        """Piecewise-linear lookup, 0 below the grid, last value above."""
        return np.interp(eps, self.eps_grid, self.values, left=0.0, right=self.values[-1])

    def to_csv(self) -> str:
        lines = ["eps,delta"]
        for e, v in zip(self.eps_grid, self.values):
            lines.append(f"{float(e)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _zoom_min(f, vals: np.ndarray, period: float = 2.0 * np.pi) -> np.ndarray:
    """Row minima over the circle of k functions from their samples vals,
    shape (k, n), on phase_grid(n, period) (period pi: the first half of the
    2n-grid, for pi-periodic functions): two rounds of 33 points around each
    row's running argmin, the window h = period / n either side shrinking
    16x a round, where f maps a (k, 33) array of angles (row r for function
    r) to values. A zoom, not a golden search: each round is one batched
    call of f. The first round's middle point is the grid argmin itself, so
    the samples only choose where the zoom starts."""
    k, n = vals.shape
    rows = np.arange(k)
    h = period / n
    center = phase_grid(n, period)[np.argmin(vals, axis=1)]
    best = np.full(k, np.inf)
    for _ in range(2):
        local = center[:, None] + np.linspace(-h, h, 33)
        v = f(local)
        j = np.argmin(v, axis=1)
        best = np.minimum(best, v[rows, j])
        center = local[rows, j]
        h /= 16.0
    return best


def delta_uc(model, eps: float) -> float:
    """Modulus of uniform convexity at eps in (0, 2]: worst midpoint depth
    over sphere pairs at gauge distance eps, zoomed in from a sweep over the
    first half of the sphere cache's grid."""
    if not (0.0 < eps <= 2.0):
        raise BadEps(f"eps {eps!r} outside (0, 2]")
    return float(_modulus(model, np.array([eps], dtype=float))[0])


def _modulus(model, eps: np.ndarray) -> np.ndarray:
    """delta at each eps: the grid sweep picks where the zoom over _uc_depths
    starts."""
    vals = _sweep_depths(model, eps)
    return _zoom_min(lambda thetas: _uc_depths(model, eps[:, None], thetas), vals, np.pi)


def _uc_depths(model, eps, thetas) -> np.ndarray:
    """Min midpoint depth over the pairs at gauge distance eps from each base
    point thetas (eps and thetas broadcast together).

    The partner angle is phi = theta +- s, s in (0, pi]; along each branch the
    gauge distance d(s) grows from 0 to gauge(2x) = 2 and the midpoint depth
    never decreases, so the depth is taken at the smallest s with d(s) >= eps.
    Where d is flat at the level eps (x and -y on one face at eps = 2) that
    is the start of the flat. Both branches run as lanes of one bisection.
    """
    eps, thetas = np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(thetas, dtype=float))
    shape, n = thetas.shape, thetas.size
    xs = np.tile(model.sphere_points_at(thetas.ravel()), (2, 1))
    th = np.tile(thetas.ravel(), 2)
    sign = np.repeat([1.0, -1.0], n)
    eps = np.tile(eps.ravel(), 2)
    # At eps = 2, d - 2 vanishes to second order (fourth on l4's axes) at the
    # antipode of a smooth point, so d rounds to 2 on a stretch before it
    # (~1e-8 rad on a circle, ~1e-4 on l4): a root less than one sweep step
    # short of the antipode counts as the antipode, and a face shorter than
    # that step is below the sweep's resolution.
    s_max = np.where(eps == 2.0, np.pi - 2.0 * np.pi / SPHERE_CACHE_N, np.pi)

    def dist(s):
        return model.gauge_many(xs - model.sphere_points_at(th + sign * s))

    # gauge(2x) can round below 2 at eps = 2; such a branch has no root
    bad = dist(np.full(2 * n, np.pi)) < eps
    # bisect_batch moves its first end on f <= 0: starting that end at pi and
    # testing d >= eps converges to the smallest root
    s = bisect_batch(
        lambda s: np.where((dist(s) >= eps) & (s <= s_max), -1.0, 1.0),
        np.full(2 * n, np.pi),
        np.full(2 * n, 1e-9),
        iters=50,
    )
    ys = model.sphere_points_at(th + sign * s)
    depth = 1.0 - model.gauge_many(0.5 * (xs + ys))
    depth[bad] = np.inf
    return np.minimum(depth[:n], depth[n:]).reshape(shape)


def _sweep_depths(model, eps: np.ndarray) -> np.ndarray:
    """_uc_depths on the first half of the sphere cache's n-point grid for
    every eps at once, shape (len(eps), n // 2), from the distances
    d = gauge(x_base - x_(base + sign k)) of grid points x at offsets k. The
    grid's second half is the first one turned by pi, whose pairs (-x, -y)
    have the depths and distances of (x, y).

    In a normed plane d never decreases along a branch from x to -x
    (Martini, Swanepoel and Weiss, Expo. Math. 19 (2001)), so the first
    offset with d >= eps brackets the smallest root within one grid step.
    Every (eps, base, branch) lane of UC_BLOCK // n eps at once
    binary-searches the offsets 1 .. n/2 for it, each step gauging the pairs
    the still open lanes read (at most 10 steps for n = 1024), keeping d at
    both ends of its bracket; _polish_depths then places the root. Lanes with no such
    offset get depth inf, as in _uc_depths.
    """
    n = SPHERE_CACHE_N
    half = n // 2
    per = UC_BLOCK // n
    xs = model.sphere_cache()["points"]
    depth = np.full((len(eps), n), np.inf)
    for e0 in range(0, len(eps), per):
        e = np.repeat(eps[e0 : e0 + per], n)
        m = e.size
        # lanes: per eps the bases 0 .. half - 1 on branch +1, then on branch -1
        base, sign = np.arange(m) % half, np.where(np.arange(m) % n < half, 1, -1)
        # d(lo) < eps <= d(hi); offset 0 is the base point itself (d = 0) and
        # half + 1 stands for a branch that never reaches eps
        lo, hi = np.zeros(m, dtype=int), np.full(m, half + 1)
        d_lo, d_hi = np.zeros(m), np.full(m, np.inf)
        while True:
            (lanes,) = np.nonzero(hi - lo > 1)
            if lanes.size == 0:
                break
            mid = (lo[lanes] + hi[lanes]) // 2
            b = base[lanes]
            d = model.gauge_many(xs[b] - xs[(b + sign[lanes] * mid) % n])
            up = d >= e[lanes]
            hi[lanes[up]], d_hi[lanes[up]] = mid[up], d[up]
            lo[lanes[~up]], d_lo[lanes[~up]] = mid[~up], d[~up]
        found = hi <= half
        depth[e0 : e0 + per].reshape(-1)[found] = _polish_depths(
            model, base[found], sign[found], hi[found], d_lo[found], d_hi[found], e[found]
        )
    return np.minimum(depth[:, :half], depth[:, half:])


def _polish_depths(model, base, sign, k, d_lo, d_hi, eps) -> np.ndarray:
    """Midpoint depth at the smallest root of d(s) = eps on each lane, given
    its bracket: the grid offsets k - 1 and k of branch sign from the grid
    point base, with the distances d_lo < eps <= d_hi there.

    UC_POLISH_STEPS Illinois steps place the root. A lane with d_hi == eps
    exactly may sit on a flat of d at the level eps (x and -y on one face at
    eps = 2), where Illinois would return the bracket's right end instead of
    the flat's start: such lanes bisect on d >= eps to the start, as
    _uc_depths does, in 41 steps to its 2.8e-15 width. Lanes bracketed at the
    antipode (k = n/2) are left to Illinois, as _uc_depths' s_max rule counts
    any root in that last cell at eps = 2 as the antipode.
    """
    n = SPHERE_CACHE_N
    h = 2.0 * np.pi / n
    cache = model.sphere_cache()
    xs, thetas = cache["points"], cache["thetas"]
    eps = np.broadcast_to(eps, base.shape)

    def partners(lanes, s):
        return model.sphere_points_at(thetas[base[lanes]] + sign[lanes] * s)

    def gap(lanes, s):
        return model.gauge_many(xs[base[lanes]] - partners(lanes, s)) - eps[lanes]

    fa, fb = d_lo - eps, d_hi - eps
    flat = (fb == 0.0) & (k < n // 2)
    s = np.empty(base.shape)
    (smooth,) = np.nonzero(~flat)
    s[smooth] = illinois_batch(
        lambda t: gap(smooth, t), (k[smooth] - 1) * h, k[smooth] * h, fa[smooth], fb[smooth],
        UC_POLISH_STEPS,
    )
    (flat,) = np.nonzero(flat)
    if flat.size:
        s[flat] = bisect_batch(
            lambda t: np.where(gap(flat, t) >= 0.0, -1.0, 1.0), k[flat] * h, (k[flat] - 1) * h, iters=41
        )
    ys = partners(np.arange(base.size), s)
    return 1.0 - model.gauge_many(0.5 * (xs[base] + ys))


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

    vals = -rho_max(phase_grid(STRONG_DIRS))
    zoomed = _zoom_min(lambda phis: -rho_max(phis.ravel()).reshape(phis.shape), vals[None])
    return 1.0 + float(zoomed[0])


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
        values = _modulus(model, eps_grid)
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
