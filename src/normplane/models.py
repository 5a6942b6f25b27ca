"""The catalogue of norm families: lp, polar-profile, quadrant mixes,
polygons, arc chains (the spliced sphere and the staircase sphere among
them), ellipse intersections, blends, and numerically sampled duals.

Every model is immutable after construction and carries two eagerly built
caches: a 1024-point sphere table with supports/tangents/curvatures and a
4096-point boundary table used for containment certificates. Gauge evaluation
canonicalizes the sign of its argument first, so gauge(-v) == gauge(v) holds
exactly for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .curvature import CURVATURE_CAP, INF, curvature_implicit, curvature_polar_many
from .errors import (
    BadParameter,
    NotClosed,
    NotConvex,
    NotPeriodic,
    NotSymmetric,
    TangentBreak,
)
from .geometry import Vec2, as_vec
from .numerics import (
    angle_dist,
    bisect_batch,
    phase_grid,
    quad_form,
    rotation,
    stencil5_d1,
    stencil5_d2,
)

SPHERE_CACHE_N = 1024
FINE_CACHE_N = 4096

#: radial table size of the numerically sampled dual
DUAL_TABLE_N = 8192

#: junction tangents must agree to this tolerance (Euclidean, absolute)
TANGENT_TOL = 1e-9

#: convexity slack for cross-product tests on the cache
CONVEXITY_TOL = 1e-12


def _rescaled(gauge, pts: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Keep a gauge 1-homogeneous at every scale: on the rows whose squares
    (or p-th powers) s leave [1e-300, 1e300], where they under- or overflow,
    replace ``out`` by gauge(pts) evaluated with the larger component
    factored out."""
    if s.size and (s.min() < 1e-300 or s.max() > 1e300):
        hi = np.abs(pts).max(axis=1)
        off = ((s < 1e-300) | (s > 1e300)) & (hi > 0)
        out[off] = hi[off] * gauge(pts[off] / hi[off, None])
    return out


def _odd_quadrants(pts: np.ndarray) -> np.ndarray:
    """Rows in the closed quadrants I and III, decided from the signs: the
    product x1 x2 underflows to -0.0 for tiny vectors."""
    return np.sign(pts[:, 0]) * np.sign(pts[:, 1]) >= 0.0


def _canonical(points: np.ndarray) -> np.ndarray:
    """Flip each row to the representative with x1 > 0 (or x1 == 0, x2 >= 0)."""
    points = np.asarray(points, dtype=float)
    flip = (points[:, 0] < 0) | ((points[:, 0] == 0) & (points[:, 1] < 0))
    # multiplying by +-1 is exact and keeps signed zeros and NaN rows
    return points * np.where(flip, -1.0, 1.0)[:, None]


class NormModel:
    """Base class; subclasses implement ``_gauge_raw`` on canonical points."""

    family = "abstract"
    is_c2 = False
    polyhedral = False

    def __init__(self, params: dict):
        self.params = dict(params)
        self._cache = None
        self._fine_points = None
        # lazily derived objects, kept here so they live and die with the model
        self._dual = None
        self._john_ellipse = None
        self._eccentricity_sq = None
        self._sweep = None
        self._kappa_extrema = None
        self._delta_curve = None

    # -- family hooks --------------------------------------------------------

    def _gauge_raw(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_many(self, points: np.ndarray):
        """Analytic gauge gradient, or None to request finite differences."""
        return None

    def kink_thetas(self) -> np.ndarray:
        """Polar parameters of non-smooth sphere points, sorted, in [0, 2pi)."""
        return np.empty(0)

    def one_sided_supports(self, theta: float):
        """(f_minus, f_plus) one-sided support functionals at a kink."""
        raise NotImplementedError

    def feature_thetas(self) -> np.ndarray:
        """Angles worth adding to classification sweeps (kinks, axes, junctions)."""
        return self.kink_thetas()

    def curvature_sided(self, theta: float) -> tuple[float, float]:
        """(min, max) of the one-sided curvatures at theta."""
        k = float(self.curvature_theta_many(np.array([theta]))[0])
        return k, k

    # -- shared machinery -----------------------------------------------------

    def gauge_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._gauge_raw(_canonical(pts))

    def gauge(self, v) -> float:
        v = as_vec(v)
        return float(self.gauge_many(np.array([[v.x1, v.x2]]))[0])

    def radial_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        units = np.column_stack([np.cos(thetas), np.sin(thetas)])
        return 1.0 / self.gauge_many(units)

    def sphere_points_at(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        units = np.column_stack([np.cos(thetas), np.sin(thetas)])
        return units * self.radial_many(thetas)[:, None]

    def curvature_theta_many(self, thetas) -> np.ndarray:
        """Numeric fallback: polar curvature of the radial graph."""
        thetas = np.asarray(thetas, dtype=float)
        h = 2e-4
        r = [self.radial_many(thetas + k * h) for k in (-2, -1, 0, 1, 2)]
        return curvature_polar_many(r[2], stencil5_d1(r, h), stencil5_d2(r, h))

    def kink_at(self, theta: float):
        """One-sided supports of the kink at theta, or None off the kinks."""
        ks = self.kink_thetas()
        if ks.size == 0:
            return None
        d = angle_dist(ks, theta)
        j = int(np.argmin(d))
        if d[j] <= geometry.KINK_TOL:
            return self.one_sided_supports(float(ks[j]))
        return None

    def sphere_cache(self) -> dict:
        if self._cache is None:
            self._cache = geometry.sphere_table(self, SPHERE_CACHE_N)
        return self._cache

    def fine_points(self) -> np.ndarray:
        if self._fine_points is None:
            self._fine_points = self.sphere_points_at(phase_grid(FINE_CACHE_N))
            self._fine_points.setflags(write=False)
        return self._fine_points

    def validate(self) -> "NormModel":
        """Build caches eagerly and run generic norm checks."""
        pts = self.fine_points()
        if not np.all(np.isfinite(pts)):
            raise NotConvex(f"{self.family}: sphere has non-finite points")
        edges = np.diff(np.vstack([pts, pts[:1]]), axis=0)
        cross = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
        # absolute floor: flat stretches produce pure-noise crossings near 0
        if np.any(cross < -(CONVEXITY_TOL + 1e-9 * np.abs(cross).max())):
            raise NotConvex(f"{self.family}: sphere is not convex")
        self.sphere_cache()
        return self

    def _replace_params(self, params: dict) -> "NormModel":
        self.params = dict(params)
        return self

    # kept identity-based so models can key caches
    __hash__ = object.__hash__


# -- lp ------------------------------------------------------------------


class LpNorm(NormModel):
    family = "lp"

    def __init__(self, p: float):
        if not p >= 1.0:
            raise BadParameter(f"p must be >= 1 or inf, got {p!r}")
        super().__init__({"p": "inf" if p == INF else p})
        self.p = p
        self.is_c2 = p == 2.0 or (p != INF and p > 2.0)
        self.polyhedral = p == 1.0 or p == INF

    def _gauge_raw(self, pts):
        ax = np.abs(pts)
        if self.p == INF:
            return ax.max(axis=1)
        if self.p == 1.0:
            return ax.sum(axis=1)
        if self.p == 2.0:
            return np.hypot(pts[:, 0], pts[:, 1])
        with np.errstate(over="ignore", under="ignore"):
            s = ax[:, 0] ** self.p + ax[:, 1] ** self.p
        return _rescaled(self._gauge_raw, pts, s, s ** (1.0 / self.p))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.p == INF:
            ax = np.abs(pts)
            pick = ax[:, 0] >= ax[:, 1]
            g = np.zeros_like(pts)
            g[pick, 0] = np.sign(pts[pick, 0])
            g[~pick, 1] = np.sign(pts[~pick, 1])
            return g
        if self.p == 1.0:
            return np.sign(pts) + (pts == 0.0)  # sign 0 -> +1; kinks handled upstream
        n = self._gauge_raw(np.abs(pts))
        return np.sign(pts) * (np.abs(pts) / n[:, None]) ** (self.p - 1.0)

    def kink_thetas(self):
        if self.p == 1.0:
            return np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        if self.p == INF:
            return np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
        return np.empty(0)

    def one_sided_supports(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        if self.p == 1.0:
            if abs(c) > abs(s):  # vertex (sgn c, 0)
                sg = math.copysign(1.0, c)
                return np.array([sg, -sg]), np.array([sg, sg])
            sg = math.copysign(1.0, s)
            return np.array([sg, sg]), np.array([-sg, sg])
        # linf vertex (sgn c, sgn s): adjacent face normals are the axis vectors
        sgx, sgy = math.copysign(1.0, c), math.copysign(1.0, s)
        if sgx * sgy > 0:
            return np.array([sgx, 0.0]), np.array([0.0, sgy])
        return np.array([0.0, sgy]), np.array([sgx, 0.0])

    def feature_thetas(self):
        if self.polyhedral:
            return self.kink_thetas()
        if self.p == 2.0:
            return np.empty(0)
        return np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])  # axis points

    def _axis_kappa(self) -> float:
        if self.p == 2.0:
            return 1.0
        return INF if self.p < 2.0 else 0.0

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        if self.p == 2.0:
            return np.ones_like(thetas)
        if self.polyhedral:
            out = np.zeros_like(thetas)
            d = angle_dist(thetas[:, None], self.kink_thetas()[None, :])
            out[np.min(d, axis=1) <= 1e-12] = INF
            return out
        pts = self.sphere_points_at(thetas)
        return _lp_sphere_kappa(np.abs(pts), self.p)

    def curvature_sided(self, theta):
        if self.polyhedral:
            d = angle_dist(self.kink_thetas(), theta)
            if d.min() <= 1e-9:
                return 0.0, INF
            return 0.0, 0.0
        k = float(self.curvature_theta_many(np.array([theta]))[0])
        return k, k

    def hess_gauge_many(self, pts):
        """Analytic Hessian of the gauge (1 < p < inf); used by blends."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        p = self.p
        ax = np.abs(pts)
        phi = ax[:, 0] ** p + ax[:, 1] ** p
        a = (p - 1.0) * (phi ** (1.0 / p - 1.0))[:, None] * ax ** (p - 2.0)
        b = (p - 1.0) * (phi ** (1.0 / p - 2.0))[:, None, None]
        signed = np.sign(pts) * ax ** (p - 1.0)
        hess = -b * (signed[:, :, None] * signed[:, None, :])
        hess[:, 0, 0] += a[:, 0]
        hess[:, 1, 1] += a[:, 1]
        return hess


def _lp_sphere_kappa(ax: np.ndarray, p: float) -> np.ndarray:
    """Curvature of the lp sphere at |points| ax (gauge 1), 1 < p < inf."""
    lo = ax.min(axis=1)
    hi = ax.max(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        t1 = lo ** (p - 2.0) * hi ** (2.0 * p - 2.0)
        t2 = lo ** (2.0 * p - 2.0) * hi ** (p - 2.0)
        den = (lo ** (2.0 * p - 2.0) + hi ** (2.0 * p - 2.0)) ** 1.5
        out = (p - 1.0) * (t1 + t2) / den
    on_axis = lo == 0.0
    if np.any(on_axis):
        out = out.copy()
        out[on_axis] = INF if p < 2.0 else 0.0
    out[out > CURVATURE_CAP] = INF
    return out


def make_lp(p) -> LpNorm:
    """lp plane, p in [1, inf]; p may be the string or float 'inf'."""
    if isinstance(p, str):
        if p != "inf":
            raise BadParameter(f"unrecognized p {p!r}")
        p = INF
    return LpNorm(float(p)).validate()


# -- polar profile ---------------------------------------------------------


class PolarNorm(NormModel):
    """Gauge r / g(theta) for a positive pi-periodic trigonometric profile."""

    family = "polar"
    is_c2 = True

    def __init__(self, constant, cos_terms, sin_terms):
        super().__init__(
            {
                "constant": constant,
                "cos": dict(cos_terms),
                "sin": dict(sin_terms),
            }
        )
        self.constant = float(constant)
        self.cos_terms = tuple((int(n), float(a)) for n, a in dict(cos_terms).items())
        self.sin_terms = tuple((int(n), float(a)) for n, a in dict(sin_terms).items())

    def g_many(self, thetas, order: int = 0) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        out = np.full_like(thetas, self.constant if order == 0 else 0.0)
        for n, a in self.cos_terms:
            if order % 4 == 0:
                out += a * n**order * np.cos(n * thetas)
            elif order % 4 == 1:
                out -= a * n**order * np.sin(n * thetas)
            elif order % 4 == 2:
                out -= a * n**order * np.cos(n * thetas)
            else:
                out += a * n**order * np.sin(n * thetas)
        for n, a in self.sin_terms:
            if order % 4 == 0:
                out += a * n**order * np.sin(n * thetas)
            elif order % 4 == 1:
                out += a * n**order * np.cos(n * thetas)
            elif order % 4 == 2:
                out -= a * n**order * np.sin(n * thetas)
            else:
                out -= a * n**order * np.cos(n * thetas)
        return out

    def _gauge_raw(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return r / self.g_many(th)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        th = np.arctan2(pts[:, 1], pts[:, 0])
        g = self.g_many(th)
        gp = self.g_many(th, 1)
        c, s = np.cos(th), np.sin(th)
        return np.column_stack([(c * g + gp * s), (s * g - gp * c)]) / (g * g)[:, None]

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        return curvature_polar_many(
            self.g_many(thetas), self.g_many(thetas, 1), self.g_many(thetas, 2)
        )


def make_polar(sin_terms=(), cos_terms=(), constant: float = 1.0) -> PolarNorm:
    """Polar-profile norm with g = constant + sum of even-harmonic terms.

    ``sin_terms`` / ``cos_terms`` map harmonic index n (even, positive) to an
    amplitude. Rejects odd harmonics (the profile must be pi-periodic) and
    profiles whose convexity expression 2 g'^2 + g^2 - g g'' is not strictly
    positive on the validation grid.
    """
    sin_terms = dict(sin_terms)
    cos_terms = dict(cos_terms)
    if not np.all(np.isfinite([constant, *sin_terms.values(), *cos_terms.values()])):
        raise BadParameter("profile coefficients must be finite")
    for n in list(sin_terms) + list(cos_terms):
        if int(n) <= 0 or int(n) % 2 == 1:
            raise NotPeriodic(f"harmonic {n} breaks pi-periodicity")
    model = PolarNorm(constant, cos_terms, sin_terms)
    grid = phase_grid(4096)
    g = model.g_many(grid)
    if np.any(g <= 0):
        raise NotConvex("profile g is not positive")
    gp = model.g_many(grid, 1)
    gpp = model.g_many(grid, 2)
    expr = 2.0 * gp * gp + g * g - g * gpp
    if np.any(expr <= 0):
        raise NotConvex("convexity expression 2g'^2 + g^2 - g g'' fails on grid")
    return model.validate()


# -- quadrant mixes ---------------------------------------------------------


class QuadrantMixNorm(NormModel):
    """lp in quadrants I/III, lq in II/IV (1 < p, q < inf)."""

    family = "quadrant_mix"

    def __init__(self, p: float, q: float):
        super().__init__({"p": p, "q": q})
        self.p = float(p)
        self.q = float(q)
        self._lp = LpNorm(self.p)
        self._lq = LpNorm(self.q)

    def _gauge_raw(self, pts):
        return np.where(_odd_quadrants(pts), self._lp._gauge_raw(pts), self._lq._gauge_raw(pts))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m = _odd_quadrants(pts)[:, None]
        return np.where(m, self._lp.grad_many(pts), self._lq.grad_many(pts))

    def feature_thetas(self):
        return np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        pts = self.sphere_points_at(thetas)
        ax = np.abs(pts)
        on_axis = ax.min(axis=1) == 0.0
        mask = _odd_quadrants(pts)
        out = np.where(mask, _lp_sphere_kappa(ax, self.p), _lp_sphere_kappa(ax, self.q))
        if np.any(on_axis):
            out = out.copy()
            out[on_axis] = max(self._lp._axis_kappa(), self._lq._axis_kappa())
        return out

    def curvature_sided(self, theta):
        pts = self.sphere_points_at(np.array([theta]))[0]
        if min(abs(pts[0]), abs(pts[1])) < 1e-12:
            ks = sorted([self._lp._axis_kappa(), self._lq._axis_kappa()])
            return ks[0], ks[1]
        k = float(self.curvature_theta_many(np.array([theta]))[0])
        return k, k


def make_quadrant_mix(p: float, q: float) -> QuadrantMixNorm:
    if not (1.0 < p < INF and 1.0 < q < INF):
        raise BadParameter("quadrant mix needs 1 < p, q < inf; see the l2/l1 hybrid for the polyhedral case")
    return QuadrantMixNorm(p, q).validate()


class HybridL2L1Norm(NormModel):
    """Euclidean in quadrants I/III, l1 in II/IV; the classic mixed example."""

    family = "l2_l1_hybrid"

    def __init__(self):
        super().__init__({})

    def _gauge_raw(self, pts):
        l2 = np.hypot(pts[:, 0], pts[:, 1])
        l1 = np.abs(pts).sum(axis=1)
        return np.where(_odd_quadrants(pts), l2, l1)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = np.hypot(pts[:, 0], pts[:, 1])[:, None]
        g2 = pts / n
        g1 = np.sign(pts) + (pts == 0.0)
        return np.where(_odd_quadrants(pts)[:, None], g2, g1)

    def kink_thetas(self):
        return np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def one_sided_supports(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        if abs(c) > abs(s):  # (+-1, 0)
            sg = math.copysign(1.0, c)
            return np.array([sg, -sg]), np.array([sg, 0.0])
        sg = math.copysign(1.0, s)
        return np.array([0.0, sg]), np.array([-sg, sg])

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        pts = self.sphere_points_at(thetas)
        out = np.where(pts[:, 0] * pts[:, 1] > 0.0, 1.0, 0.0)
        on_axis = np.abs(pts).min(axis=1) < 1e-12
        out[on_axis] = INF
        return out

    def curvature_sided(self, theta):
        pts = self.sphere_points_at(np.array([theta]))[0]
        if min(abs(pts[0]), abs(pts[1])) < 1e-12:
            return 0.0, INF
        k = float(self.curvature_theta_many(np.array([theta]))[0])
        return k, k


def make_l2_l1_hybrid() -> HybridL2L1Norm:
    return HybridL2L1Norm().validate()


# -- polygons ---------------------------------------------------------------


class PolygonNorm(NormModel):
    family = "polygon"
    polyhedral = True

    def __init__(self, vertices: np.ndarray):
        super().__init__({"vertices": [list(map(float, v)) for v in vertices]})
        self.vertices = np.asarray(vertices, dtype=float)
        m = len(self.vertices)
        normals = []
        for j in range(m):
            a, b = self.vertices[j], self.vertices[(j + 1) % m]
            normals.append(np.linalg.solve(np.vstack([a, b]), np.ones(2)))
        self.normals = np.asarray(normals)

    def _gauge_raw(self, pts):
        return (pts @ self.normals.T).max(axis=1)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.normals[np.argmax(pts @ self.normals.T, axis=1)]

    def kink_thetas(self):
        th = np.arctan2(self.vertices[:, 1], self.vertices[:, 0]) % (2.0 * np.pi)
        return np.sort(th)

    def one_sided_supports(self, theta):
        th = np.arctan2(self.vertices[:, 1], self.vertices[:, 0]) % (2.0 * np.pi)
        j = int(np.argmin(angle_dist(th, theta)))
        m = len(self.vertices)
        return self.normals[(j - 1) % m], self.normals[j]

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        out = np.zeros_like(thetas)
        d = angle_dist(thetas[:, None], self.kink_thetas()[None, :])
        out[np.min(d, axis=1) <= 1e-12] = INF
        return out

    def curvature_sided(self, theta):
        d = angle_dist(self.kink_thetas(), theta)
        if d.min() <= 1e-9:
            return 0.0, INF
        return 0.0, 0.0


def make_polygon(vertices) -> PolygonNorm:
    """Origin-symmetric convex polygon norm from counterclockwise vertices."""
    v = np.asarray([[as_vec(p).x1, as_vec(p).x2] for p in vertices], dtype=float)
    if len(v) < 4 or len(v) % 2 == 1 or not np.all(np.isfinite(v)):
        raise BadParameter("need an even number (>= 4) of finite vertices")
    for row in v:
        d = np.abs(v + row).sum(axis=1)
        if d.min() > 1e-9:
            raise NotSymmetric(f"vertex {row} has no antipode")
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    if np.any(cross <= 0):
        raise NotConvex("vertices are not strictly convex counterclockwise")
    return PolygonNorm(v).validate()


# -- arc chains --------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """Circle arc, traversed counterclockwise around its own center.

    ``start_angle``/``end_angle`` are angles at the center; ``orientation``
    must be +1 (counterclockwise) for unit-sphere chains.
    """

    center: Vec2
    radius: float
    start_angle: float
    end_angle: float
    orientation: int = 1

    def point_at(self, alpha: float) -> np.ndarray:
        return np.array(
            [
                self.center.x1 + self.radius * math.cos(alpha),
                self.center.x2 + self.radius * math.sin(alpha),
            ]
        )

    def start_point(self) -> np.ndarray:
        return self.point_at(self.start_angle)

    def end_point(self) -> np.ndarray:
        return self.point_at(self.end_angle)

    def tangent_at(self, alpha: float) -> np.ndarray:
        return np.array([-math.sin(alpha), math.cos(alpha)])


class ArcChainNorm(NormModel):
    """Norm whose unit sphere is a closed G1 chain of circle arcs, listed
    counterclockwise; ray intersections look up the arc by polar angle."""

    family = "arc_chain"

    def __init__(self, arcs: list[Arc], params: dict | None = None):
        super().__init__(
            params
            if params is not None
            else {
                "arcs": [
                    [a.center.x1, a.center.x2, a.radius, a.start_angle, a.end_angle]
                    for a in arcs
                ]
            }
        )
        self.arcs = arcs
        self.centers = np.array([[a.center.x1, a.center.x2] for a in arcs])
        self.radii = np.array([a.radius for a in arcs])
        self.a0 = np.array([a.start_angle for a in arcs])
        self.a1 = np.array([a.end_angle for a in arcs])
        p0 = arcs[0].start_point()
        self.phi_start = math.atan2(p0[1], p0[0])
        phis = [self.phi_start]
        for a in arcs:
            p = a.end_point()
            phi = math.atan2(p[1], p[0])
            phi = self.phi_start + (phi - self.phi_start) % (2.0 * np.pi)
            # unwrap monotonically
            while phi < phis[-1] - 1e-12:
                phi += 2.0 * np.pi
            phis.append(phi)
        self.phi_bounds = np.asarray(phis)

    def arc_index(self, thetas: np.ndarray) -> np.ndarray:
        rel = (np.asarray(thetas) - self.phi_start) % (2.0 * np.pi)
        idx = np.searchsorted(self.phi_bounds[1:-1] - self.phi_start, rel, side="right")
        return np.clip(idx, 0, len(self.arcs) - 1)

    def radial_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        idx = self.arc_index(thetas)
        u = np.column_stack([np.cos(thetas), np.sin(thetas)])
        c = self.centers[idx]
        r = self.radii[idx]
        b = np.einsum("ij,ij->i", u, c)
        disc = np.sqrt(np.maximum(b * b - np.einsum("ij,ij->i", c, c) + r * r, 0.0))
        t_far = b + disc
        t_near = b - disc
        # pick the root whose center angle lies on the arc (wrap-tolerant at
        # the arc endpoints, where float noise can land just below a0)
        alpha_far = np.arctan2(
            t_far * u[:, 1] - c[:, 1], t_far * u[:, 0] - c[:, 0]
        )
        rel = (alpha_far - self.a0[idx]) % (2.0 * np.pi)
        span = self.a1[idx] - self.a0[idx]
        ok_far = (rel <= span + 1e-9) | (rel >= 2.0 * np.pi - 1e-9)
        return np.where(ok_far & (t_far > 0), t_far, t_near)

    def _gauge_raw(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros_like(r)
        nz = r > 0
        out[nz] = r[nz] / self.radial_many(th[nz])
        return out

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        th = np.arctan2(pts[:, 1], pts[:, 0])
        idx = self.arc_index(th)
        rad = self.radial_many(th)
        u = np.column_stack([np.cos(th), np.sin(th)])
        boundary = u * rad[:, None]
        n = (boundary - self.centers[idx]) / self.radii[idx][:, None]
        pair = np.einsum("ij,ij->i", n, boundary)
        return n / pair[:, None]

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        return 1.0 / self.radii[self.arc_index(thetas)]

    def curvature_sided(self, theta):
        eps = 1e-9
        ks = 1.0 / self.radii[self.arc_index(np.array([theta - eps, theta + eps]))]
        return float(ks.min()), float(ks.max())

    def feature_thetas(self):
        mids = []
        for a in self.arcs:
            p = a.point_at(0.5 * (a.start_angle + a.end_angle))
            mids.append(math.atan2(p[1], p[0]) % (2.0 * np.pi))
        return np.sort(np.concatenate([self.phi_bounds[:-1] % (2.0 * np.pi), mids]))

    def theta_of_arclength(self, s: float) -> float:
        """Polar parameter of the sphere point at arc length s along the
        chain from its first point (the staircase sphere's (0, -1)), clipped
        to the end of the chain."""
        remaining = float(s)
        for a in self.arcs:
            length = a.radius * (a.end_angle - a.start_angle)
            if remaining <= length or a is self.arcs[-1]:
                alpha = a.start_angle + remaining / a.radius
                p = a.point_at(min(alpha, a.end_angle))
                return math.atan2(p[1], p[0]) % (2.0 * np.pi)
            remaining -= length


def make_arc_chain(arcs) -> ArcChainNorm:
    """Validated arc-chain norm; the chain must close counterclockwise, be
    origin-symmetric, meet with matching tangents, and turn through 2 pi."""
    arcs = list(arcs)
    if not arcs:
        raise BadParameter("empty arc list")
    for a in arcs:
        if a.radius <= 0:
            raise BadParameter("arc radius must be positive")
        if a.orientation != 1:
            raise BadParameter("arcs must be oriented counterclockwise")
        if a.end_angle <= a.start_angle:
            raise BadParameter("arc has no angular extent")
    n = len(arcs)
    for j in range(n):
        a, b = arcs[j], arcs[(j + 1) % n]
        if np.max(np.abs(a.end_point() - b.start_point())) > 1e-9:
            raise NotClosed(f"arcs {j} and {(j + 1) % n} do not meet")
        if np.max(np.abs(a.tangent_at(a.end_angle) - b.tangent_at(b.start_angle))) > TANGENT_TOL:
            raise TangentBreak(f"tangent jump between arcs {j} and {(j + 1) % n}")
    turning = sum(a.end_angle - a.start_angle for a in arcs)
    if abs(turning - 2.0 * np.pi) > 1e-9:
        raise NotConvex(f"total turning {turning!r} is not 2 pi")
    # every arc needs a mirror arc: center -c, same radius
    centers = np.array([[a.center.x1, a.center.x2] for a in arcs])
    radii = np.array([a.radius for a in arcs])
    mirror = np.all(np.abs(centers[:, None, :] + centers[None, :, :]) < 1e-9, axis=2)
    mirror &= np.abs(radii[:, None] - radii[None, :]) < 1e-9
    if not np.all(np.any(mirror, axis=1)):
        raise NotSymmetric("chain is not symmetric under v -> -v")
    return ArcChainNorm(arcs).validate()


def make_spliced_arcs(radius: float = 2.0, junction_angle: float = -np.pi / 4) -> ArcChainNorm:
    """Two-arcs-per-quadrant sphere: a big circle through (0, -1) spliced with
    a smaller one meeting the positive x-axis at a right angle.

    ``radius`` is the big-circle radius R > 1; ``junction_angle`` the angle of
    the splice point seen from the big circle's center (0, R - 1), which must
    put the splice point in the open fourth quadrant.
    """
    r = float(radius)
    if r <= 1.0:
        raise BadParameter("radius must exceed 1")
    a = np.array([0.0, r - 1.0])
    b = a + r * np.array([math.cos(junction_angle), math.sin(junction_angle)])
    if not (b[0] > 0 and b[1] < 0):
        raise BadParameter("junction point must lie in the open fourth quadrant")
    t = a[1] / (a[1] - b[1])
    c = a + t * (b - a)  # on the x-axis
    r2 = float(np.hypot(*(c - b)))
    phi_b = math.atan2(b[1] - c[1], b[0] - c[0])
    q4 = [
        Arc(Vec2(a[0], a[1]), r, -np.pi / 2, junction_angle),
        Arc(Vec2(c[0], c[1]), r2, phi_b, 0.0),
    ]
    params = {"radius": r, "junction_angle": float(junction_angle)}
    return make_arc_chain(_reflect_q4_chain(q4))._replace_params(params)


def _reflect_q4_chain(q4: list[Arc]) -> list[Arc]:
    """Fourfold reflection of a fourth-quadrant arc run into a closed chain.

    The run must go from the negative y-axis to the positive x-axis. The
    first-quadrant part mirrors across the x-axis (reversed), the left half
    is the point reflection of the right half.
    """
    q1 = []
    for a in reversed(q4):
        q1.append(
            Arc(
                Vec2(a.center.x1, -a.center.x2),
                a.radius,
                -a.end_angle,
                -a.start_angle,
            )
        )
    right = q4 + q1
    left = [
        Arc(
            Vec2(-a.center.x1, -a.center.x2),
            a.radius,
            a.start_angle + np.pi,
            a.end_angle + np.pi,
        )
        for a in right
    ]
    return right + left


# -- ellipse intersections ---------------------------------------------------


class EllipseMaxNorm(NormModel):
    """Gauge max(|v|_E1, |v|_E2): intersection of two ellipse balls."""

    family = "ellipse_intersection"

    def __init__(self, m1, m2):
        m1 = np.asarray(m1, dtype=float)
        m2 = np.asarray(m2, dtype=float)
        super().__init__({"m1": m1.tolist(), "m2": m2.tolist()})
        self.m1 = m1
        self.m2 = m2
        self.single = np.allclose(m1, m2, rtol=0, atol=1e-14)
        self.is_c2 = self.single
        self._kinks = None
        # a single ellipse evaluates its one form once
        self._one_form = np.array_equal(m1, m2)

    def _forms(self, pts):
        q1 = quad_form(pts, self.m1)
        return q1, q1 if self._one_form else quad_form(pts, self.m2)

    def _gauge_raw(self, pts):
        with np.errstate(over="ignore", under="ignore"):
            s = np.maximum(*self._forms(pts))
        return _rescaled(self._gauge_raw, pts, s, np.sqrt(s))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        q1, q2 = self._forms(pts)
        g = np.sqrt(np.maximum(q1, q2))
        pick = (q1 >= q2)[:, None]
        mv = np.where(pick, pts @ self.m1.T, pts @ self.m2.T)
        return mv / g[:, None]

    def kink_thetas(self):
        if self.single:
            return np.empty(0)
        if self._kinks is None:
            grid = phase_grid(8192)
            units = np.column_stack([np.cos(grid), np.sin(grid)])
            q1, q2 = self._forms(units)
            d = q1 - q2
            # one bisection lane per crossing, signed so that it rises through 0
            j = np.where(d * np.roll(d, -1) < 0)[0]
            sign = np.where(d[j] < 0, 1.0, -1.0)

            def f(ts):
                a, b = self._forms(np.column_stack([np.cos(ts), np.sin(ts)]))
                return (a - b) * sign

            kinks = bisect_batch(f, grid[j], grid[j] + 2.0 * np.pi / 8192)
            self._kinks = np.sort(kinks % (2.0 * np.pi))
        return self._kinks

    def one_sided_supports(self, theta):
        p = self.sphere_points_at(np.array([theta]))[0]
        f1 = self.m1 @ p / (p @ self.m1 @ p)
        f2 = self.m2 @ p / (p @ self.m2 @ p)
        eps = 1e-7
        pm = self.sphere_points_at(np.array([theta - eps]))[0]
        q1, q2 = self._forms(pm[None, :])
        return (f1, f2) if q1[0] >= q2[0] else (f2, f1)

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        pts = self.sphere_points_at(thetas)
        q1, q2 = self._forms(pts)
        out = np.empty_like(thetas)
        for mask, m in ((q1 >= q2, self.m1), (q1 < q2, self.m2)):
            if np.any(mask):
                sub = pts[mask]
                grads = 2.0 * sub @ m.T
                num = np.abs(
                    2 * m[0, 0] * grads[:, 1] ** 2
                    - 2 * 2 * m[0, 1] * grads[:, 0] * grads[:, 1]
                    + grads[:, 0] ** 2 * 2 * m[1, 1]
                )
                out[mask] = num / (grads[:, 0] ** 2 + grads[:, 1] ** 2) ** 1.5
        ks = self.kink_thetas()
        if ks.size:
            d = angle_dist(thetas[:, None], ks[None, :])
            out[np.min(d, axis=1) <= 1e-12] = INF
        return out


def make_ellipse_pair(m1, m2) -> EllipseMaxNorm:
    """Intersection of two origin-centered ellipse balls, given as symmetric
    positive-definite 2x2 forms."""
    for m in (m1, m2):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)) or abs(m[0, 1] - m[1, 0]) > 1e-14:
            raise BadParameter("forms must be finite symmetric 2x2")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise BadParameter("forms must be positive definite")
    return EllipseMaxNorm(m1, m2).validate()


def make_ellipse(semi_axis_x: float, semi_axis_y: float, angle: float = 0.0) -> EllipseMaxNorm:
    """Single origin-centered ellipse norm with the given semi-axes."""
    if not (semi_axis_x > 0 and semi_axis_y > 0):
        raise BadParameter("semi-axes must be positive")
    r = rotation(angle)
    m = r @ np.diag([semi_axis_x**-2.0, semi_axis_y**-2.0]) @ r.T
    return make_ellipse_pair(m, m)


# -- blends ------------------------------------------------------------------


class BlendNorm(NormModel):
    """sqrt(base^2 + eps * euclidean^2); strictly positively curved for C2 bases.

    Both gauges are 1-homogeneous, so every corner ray of the base stays a
    corner ray of the blend."""

    family = "blend"

    def __init__(self, base: NormModel, eps: float):
        super().__init__({"eps": eps, "base": dict(base.params), "base_family": base.family})
        self.base = base
        self.eps = float(eps)
        self.is_c2 = base.is_c2

    def kink_thetas(self):
        return self.base.kink_thetas()

    def one_sided_supports(self, theta):
        # the gradient b f + eps x of the blend at its sphere point x
        x = self.sphere_points_at(np.array([theta]))[0]
        b = float(self.base.gauge_many(x[None, :])[0])
        f_lo, f_hi = self.base.one_sided_supports(theta)
        return b * np.asarray(f_lo) + self.eps * x, b * np.asarray(f_hi) + self.eps * x

    def curvature_sided(self, theta):
        if self.kink_at(theta) is not None:
            return 0.0, INF
        return super().curvature_sided(theta)

    def _gauge_raw(self, pts):
        b = self.base.gauge_many(pts)
        with np.errstate(over="ignore", under="ignore"):
            s = b * b + self.eps * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        return _rescaled(self._gauge_raw, pts, s, np.sqrt(s))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        gb = self.base.grad_many(pts)
        if gb is None:
            return None
        b = self.base.gauge_many(pts)
        g = np.sqrt(b * b + self.eps * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
        return (b[:, None] * gb + self.eps * pts) / g[:, None]

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        base = self.base
        if isinstance(base, LpNorm) and 2.0 <= base.p < INF:
            pts = self.sphere_points_at(thetas)
            n = base.gauge_many(pts)
            gn = base.grad_many(pts)
            hn = base.hess_gauge_many(pts)
            grad = 2.0 * n[:, None] * gn + 2.0 * self.eps * pts
            outer = gn[:, :, None] * gn[:, None, :]
            hess = 2.0 * (outer + n[:, None, None] * hn)
            hess[:, 0, 0] += 2.0 * self.eps
            hess[:, 1, 1] += 2.0 * self.eps
            return np.array(
                [curvature_implicit(grad[i], hess[i]) for i in range(len(thetas))]
            )
        return super().curvature_theta_many(thetas)


def make_blend(base: NormModel, eps: float) -> BlendNorm:
    """Blend of a validated base model with the Euclidean norm."""
    if not eps >= 0:
        raise BadParameter("eps must be nonnegative")
    if eps == 0.0:
        return base
    return BlendNorm(base, eps).validate()


# -- numerically sampled duals ------------------------------------------------


class DualNorm(NormModel):
    """Dual gauge of a base model, sampled once and interpolated.

    The radial table is computed with the exact support-maximization routine
    on a dense grid; a periodic cubic spline then serves gauge queries. The
    table resolution keeps interpolation error near 1e-12 for smooth bases.
    """

    family = "dual"

    def __init__(self, base: NormModel):
        super().__init__({"base": dict(base.params), "base_family": base.family})
        self.base = base
        from scipy.interpolate import CubicSpline

        thetas = np.arange(DUAL_TABLE_N + 1) * (2.0 * np.pi / DUAL_TABLE_N)
        units = np.column_stack([np.cos(thetas[:-1]), np.sin(thetas[:-1])])
        vals = geometry.dual_gauge_many(base, units)
        rho = 1.0 / vals
        self._spline = CubicSpline(
            thetas, np.concatenate([rho, rho[:1]]), bc_type="periodic"
        )
        self.is_c2 = base.is_c2

    def _gauge_raw(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * np.pi)
        out = np.zeros_like(r)
        nz = r > 0
        out[nz] = r[nz] / self._spline(th[nz])
        return out


def dual_model(model: NormModel) -> NormModel:
    """The dual plane as a first-class model (one instance per base model,
    kept on it).

    Exact for lp (conjugate exponent), quadrant mixes (conjugates quadrantwise),
    polygons (dual polygon), and single ellipses (inverse form); numerically
    sampled otherwise.
    """
    if model._dual is None:
        model._dual = _dual_model(model)
    return model._dual


def _dual_model(model: NormModel) -> NormModel:
    if isinstance(model, LpNorm):
        if model.p == 1.0:
            return make_lp(INF)
        if model.p == INF:
            return make_lp(1.0)
        return make_lp(model.p / (model.p - 1.0))
    if isinstance(model, QuadrantMixNorm):
        return make_quadrant_mix(model.p / (model.p - 1.0), model.q / (model.q - 1.0))
    if isinstance(model, PolygonNorm):
        return make_polygon(model.normals)
    if isinstance(model, EllipseMaxNorm) and model.single:
        m = np.linalg.inv(model.m1)
        return make_ellipse_pair(m, m)
    if isinstance(model, DualNorm):
        return model.base
    return DualNorm(model).validate()
