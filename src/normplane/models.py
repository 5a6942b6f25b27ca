"""The catalogue of norm families: lp, polar-profile, quadrant mixes,
polygons, arc chains (the spliced sphere and the staircase sphere among
them), ellipse intersections, blends, and numerically sampled duals.

Every model is immutable after construction and carries two eagerly built
caches: a 1024-point sphere table with supports/tangents/curvatures and a
4096-point boundary table used for containment certificates.

gauge(-v) == gauge(v) holds exactly, bit for bit, for every family. Most
formulas are exactly even as written (absolute values, hypot, squares, a
quadrant picked by a sign product), so their rows are evaluated as given. The
four families whose gauge reads an angle or a face normal (polar profiles, arc
chains, sampled duals: arctan2(-v) is theta + pi only to rounding; polygons:
normals are antipodal only to make_polygon's tolerance) flip each row to a
canonical sign first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .curvature import (
    CURVATURE_CAP,
    INF,
    curvature_implicit_many,
    curvature_polar_many,
    stencil_curvature_many,
)
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
    PeriodicSpline,
    angle_dist,
    phase_grid,
    quad_form,
    rotation,
)

SPHERE_CACHE_N = 1024
FINE_CACHE_N = 4096

#: radial table size of the numerically sampled dual
DUAL_TABLE_N = 8192

#: junction tangents must agree to this tolerance (Euclidean, absolute)
TANGENT_TOL = 1e-9

#: convexity slack for cross-product tests on the cache
CONVEXITY_TOL = 1e-12


def _rescaled(formula, pts: np.ndarray) -> np.ndarray:
    """formula(pts) -> (s, gauge), kept 1-homogeneous at every scale: on the
    finite nonzero rows whose squares (or p-th powers) s leave [1e-300,
    1e300], where they under- or overflow, the gauge is formula's on the row
    with the larger component factored out, once (factoring again is exact
    and changes nothing)."""
    s, out = formula(pts)
    # written so that a NaN row (NaN min and max) takes the row-wise path
    if s.size and not (s.min() >= 1e-300 and s.max() <= 1e300):
        hi = np.abs(pts).max(axis=1)
        off = ~((s >= 1e-300) & (s <= 1e300)) & (hi > 0) & (hi < INF)
        out[off] = hi[off] * formula(pts[off] / hi[off, None])[1]
    return out


def _odd_quadrants(pts: np.ndarray) -> np.ndarray:
    """Rows in the closed quadrants I and III, decided from the signs: the
    product x1 x2 underflows to -0.0 for tiny vectors."""
    return np.sign(pts[:, 0]) * np.sign(pts[:, 1]) >= 0.0


def _canonical(points: np.ndarray) -> np.ndarray:
    """Flip each row to the representative with x1 > 0 (or x1 == 0, x2 >= 0)."""
    points = np.asarray(points, dtype=float)
    # the sign that decides is x1's, or x2's where x1 is +-0; NaN never flips
    flip = np.where(points[:, 0] != 0, points[:, 0], points[:, 1]) < 0
    # multiplying by +-1 is exact and keeps signed zeros and NaN rows
    return points * np.where(flip, -1.0, 1.0)[:, None]


def _radial_gauge(pts: np.ndarray, radius) -> np.ndarray:
    """r / radius(theta): the gauge of a family known by its sphere radius at
    each polar angle, read on the canonical rows so that it is exactly even.
    The origin gauges to 0 and a NaN row to NaN."""
    pts = _canonical(pts)
    return np.hypot(pts[:, 0], pts[:, 1]) / radius(np.arctan2(pts[:, 1], pts[:, 0]))


def _units(thetas: np.ndarray) -> np.ndarray:
    """Rows (cos theta, sin theta), written in place: cheaper than stacking."""
    units = np.empty(thetas.shape + (2,))
    np.cos(thetas, out=units[..., 0])
    np.sin(thetas, out=units[..., 1])
    return units


def _infinite_at_kinks(kappas: np.ndarray, thetas: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """kappas, set to INF in place wherever thetas lie within 1e-12 of a kink."""
    if kinks.size:
        kappas[angle_dist(thetas[:, None], kinks[None, :]).min(axis=1) <= 1e-12] = INF
    return kappas


class Corners(NamedTuple):
    """A sphere's corners and curvature junctions, one row per polar angle
    in ``thetas``: the one-sided supports ``f_minus`` / ``f_plus`` (the limits
    from below / above theta, pairing 1 with the sphere point), the one-sided
    curvature limits ``k_minus`` / ``k_plus``, and whether the row is a
    ``kink``. At a smooth junction f_minus == f_plus."""

    thetas: np.ndarray
    f_minus: np.ndarray
    f_plus: np.ndarray
    k_minus: np.ndarray
    k_plus: np.ndarray
    kink: np.ndarray

    def take(self, rows) -> "Corners":
        return Corners(*(column[rows] for column in self))

    def kinks(self) -> "Corners":
        return self.take(self.kink)

    def lookup(self, thetas: np.ndarray):
        """(near, rows): which of thetas lie within KINK_TOL of a row, and
        the nearest row of each of those."""
        if not self.thetas.size:
            return np.zeros(len(thetas), dtype=bool), np.empty(0, dtype=int)
        d = angle_dist(self.thetas[None, :], thetas[:, None])
        rows = np.argmin(d, axis=1)
        near = d[np.arange(len(thetas)), rows] <= geometry.KINK_TOL
        return near, rows[near]


def _polygon_corners(thetas: np.ndarray, normals: np.ndarray) -> Corners:
    """Corners of a polygonal sphere, flat on either side: the vertex at
    thetas[j] joins the faces with normals normals[j - 1] and normals[j]."""
    n = len(thetas)
    zero = np.zeros(n)
    return Corners(thetas, np.roll(normals, 1, axis=0), normals, zero, zero, np.ones(n, dtype=bool))


_NO_CORNERS = _polygon_corners(np.empty(0), np.empty((0, 2)))


class NormModel:
    """Base class; subclasses implement ``_gauge_raw``.

    ``_gauge_raw`` receives the rows as given and must return exactly even
    values, gauge(-v) == gauge(v) bit for bit: a family whose formula is not
    exactly even calls ``_canonical`` on its rows first. ``_radii`` gives the
    sphere radii along unit vectors; ``sphere_points_at`` builds those once.
    """

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
        self._corners = None

    # -- family hooks --------------------------------------------------------

    def _gauge_raw(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_many(self, points: np.ndarray) -> np.ndarray:
        """The gauge gradient, in the family's closed form."""
        raise NotImplementedError

    def _corner_rows(self) -> Corners:
        """The sphere's corners and curvature junctions, rows in any order."""
        return _NO_CORNERS

    def _sweep_hints(self) -> np.ndarray:
        """Angles worth adding to classification sweeps that are no corner rows."""
        return np.empty(0)

    # -- shared machinery -----------------------------------------------------

    def gauge_many(self, points) -> np.ndarray:
        return self._gauge_raw(np.atleast_2d(np.asarray(points, dtype=float)))

    def gauge(self, v) -> float:
        v = as_vec(v)
        return float(self.gauge_many(np.array([[v.x1, v.x2]]))[0])

    def _radii(self, thetas: np.ndarray, units: np.ndarray) -> np.ndarray:
        """Sphere radii along ``units``, the (cos, sin) rows of ``thetas``."""
        return 1.0 / self.gauge_many(units)

    def radial_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        return self._radii(thetas, _units(thetas))

    def sphere_points_at(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        units = _units(thetas)
        return units * self._radii(thetas, units)[:, None]

    def curvature_theta_many(self, thetas) -> np.ndarray:
        """Sphere curvature at the polar angles thetas, in the family's closed
        form; here the polyhedral rule: 0, and inf within 1e-12 of a kink."""
        thetas = np.asarray(thetas, dtype=float)
        return _infinite_at_kinks(np.zeros_like(thetas), thetas, self.kink_thetas())

    # -- corners, served from the table -----------------------------------------

    def corners(self) -> Corners:
        """The corner table, sorted by angle; built on first use and kept."""
        if self._corners is None:
            rows = self._corner_rows()
            self._corners = rows.take(np.argsort(rows.thetas))
        return self._corners

    def kink_thetas(self) -> np.ndarray:
        """Polar parameters of non-smooth sphere points, sorted, in [0, 2pi)."""
        return self.corners().kinks().thetas

    def feature_thetas(self) -> np.ndarray:
        """Angles worth adding to classification sweeps: the corner rows and
        the family's hints."""
        return np.union1d(self.corners().thetas, self._sweep_hints())

    def one_sided_supports(self, theta: float):
        """(f_minus, f_plus), the one-sided supports of the kink within
        KINK_TOL of theta, or None off the kinks."""
        kinks = self.corners().kinks()
        near, rows = kinks.lookup(np.array([float(theta)]))
        return (kinks.f_minus[rows[0]], kinks.f_plus[rows[0]]) if near[0] else None

    def curvature_sided_many(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) of the one-sided curvatures at each of thetas. Within
        KINK_TOL of a corner row: (min(k_minus, k_plus), inf) at a kink,
        (min, max) of k_minus and k_plus at a junction; elsewhere (k, k) with
        k from curvature_theta_many."""
        thetas = np.asarray(thetas, dtype=float)
        c = self.corners()
        near, rows = c.lookup(thetas)
        k_lo = np.empty(len(thetas))
        if not near.all():
            k_lo[~near] = self.curvature_theta_many(thetas[~near])
        k_hi = k_lo.copy()
        k_lo[near] = np.minimum(c.k_minus, c.k_plus)[rows]
        k_hi[near] = np.where(c.kink, INF, np.maximum(c.k_minus, c.k_plus))[rows]
        return k_lo, k_hi

    def curvature_sided(self, theta: float) -> tuple[float, float]:
        """curvature_sided_many at one angle."""
        k_lo, k_hi = self.curvature_sided_many(np.array([theta]))
        return float(k_lo[0]), float(k_hi[0])

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

_AXES = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
#: the unit vectors at _AXES
_AXIS_UNITS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


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
        if self.p == INF:
            return np.abs(pts).max(axis=1)
        if self.p == 1.0:
            return np.abs(pts).sum(axis=1)
        if self.p == 2.0:
            return np.hypot(pts[:, 0], pts[:, 1])
        return _rescaled(self._power_sum, pts)

    def _power_sum(self, pts):
        with np.errstate(over="ignore", under="ignore"):
            s = np.abs(pts[:, 0]) ** self.p + np.abs(pts[:, 1]) ** self.p
        return s, s ** (1.0 / self.p)

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

    def _corner_rows(self):
        # the face normal after each vertex, counterclockwise
        after = np.roll(_AXIS_UNITS, -1, axis=0)
        if self.p == 1.0:
            return _polygon_corners(_AXES, _AXIS_UNITS + after)
        if self.p == INF:
            return _polygon_corners(_AXES + np.pi / 4, after)
        return _NO_CORNERS

    def _sweep_hints(self):
        # the axis points, where the curvature of p != 2 is 0 or inf
        return np.empty(0) if self.polyhedral or self.p == 2.0 else _AXES

    def _axis_kappa(self) -> float:
        if self.p == 2.0:
            return 1.0
        return INF if self.p < 2.0 else 0.0

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        if self.p == 2.0:
            return np.ones_like(thetas)
        if self.polyhedral:
            return super().curvature_theta_many(thetas)
        pts = self.sphere_points_at(thetas)
        return _lp_sphere_kappa(np.abs(pts), self.p)


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


def _exponent(p) -> float:
    """An exponent given as a number or as the string 'inf'."""
    if isinstance(p, str):
        if p != "inf":
            raise BadParameter(f"unrecognized p {p!r}")
        return INF
    return float(p)


def _conjugate(p: float) -> float:
    """The conjugate exponent p / (p - 1), with 1 and inf exchanged."""
    return INF if p == 1.0 else 1.0 if p == INF else p / (p - 1.0)


def make_lp(p) -> LpNorm:
    """lp plane, p in [1, inf]; p may be the string or float 'inf'."""
    return LpNorm(_exponent(p)).validate()


# -- polar profile ---------------------------------------------------------


class RadialNorm(NormModel):
    """Gauge r / g(theta) of a family known by its sphere radius g at each
    polar angle; ``g_many(thetas, order)`` gives g and its derivatives."""

    def g_many(self, thetas, order: int = 0) -> np.ndarray:
        raise NotImplementedError

    def _gauge_raw(self, pts):
        return _radial_gauge(pts, self.g_many)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        th = np.arctan2(pts[:, 1], pts[:, 0])
        g = self.g_many(th)
        gp = self.g_many(th, 1)
        c, s = np.cos(th), np.sin(th)
        return np.column_stack([(c * g + gp * s), (s * g - gp * c)]) / (g * g)[:, None]


#: the k-th derivative of cos(n theta) is n^k sign trig(n theta), by k mod 4
_COS_DERIVATIVES = ((1.0, np.cos), (-1.0, np.sin), (-1.0, np.cos), (1.0, np.sin))


class PolarNorm(RadialNorm):
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
        # sin(n theta) takes the signs and trig functions of cos(n theta) three orders on
        for terms, shift in ((self.cos_terms, 0), (self.sin_terms, 3)):
            sign, trig = _COS_DERIVATIVES[(order + shift) % 4]
            for n, a in terms:
                out += sign * a * n**order * trig(n * thetas)
        return out

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
    """lp in quadrants I/III, lq in II/IV (1 <= p, q <= inf). Its corners are
    the sides' own: the axis points when a side is l1, and an linf side's
    vertices in its quadrants."""

    family = "quadrant_mix"

    def __init__(self, p, q):
        super().__init__({"p": "inf" if p == INF else p, "q": "inf" if q == INF else q})
        self._lp, self._lq = LpNorm(_exponent(p)), LpNorm(_exponent(q))
        self.p, self.q = self._lp.p, self._lq.p

    def _gauge_raw(self, pts):
        return np.where(_odd_quadrants(pts), self._lp._gauge_raw(pts), self._lq._gauge_raw(pts))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m = _odd_quadrants(pts)[:, None]
        return np.where(m, self._lp.grad_many(pts), self._lq.grad_many(pts))

    def _corner_rows(self):
        # an axis point joins the side before it to the side after it: lq to
        # lp at 0 and pi, lp to lq at pi/2 and 3 pi/2
        q_first = np.array([True, False, True, False])
        (fp_lo, fp_hi, kp), (fq_lo, fq_hi, kq) = map(_axis_limits, (self._lp, self._lq))
        axes = Corners(
            _AXES,
            np.where(q_first[:, None], fq_lo, fp_lo),
            np.where(q_first[:, None], fp_hi, fq_hi),
            np.where(q_first, kq, kp),
            np.where(q_first, kp, kq),
            np.full(4, 1.0 in (self.p, self.q)),
        )
        # linf's vertices lie in quadrants I, II, III, IV in turn
        tables = [axes] + [
            side.corners().take(slice(j, None, 2))
            for j, side in enumerate((self._lp, self._lq))
            if side.p == INF
        ]
        return Corners(*map(np.concatenate, zip(*tables)))

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        pts = self.sphere_points_at(thetas)
        ax = np.abs(pts)
        kp, kq = (_side_kappas(side, thetas, ax) for side in (self._lp, self._lq))
        out = np.where(_odd_quadrants(pts), kp, kq)
        # an axis corner claims the points within 1e-12 of the axis, a smooth
        # axis point only itself
        lo = ax.min(axis=1)
        axis_kappa = max(self._lp._axis_kappa(), self._lq._axis_kappa())
        out[lo < 1e-12 if 1.0 in (self.p, self.q) else lo == 0.0] = axis_kappa
        return out


def _axis_limits(side: LpNorm):
    """A mix side's one-sided supports (from below, from above) and
    curvature at the four axis points: an l1 side's face normals and 0,
    otherwise its gradient at the axis vector and its axis curvature."""
    if side.p == 1.0:
        c = side.corners()
        return c.f_minus, c.f_plus, 0.0
    grad = side.grad_many(_AXIS_UNITS)
    return grad, grad, side._axis_kappa()


def _side_kappas(side: LpNorm, thetas: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """Curvature of a mix's lp side at thetas, whose sphere points are |ax|
    wherever that side owns them."""
    if side.p == 2.0 or side.polyhedral:
        return side.curvature_theta_many(thetas)  # no gauge evaluation
    return _lp_sphere_kappa(ax, side.p)


def make_quadrant_mix(p, q) -> QuadrantMixNorm:
    """lp in quadrants I/III, lq in II/IV, p and q in [1, inf]; either may be
    the string or float 'inf'."""
    return QuadrantMixNorm(p, q).validate()


def make_l2_l1_hybrid() -> QuadrantMixNorm:
    """Euclidean in quadrants I/III, l1 in II/IV; the classic mixed example."""
    return make_quadrant_mix(2.0, 1.0)


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
        return (_canonical(pts) @ self.normals.T).max(axis=1)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.normals[np.argmax(pts @ self.normals.T, axis=1)]

    def _corner_rows(self):
        th = np.arctan2(self.vertices[:, 1], self.vertices[:, 0]) % (2.0 * np.pi)
        return _polygon_corners(th, self.normals)


def make_polygon(vertices) -> PolygonNorm:
    """Origin-symmetric convex polygon norm from counterclockwise vertices."""
    v = np.asarray([[as_vec(p).x1, as_vec(p).x2] for p in vertices], dtype=float)
    if len(v) < 4 or len(v) % 2 == 1 or not np.all(np.isfinite(v)):
        raise BadParameter("need an even number (>= 4) of finite vertices")
    for row in v:
        d = np.abs(v + row).sum(axis=1)
        if d.min() > 1e-9:
            raise NotSymmetric(f"vertex {row} has no antipode")
    def cross(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    w = np.roll(v, -1, axis=0)
    e = w - v
    if np.any(cross(e, np.roll(e, -1, axis=0)) <= 0):
        raise NotConvex("vertices are not strictly convex counterclockwise")
    # positive turns alone allow a chain that winds twice, or an edge through
    # the origin: the origin must be strictly left of every edge, once around
    left = cross(v, w)
    windings = np.arctan2(left, np.einsum("ij,ij->i", v, w)).sum() / (2.0 * np.pi)
    if np.any(left <= 0) or round(windings) != 1:
        raise NotConvex("vertices do not go once around the origin, strictly inside every edge")
    return PolygonNorm(v).validate()


# -- arc chains --------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """Circle arc, traversed counterclockwise around its own center.

    ``start_angle``/``end_angle`` are angles at the center.
    """

    center: Vec2
    radius: float
    start_angle: float
    end_angle: float

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

    def _radii(self, thetas, u):
        idx = self.arc_index(thetas)
        c = self.centers[idx]
        r = self.radii[idx]
        b = np.einsum("ij,ij->i", u, c)
        # the far root t = b + sqrt(...): each arc bulges away from its center
        # and the origin is inside the ball, so <p - c, p> > 0 at the sphere
        # point p = t u, that is t > b
        return b + np.sqrt(np.maximum(b * b - np.einsum("ij,ij->i", c, c) + r * r, 0.0))

    def _gauge_raw(self, pts):
        return _radial_gauge(pts, self.radial_many)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        th = np.arctan2(pts[:, 1], pts[:, 0])
        idx = self.arc_index(th)
        u = _units(th)
        boundary = u * self._radii(th, u)[:, None]
        n = (boundary - self.centers[idx]) / self.radii[idx][:, None]
        pair = np.einsum("ij,ij->i", n, boundary)
        return n / pair[:, None]

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        return 1.0 / self.radii[self.arc_index(thetas)]

    def _corner_rows(self):
        # junction j starts arc j, which shares its support with arc j - 1
        normals = _units(np.array([a.start_angle for a in self.arcs]))
        points = self.centers + self.radii[:, None] * normals
        f = normals / np.einsum("ij,ij->i", normals, points)[:, None]
        k = 1.0 / self.radii
        junction = self.phi_bounds[:-1] % (2.0 * np.pi)
        return Corners(junction, f, f, np.roll(k, 1), k, np.zeros(len(k), dtype=bool))

    def _sweep_hints(self):
        # the arc midpoints
        mids = [a.point_at(0.5 * (a.start_angle + a.end_angle)) for a in self.arcs]
        return np.array([math.atan2(p[1], p[0]) % (2.0 * np.pi) for p in mids])

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
        if not np.isfinite([*a.center.as_array(), a.radius, a.start_angle, a.end_angle]).all():
            raise BadParameter("arc center, radius and angles must be finite")
        if a.radius <= 0:
            raise BadParameter("arc radius must be positive")
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
        # where m1 - m2 is semidefinite one form dominates: the pair is one
        # ellipse, computed with that form
        w = np.linalg.eigvalsh(m1 - m2)
        self.single = bool(w[0] >= 0.0 or w[1] <= 0.0)
        if self.single:
            m1 = m2 = m1 if w[0] >= 0.0 else m2
        self.m1 = m1
        self.m2 = m2
        self.is_c2 = self.single

    def _forms(self, pts):
        # a single ellipse evaluates its one form once
        q1 = quad_form(pts, self.m1)
        return q1, q1 if self.single else quad_form(pts, self.m2)

    def _gauge_raw(self, pts):
        return _rescaled(self._max_form, pts)

    def _max_form(self, pts):
        with np.errstate(over="ignore", under="ignore"):
            s = np.maximum(*self._forms(pts))
        return s, np.sqrt(s)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        q1, q2 = self._forms(pts)
        g = np.sqrt(np.maximum(q1, q2))
        pick = (q1 >= q2)[:, None]
        mv = np.where(pick, pts @ self.m1.T, pts @ self.m2.T)
        return mv / g[:, None]

    def _corner_rows(self):
        if self.single:
            return _NO_CORNERS
        # the corners lie on the null lines of the indefinite D = m1 - m2,
        # V (sqrt(w1), +-sqrt(-w0)) in its eigenbasis, each line met twice
        d = self.m1 - self.m2
        w, v = np.linalg.eigh(d)
        a, b = np.sqrt(w[1]), np.sqrt(-w[0])
        z = np.array([[a, b], [a, -b], [-a, -b], [-a, b]]) @ v.T
        thetas = np.arctan2(z[:, 1], z[:, 0]) % (2.0 * np.pi)
        pts = self.sphere_points_at(thetas)
        f1, f2 = (pts @ m / quad_form(pts, m)[:, None] for m in (self.m1, self.m2))
        k1, k2 = (curvature_implicit_many(2.0 * pts @ m.T, 2.0 * m) for m in (self.m1, self.m2))
        # q1 - q2 changes at rate 2 <z_perp, D z> turning through a corner, so
        # m1 is the larger form just before it where that rate is negative
        first = np.einsum("ij,ij->i", np.column_stack([-z[:, 1], z[:, 0]]), z @ d) < 0.0
        return Corners(
            thetas,
            np.where(first[:, None], f1, f2),
            np.where(first[:, None], f2, f1),
            np.where(first, k1, k2),
            np.where(first, k2, k1),
            np.ones(len(thetas), dtype=bool),
        )

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        pts = self.sphere_points_at(thetas)
        q1, q2 = self._forms(pts)
        out = np.empty_like(thetas)
        for mask, m in ((q1 >= q2, self.m1), (q1 < q2, self.m2)):
            if np.any(mask):
                out[mask] = curvature_implicit_many(2.0 * pts[mask] @ m.T, 2.0 * m)
        return _infinite_at_kinks(out, thetas, self.kink_thetas())


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

    def _corner_rows(self):
        base = self.base.corners()
        if not base.thetas.size:
            return base
        x = self.sphere_points_at(base.thetas)
        sides = ((base.f_minus, base.k_minus), (base.f_plus, base.k_plus))
        (f_minus, k_minus), (f_plus, k_plus) = (self._from_base(x, f, k) for f, k in sides)
        return Corners(base.thetas, f_minus, f_plus, k_minus, k_plus, base.kink)

    def _from_base(self, x, f, k):
        """(supports, curvatures) of the blend at its sphere points x, from the
        base's supports f and curvatures k on the same rays (inf where k is):
        the level curve G = 1 of G = b^2 + eps |x|^2, b the base gauge."""
        b = self.base.gauge_many(x)
        # b times the base's Hessian at x is its Hessian at y = x / b,
        # k |f|^3 y_perp y_perp^T (a 1-homogeneous gauge, <f, y> = 1)
        y_perp = np.column_stack([-x[:, 1], x[:, 0]]) / b[:, None]
        finite = k < INF
        h = np.where(finite, k, 0.0) * np.hypot(f[:, 0], f[:, 1]) ** 3
        support = b[:, None] * f + self.eps * x
        yy = y_perp[:, :, None] * y_perp[:, None, :]
        hess = 2.0 * (f[:, :, None] * f[:, None, :] + h[:, None, None] * yy)
        hess[:, 0, 0] += 2.0 * self.eps
        hess[:, 1, 1] += 2.0 * self.eps
        return support, np.where(finite, curvature_implicit_many(2.0 * support, hess), INF)

    def _gauge_raw(self, pts):
        return _rescaled(self._square_sum, pts)

    def _square_sum(self, pts):
        b = self.base.gauge_many(pts)
        with np.errstate(over="ignore", under="ignore"):
            s = b * b + self.eps * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        return s, np.sqrt(s)

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        b = self.base.gauge_many(pts)
        g = np.sqrt(b * b + self.eps * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
        return (b[:, None] * self.base.grad_many(pts) + self.eps * pts) / g[:, None]

    def curvature_theta_many(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        x = self.sphere_points_at(thetas)
        return self._from_base(x, self.base.grad_many(x), self.base.curvature_theta_many(thetas))[1]


def make_blend(base: NormModel, eps: float) -> BlendNorm:
    """Blend of a validated base model with the Euclidean norm."""
    if not 0 <= eps < INF:
        raise BadParameter("eps must be finite and nonnegative")
    if eps == 0.0:
        return base
    return BlendNorm(base, eps).validate()


# -- numerically sampled duals ------------------------------------------------


class DualNorm(RadialNorm):
    """Dual gauge of a base model, sampled once and interpolated.

    The radial table is computed with the exact support-maximization routine
    on a dense grid of DUAL_TABLE_N knots, of which the first half is gauged
    and the second half, the antipodal functionals, repeats it exactly (the
    dual gauge is even); the package's own periodic cubic spline
    (``numerics.PeriodicSpline``) then serves gauge queries. The table
    resolution keeps interpolation error near 1e-12 for smooth bases.
    Gradients come from the spline's first derivative; curvatures from a
    stencil on the radial function, since its second derivative is too rough.
    """

    family = "dual"

    def __init__(self, base: NormModel):
        super().__init__({"base": dict(base.params), "base_family": base.family})
        self.base = base
        half = _units(np.arange(DUAL_TABLE_N // 2) * (2.0 * np.pi / DUAL_TABLE_N))
        self._spline = PeriodicSpline(np.tile(1.0 / geometry.dual_gauge_many(base, half), 2))
        self.is_c2 = base.is_c2

    def g_many(self, thetas, order: int = 0):
        return self._spline(thetas, order)

    def curvature_theta_many(self, thetas):
        return stencil_curvature_many(self, np.asarray(thetas, dtype=float))


def dual_model(model: NormModel) -> NormModel:
    """The dual plane as a first-class model (one instance per base model,
    kept on it, and the base kept on the dual: the bidual is the model).

    Exact for lp (conjugate exponent), quadrant mixes (conjugates quadrantwise),
    polygons (dual polygon), and single ellipses (inverse form); numerically
    sampled otherwise.
    """
    if model._dual is None:
        model._dual = _dual_model(model)
        model._dual._dual = model
    return model._dual


def _dual_model(model: NormModel) -> NormModel:
    if isinstance(model, LpNorm):
        return make_lp(_conjugate(model.p))
    if isinstance(model, QuadrantMixNorm):
        return make_quadrant_mix(_conjugate(model.p), _conjugate(model.q))
    if isinstance(model, PolygonNorm):
        return make_polygon(model.normals)
    if isinstance(model, EllipseMaxNorm) and model.single:
        m = np.linalg.inv(model.m1)
        return make_ellipse_pair(m, m)
    return DualNorm(model).validate()
