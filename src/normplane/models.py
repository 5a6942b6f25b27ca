"""The catalogue of norm families: lp, polar-profile, quadrant mixes,
polygons, arc chains (the spliced sphere and the staircase sphere among
them), ellipse intersections, blends, and the duals of all of them (closed
forms where a family has one, the support function of the base's ball
otherwise).

Every model is immutable after construction and carries two eagerly built
caches: a 1024-point sphere table with supports/tangents/curvatures and a
4096-point boundary table used for containment certificates. Each family
declares its isometries among the eight signed permutations
(``symmetries``), and both caches compute one fundamental domain of the
declared sign flips, the other rows being its exact images.

gauge(-v) == gauge(v) holds exactly, bit for bit, for every family. Most
formulas are exactly even as written (absolute values, hypot, a quadrant
picked by a sign product), so their rows are evaluated as given. No gauge
squares a component or raises it to the p: lp takes the p-th power of a
ratio in [0, 1], ellipse forms are |R z| with R the Cholesky factor, and a
blend is a hypot, so every gauge is 1-homogeneous at every scale. The
four families whose gauge reads an angle or a face normal (polar profiles, arc
chains, support duals: arctan2(-v) is theta + pi only to rounding; polygons:
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
    angle_dist,
    form_factor,
    form_norm,
    phase_grid,
    rotation,
    sorted_unique,
)

SPHERE_CACHE_N = 1024
FINE_CACHE_N = 4096

#: junction tangents must agree to this tolerance (Euclidean, absolute)
TANGENT_TOL = 1e-9

#: convexity slack for cross-product tests on the cache
CONVEXITY_TOL = 1e-12

#: validate() rejects a declared isometry that moves the gauge of a sphere
#: point by more than this
SYMMETRY_TOL = 1e-9

#: parameter sets count as mapped onto themselves to this fraction of their
#: largest entry, the rounding of a set built from its images
PARAM_SYMMETRY_TOL = 1e-14


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


def _subgroup(keep) -> np.ndarray:
    """The signed permutations (geometry.SIGNED_PERMUTATIONS) where keep holds."""
    return geometry.SIGNED_PERMUTATIONS[np.asarray(keep, dtype=bool)]


def _closed_under(rows: np.ndarray, act) -> np.ndarray:
    """The signed permutations g whose images act(g, rows) of the rows (a
    parameter set: vertices, arcs, forms) each lie within PARAM_SYMMETRY_TOL
    of a row."""
    tol = PARAM_SYMMETRY_TOL * np.abs(rows).max()
    keep = []
    for g in geometry.SIGNED_PERMUTATIONS:
        images = act(g, rows)
        gap = np.zeros((len(rows), len(rows)))
        for j in range(rows.shape[1]):
            np.maximum(gap, np.abs(images[:, j, None] - rows[None, :, j]), out=gap)
        keep.append(bool(np.all(gap.min(axis=1) <= tol)))
    return _subgroup(keep)


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
        self._eccentricity_sq = None
        self._sweep = None
        self._kappa_extrema = None
        self._delta_curve = None
        self._corners = None
        self._support_table = None
        self._symmetries = None

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

    def _declared_symmetries(self) -> np.ndarray:
        """The family's isometries among the signed permutations, from its
        parameters; here {I, -I}, which every norm has."""
        return geometry.SIGNED_PERMUTATIONS[:2]

    def _exact_operator_norms(self, mats):
        """(values, witness angles): sup of gauge(T z) over the sphere for
        the finite maps mats (shape (k, 2, 2)) in the family's closed form,
        which geometry.operator_norms and operator_norm_batch read before
        they search; here None, no closed form."""
        return None

    # -- shared machinery -----------------------------------------------------

    def gauge_many(self, points) -> np.ndarray:
        # a 2-D float64 array, the common case, goes through unconverted
        if not (type(points) is np.ndarray and points.ndim == 2 and points.dtype == np.float64):
            points = np.atleast_2d(np.asarray(points, dtype=float))
        return self._gauge_raw(points)

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
        units *= self._radii(thetas, units)[:, None]
        return units

    def curvature_theta_many(self, thetas) -> np.ndarray:
        """Sphere curvature at the polar angles thetas, in the family's closed
        form; here the polyhedral rule: 0, and inf within 1e-12 of a kink."""
        thetas = np.asarray(thetas, dtype=float)
        return _infinite_at_kinks(np.zeros_like(thetas), thetas, self.kink_thetas())

    def symmetries(self) -> np.ndarray:
        """The signed permutations g with gauge(g x) = gauge(x) that the
        family declares, shape (k, 2, 2), in the order of
        geometry.SIGNED_PERMUTATIONS (I and -I first); built on first use and
        kept. The caches, the classification sweep and the UMST table fold by
        them, and validate() checks them."""
        if self._symmetries is None:
            self._symmetries = self._declared_symmetries()
        return self._symmetries

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
        return sorted_unique(np.concatenate([self.corners().thetas, self._sweep_hints()]))

    def faces(self) -> tuple:
        """The sphere's flat faces, as (lo, hi) polar-angle intervals sorted
        by lo, hi past 2pi when the face wraps: the spans between cyclically
        consecutive corner rows whose facing supports agree to KINK_TOL and
        whose facing curvature limits are both 0."""
        c = self.corners()
        nxt = np.roll(np.arange(len(c.thetas)), -1)
        gap = c.f_plus - c.f_minus[nxt]
        flat = np.hypot(gap[:, 0], gap[:, 1]) <= geometry.KINK_TOL
        flat &= (c.k_plus == 0.0) & (c.k_minus[nxt] == 0.0)
        hi = c.thetas[nxt] + np.where(nxt == 0, 2.0 * np.pi, 0.0)
        return tuple(zip(c.thetas[flat].tolist(), hi[flat].tolist()))

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

    def sphere_cache(self) -> dict:
        if self._cache is None:
            self._cache = geometry.sphere_table(self, SPHERE_CACHE_N)
        return self._cache

    def fine_points(self) -> np.ndarray:
        """The sphere points of phase_grid(FINE_CACHE_N): those of
        geometry.grid_fold's domain computed, the others their exact images."""
        if self._fine_points is None:
            m, rep, signs = geometry.grid_fold(self, FINE_CACHE_N)
            self._fine_points = self.sphere_points_at(phase_grid(FINE_CACHE_N)[:m])[rep]
            self._fine_points *= signs
            self._fine_points.setflags(write=False)
        return self._fine_points

    def validate(self) -> "NormModel":
        """Build caches eagerly and run generic norm checks, the declared
        symmetries among them: every g other than +-I (which hold exactly)
        must keep the gauge of the fine cache's computed points to
        SYMMETRY_TOL, so that its folded rows are sphere points too."""
        pts = self.fine_points()
        if not np.all(np.isfinite(pts)):
            raise NotConvex(f"{self.family}: sphere has non-finite points")
        domain = pts[: geometry.grid_fold(self, FINE_CACHE_N)[0]]
        for g in self.symmetries()[2:]:
            if np.abs(self.gauge_many(domain @ g.T) - 1.0).max() > SYMMETRY_TOL:
                raise NotSymmetric(f"{self.family}: gauge is not invariant under {g.astype(int).tolist()}")
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
        a = np.abs(pts)
        hi, lo = np.maximum(a[:, 0], a[:, 1]), np.minimum(a[:, 0], a[:, 1])
        # hi (1 + (lo / hi)^p)^(1/p): only a ratio in [0, 1] is raised to the
        # p; equal components (0 and inf among them) have the ratio 1
        t = np.divide(lo, hi, out=np.ones(len(hi)), where=lo < hi)
        return hi * (t**self.p + 1.0) ** (1.0 / self.p)

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

    def _declared_symmetries(self):
        return geometry.SIGNED_PERMUTATIONS

    def _exact_operator_norms(self, mats):
        # l2 is sigma_max; l1 and linf take one vertex of each pair +-v, the
        # axis units and the diagonals (1, 1), (-1, 1)
        if self.p == 2.0:
            return geometry.form_operator_norms(mats)
        if self.p == 1.0:
            return geometry.vertex_operator_norms(self, mats, _AXIS_UNITS[:2])
        if self.p == INF:
            return geometry.vertex_operator_norms(self, mats, _AXIS_UNITS[:2] + _AXIS_UNITS[1:3])
        return None

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


#: the k-th derivative of cos(n theta) is n^k sign trig(n theta), by k mod 4
_COS_DERIVATIVES = ((1.0, np.cos), (-1.0, np.sin), (-1.0, np.cos), (1.0, np.sin))


class PolarNorm(NormModel):
    """Gauge r / g(theta) for a positive pi-periodic trigonometric profile;
    ``g_many(thetas, order)`` gives g and its derivatives."""

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
        term = np.empty_like(out)
        # sin(n theta) takes the signs and trig functions of cos(n theta) three orders on
        for terms, shift in ((self.cos_terms, 0), (self.sin_terms, 3)):
            sign, trig = _COS_DERIVATIVES[(order + shift) % 4]
            for n, a in terms:
                np.multiply(n, thetas, out=term)
                trig(term, out=term)
                term *= sign * a * n**order
                out += term
        return out

    def _gauge_raw(self, pts):
        return _radial_gauge(pts, self.g_many)

    def _declared_symmetries(self):
        # theta -> -theta keeps cos(n theta) and negates sin(n theta);
        # theta -> theta + pi / 2 keeps both where 4 | n and negates both
        # where not; theta -> pi / 2 - theta keeps cos(n theta) where 4 | n
        # and sin(n theta) where not (n is even)
        cos_n = [n % 4 for n, a in self.cos_terms if a != 0.0]
        sin_n = [n % 4 for n, a in self.sin_terms if a != 0.0]
        flips = not sin_n
        swaps = not any(cos_n) and all(sin_n)
        quarter = not any(cos_n + sin_n)
        return _subgroup([True, True, flips, flips, swaps, swaps, quarter, quarter])

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

    def _declared_symmetries(self):
        # the swaps keep the quadrants I / III and II / IV, the flips and
        # quarter turns exchange them
        return _subgroup([True, True] + [self.p == self.q] * 2 + [True, True] + [self.p == self.q] * 2)

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
        pts = _canonical(pts)
        inf = np.isinf(pts).any(axis=1)
        if not inf.any():
            return (pts @ self.normals.T).max(axis=1)
        # a row with an infinite component lies outside every multiple of the
        # ball, so it gauges to inf (NaN if it holds a NaN); the product would
        # meet inf * 0 or inf - inf on it
        out = np.where(np.isnan(pts).any(axis=1), np.nan, INF)
        out[~inf] = (pts[~inf] @ self.normals.T).max(axis=1)
        return out

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.normals[np.argmax(pts @ self.normals.T, axis=1)]

    def _corner_rows(self):
        th = np.arctan2(self.vertices[:, 1], self.vertices[:, 0]) % (2.0 * np.pi)
        return _polygon_corners(th, self.normals)

    def _exact_operator_norms(self, mats):
        # the vertices run counterclockwise around a symmetric polygon, so the
        # second half are the first's antipodes
        return geometry.vertex_operator_norms(self, mats, self.vertices[: len(self.vertices) // 2])

    def _declared_symmetries(self):
        return _closed_under(self.vertices, lambda g, v: v @ g.T)


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
        # |c|^2 and r^2 per arc, for _radii
        self._center_sq = np.einsum("ij,ij->i", self.centers, self.centers)
        self._radius_sq = self.radii * self.radii
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
        # the inner junctions' offsets from the chain's start, for arc_index
        self._offsets = self.phi_bounds[1:-1] - self.phi_start

    def arc_index(self, thetas: np.ndarray) -> np.ndarray:
        rel = (np.asarray(thetas) - self.phi_start) % (2.0 * np.pi)
        idx = np.searchsorted(self._offsets, rel, side="right")
        return np.clip(idx, 0, len(self.arcs) - 1)

    def _radii(self, thetas, u):
        idx = self.arc_index(thetas)
        b = np.einsum("ij,ij->i", u, self.centers[idx])
        # the far root t = b + sqrt(...): each arc bulges away from its center
        # and the origin is inside the ball, so <p - c, p> > 0 at the sphere
        # point p = t u, that is t > b
        return b + np.sqrt(np.maximum(b * b - self._center_sq[idx] + self._radius_sq[idx], 0.0))

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

    def _declared_symmetries(self):
        # an isometry maps each arc onto an arc, and the circles' centres and
        # radii fix the closed G1 chain
        arcs = np.column_stack([self.centers, self.radii])
        return _closed_under(arcs, lambda g, a: np.column_stack([a[:, :2] @ g.T, a[:, 2]]))

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
    if not (math.isfinite(r) and math.isfinite(junction_angle)):
        raise BadParameter("radius and junction angle must be finite")
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
    """Gauge max(|v|_E1, |v|_E2): intersection of two ellipse balls, each
    |v|_E = |R v| with R the Cholesky factor of its form."""

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
        # each gauge is a form norm |R z|, its Cholesky factor computed once
        self.r1, self.r2 = form_factor(m1), form_factor(m2)
        self.is_c2 = self.single

    def _declared_symmetries(self):
        # g maps the ball onto itself when it permutes its ellipses
        forms = np.array([self.m1.ravel(), self.m2.ravel()])
        return _closed_under(forms, lambda g, f: (g @ f.reshape(-1, 2, 2) @ g.T).reshape(-1, 4))

    def _forms(self, pts):
        # a single ellipse evaluates its one form once
        n1 = form_norm(pts, self.r1)
        return n1, n1 if self.single else form_norm(pts, self.r2)

    def _gauge_raw(self, pts):
        return form_norm(pts, self.r1) if self.single else np.maximum(*self._forms(pts))

    def _exact_operator_norms(self, mats):
        # a single ellipse is |R z|, so ||T|| = sigma_max(R T R^-1)
        return geometry.form_operator_norms(mats, self.r1) if self.single else None

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n1, n2 = self._forms(pts)
        g = np.maximum(n1, n2)
        pick = (n1 >= n2)[:, None]
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
        f1, f2 = (pts @ m / n[:, None] ** 2 for m, n in zip((self.m1, self.m2), self._forms(pts)))
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
        n1, n2 = self._forms(pts)
        out = np.empty_like(thetas)
        for mask, m in ((n1 >= n2, self.m1), (n1 < n2, self.m2)):
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
        self.root_eps = math.sqrt(self.eps)
        self.is_c2 = base.is_c2

    def _corner_rows(self):
        base = self.base.corners()
        if not base.thetas.size:
            return base
        x = self.sphere_points_at(base.thetas)
        sides = ((base.f_minus, base.k_minus), (base.f_plus, base.k_plus))
        (f_minus, k_minus), (f_plus, k_plus) = (self._from_base(x, f, k) for f, k in sides)
        return Corners(base.thetas, f_minus, f_plus, k_minus, k_plus, base.kink)

    def _sweep_hints(self):
        # the base's curvature is 0 or inf there, and so the blend's may be
        return self.base._sweep_hints()

    def _declared_symmetries(self):
        # the Euclidean term is invariant under every orthogonal map
        return self.base.symmetries()

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
        # hypot(b, sqrt(eps) |x|) takes no square, so it stays in range
        return np.hypot(self.base.gauge_many(pts), self.root_eps * np.hypot(pts[:, 0], pts[:, 1]))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        b = self.base.gauge_many(pts)
        g = np.hypot(b, self.root_eps * np.hypot(pts[:, 0], pts[:, 1]))
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


# -- duals ---------------------------------------------------------------------


class SupportDual(NormModel):
    """The dual of a base model from the support function of its ball,
    N*(f) = h_B(f) = <f, x> with x the base's sphere point that f supports
    (geometry.support_points), on the canonical rows. The gradient at f is
    x, and the curvature at the dual sphere point f is 1 / (kappa(x) (|x|
    |f|)^3) (Hug, Results Math. 29, 1996). A base junction at x with support
    f turns into a junction at f, a kink into a face from f_minus to f_plus
    whose ends have curvature 0 on the face's side, both supported by x, and
    a sweep hint into a hint at its support's angle."""

    family = "dual"

    def __init__(self, base: NormModel):
        super().__init__({"base": dict(base.params), "base_family": base.family})
        self.base = base
        self.is_c2 = base.is_c2

    def _gauge_raw(self, pts):
        return geometry.dual_gauge_many(self.base, _canonical(pts))

    def grad_many(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        canon = _canonical(pts)
        x = geometry.support_points(self.base, canon)[2]
        # the gradient of an even gauge is odd
        return np.where((canon == pts).all(axis=1)[:, None], x, -x)

    def curvature_theta_many(self, thetas):
        units = _canonical(_units(np.asarray(thetas, dtype=float)))
        h, th, x = geometry.support_points(self.base, units)
        # the dual sphere point u / h(u) has norm 1 / h(u)
        return _dual_kappas(self.base.curvature_theta_many(th), x, 1.0 / h)

    def _corner_rows(self):
        c = self.base.corners()
        x = self.base.sphere_points_at(c.thetas)
        sides = ((c.k_minus, c.f_minus), (c.k_plus, c.f_plus))
        k_minus, k_plus = (_dual_kappas(k, x, np.hypot(f[:, 0], f[:, 1])) for k, f in sides)
        # a row at each f_minus, and one more at each kink's f_plus
        f, x = np.concatenate([c.f_minus, c.f_plus[c.kink]]), np.concatenate([x, x[c.kink]])
        k_minus = np.concatenate([k_minus, np.zeros(c.kink.sum())])
        k_plus = np.concatenate([np.where(c.kink, 0.0, k_plus), k_plus[c.kink]])
        thetas = np.arctan2(f[:, 1], f[:, 0]) % (2.0 * np.pi)
        return Corners(thetas, x, x, k_minus, k_plus, np.zeros(len(f), dtype=bool))

    def _sweep_hints(self):
        g = self.base.grad_many(self.base.sphere_points_at(self.base._sweep_hints()))
        return np.arctan2(g[:, 1], g[:, 0]) % (2.0 * np.pi)

    def _declared_symmetries(self):
        # h_B(g f) = h_B(f) for an orthogonal g that keeps B
        return self.base.symmetries()


def _dual_kappas(kappas, x, fnorms):
    """1 / (kappa (|x| |f|)^3): the dual's curvature at the points f of norms
    fnorms, supported by the base's sphere points x of curvatures kappas."""
    with np.errstate(divide="ignore"):
        return 1.0 / (kappas * (np.hypot(x[:, 0], x[:, 1]) * fnorms) ** 3)


def dual_model(model: NormModel) -> NormModel:
    """The dual plane as a first-class model (one instance per base model,
    kept on it, and the base kept on the dual: the bidual is the model).

    Exact for lp (conjugate exponent), quadrant mixes (conjugates quadrantwise),
    polygons (dual polygon), and single ellipses (inverse form); the
    SupportDual of the model otherwise.
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
    return SupportDual(model).validate()
