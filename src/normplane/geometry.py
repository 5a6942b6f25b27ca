"""Vectors, linear maps, gauge evaluation, sphere parametrization, support
functionals, and gauge-relative operator norms.

Models are duck-typed here: anything with the NormModel surface from
``normplane.models`` works. Functionals are represented as plain vectors via
the dot-product pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, Singular
from .numerics import circle_max, phase_grid

#: support functionals differing by more than this (in sup norm) mark a kink
SMOOTH_JUMP_TOL = 1e-6

#: a polar angle this close to one of the model's kink angles is that kink
KINK_TOL = 1e-9

#: declared invertibility threshold for 2x2 maps
DET_TOL = 1e-12

#: coarse grid sizes (operator_norm and certificates search the model's
#: 4096-point fine cache)
DUAL_GAUGE_GRID = 2048
OPNORM_BATCH_GRID = 512


@dataclass(frozen=True, slots=True)
class Vec2:
    """A point of the plane; doubles as a functional via the dot pairing."""

    x1: float
    x2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2])

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x1, -self.x2)

    def scale(self, t: float) -> "Vec2":
        return Vec2(t * self.x1, t * self.x2)

    def dot(self, other: "Vec2") -> float:
        return self.x1 * other.x1 + self.x2 * other.x2

    def cross(self, other: "Vec2") -> float:
        return self.x1 * other.x2 - self.x2 * other.x1


def as_vec(v) -> Vec2:
    if isinstance(v, Vec2):
        return v
    x1, x2 = v
    return Vec2(float(x1), float(x2))


@dataclass(frozen=True, slots=True)
class LinearMap2:
    """A 2x2 linear map acting on Vec2 by columns-times-coordinates."""

    m11: float
    m12: float
    m21: float
    m22: float

    @staticmethod
    def from_matrix(mat) -> "LinearMap2":
        m = np.asarray(mat, dtype=float)
        return LinearMap2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(
            self.m11 * v.x1 + self.m12 * v.x2,
            self.m21 * v.x1 + self.m22 * v.x2,
        )

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def is_invertible(self) -> bool:
        return abs(self.det()) > DET_TOL

    def inverse(self) -> "LinearMap2":
        d = self.det()
        if abs(d) <= DET_TOL:
            raise Singular(f"determinant {d!r} below threshold")
        return LinearMap2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def compose(self, other: "LinearMap2") -> "LinearMap2":
        """self after other."""
        return LinearMap2.from_matrix(self.matrix() @ other.matrix())


@dataclass(frozen=True, slots=True)
class Disc:
    """Euclidean disc, used for inner/outer tangency certificates."""

    center: Vec2
    radius: float


@dataclass(frozen=True, slots=True)
class SpherePoint:
    """A unit-sphere point with its supporting data.

    ``support`` is the support functional as a vector (pairing value 1 at the
    point); ``tangent`` the gauge-unit tangent oriented counterclockwise;
    ``curvature`` the Euclidean curvature of the sphere there (may be inf).
    """

    theta: float
    point: Vec2
    support: Vec2
    tangent: Vec2
    curvature: float
    smooth: bool


def dual_gauge(model, f) -> float:
    """sup{<f, y> : gauge(y) <= 1}, by coarse grid plus golden refinement."""
    f = as_vec(f)
    return float(dual_gauge_many(model, np.array([[f.x1, f.x2]]))[0])


def dual_gauge_many(model, fs: np.ndarray) -> np.ndarray:
    """Dual gauges of the rows of fs: circle_max of <f, z> over the sphere
    from a DUAL_GAUGE_GRID grid, one seed per functional, 60 steps. The rows
    are scored in chunks of 1024, so the score table stays at 16 MiB."""
    fs = np.asarray(fs, dtype=float)
    grid = model.sphere_points_at(phase_grid(DUAL_GAUGE_GRID))
    out = np.empty(len(fs))
    for start in range(0, len(fs), 1024):
        chunk = fs[start:start + 1024]

        def val(rows, ts):
            return np.einsum("ij,ij->i", chunk[rows], model.sphere_points_at(ts))

        out[start:start + 1024] = circle_max(val, chunk @ grid.T, 1, 60)[0]
    out[np.hypot(fs[:, 0], fs[:, 1]) == 0.0] = 0.0
    return out


def sphere_data(model, thetas) -> dict:
    """Sphere points at the polar angles thetas, their supports (the family's
    gauge gradients scaled to pairing 1), gauge-unit
    counterclockwise tangents, and ``kink`` / ``smooth`` flags. Within
    KINK_TOL of a kink row of the model's corner table the support is the mean
    of the row's one-sided limits, scaled to pairing 1, and smooth only when
    they agree to SMOOTH_JUMP_TOL.
    """
    thetas = np.asarray(thetas, dtype=float)
    pts = model.sphere_points_at(thetas)
    grads = model.grad_many(pts)
    supports = grads / np.einsum("ij,ij->i", grads, pts)[:, None]
    kinks = model.corners().kinks()
    kink, rows = kinks.lookup(thetas)
    f_lo, f_hi = kinks.f_minus[rows], kinks.f_plus[rows]
    support = 0.5 * (f_lo + f_hi)
    # paired row by row as support @ point, which rounds unlike einsum
    supports[kink] = support / (support[:, None, :] @ pts[kink][:, :, None])[:, 0]
    smooth = ~kink
    smooth[kink] = np.max(np.abs(f_hi - f_lo), axis=1) <= SMOOTH_JUMP_TOL
    tdirs = np.column_stack([-supports[:, 1], supports[:, 0]])
    tangents = tdirs / model.gauge_many(tdirs)[:, None]
    return {"points": pts, "supports": supports, "tangents": tangents, "kink": kink, "smooth": smooth}


def sphere_point(model, theta: float) -> SpherePoint:
    """The unit-sphere point at Euclidean polar parameter theta.

    Non-smooth points are flagged rather than raised: ``support`` is then the
    average of the one-sided limits. A non-finite theta raises BadParameter.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise BadParameter(f"theta must be finite, got {theta!r}")
    data = sphere_data(model, np.array([theta]))
    pt, support, tangent = (data[key][0] for key in ("points", "supports", "tangents"))
    return SpherePoint(
        theta=theta,
        point=Vec2(float(pt[0]), float(pt[1])),
        support=Vec2(float(support[0]), float(support[1])),
        tangent=Vec2(float(tangent[0]), float(tangent[1])),
        curvature=float(model.curvature_theta_many(np.array([theta]))[0]),
        smooth=bool(data["smooth"][0]),
    )


def sphere_table(model, n: int) -> dict:
    """Sphere data and curvatures on the phase-offset n-grid (cache builder)."""
    thetas = phase_grid(n)
    return {"thetas": thetas, **sphere_data(model, thetas), "kappas": model.curvature_theta_many(thetas)}


class OperatorNorm(float):
    """Operator norm value carrying the maximizing angle as a witness."""

    witness_angle: float

    def __new__(cls, value: float, witness_angle: float):
        obj = super().__new__(cls, value)
        obj.witness_angle = float(witness_angle)
        return obj


def _map_images(mats: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """T z for 2x2 maps T (shape (..., 2, 2)) and points z (shape (..., 2))
    broadcast together, into one array: each coordinate is
    m[a, 0] z0 + m[a, 1] z1, the operand order of np.einsum, so the values
    match it bit for bit (up to the sign of a zero) at a fraction of its cost
    on size-2 axes."""
    x, y = pts[..., 0], pts[..., 1]
    out = np.empty(np.broadcast(mats[..., 0, 0], x).shape + (2,))
    for a in (0, 1):
        image = out[..., a]
        np.multiply(mats[..., a, 0], x, out=image)
        image += mats[..., a, 1] * y
    return out


def _operator_norms(model, mats, pts, iters: int, period: float = 2.0 * np.pi, centers=None, zoom=False):
    """sup of gauge(T z) over the gauge-unit sphere for each T in mats (shape
    (k, 2, 2)): the sphere points ``pts`` of phase_grid(len(pts), period),
    then one lane-wise search (circle_max: golden of ``iters`` steps, or
    with ``zoom`` the zoom of as fine a final step) around each map's best
    grid angle and its ``centers``. Returns (values, witness angles)."""
    k, grid = mats.shape[0], len(pts)
    vals = model.gauge_many(_map_images(mats[:, None], pts).reshape(k * grid, 2))

    def val(rows, ts):
        return model.gauge_many(_map_images(mats[rows], model.sphere_points_at(ts)))

    return circle_max(val, vals.reshape(k, grid), 1, iters, period, centers, zoom)


def operator_norms(model, mats, centers=None) -> tuple[np.ndarray, np.ndarray]:
    """sup of gauge(T z) over the gauge-unit sphere for each 2x2 map T of
    mats (shape (k, 2, 2)), at the certificate settings: the 4096 points of
    the model's fine cache plus a zoom as fine as an 80-step golden search
    (14 rounds of 33 points, one gauge call a round for all maps), all maps
    as lanes of one search, so each value and witness angle is bit for bit
    the one-map result, ``centers`` as in circle_max. Returns (values,
    angles)."""
    mats = np.asarray(mats, dtype=float)
    return _operator_norms(model, mats, model.fine_points(), 80, centers=centers, zoom=True)


def operator_norm(model, t) -> OperatorNorm:
    """operator_norms of the one map t (a LinearMap2 or a 2x2 array)."""
    mat = t.matrix() if isinstance(t, LinearMap2) else np.asarray(t, dtype=float)
    vals, angles = operator_norms(model, mat[None])
    return OperatorNorm(float(vals[0]), angles[0])


def operator_norm_batch(model, mats: np.ndarray) -> np.ndarray:
    """Operator norms of a batch of 2x2 matrices (shape (k, 2, 2)): the
    OPNORM_BATCH_GRID grid plus a 60-step golden refinement, all maps as
    lanes of one search; used by sweep-style callers where the one-at-a-time
    path would dominate the runtime. It stays golden, not zoomed as
    operator_norms is, so the classification's output stays as it was.

    gauge(T(-z)) = gauge(T z), so only the first half of the grid is
    scanned, as a pi-periodic search (numerics.circle_max): the values are
    bit for bit those of the full scan of the points (z, -z), z on that
    half."""
    pts = model.sphere_points_at(phase_grid(OPNORM_BATCH_GRID // 2, np.pi))
    return _operator_norms(model, np.asarray(mats, dtype=float), pts, 60, np.pi)[0]
