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
from .numerics import BLOCK_POINTS, circle_max, illinois_batch, phase_grid

#: support functionals differing by more than this (in sup norm) mark a kink
SMOOTH_JUMP_TOL = 1e-6

#: a polar angle this close to one of the model's kink angles is that kink
KINK_TOL = 1e-9

#: declared invertibility threshold for 2x2 maps
DET_TOL = 1e-12

#: the grid of operator_norm_batch's search, scanned on its first half
#: (operator_norms searches the first half of the model's fine cache)
OPNORM_BATCH_GRID = 512

#: the support table's tolerance on the maximiser's angle, its halvings of
#: an interval at most, and the Illinois steps of the polish where it fails
SUPPORT_TOL = 1e-9
SUPPORT_DEPTH = 24
SUPPORT_STEPS = 40

#: the eight signed permutations of the plane, each exact in floating point:
#: I and -I, the axis flips, the diagonal swaps and the quarter turns. A
#: model's symmetries() is the subgroup of them that it declares.
SIGNED_PERMUTATIONS = np.array(
    [
        [[1, 0], [0, 1]],
        [[-1, 0], [0, -1]],
        [[-1, 0], [0, 1]],
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[0, -1], [-1, 0]],
        [[0, -1], [1, 0]],
        [[0, 1], [-1, 0]],
    ],
    dtype=float,
)
AXIS_FLIP = SIGNED_PERMUTATIONS[2]
QUARTER_TURN = SIGNED_PERMUTATIONS[6]

#: the signs of the four quadrants' images of the first: I, the flip
#: x1 -> -x1, -I and the flip x2 -> -x2
_QUADRANT_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


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
    """sup{<f, y> : gauge(y) <= 1}: dual_gauge_many at one functional."""
    f = as_vec(f)
    return float(dual_gauge_many(model, np.array([[f.x1, f.x2]]))[0])


def dual_gauge_many(model, fs: np.ndarray) -> np.ndarray:
    """The support function h(f) = sup{<f, y> : gauge(y) <= 1} of the unit
    ball at the rows f of fs (support_points)."""
    return support_points(model, fs)[0]


def support_points(model, fs):
    """(h(f), theta, x) for the rows f of fs: the support function and the
    polar angle of the sphere point x with <f, x> = h(f), by the support
    table's cubic, or its Illinois polish where the cubic is not trusted."""
    fs = np.asarray(fs, dtype=float)
    table, trusted, phi0 = _support_table(model)
    rel = (np.arctan2(fs[:, 1], fs[:, 0]) - phi0) % (2.0 * np.pi)
    i = np.searchsorted(table[0], rel, side="right") - 1
    start, inv_width, a, c1, c2, c3, b, end = table[:, i]
    t = (rel - start) * inv_width
    thetas = a + t * (c1 + t * (c2 + t * c3))
    polish = np.flatnonzero(~trusted[i] & (t > 0.0))
    if polish.size:
        psi = rel[polish] + phi0

        def turn(th):  # the support's angle at th less f's, rising through 0
            return (_support_knots(model, th)[0] - psi + np.pi) % (2.0 * np.pi) - np.pi

        lo, hi = (start - rel)[polish], (end - rel)[polish]
        thetas[polish] = illinois_batch(turn, a[polish], b[polish], lo, hi, SUPPORT_STEPS)
    points = model.sphere_points_at(thetas)
    return np.einsum("ij,ij->i", fs, points), thetas, points


def _support_knots(model, thetas, f=None, kappas=None):
    """(phi, d theta / d phi = 1 / (kappa |x|^2 |f|)) at the sphere points x
    of thetas, f the support (the model's unless given) paired 1 with x."""
    x = model.sphere_points_at(thetas)
    f = model.grad_many(x) if f is None else f
    kappas = model.curvature_theta_many(thetas) if kappas is None else kappas
    scale = np.einsum("ij,ij->i", x, x) * np.hypot(f[:, 0], f[:, 1]) / np.einsum("ij,ij->i", f, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arctan2(f[:, 1], f[:, 0]), 1.0 / (kappas * scale)


def _hermite(rows):
    """(c1, c2, c3) of theta = ta + t (c1 + t (c2 + t c3)) over t in [0, 1]
    across each row (ta, pa, ma, tb, pb, mb): the cubic Hermite interpolant
    of theta from ta to tb with slopes ma, mb in phi from pa to pb, each
    slope capped at 3 times the secant's, which keeps it monotone (Fritsch
    and Carlson, SIAM J. Numer. Anal. 17, 1980); theta stays at ta where it
    or phi does not rise."""
    ta, pa, ma, tb, pb, mb = rows.T
    rise = np.where((tb > ta) & (pb > pa), tb - ta, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = (np.where(rise > 0.0, np.minimum(m * (pb - pa) / rise, 3.0), 0.0) for m in (ma, mb))
    return a * rise, (3.0 - 2.0 * a - b) * rise, (a + b - 2.0) * rise


def _support_table(model):
    """The maximiser's angle theta as a function of the support angle phi,
    kept on the model: knots at the sphere cache's angles, the sweep hints,
    and each corner row twice, with either side's support and curvature (a
    kink's cone of supports keeps theta at the kink). Between knots theta is
    _hermite's cubic, checked at a quarter, half and three quarters of the
    interval's phi: the Newton step from the cubic's angle to the true one
    must be at most SUPPORT_TOL there, and the value <f, x> it would gain at
    most SUPPORT_TOL^2 relative. A failing interval is split at its middle,
    SUPPORT_DEPTH times at most, and left untrusted after that.

    Returns (table, trusted, phi0): the table's rows are the intervals'
    start phi, 1 / width, the cubic's coefficients, end theta and end phi,
    with phi unwrapped from the first knot's phi0."""
    if model._support_table is not None:
        return model._support_table
    c = model.corners()
    free = np.concatenate([model.sphere_cache()["thetas"], model.feature_thetas()])
    free = free[~c.lookup(free)[0]]
    knots = [(free, *_support_knots(model, free))]
    for f, k in ((c.f_minus, c.k_minus), (c.f_plus, c.k_plus)):
        knots.append((c.thetas, *_support_knots(model, c.thetas, f, k)))
    theta, phi, slope = map(np.concatenate, zip(*knots))
    # by angle, a corner's minus side first
    order = np.lexsort((np.arange(len(theta)) >= len(theta) - len(c.thetas), theta))
    theta, phi, slope = theta[order], phi[order], slope[order]
    # each step turns the support by [0, pi), rounding on a flat stretch by 0
    turns = np.maximum((np.diff(phi, prepend=phi[0]) + np.pi) % (2.0 * np.pi) - np.pi, 0.0)
    rows = np.column_stack([theta, np.minimum(np.cumsum(turns), 2.0 * np.pi), slope])
    rows = np.hstack([rows, np.roll(rows, -1, axis=0)])
    rows[-1, 3:5] += 2.0 * np.pi
    done = []
    u = np.array([0.25, 0.5, 0.75])
    with np.errstate(invalid="ignore"):  # a slope of inf gives NaN, which fails
        for _ in range(SUPPORT_DEPTH):
            if not len(rows):
                break
            c1, c2, c3 = (v[:, None] for v in _hermite(rows))
            ta, pa, tb, pb = (rows[:, [k]] for k in (0, 1, 3, 4))
            tc = ta + u * (c1 + u * (c2 + u * c3))
            inside = (tc >= ta) & (tc <= tb)
            tc = np.where(inside, tc, ta + u * (tb - ta))
            pc, mc = (v.reshape(tc.shape) for v in _support_knots(model, tc.ravel()))
            pc = np.clip(pa + (pc - phi[0] - pa + np.pi) % (2.0 * np.pi) - np.pi, pa, pb)
            miss = pa + u * (pb - pa) - pc
            step = miss * mc  # the Newton step in theta
            close = inside & (np.abs(step) <= SUPPORT_TOL) & (np.abs(miss * step) <= SUPPORT_TOL**2)
            # a cone (theta fixed) or an empty interval (phi fixed) is exact
            good = (tb[:, 0] <= ta[:, 0]) | (pb[:, 0] <= pa[:, 0]) | close.all(axis=1)
            done.append(rows[good])
            knot, rows = np.column_stack([tc[:, 1], pc[:, 1], mc[:, 1]])[~good], rows[~good]
            rows = np.vstack([np.column_stack([rows[:, :3], knot]), np.column_stack([knot, rows[:, 3:]])])
    trusted = np.arange(sum(map(len, done)) + len(rows)) < sum(map(len, done))
    rows = np.vstack(done + [rows])
    order = np.lexsort((rows[:, 0], rows[:, 1]))
    rows, trusted = rows[order], trusted[order]
    pa, pb = rows[:, 1], rows[:, 4]
    # theta stays at the start until the polish where the cubic is not trusted
    cubic = [np.where(trusted, c, 0.0) for c in _hermite(rows)]
    table = np.stack([pa, 1.0 / np.where(pb > pa, pb - pa, np.inf), rows[:, 0], *cubic, rows[:, 3], pb])
    model._support_table = (table, trusted, phi[0])
    return model._support_table


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


def declares(model, g) -> bool:
    """Whether the signed permutation g is among the model's symmetries()."""
    return bool((model.symmetries() == g).all(axis=(1, 2)).any())


def grid_fold(model, n: int):
    """(m, rep, signs): phase_grid(n), n a multiple of 4, as the images of
    its first m rows under the model's declared sign flips, row k the image
    of row rep[k] under diag(signs[k]). With the axis flips declared (so the
    group holds all four diagonal signed permutations) m = n / 4, the first
    quadrant, whose angles theta turn to pi - theta, pi + theta and
    2 pi - theta; otherwise -I alone folds, m = n / 2 and row k + m is row k
    turned by pi. The angles map exactly on the grid, and multiplying by a
    sign is exact."""
    quadrants = [0, 1, 2, 3] if declares(model, AXIS_FLIP) else [0, 2]
    m = n // len(quadrants)
    rows = np.arange(m)
    rep = np.concatenate([rows[::-1] if q % 2 else rows for q in quadrants])
    return m, rep, np.repeat(_QUADRANT_SIGNS[quadrants], m, axis=0)


def sphere_table(model, n: int) -> dict:
    """Sphere data and curvatures on the phase-offset n-grid (cache builder),
    computed on grid_fold's fundamental domain only. Every other row is an
    exact image of its representative under a declared isometry g = diag(s):
    points and supports are g x and g f, tangents det(g) g t (a reflection
    reverses the orientation), kappas and the kink and smooth flags are
    copied."""
    thetas = phase_grid(n)
    m, rep, signs = grid_fold(model, n)
    domain = thetas[:m]
    table = {**sphere_data(model, domain), "kappas": model.curvature_theta_many(domain)}
    flips = {"points": signs, "supports": signs, "tangents": signs * signs.prod(axis=1, keepdims=True)}
    out = {"thetas": thetas}
    for key, rows in table.items():
        out[key] = rows[rep]
        if key in flips:
            out[key] *= flips[key]
    return out


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


def _grid_norms(model, mats, pts) -> np.ndarray:
    """gauge(T z) for each T in mats (shape (k, 2, 2)) at each of the points
    pts, shape (k, len(pts)), gauged in blocks of BLOCK_POINTS images (whole
    maps' grids; the stage is memory-bound). The gauge works row by row, so
    the blocks change no value."""
    k, grid = mats.shape[0], len(pts)
    vals = np.empty((k, grid))
    per = max(1, BLOCK_POINTS // grid)
    for lo in range(0, k, per):
        block = mats[lo : lo + per]
        images = _map_images(block[:, None], pts).reshape(len(block) * grid, 2)
        vals[lo : lo + per] = model.gauge_many(images).reshape(len(block), grid)
    return vals


def _operator_norms(model, mats, pts, iters: int, period: float = 2.0 * np.pi, centers=None, zoom=False):
    """sup of gauge(T z) over the gauge-unit sphere for each T in mats (shape
    (k, 2, 2)): _grid_norms at the sphere points ``pts`` of
    phase_grid(len(pts), period), then one lane-wise search of all maps
    (circle_max: golden of ``iters`` steps, or with ``zoom`` the zoom of as
    fine a final step) around each map's best grid angle and its
    ``centers``. Returns (values, witness angles)."""
    return circle_max(_map_gauge(model, mats), _grid_norms(model, mats, pts), 1, iters, period, centers, zoom)


def _map_gauge(model, mats):
    """f(rows, ts) = gauge(T z) for the maps mats[rows] at the sphere points
    of the angles ts, circle_max's lane function."""

    def val(rows, ts):
        return model.gauge_many(_map_images(mats[rows], model.sphere_points_at(ts)))

    return val


def form_operator_norms(mats, r=(1.0, 0.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Exact operator norms of the finite maps mats (shape (k, 2, 2)) for the
    gauge |R z|, R = [[r00, r01], [0, r11]] with r = (r00, r01, r11) from
    numerics.form_factor (R = I, the Euclidean norm, by default): sigma_max
    of M = R T R^-1 = [[a, b], [c, d]], (hypot(a + d, c - b) + hypot(a - d,
    c + b)) / 2, which squares no entry. M^T M has its top eigenvector at
    half the angle arg((a - d) + i(c + b)) - arg((a + d) + i(c - b)), and
    the witness is the polar angle of R^-1 of it. Returns (values,
    angles)."""
    r00, r01, r11 = r
    u = r01 / r00
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    a, b, c, d = a + u * c, (r00 / r11) * (b + u * (d - a - u * c)), (r11 / r00) * c, d - u * c
    e, h, f, g = a + d, c - b, a - d, c + b
    half = 0.5 * (np.arctan2(g, f) - np.arctan2(h, e))
    sin = np.sin(half)
    return 0.5 * (np.hypot(e, h) + np.hypot(f, g)), np.arctan2(r00 * sin, r11 * np.cos(half) - r01 * sin)


def vertex_operator_norms(model, mats, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Exact operator norms of the finite maps mats (shape (k, 2, 2)) on a
    polygonal ball, one of each pair +-v of whose vertices is a row of
    vertices: z -> gauge(T z) is convex, so its sup over the ball is
    max gauge(T v) over the vertices, and gauge(T(-v)) = gauge(T v). The
    witness is the polar angle of the first maximising vertex. Returns
    (values, angles)."""
    vals = _grid_norms(model, mats, vertices)
    best = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), best], np.arctan2(vertices[best, 1], vertices[best, 0])


def _exact_norms(model, mats):
    """model._exact_operator_norms(mats), or None where the model has no
    closed form. A map with a non-finite entry reaches the hook as the zero
    map and reads as the search reads it: NaN where an entry is NaN, inf
    where one is infinite."""
    finite = np.isfinite(mats).all(axis=(1, 2))
    if finite.all():
        return model._exact_operator_norms(mats)
    exact = model._exact_operator_norms(np.where(finite[:, None, None], mats, 0.0))
    if exact is None:
        return None
    degenerate = np.where(np.isnan(mats).any(axis=(1, 2)), np.nan, np.inf)
    return np.where(finite, exact[0], degenerate), exact[1]


def operator_norms(model, mats, centers=None) -> tuple[np.ndarray, np.ndarray]:
    """sup of gauge(T z) over the gauge-unit sphere for each 2x2 map T of
    mats (shape (k, 2, 2)), with the polar angle of a maximiser: the model's
    closed form where it has one (NormModel._exact_operator_norms), else the
    certificate search (_certificate_search). Returns (values, angles)."""
    mats = np.asarray(mats, dtype=float)
    exact = _exact_norms(model, mats)
    return exact if exact is not None else _certificate_search(model, mats, centers)


def _certificate_search(model, mats, centers=None):
    """operator_norms by search: the first half of the model's fine cache,
    2048 of its 4096 points, as a pi-periodic search, since gauge(T(-z)) =
    gauge(T z); then a zoom as fine as an 80-step golden search (14 rounds
    of 33 points, one gauge call a round for all maps), all maps as lanes
    of one search, so each value and witness angle is bit for bit the
    one-map result, ``centers`` as in circle_max. The cache's second half is
    the exact negation of its first, and circle_max keeps the first of two
    tied samples, so values and angles are bit for bit those of the search
    over the whole cache."""
    fine = model.fine_points()
    return _operator_norms(model, mats, fine[: len(fine) // 2], 80, np.pi, centers, zoom=True)


def operator_norm(model, t) -> OperatorNorm:
    """operator_norms of the one map t (a LinearMap2 or a 2x2 array)."""
    mat = t.matrix() if isinstance(t, LinearMap2) else np.asarray(t, dtype=float)
    vals, angles = operator_norms(model, mat[None])
    return OperatorNorm(float(vals[0]), angles[0])


def operator_norm_batch(model, mats: np.ndarray, bound: float = np.inf) -> np.ndarray:
    """Operator norms of a batch of 2x2 matrices (shape (k, 2, 2)), for
    sweep-style callers where the certificate search would dominate the
    runtime: the model's closed form where it has one, else _batch_search
    (whose reading of ``bound`` the exact values meet too)."""
    mats = np.asarray(mats, dtype=float)
    exact = _exact_norms(model, mats)
    return exact[0] if exact is not None else _batch_search(model, mats, bound)


def _batch_search(model, mats, bound: float = np.inf) -> np.ndarray:
    """operator_norm_batch by search: the OPNORM_BATCH_GRID grid plus a
    60-step golden refinement, all maps as lanes of one search. It stays
    golden, not zoomed as the certificate search is, so the classification's
    output stays as it was.

    gauge(T(-z)) = gauge(T z), so only the first half of the grid is
    scanned, as a pi-periodic search (numerics.circle_max): the values are
    bit for bit those of the full scan of the points (z, -z), z on that
    half. A map whose grid maximum exceeds ``bound`` is not refined and
    reads that maximum, which the refined value, never below it, exceeds
    as well; each refined lane is bit for bit its value in the full
    search. Such a map's grid row is set to -inf in place, which circle_max
    does not refine, so no copy of the grid is made."""
    pts = model.sphere_points_at(phase_grid(OPNORM_BATCH_GRID // 2, np.pi))
    vals = _grid_norms(model, mats, pts)
    out = vals.max(axis=1)
    done = out > bound
    vals[done] = -np.inf
    refined = circle_max(_map_gauge(model, mats), vals, 1, 60, np.pi)[0]
    return np.where(done, out, refined)
