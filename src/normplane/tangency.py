"""Inner/outer disc and ellipse calculus at unit-sphere points.

Discs are searched along the inward support normal only; tangency at the
base point is then automatic and the admissible radii have a closed form:
for a tangent disc D(x - r n, r) and a sphere point z, membership of z is
governed by psi(z) = |z - x|^2 |f| / (2 (1 - <f, z>)), so the largest inner
radius is the infimum of psi over the sphere and the smallest outer radius
its supremum (the limit of psi at z -> x is the osculating radius, supplied
analytically). One rule, ``disc_bounds`` then ``disc_exists``, decides the
discs for the classification sweep (``sweep_radii``, psi's extremes on the
fine cache) and the per-point path (``disc_radii``, refined at the worst
angles), whose discs are then certified on the fine cache plus a zoom at the
worst angles (``numerics.circle_max``).

Ellipses come from one family: every origin-centered ellipse tangent to the
sphere at x with support f is ``tangent_ellipse(x, t)`` = f f^T + t x_perp
x_perp^T, of curvature t / |f|^3 at x. The inner and outer ellipses take t
at the extremes of ``tangent_ratio`` over the sphere, combined with the
one-sided curvatures as the disc radii are (``extremal_ts``), and inverting
a member gives the member at the dual point (``dual_transfer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import geometry
from .curvature import INF
from .errors import NonSmoothPoint, NotPositiveDefinite
from .geometry import Disc, SpherePoint, Vec2
from .numerics import angle_dist, circle_max, phase_grid, quad_form, spd_power

#: no disc below this radius counts as existing
MIN_DISC_RADIUS = 1e-6

#: no outer disc beyond this radius counts as existing (operational cap)
OUTER_DISC_CAP = 1e6

#: containment certification tolerance
CONTAIN_TOL = 1e-9

#: number of worst sample angles refined during certification
REFINE_WORST = 8


def _refined_max(val, vals) -> float:
    """Max of val over the circle from its samples vals on the phase-offset
    grid: circle_max with the REFINE_WORST largest samples, zoomed as finely
    as 40 golden steps (7 rounds, one call of val each)."""
    return float(circle_max(lambda _, th: val(th), vals[None], REFINE_WORST, 40, zoom=True)[0][0])


def _max_within(val, vals, bound: float) -> bool:
    """Whether _refined_max(val, vals) <= bound. The refined max is never
    below the grid's, so a sample above bound rejects without refining; a
    NaN grid falls through to the refinement."""
    return not vals.max() > bound and _refined_max(val, vals) <= bound


@dataclass(frozen=True)
class Ellipse:
    """Origin-centered ellipse {z : z^T M z <= 1} as a symmetric PD form."""

    m11: float
    m12: float
    m22: float

    def __post_init__(self):
        a, b, c = self.m11, self.m22, 2.0 * self.m12
        if not (a > 0 and 4.0 * a * b - c * c > 0):
            raise NotPositiveDefinite(f"form ({a!r}, {b!r}, {c!r}) is not positive definite")

    @staticmethod
    def from_matrix(m) -> "Ellipse":
        m = np.asarray(m, dtype=float)
        return Ellipse(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    @property
    def coeffs(self) -> tuple[float, float, float]:
        """(A, B, C) with A x^2 + B y^2 + C x y = 1 on the boundary."""
        return self.m11, self.m22, 2.0 * self.m12

    def semi_axes(self) -> tuple[float, float]:
        """(semi-major, semi-minor)."""
        w = np.linalg.eigvalsh(self.matrix())
        return 1.0 / np.sqrt(w[0]), 1.0 / np.sqrt(w[1])

    def gauge_many(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.sqrt(quad_form(pts, self.matrix()))

    def boundary_points(self, n: int) -> np.ndarray:
        phis = phase_grid(n)
        circle = np.column_stack([np.cos(phis), np.sin(phis)])
        return circle @ spd_power(self.matrix(), -0.5).T

    def inverse(self) -> "Ellipse":
        return Ellipse.from_matrix(np.linalg.inv(self.matrix()))


@dataclass(frozen=True)
class TangencyReport:
    point: SpherePoint
    inner_disc: Disc | None
    outer_disc: Disc | None
    inner_ellipse: Ellipse | None
    outer_ellipse: Ellipse | None


# -- tangent-disc radii -------------------------------------------------------


#: angular radius of the 0/0 exclusion zone around the base point; the local
#: constraint inside it is supplied exactly by the one-sided osculating radii
PSI_EXCLUDE = 3e-4


def psi_table(x, f, thetas, z, z_thetas) -> np.ndarray:
    """psi of the sphere points z (polar angles z_thetas) for the tangent
    discs at the base points x (supports f, polar angles thetas).

    Returns a (len(x), len(z)) table: NaN inside the exclusion zone around
    each base point, INF where z lies on or beyond the support line.
    """
    diff = z[None, :, :] - x[:, None, :]
    dist2 = diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2
    depth = 1.0 - f @ z.T
    fnorm = np.hypot(f[:, 0], f[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = dist2 * fnorm[:, None] / (2.0 * depth)
    ang = angle_dist(z_thetas[None, :], thetas[:, None])
    psi[ang < PSI_EXCLUDE] = np.nan
    psi[depth <= 0] = INF
    return psi


def disc_bounds(r_in, r_out, k_lo, k_hi, kink):
    """Combine psi's extremes with the one-sided osculating radii at the
    base points.

    1/k_hi caps the inner radius (0 at infinite curvature, no cap where
    k_hi <= 0). 1/k_lo floors the outer radius, except at a corner (a kink,
    or k_lo = inf), which carries no local outer constraint; a smooth point
    with k_lo <= 0 floors it at inf. Works lane-wise on arrays.
    """
    r_in = np.minimum(r_in, np.where(k_hi <= 0, INF, 1.0 / np.maximum(k_hi, 1e-300)))
    osc_out = np.where(
        kink | (k_lo == INF),
        0.0,
        np.where(k_lo <= 0, INF, 1.0 / np.maximum(k_lo, 1e-300)),
    )
    return r_in, np.maximum(r_out, osc_out)


def disc_exists(r_in, r_out):
    """(inner, outer) disc existence from the radii alone: a radius counts
    when it lies in [MIN_DISC_RADIUS, OUTER_DISC_CAP], which inf and NaN
    never do.

    No curvature test is needed on top: k_hi = inf gives r_in = 0, and
    k_lo < 1e-9 at a smooth point gives r_out > 1e9.
    """
    return tuple((r >= MIN_DISC_RADIUS) & (r <= OUTER_DISC_CAP) for r in (r_in, r_out))


def sweep_radii(model, thetas, points, supports, k_lo, k_hi, kink):
    """disc_bounds of psi's extremes on the fine cache, unrefined, for many
    base points at once (the classification sweep)."""
    fine = model.fine_points()
    fine_thetas = phase_grid(len(fine))
    r_in = np.empty(len(thetas))
    r_out = np.empty(len(thetas))
    chunk = 128
    for lo in range(0, len(thetas), chunk):
        sl = slice(lo, lo + chunk)
        psi = psi_table(points[sl], supports[sl], thetas[sl], fine, fine_thetas)
        r_in[sl] = np.nanmin(psi, axis=1)
        r_out[sl] = np.nanmax(psi, axis=1)
    return disc_bounds(r_in, r_out, k_lo, k_hi, kink)


def disc_radii(model, x: SpherePoint, which: str) -> float:
    """The largest inner radius (``which`` = "inner") or the smallest outer
    radius ("outer") of a tangent disc at x: disc_bounds of psi's extreme,
    refined at the worst angle.

    It may be 0 / inf when that disc does not exist; the curvature limit at
    x enters through the model's one-sided curvatures.
    """
    xa = x.point.as_array()[None, :]
    f = x.support.as_array()[None, :]
    theta = np.array([x.theta])
    fine = model.fine_points()

    def psi_at(th):
        # the support-line rule reads z = x itself (depth 0) as inf, and a
        # zone point near it can round to depth 0 too; the refinement's
        # samples may land there, so the zone stays NaN for it
        psi = psi_table(xa, f, theta, model.sphere_points_at(th), th)[0]
        return np.where(angle_dist(th, x.theta) < PSI_EXCLUDE, np.nan, psi)

    psi = psi_table(xa, f, theta, fine, phase_grid(len(fine)))[0]
    r_in = r_out = np.nan
    if which == "inner":
        # the infimum of psi, as minus the sup of -psi
        r_in = -_refined_max(lambda th: -psi_at(th), -np.where(np.isnan(psi), INF, psi))
    elif np.any(np.isinf(psi)):
        r_out = INF  # another sphere point on the support line: flat face
    else:
        r_out = _refined_max(psi_at, np.where(np.isnan(psi), -INF, psi))
    k_lo, k_hi = model.curvature_sided(x.theta)
    kink = model.one_sided_supports(x.theta) is not None
    return float(disc_bounds(r_in, r_out, k_lo, k_hi, kink)[which != "inner"])


#: certify-adjust slacks tried in order when the raw radius misses by noise
_ADJUST_STEPS = (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)


def _tangent_disc(x: SpherePoint, r: float) -> Disc:
    n = x.support.as_array()
    n = n / np.hypot(n[0], n[1])
    c = x.point.as_array() - r * n
    return Disc(Vec2(float(c[0]), float(c[1])), float(r))


def _certified_disc(model, x: SpherePoint, which: str) -> Disc | None:
    """The ``which`` ("inner" or "outer") tangent disc at x, at the first
    _ADJUST_STEPS slack that verify_disc certifies (shrinking an inner
    radius, growing an outer one), or None when disc_exists rejects it."""
    r = disc_radii(model, x, which)
    if not disc_exists(r, r)[0]:  # one rule for either side
        return None
    sign = -1.0 if which == "inner" else 1.0
    for slack in _ADJUST_STEPS:
        disc = _tangent_disc(x, r * (1.0 + sign * slack))
        if verify_disc(model, disc, which):
            return disc
    return None


def inner_disc(model, x: SpherePoint) -> Disc | None:
    """Largest disc through x inside the ball, or None.

    None when no radius >= 1e-6 passes containment (an infinite curvature
    at x among them). The returned disc is certified on the fine grid.
    """
    return _certified_disc(model, x, "inner")


def outer_disc(model, x: SpherePoint) -> Disc | None:
    """Smallest disc containing the ball and tangent at x, or None.

    The search is capped: radii above 1e6 count as nonexistent, so a smooth
    point of curvature below 1e-9 has none. The returned disc is certified
    on the fine grid.
    """
    return _certified_disc(model, x, "outer")


def verify_disc(model, disc: Disc, which: str, tol: float = CONTAIN_TOL) -> bool:
    """Certify disc containment against the fine cache plus refinement."""
    pts = model.fine_points()
    c = disc.center.as_array()
    d = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])

    def dist(th):
        z = model.sphere_points_at(th)
        return np.hypot(z[:, 0] - c[0], z[:, 1] - c[1])

    if which == "inner":
        return _max_within(lambda th: -dist(th), -d, tol - disc.radius)
    return _max_within(dist, d, disc.radius + tol)


# -- tangent ellipses ----------------------------------------------------------


def tangent_ellipse(x: SpherePoint, t: float) -> Ellipse:
    """The ellipse f f^T + t x_perp x_perp^T, with f the support at x and
    x_perp = (-x2, x1).

    It passes through x with gradient f there (M x = f), and its curvature at
    x is t / |f|^3. Every origin-centered ellipse tangent to the sphere at x
    is one of these, with x and the tangent conjugate directions in it, so
    the map between two of them is a tangent shrink map. Its inverse is the
    member at the dual point (point f, support x) with 1 / t. Raises
    NotPositiveDefinite unless t > 0.
    """
    f = x.support.as_array()
    xp = np.array([-x.point.x2, x.point.x1])
    return Ellipse.from_matrix(np.outer(f, f) + t * np.outer(xp, xp))


def ellipse_inside_ball(model, ellipse: Ellipse, tol: float = CONTAIN_TOL) -> bool:
    """Certified check that the ellipse is contained in the unit ball."""
    inv_half = spd_power(ellipse.matrix(), -0.5)

    def val(phi):
        return model.gauge_many(np.column_stack([np.cos(phi), np.sin(phi)]) @ inv_half.T)

    return _max_within(val, val(phase_grid(2048)), 1.0 + tol)


def ball_inside_ellipse(model, ellipse: Ellipse, tol: float = CONTAIN_TOL) -> bool:
    """Certified check that the unit ball is contained in the ellipse."""
    vals = ellipse.gauge_many(model.fine_points())
    return _max_within(_sphere_form(model, ellipse), vals, 1.0 + tol)


def tangent_ratio(x, f, thetas, z, z_thetas) -> np.ndarray:
    """g(z) = (1 - <f, z>^2) / <x_perp, z>^2, the t of the tangent ellipse at
    x (support f, polar angle thetas) through z (polar angle z_thetas); a
    larger t leaves z outside. Broadcasts; NaN within PSI_EXCLUDE of x and -x
    (the doubled angles' distance), where it is 0 / 0."""
    fz = f[..., 0] * z[..., 0] + f[..., 1] * z[..., 1]
    xz = x[..., 0] * z[..., 1] - x[..., 1] * z[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (1.0 - fz) * (1.0 + fz) / (xz * xz)
    return np.where(angle_dist(2.0 * z_thetas, 2.0 * thetas) < 2.0 * PSI_EXCLUDE, np.nan, g)


def extremal_ts(model, xs, outer) -> np.ndarray:
    """t of the extremal tangent ellipses at the sphere points xs, lanes of
    one search: t_in = max(sup g, k_hi |f|^3) where ``outer`` is False, and
    t_out = min(inf g, k_lo |f|^3) where it is True, with g tangent_ratio on
    the fine cache refined by circle_max (REFINE_WORST seeds and a window on
    each rim of the unsampled zone around x, zoomed as finely as 40 golden
    steps: 7 calls for all lanes). NaN where the member does not exist: at a
    corner, outer at k_lo < 1e-9, or t not in (0, inf)."""
    outer = np.asarray(outer, dtype=bool)
    pts = np.array([x.point.as_array() for x in xs])
    f = np.array([x.support.as_array() for x in xs])
    thetas = np.array([x.theta for x in xs])
    sign = np.where(outer, -1.0, 1.0)
    fine = model.fine_points()
    g = tangent_ratio(pts[:, None], f[:, None], thetas[:, None], fine[None], phase_grid(len(fine))[None])

    def lane(rows, th):
        return sign[rows] * tangent_ratio(pts[rows], f[rows], thetas[rows], model.sphere_points_at(th), th)

    rims = thetas[:, None] + (PSI_EXCLUDE + 2.0 * np.pi / len(fine)) * np.array([-1.0, 1.0])
    vals = np.where(np.isnan(g), -INF, sign[:, None] * g)
    best = sign * circle_max(lane, vals, REFINE_WORST, 40, centers=rims, zoom=True)[0]
    k_lo, k_hi = model.curvature_sided_many(thetas)
    fcube = np.hypot(f[:, 0], f[:, 1]) ** 3
    t = np.where(outer, np.minimum(best, k_lo * fcube), np.maximum(best, k_hi * fcube))
    ok = np.array([x.smooth for x in xs]) & ~(outer & (k_lo < 1e-9)) & (t > 0) & (t < INF)
    return np.where(ok, t, np.nan)


def _extremal_ellipse(model, x: SpherePoint, outer: bool, contains) -> Ellipse | None:
    """extremal_ts's member at x, once ``contains`` certifies it."""
    t = float(extremal_ts(model, [x], [outer])[0])
    e = None if np.isnan(t) else tangent_ellipse(x, t)
    return e if e is not None and contains(model, e) else None


def inner_ellipse(model, x: SpherePoint) -> Ellipse | None:
    """The largest inner ellipse tangent at x (t_in), certified, or None."""
    return _extremal_ellipse(model, x, False, ellipse_inside_ball)


def outer_ellipse(model, x: SpherePoint) -> Ellipse | None:
    """The smallest outer ellipse tangent at x (t_out), certified, or None."""
    return _extremal_ellipse(model, x, True, ball_inside_ellipse)


def _sphere_form(model, ellipse: Ellipse):
    """The ellipse's gauge on the model's sphere, as a function of angle."""
    return lambda th: ellipse.gauge_many(model.sphere_points_at(th))


# -- minimal-volume enclosing ellipse -----------------------------------------


def john_form(pts) -> np.ndarray:
    """The largest-determinant symmetric form M with p^T M p <= 1 at every
    row p of pts: the least-area origin-centered ellipse containing them,
    which two or three of them determine.

    Constraint generation on a working set of at most four points, starting
    from the farthest point and the point farthest from its line. Each
    round takes the largest-determinant form feasible on the working set
    among the candidates through two of its points as conjugate
    semi-diameters, M = (a a^T + b b^T)^-1, and through three, q_i . v = 1
    with q = (x^2, 2xy, y^2) and v = (m11, m12, m22); that is the working
    set's optimum. The set is then cut to the candidate's own points, which
    cap the next determinant at its own, plus the point it exceeds most,
    which it can no longer meet. The loop ends when no point exceeds the
    form, where a point counts as exceeding when q . v - 1 is above 1e-14
    times |q| . |v|, the scale of that sum's rounding (q . v itself for an
    axis-aligned form); or when the determinant stops falling, which it
    does strictly in exact arithmetic, so there the last form is optimal to
    rounding.
    """
    quad = np.column_stack([pts[:, 0] ** 2, 2.0 * pts[:, 0] * pts[:, 1], pts[:, 1] ** 2])

    def excess(q, v):
        return q @ v - 1.0 - 1e-14 * (np.abs(q) @ np.abs(v))

    far = int(np.argmax(quad[:, 0] + quad[:, 2]))
    work = [far, int(np.argmax(np.abs(pts @ [-pts[far, 1], pts[far, 0]])))]
    form, form_det = None, INF
    while True:
        pairs, triples = list(combinations(work, 2)), list(combinations(work, 3))
        bases = pairs + triples
        s = quad[pairs].sum(axis=1)
        q = quad[triples].reshape(-1, 3, 3)
        # Cramer's rule: q^-1 has the columns adj[:, i] / d, with adj[:, i]
        # the cross product of the other two rows
        adj = np.cross(q[:, [1, 2, 0]], q[:, [2, 0, 1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            # a singular basis gives inf or NaN, which ok rejects
            two = np.column_stack([s[:, 2], -0.5 * s[:, 1], s[:, 0]])
            two /= (s[:, 0] * s[:, 2] - 0.25 * s[:, 1] ** 2)[:, None]
            d = np.einsum("ij,ij->i", q[:, 0], adj[:, 0])[:, None]
            three = adj.sum(axis=1) / d
            # one refinement step, which Cramer's rule needs on the
            # ill-conditioned triples of nearby points
            three += np.einsum("ki,kij->kj", 1.0 - np.einsum("kij,kj->ki", q, three), adj) / d
            v = np.concatenate([two, three])
            det = v[:, 0] * v[:, 2] - v[:, 1] ** 2
            # a candidate's own points lie on it by construction
            own = np.array([[i in b for b in bases] for i in work])
            ok = (v[:, 0] > 0) & (det > 0) & np.all((excess(quad[work], v.T) <= 0) | own, axis=0)
        best = int(np.argmax(np.where(ok, det, -INF)))
        if not (ok[best] and det[best] < form_det):
            break
        form, form_det = v[best], det[best]
        out = excess(quad, form)
        worst = int(np.argmax(out))
        if out[worst] <= 0:
            break
        work = [*bases[best], worst]
    m11, m12, m22 = form
    return np.array([[m11, m12], [m12, m22]])


def john_ellipse(model) -> Ellipse:
    """Minimal-volume origin-centered ellipse containing the unit ball:
    ``john_form`` on the fine boundary cache, solved exactly, then a rescale
    so containment is certified on the refined sphere."""
    pts = model.fine_points()
    e = Ellipse.from_matrix(john_form(pts))
    scale = _refined_max(_sphere_form(model, e), e.gauge_many(pts))
    return Ellipse.from_matrix(e.matrix() / (scale * scale))


# -- reports and duality -------------------------------------------------------


def tangency_report(model, x: SpherePoint) -> TangencyReport:
    return TangencyReport(
        point=x,
        inner_disc=inner_disc(model, x),
        outer_disc=outer_disc(model, x),
        inner_ellipse=inner_ellipse(model, x),
        outer_ellipse=outer_ellipse(model, x),
    )


def dual_transfer(report: TangencyReport, model) -> TangencyReport:
    """Transfer a report to the dual point: inner and outer ellipses swap
    roles under M -> M^{ -1}. Discs do not dualize and are dropped."""
    from . import models as _models

    x = report.point
    if not x.smooth:
        raise NonSmoothPoint("dual transfer needs a support functional")
    dual = _models.dual_model(model)
    f = x.support.as_array()
    dg = float(dual.gauge_many(f[None, :])[0])
    if abs(dg - 1.0) > 1e-6:
        raise NonSmoothPoint(f"support functional off the dual sphere by {dg - 1.0!r}")
    theta = float(np.arctan2(f[1], f[0]) % (2.0 * np.pi))
    xstar = geometry.sphere_point(dual, theta)
    inner_e = report.outer_ellipse.inverse() if report.outer_ellipse else None
    outer_e = report.inner_ellipse.inverse() if report.inner_ellipse else None
    if inner_e is not None and not ellipse_inside_ball(dual, inner_e, tol=1e-6):
        inner_e = None
    if outer_e is not None and not ball_inside_ellipse(dual, outer_e, tol=1e-6):
        outer_e = None
    return TangencyReport(
        point=xstar,
        inner_disc=None,
        outer_disc=None,
        inner_ellipse=inner_e,
        outer_ellipse=outer_e,
    )
