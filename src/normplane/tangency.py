"""Inner/outer disc and ellipse calculus at unit-sphere points.

Both families are read off one function each, of the same broadcast
signature (x, f, thetas, z, z_thetas): the radius of curvature at x of the
family's member tangent at x (support f) through the sphere point z, which
leaves z outside when smaller. For the discs D(x - r n, r), searched along
the inward support normal, it is psi(z) = |z - x|^2 |f| / (2 (1 - <f, z>))
(``disc_psi``). Every origin-centered ellipse tangent at x is
``tangent_ellipse(x, t)`` = f f^T + t x_perp x_perp^T, of curvature t / |f|^3
at x, and the member through z has t = g(z) = (1 - <f, z>^2) / <x_perp,
z>^2, so its radius is |f|^3 / g(z) (``ellipse_psi``). The largest inner
member's radius is the inf of psi over the sphere and the smallest outer
member's its sup, combined with the one-sided osculating radii at x, the
limit of psi at z -> x (``disc_bounds``).

One search serves both (``extremal_radii``): psi on the fine cache, refined
at the worst angles and on the rims of the zone around x (``numerics.
circle_max``), then ``disc_bounds``. ``disc_radii`` is a lane of it, whose
disc ``disc_exists`` accepts and ``verify_disc`` certifies; ``extremal_ts``
is |f|^3 over it, whose ellipses are certified the same way. The
classification sweep (``sweep_radii``) takes disc_psi's extremes on the
fine cache unrefined, under the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curvature import INF
from .errors import NotPositiveDefinite
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

    def gauge_many(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.sqrt(quad_form(pts, self.matrix()))

    def boundary_points(self, n: int) -> np.ndarray:
        phis = phase_grid(n)
        circle = np.column_stack([np.cos(phis), np.sin(phis)])
        return circle @ spd_power(self.matrix(), -0.5).T


# -- tangent discs and the extremal-member search -----------------------------


#: angular radius of the 0/0 exclusion zone around the base point; the local
#: constraint inside it is supplied exactly by the one-sided osculating radii
PSI_EXCLUDE = 3e-4


def disc_psi(x, f, thetas, z, z_thetas) -> np.ndarray:
    """psi(z) = |z - x|^2 |f| / (2 (1 - <f, z>)), the radius of the tangent
    disc at x (support f, polar angle thetas) through z (polar angle
    z_thetas); a smaller disc leaves z outside. Broadcasts over the leading
    axes; INF where z lies on or beyond the support line, and NaN within
    PSI_EXCLUDE of x, where it is 0 / 0 (applied last, so z = x is NaN)."""
    dist2 = (z[..., 0] - x[..., 0]) ** 2 + (z[..., 1] - x[..., 1]) ** 2
    # <f, z> as a matmul, which rounds as the sweep's table always has
    depth = 1.0 - np.matmul(f[..., None, :], z[..., :, None])[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = dist2 * np.hypot(f[..., 0], f[..., 1]) / (2.0 * depth)
    psi[depth <= 0] = INF
    psi[angle_dist(z_thetas, thetas) < PSI_EXCLUDE] = np.nan
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


def extremal_radii(model, psi, xs, outer) -> tuple[np.ndarray, np.ndarray]:
    """Radii of curvature at the sphere points xs of the extremal members of
    one tangent family, lanes of one search: psi(x, f, thetas, z, z_thetas)
    is the radius of the family's member through z (disc_psi, ellipse_psi),
    whose inf gives the inner member where ``outer`` is False and whose sup
    the outer one where it is True, both combined with the one-sided
    curvatures by disc_bounds. psi is taken on the fine cache and refined by
    circle_max: REFINE_WORST seeds and a window on each rim of the unsampled
    zone around x, zoomed as finely as 40 golden steps, 7 calls for all
    lanes. Returns the radii, 0 / inf where a member does not exist, and
    k_lo at xs."""
    outer = np.asarray(outer, dtype=bool)
    pts = np.array([x.point.as_array() for x in xs])
    f = np.array([x.support.as_array() for x in xs])
    thetas = np.array([x.theta for x in xs])
    sign = np.where(outer, 1.0, -1.0)
    fine = model.fine_points()
    table = psi(pts[:, None], f[:, None], thetas[:, None], fine[None], phase_grid(len(fine))[None])

    def lane(rows, th):
        return sign[rows] * psi(pts[rows], f[rows], thetas[rows], model.sphere_points_at(th), th)

    rims = thetas[:, None] + (PSI_EXCLUDE + 2.0 * np.pi / len(fine)) * np.array([-1.0, 1.0])
    vals = np.where(np.isnan(table), -INF, sign[:, None] * table)
    best = sign * circle_max(lane, vals, REFINE_WORST, 40, centers=rims, zoom=True)[0]
    k_lo, k_hi = model.curvature_sided_many(thetas)
    kink = model.corners().kinks().lookup(thetas)[0]
    r_in, r_out = disc_bounds(best, best, k_lo, k_hi, kink)
    return np.where(outer, r_out, r_in), k_lo


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
        psi = disc_psi(points[sl, None], supports[sl, None], thetas[sl, None], fine[None], fine_thetas[None])
        r_in[sl] = np.nanmin(psi, axis=1)
        r_out[sl] = np.nanmax(psi, axis=1)
    return disc_bounds(r_in, r_out, k_lo, k_hi, kink)


def disc_radii(model, x: SpherePoint, which: str) -> float:
    """The largest inner radius (``which`` = "inner") or the smallest outer
    radius ("outer") of a tangent disc at x: one lane of extremal_radii on
    disc_psi. It may be 0 / inf when that disc does not exist."""
    return float(extremal_radii(model, disc_psi, [x], [which != "inner"])[0][0])


def _certified_disc(model, x: SpherePoint, which: str) -> Disc | None:
    """The ``which`` ("inner" or "outer") tangent disc at x of radius
    disc_radii, once verify_disc certifies it; None when disc_exists rejects
    the radius or the check fails."""
    r = disc_radii(model, x, which)
    if not disc_exists(r, r)[0]:  # one rule for either side
        return None
    n = x.support.as_array()
    c = x.point.as_array() - r * (n / np.hypot(n[0], n[1]))
    disc = Disc(Vec2(float(c[0]), float(c[1])), r)
    return disc if verify_disc(model, disc, which) else None


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


def ellipse_psi(x, f, thetas, z, z_thetas) -> np.ndarray:
    """|f|^3 / g(z), with g(z) = (1 - <f, z>^2) / <x_perp, z>^2 the t of the
    tangent ellipse at x (support f, polar angle thetas) through z (polar
    angle z_thetas): that member's radius of curvature at x; a smaller one
    leaves z outside. Broadcasts; INF where z lies on or beyond either
    support line (g <= 0), and NaN within PSI_EXCLUDE of x and -x (the
    doubled angles' distance), where it is 0 / 0 (applied last)."""
    fz = f[..., 0] * z[..., 0] + f[..., 1] * z[..., 1]
    xz = x[..., 0] * z[..., 1] - x[..., 1] * z[..., 0]
    depth = (1.0 - fz) * (1.0 + fz)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.hypot(f[..., 0], f[..., 1]) ** 3 * (xz * xz) / depth
    r[depth <= 0] = INF
    r[angle_dist(2.0 * z_thetas, 2.0 * thetas) < 2.0 * PSI_EXCLUDE] = np.nan
    return r


def extremal_ts(model, xs, outer) -> np.ndarray:
    """t of the extremal tangent ellipses at the sphere points xs, lanes of
    one search: |f|^3 over extremal_radii on ellipse_psi, so t_in =
    max(sup g, k_hi |f|^3) where ``outer`` is False and t_out = min(inf g,
    k_lo |f|^3) where it is True. NaN where the member does not exist: at a
    corner, outer at k_lo < 1e-9, or t not in (0, inf)."""
    outer = np.asarray(outer, dtype=bool)
    f = np.array([x.support.as_array() for x in xs])
    r, k_lo = extremal_radii(model, ellipse_psi, xs, outer)
    with np.errstate(divide="ignore"):
        t = np.hypot(f[:, 0], f[:, 1]) ** 3 / r
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

