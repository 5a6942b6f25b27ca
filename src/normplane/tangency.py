"""Inner/outer disc and ellipse calculus at unit-sphere points.

Discs are searched along the inward support normal only; tangency at the
base point is then automatic and the admissible radii have a closed form:
for a tangent disc D(x - r n, r) and a sphere point z, membership of z is
governed by psi(z) = |z - x|^2 |f| / (2 (1 - <f, z>)), so the largest inner
radius is the infimum of psi over the sphere and the smallest outer radius
its supremum (the limit of psi at z -> x is the osculating radius, supplied
analytically). Certification happens on the fine cache plus golden
refinement at the worst angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .curvature import INF
from .errors import BadParameter, NonSmoothPoint, NotPositiveDefinite
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

#: curvature doublings the inner-ellipse construction tries
INNER_ELLIPSE_DOUBLINGS = 40

#: first b of the outer-ellipse family's halving search
OUTER_ELLIPSE_B_START = 1.0


def _refined_max(val, vals) -> float:
    """Max of val over the circle from its samples vals on the phase-offset
    grid: circle_max with the REFINE_WORST largest samples and 40 steps."""
    return float(circle_max(lambda _, th: val(th), vals[None], REFINE_WORST, 40)[0][0])


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

    @staticmethod
    def from_coeffs(a: float, b: float, c: float) -> "Ellipse":
        """From the Ax^2 + By^2 + Cxy = 1 coefficient view."""
        return Ellipse(a, c / 2.0, b)

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


def disc_radii(model, x: SpherePoint) -> tuple[float, float]:
    """(largest inner radius, smallest outer radius) for tangent discs at x.

    Either value may be 0 / inf when the corresponding disc does not exist;
    the curvature limit at x enters through the model's one-sided curvatures.
    """
    xa = x.point.as_array()[None, :]
    f = x.support.as_array()[None, :]
    theta = np.array([x.theta])
    k_lo, k_hi = model.curvature_sided(x.theta)

    fine = model.fine_points()

    def psi_at(th):
        return psi_table(xa, f, theta, model.sphere_points_at(th), th)[0]

    psi = psi_table(xa, f, theta, fine, phase_grid(len(fine)))[0]
    # the infimum of psi, as minus the sup of -psi
    r_in = -_refined_max(lambda th: -psi_at(th), -np.where(np.isnan(psi), INF, psi))
    r_in = min(r_in, INF if k_hi <= 0 else 1.0 / k_hi)

    r_out = _refined_max(psi_at, np.where(np.isnan(psi) | np.isinf(psi), -INF, psi))
    at_kink = model.kink_at(x.theta) is not None
    if k_lo == INF or at_kink:
        osc_out = 0.0  # corner or infinite curvature at x: no local constraint
    elif k_lo <= 0:
        osc_out = INF  # locally flat at a smooth x: no outer disc at all
    else:
        osc_out = 1.0 / k_lo
    if np.any(np.isinf(psi)):
        osc_out = INF  # another sphere point on the support line: flat face
    r_out = max(r_out, osc_out)
    return r_in, r_out


#: certify-adjust slacks tried in order when the raw radius misses by noise
_ADJUST_STEPS = (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)


def _tangent_disc(x: SpherePoint, r: float) -> Disc:
    n = x.support.as_array()
    n = n / np.hypot(n[0], n[1])
    c = x.point.as_array() - r * n
    return Disc(Vec2(float(c[0]), float(c[1])), float(r))


def inner_disc(model, x: SpherePoint) -> Disc | None:
    """Largest disc through x inside the ball, or None.

    None when the curvature flag at x is infinite or no radius >= 1e-6
    passes containment. The returned disc is certified on the fine grid.
    """
    if x.curvature == INF:
        return None
    r_in, _ = disc_radii(model, x)
    if not np.isfinite(r_in) or r_in < MIN_DISC_RADIUS:
        return None
    for slack in _ADJUST_STEPS:
        disc = _tangent_disc(x, r_in * (1.0 - slack))
        if verify_disc(model, disc, "inner"):
            return disc
    return None


def outer_disc(model, x: SpherePoint) -> Disc | None:
    """Smallest disc containing the ball and tangent at x, or None.

    The search is capped: radii above 1e6 count as nonexistent. The returned
    disc is certified on the fine grid. The zero-curvature shortcut applies
    only at smooth points; corners are handled by the radius functional.
    """
    k_lo, _ = model.curvature_sided(x.theta)
    if k_lo < 1e-9 and model.kink_at(x.theta) is None:
        return None
    _, r_out = disc_radii(model, x)
    if not np.isfinite(r_out) or r_out > OUTER_DISC_CAP:
        return None
    for slack in _ADJUST_STEPS:
        disc = _tangent_disc(x, r_out * (1.0 + slack))
        if verify_disc(model, disc, "outer"):
            return disc
    return None


def verify_disc(model, disc: Disc, which: str, tol: float = CONTAIN_TOL) -> bool:
    """Certify disc containment against the fine cache plus refinement."""
    pts = model.fine_points()
    c = disc.center.as_array()
    d = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])

    def dist(th):
        z = model.sphere_points_at(th)
        return np.hypot(z[:, 0] - c[0], z[:, 1] - c[1])

    if which == "inner":
        return -_refined_max(lambda th: -dist(th), -d) >= disc.radius - tol
    return _refined_max(dist, d) <= disc.radius + tol


# -- explicit inner-ellipse construction --------------------------------------


def build_inner_ellipse(h: float, kappa_target: float) -> Ellipse:
    """Origin-centered ellipse through p = (1, h) with vertical tangent at p
    and curvature ``kappa_target`` there.

    In the A x^2 + B y^2 + C x y = 1 view the tangency conditions force
    B = -C / (2h) and A = 1 - C h / 2, and the curvature at p is |C| / (2h),
    so C = -2 h kappa_target. The form is positive definite exactly when
    kappa_target > 0 (4AB - C^2 = 4 kappa_target).
    """
    if h <= 0:
        raise BadParameter("h must be positive")
    c = -2.0 * h * kappa_target
    b = -c / (2.0 * h)
    a = 1.0 - 0.5 * c * h
    if 4.0 * a * b - c * c <= 0 or a <= 0:
        raise NotPositiveDefinite(
            f"(A, B, C) = ({a!r}, {b!r}, {c!r}) does not close to an ellipse"
        )
    return Ellipse.from_coeffs(a, b, c)


def ellipse_inside_ball(model, ellipse: Ellipse, tol: float = CONTAIN_TOL) -> bool:
    """Certified check that the ellipse is contained in the unit ball."""
    vals = model.gauge_many(ellipse.boundary_points(2048))
    inv_half = spd_power(ellipse.matrix(), -0.5)

    def val(phi):
        return model.gauge_many(np.column_stack([np.cos(phi), np.sin(phi)]) @ inv_half.T)

    return _refined_max(val, vals) <= 1.0 + tol


def inner_ellipse(model, x: SpherePoint) -> Ellipse | None:
    """Inner ellipse at a smooth point, by the vertical-tangent construction
    in a rotated and rescaled frame, escalating curvature until contained."""
    if not x.smooth:
        return None
    if x.curvature == INF:
        return None
    disc = inner_disc(model, x)
    if disc is None:
        return None
    f = x.support.as_array()
    fnorm = float(np.hypot(f[0], f[1]))
    nhat = f / fnorm
    rot = np.array([[nhat[0], nhat[1]], [-nhat[1], nhat[0]]])
    a = 1.0 / fnorm  # <x, nhat>
    p = rot @ x.point.as_array() / a
    hcoord = p[1]
    _, k_hi = model.curvature_sided(x.theta)
    kappa = max(a * (k_hi if np.isfinite(k_hi) else 0.0), a / disc.radius, 1e-9)
    for _ in range(INNER_ELLIPSE_DOUBLINGS):
        if abs(hcoord) < 1e-12:
            m_norm = np.diag([1.0, kappa])
        else:
            hh = abs(hcoord)
            e = build_inner_ellipse(hh, kappa)
            m_norm = e.matrix()
            if hcoord < 0:
                flip = np.diag([1.0, -1.0])
                m_norm = flip @ m_norm @ flip
        m = rot.T @ m_norm @ rot / (a * a)
        candidate = Ellipse.from_matrix(m)
        if ellipse_inside_ball(model, candidate):
            return candidate
        kappa *= 2.0
    return None


# -- outer ellipses (the two-parameter family and the halving search) ---------


def outer_family(model, x: SpherePoint, b: float) -> Ellipse:
    """The outer-candidate ellipse splitting z into its component along x and
    the tangent remainder: form value <x*, z>^2 + b^2 |z - <x*, z> x|^2 with
    the reference metric from the minimal enclosing ellipse."""
    if not x.smooth:
        raise NonSmoothPoint("outer family needs a unique support functional")
    if b < 1e-6:
        raise BadParameter("b below the degeneracy floor 1e-6")
    f = x.support.as_array()
    xa = x.point.as_array()
    mj = john_ellipse(model).matrix()
    proj = np.eye(2) - np.outer(xa, f)
    m = np.outer(f, f) + b * b * (proj.T @ mj @ proj)
    return Ellipse.from_matrix(m)


def outer_ellipse(model, x: SpherePoint) -> Ellipse | None:
    """Outer ellipse at x from the b-family, halving b from
    OUTER_ELLIPSE_B_START until the ball fits."""
    if not x.smooth:
        return None
    k_lo, _ = model.curvature_sided(x.theta)
    if k_lo < 1e-9:
        return None
    b = OUTER_ELLIPSE_B_START
    pts = model.fine_points()
    while b >= 1e-6:
        e = outer_family(model, x, b)
        vals = e.gauge_many(pts)
        if _sphere_form_max(model, e, vals) <= 1.0 + CONTAIN_TOL:
            return e
        b *= 0.5
    return None


def _sphere_form_max(model, ellipse: Ellipse, coarse_vals: np.ndarray) -> float:
    return _refined_max(lambda th: ellipse.gauge_many(model.sphere_points_at(th)), coarse_vals)


# -- minimal-volume enclosing ellipse -----------------------------------------


def john_ellipse(model) -> Ellipse:
    """Minimal-volume origin-centered ellipse containing the unit ball.

    Determinant maximization over the form entries (m11, m12, m22) with the
    fine boundary cache as containment constraints (the constraint gradients
    are constant, so the solve is cheap), then a rescale so containment is
    certified on the refined sphere. Kept on the model after the first call.
    """
    if model._john_ellipse is not None:
        return model._john_ellipse
    from scipy.optimize import minimize

    pts = model.fine_points()
    quad = np.column_stack([pts[:, 0] ** 2, 2.0 * pts[:, 0] * pts[:, 1], pts[:, 1] ** 2])
    r2 = np.einsum("ij,ij->i", pts, pts)
    x0 = np.array([1.0 / r2.max(), 0.0, 1.0 / r2.max()])

    def objective(v):
        det = v[0] * v[2] - v[1] * v[1]
        if det <= 0:
            return INF, np.zeros(3)
        return -np.log(det), -np.array([v[2], -2.0 * v[1], v[0]]) / det

    res = minimize(
        objective,
        x0,
        jac=True,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda v: 1.0 - quad @ v, "jac": lambda v: -quad}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    m = np.array([[res.x[0], res.x[1]], [res.x[1], res.x[2]]])
    e = Ellipse.from_matrix(m)
    scale = _sphere_form_max(model, e, e.gauge_many(pts))
    model._john_ellipse = Ellipse.from_matrix(m / (scale * scale))
    return model._john_ellipse


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
    if outer_e is not None:
        vals = outer_e.gauge_many(dual.fine_points())
        if _sphere_form_max(dual, outer_e, vals) > 1.0 + 1e-6:
            outer_e = None
    return TangencyReport(
        point=xstar,
        inner_disc=None,
        outer_disc=None,
        inner_ellipse=inner_e,
        outer_ellipse=outer_e,
    )
