"""Construction and certification of contractive automorphisms: the tangent
shrink maps, the ellipsoid route between sphere points, flat-point transport,
and orbit reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, tangency
from .errors import (
    Degenerate,
    InfiniteCurvature,
    NonSmoothPoint,
    NotFlat,
    Singular,
    WrongModel,
)
from .geometry import LinearMap2, SpherePoint, Vec2

#: a map is accepted as contractive up to this operator-norm slack
CERTIFY_TOL = 1e-7

#: a contractive map is flagged ``boundary`` only when its norm exceeds 1 by
#: more than this: about 1e3 times the rounding of orbit certificates' norms
#: (|op - 1| up to 1.1e-15 on seeded gallery pairs), 1e5 times below CERTIFY_TOL
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class ContractionCertificate:
    """Operator-norm certificate for a candidate contractive automorphism."""

    T: LinearMap2
    op_norm: float
    inv_norm: float
    is_contractive: bool
    witness_angle: float
    tolerance: float
    boundary: bool = False


@dataclass(frozen=True)
class Reachable:
    """Orbit extent: kind is one of all_sphere / all_but_set /
    dense_candidate / restricted."""

    kind: str
    points: tuple = ()
    description: str = ""


@dataclass(frozen=True)
class OrbitReport:
    x: SpherePoint
    reachable: Reachable
    witnesses: tuple


def perp(model, a: SpherePoint) -> Vec2:
    """The gauge-unit tangent at a, oriented so (a, perp, -a) runs
    counterclockwise."""
    if not a.smooth:
        raise NonSmoothPoint(f"no unique tangent at theta={a.theta!r}")
    return a.tangent


def make_L_ab(model, a: SpherePoint, b: SpherePoint, eps: float) -> LinearMap2:
    """The unique map sending a to b and the tangent at a to (1 - eps) times
    the tangent at b."""
    if eps >= 1.0:
        raise Degenerate("eps = 1 collapses the tangent direction")
    if not (a.smooth and b.smooth):
        raise NonSmoothPoint("shrink maps need unique tangents at both points")
    src = np.column_stack([a.point.as_array(), a.tangent.as_array()])
    dst = np.column_stack([b.point.as_array(), (1.0 - eps) * b.tangent.as_array()])
    return LinearMap2.from_matrix(dst @ np.linalg.inv(src))


def certify(model, t: LinearMap2, centers=None) -> ContractionCertificate:
    """Operator-norm certificate for t; Singular if t is not invertible.
    ``centers`` (2, m): angles also refined for t and its inverse."""
    if not t.is_invertible():
        raise Singular(f"determinant {t.det()!r}")
    # T and its inverse are two lanes of one operator-norm search
    mats = np.stack([t.matrix(), t.inverse().matrix()])
    (op, inv), (witness, _) = geometry.operator_norms(model, mats, centers)
    contractive = float(op) <= 1.0 + CERTIFY_TOL
    return ContractionCertificate(
        T=t,
        op_norm=float(op),
        inv_norm=float(inv),
        is_contractive=contractive,
        witness_angle=float(witness),
        tolerance=CERTIFY_TOL,
        boundary=contractive and float(op) > 1.0 + BOUNDARY_TOL,
    )


def is_flat(model, y: SpherePoint) -> bool:
    """Whether y lies inside a face of the sphere (NormModel.faces), more
    than KINK_TOL from both of its ends."""
    return any(
        geometry.KINK_TOL < (y.theta - lo) % (2.0 * math.pi) < hi - lo - geometry.KINK_TOL
        for lo, hi in model.faces()
    )


def flat_transport(model, x: SpherePoint, y: SpherePoint, eps: float = 0.5) -> ContractionCertificate:
    """Contractive map x -> y onto a flat point: fixes the ray through y and
    squeezes the complement of x's support line into the face direction,
    halving the squeeze until certification passes."""
    if not is_flat(model, y):
        raise NotFlat(f"no face holds theta={y.theta!r}")
    src = np.column_stack([x.point.as_array(), x.tangent.as_array()])
    ty = y.tangent.as_array()
    e = float(eps)
    last = None
    while e >= 1e-12:
        dst = np.column_stack([y.point.as_array(), e * ty])
        t = LinearMap2.from_matrix(dst @ np.linalg.inv(src))
        last = certify(model, t)
        if last.is_contractive:
            return last
        e *= 0.5
    return last


def orbit_map(model, x: SpherePoint, y: SpherePoint) -> ContractionCertificate | None:
    """A certified contractive automorphism sending x to y, when the
    outer-ellipse-at-x / inner-ellipse-at-y route (or the flat fallback)
    applies; None otherwise. The ellipse route's map is the tangent shrink
    map L_xy that carries the outer ellipse at x onto the inner one at y (one
    ``tangency.extremal_ts`` search); ``certify`` alone makes the guarantee."""
    if x.smooth and y.smooth:
        t_out, t_in = tangency.extremal_ts(model, [x, y], [True, False])
        if not (math.isnan(t_out) or math.isnan(t_in)):
            # T maps the outer ellipse at x onto the inner one at y (equal tangent
            # lengths, t <p_perp, tangent>^2). It has norm 1 at x, its inverse at y;
            # so close to an isometry, it comes within 1e-8 of 1 elsewhere too
            s = math.sqrt(t_out / t_in) * abs(x.point.cross(x.tangent) / y.point.cross(y.tangent))
            cert = certify(model, make_L_ab(model, x, y, 1.0 - s), [[x.theta], [y.theta]])
            return cert if cert.is_contractive else None
    try:
        cert = flat_transport(model, x, y)
    except NotFlat:
        return None
    return cert if cert.is_contractive else None


def l1_orbit(model, x: SpherePoint) -> OrbitReport:
    """Exact orbit classification on the diamond norm (lp with p = 1)."""
    from .models import LpNorm

    if not (isinstance(model, LpNorm) and model.p == 1.0):
        raise WrongModel("l1_orbit runs on the p = 1 model only")
    xa = x.point.as_array()
    vertices = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    at_vertex = np.min(np.abs(vertices - xa).sum(axis=1)) <= 1e-9
    witnesses = []
    if at_vertex:
        target = geometry.sphere_point(model, math.atan2(0.5, 0.5))
        witnesses.append((target, flat_transport(model, x, target)))
        return OrbitReport(x, Reachable("all_sphere"), tuple(witnesses))
    if abs(abs(xa[0]) - 0.5) <= 1e-12 and abs(abs(xa[1]) - 0.5) <= 1e-12:
        t1 = LinearMap2.from_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]) / 2.0)
        t2 = LinearMap2.from_matrix(np.array([[3.0, 1.0], [0.0, 2.0]]) / 3.0)
        y1 = t1.apply(x.point)
        witnesses.append(
            (geometry.sphere_point(model, math.atan2(y1.x2, y1.x1)), certify(model, t1))
        )
        witnesses.append((x, certify(model, t2.compose(t1))))
    else:
        target = geometry.sphere_point(model, x.theta + 0.1)
        witnesses.append((target, flat_transport(model, x, target)))
    corners = tuple(Vec2(float(v[0]), float(v[1])) for v in vertices)
    return OrbitReport(x, Reachable("all_but_set", points=corners), tuple(witnesses))


def inv_norm_lower_bound(model, x: SpherePoint, y: SpherePoint) -> float:
    """Heuristic lower bound sqrt(kappa(y) / (c kappa(x))) on the inverse
    norm of contractions sending x to y; c is the squared eccentricity of the
    unit sphere in Euclidean terms. Used only for monotone-growth
    demonstrations, never for verdicts."""
    kx, ky = x.curvature, y.curvature
    if not (np.isfinite(kx) and np.isfinite(ky)) or kx <= 0 or ky <= 0:
        raise InfiniteCurvature("bound needs finite positive curvatures")
    c = _eccentricity_sq(model)
    return math.sqrt(ky / (c * kx))


def _eccentricity_sq(model) -> float:
    if model._eccentricity_sq is None:
        pts = model.fine_points()
        r = np.hypot(pts[:, 0], pts[:, 1])
        model._eccentricity_sq = float((r.max() / r.min()) ** 2)
    return model._eccentricity_sq
