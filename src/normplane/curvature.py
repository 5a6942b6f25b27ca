"""Euclidean curvature of plane curves, in the four standard presentations,
plus curvature profiles of unit spheres and the shrink-map scaling law.

Curvature here is always unsigned and measured with the usual Euclidean
metric, regardless of which norm the curve bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, ScaleLawViolation, SingularPoint
from .numerics import phase_grid, stencil5_d1, stencil5_d2

INF = float("inf")

#: parameter step for numeric differentiation of image curves L[S]
IMAGE_CURVE_STEP = 2.0 * np.pi / 8192.0

#: one-sided estimates above this threshold are reported as +inf
CURVATURE_CAP = 1e8


def curvature_graph(fp: float, fpp: float) -> float:
    """Curvature of the graph of a function from f' and f''."""
    return abs(fpp) / (1.0 + fp * fp) ** 1.5


def curvature_implicit(grad, hess) -> float:
    """Curvature of a level curve f(x, y) = const from grad f and Hess f.

    ``grad`` is a pair (f_x, f_y); ``hess`` the symmetric 2x2 second
    derivative matrix, given as ((f_xx, f_xy), (f_xy, f_yy)) or ndarray.
    """
    grads = np.array([grad], dtype=float)
    return float(curvature_implicit_many(grads, np.asarray(hess, dtype=float))[0])


def curvature_implicit_many(grads: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """curvature_implicit at each row (f_x, f_y) of grads, with one Hessian
    ``hess`` of shape (2, 2) for all rows or one per row, shape (n, 2, 2).

    The curvature of a level curve is unchanged under f -> f / lam, so a
    row whose largest gradient component reaches 2^64 has its gradient and
    Hessian divided by the power of two lam = 2^(64 j) that brings it below:
    exact in floating point, so no product overflows at extreme scales.
    Other rows keep lam = 1 and so their bits, as pow(x, 1.5) is not exactly
    homogeneous; gradients below 1e-12 are rejected as singular."""
    fx, fy = grads[:, 0], grads[:, 1]
    exps = np.frexp(np.maximum(np.abs(fx), np.abs(fy)))[1]
    scale = np.ldexp(1.0, -(np.maximum(exps, 0) // 64 * 64))
    fx, fy = fx * scale, fy * scale
    g2 = fx**2 + fy**2
    if np.any(np.sqrt(g2) < 1e-12 * scale):
        raise SingularPoint("vanishing gradient")
    hxx, hxy, hyy = (hess[..., i, j] * scale for i, j in ((0, 0), (0, 1), (1, 1)))
    num = np.abs(hxx * fy**2 - 2 * hxy * fx * fy + fx**2 * hyy)
    return num / g2**1.5


def curvature_parametric(d1, d2) -> float:
    """Curvature from first and second parametric derivatives."""
    x1, y1 = float(d1[0]), float(d1[1])
    x2, y2 = float(d2[0]), float(d2[1])
    speed = np.hypot(x1, y1)
    if speed < 1e-12:
        raise SingularPoint("vanishing speed")
    return abs(x1 * y2 - y1 * x2) / speed**3


def curvature_polar(g: float, gp: float, gpp: float) -> float:
    """Curvature of a polar-graph curve r = g(theta) from g, g', g''."""
    num = abs(2.0 * gp * gp + g * g - g * gpp)
    return num / (g * g + gp * gp) ** 1.5


def curvature_polar_many(g, gp, gpp):
    g = np.asarray(g, dtype=float)
    gp = np.asarray(gp, dtype=float)
    gpp = np.asarray(gpp, dtype=float)
    return np.abs(2.0 * gp * gp + g * g - g * gpp) / (g * g + gp * gp) ** 1.5


@dataclass
class CurvatureProfile:
    """Sampled curvature of a model's unit sphere over a theta grid."""

    thetas: np.ndarray
    kappas: np.ndarray
    kappa_min: float
    kappa_max: float
    model: object = field(default=None, repr=False)

    def to_csv(self) -> str:
        lines = ["theta,kappa"]
        for t, k in zip(self.thetas, self.kappas):
            lines.append(f"{float(t)!r},{float(k)!r}")
        return "\n".join(lines) + "\n"


def profile(model, n: int = 1024) -> CurvatureProfile:
    """Per-point sphere curvature using the model family's preferred formula.

    The grid is phase-offset by half a step so that measure-zero features
    (polyhedral vertices, lp axis points) do not land on samples by accident;
    families report +inf there when asked directly.
    """
    if n < 1:
        raise BadParameter(f"profile needs at least 1 point, got {n!r}")
    thetas = phase_grid(n)
    kappas = model.curvature_theta_many(thetas)
    finite = kappas[np.isfinite(kappas)]
    kmin = float(finite.min()) if finite.size else INF
    kmax = INF if np.any(np.isinf(kappas)) else float(kappas.max())
    return CurvatureProfile(thetas, kappas, kmin, kmax, model)


def image_curve_curvature(model, matrix, theta: float, step: float = IMAGE_CURVE_STEP) -> float:
    """Numeric curvature of the image of the unit sphere under a linear map,
    at the image of the sphere point with polar parameter ``theta``.

    Uses 5-point central differences on the mapped sphere parametrization.
    """
    m = np.asarray(matrix, dtype=float)
    ts = theta + step * np.arange(-2.0, 3.0)
    pts = model.sphere_points_at(ts) @ m.T
    d1 = stencil5_d1(pts, step)
    d2 = stencil5_d2(pts, step)
    return curvature_parametric(d1, d2)


def scale_law_check(model, a, eps: float):
    """Compare numeric image-curve curvature with the exact shrink law.

    ``a`` is a smooth SpherePoint, ``eps`` in [0, 1). Builds the map fixing
    ``a`` and shrinking its tangent direction by (1 - eps), measures the
    curvature of the mapped sphere at ``a`` numerically, and checks the ratio
    against (1 - eps)^-2 to 1e-4 relative.

    Returns (kappa_before, kappa_after, ratio).
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must lie in [0, 1)")
    kappa_before = image_curve_curvature(model, np.eye(2), a.theta)
    basis = np.column_stack([a.point.as_array(), a.tangent.as_array()])
    t = basis @ np.diag([1.0, 1.0 - eps]) @ np.linalg.inv(basis)
    kappa_after = image_curve_curvature(model, t, a.theta)
    if kappa_before < 1e-12:
        raise SingularPoint("curvature vanishes at the base point")
    ratio = kappa_after / kappa_before
    expected = (1.0 - eps) ** -2
    if abs(ratio - expected) > 1e-4 * expected:
        raise ScaleLawViolation(
            f"ratio {ratio!r} vs expected {expected!r} at theta={a.theta!r}, eps={eps!r}"
        )
    return kappa_before, kappa_after, ratio
