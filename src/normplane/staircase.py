"""The slowly-flattening staircase sphere: a curve integrated from a
piecewise-constant curvature function with dyadic flat intervals, closed up
by a tangent pair of circles into a norm whose inner/outer disc ratio blows
up along the staircase.

The curvature function is 2^-n on [2^-n, 2^-n + 2^-n-2] (n up to a
truncation depth) and 1 elsewhere on [-pi/2, 1]. Because it is piecewise
constant, the integrated curve is an exact chain of circle arcs; the
quadrature path exists to cross-check the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, NotConvex, OutOfDomain, TangencySolveFailed
from .geometry import Vec2
from .models import Arc, ArcChainNorm, _reflect_q4_chain, make_arc_chain
from .numerics import sorted_unique
from .semigroup import inv_norm_lower_bound

#: truncation depth: intervals below 2^-19 are dropped. Depth 19 keeps the
#: tangent-angle total within 1e-6 of 5/6 while the flattest arc's outer-disc
#: radius 2^19 stays under the 1e6 operational cap.
DEFAULT_DEPTH = 19

S_MIN = -math.pi / 2.0
S_MAX = 1.0


@dataclass(frozen=True)
class CurvatureFunction:
    """Piecewise-constant curvature on [-pi/2, 1], default value 1."""

    intervals: tuple  # ((lo, hi, value), ...) disjoint, increasing
    n_max: int

    def values(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if np.any(~((S_MIN <= s) & (s <= S_MAX))):
            raise OutOfDomain(f"s = {s!r} outside [-pi/2, 1]")
        out = np.ones_like(s)
        # reversed, so that where two closed intervals touch the first wins
        for lo, hi, v in reversed(self.intervals):
            out[(lo <= s) & (s <= hi)] = v
        return out

    def value(self, s: float) -> float:
        return float(self.values(np.array([s]))[0])

    def breakpoints(self) -> np.ndarray:
        pts = [S_MIN, 0.0, S_MAX]
        for lo, hi, _ in self.intervals:
            pts.extend((lo, hi))
        return sorted_unique(pts)


def staircase_function(n_max: int = DEFAULT_DEPTH) -> CurvatureFunction:
    if n_max < 1:
        raise BadParameter("need at least one staircase interval")
    iv = []
    for n in range(n_max, 0, -1):
        lo = 2.0**-n
        iv.append((lo, lo + 2.0 ** (-n - 2), 2.0**-n))
    return CurvatureFunction(tuple(iv), n_max)


def k_staircase(s: float, n_max: int = DEFAULT_DEPTH) -> float:
    """Curvature value at arc length s (the staircase with truncation n_max)."""
    return staircase_function(n_max).value(s)


@dataclass
class BuiltCurve:
    """Unit-speed curve integrated from a curvature function.

    Samples run over [-pi/2, 1]; K is the tangent angle (integral of k).
    """

    s: np.ndarray
    points: np.ndarray
    K: np.ndarray
    endpoint: Vec2
    endpoint_tangent: Vec2
    kfun: CurvatureFunction = field(repr=False)

    def to_csv(self) -> str:
        lines = ["s,x,y,tangent_angle"]
        for s, (x, y), k in zip(self.s, self.points, self.K):
            lines.append(f"{float(s)!r},{float(x)!r},{float(y)!r},{float(k)!r}")
        return "\n".join(lines) + "\n"

    def point_at(self, s: float) -> np.ndarray:
        """Exact position by stepping the arc chain (closed form per piece)."""
        s = float(s)
        if not (S_MIN <= s <= S_MAX):
            raise OutOfDomain(f"s = {s!r}")
        x, y = 0.0, -1.0
        tau = 0.0
        if s <= 0:
            return np.array([math.sin(s), -math.cos(s)])
        bps = self.kfun.breakpoints()
        ends = bps[bps > 0]
        ks = self.kfun.values(0.5 * (np.concatenate([[0.0], ends[:-1]]) + ends))
        prev = 0.0
        for b, k in zip(ends.tolist(), ks.tolist()):
            hi = min(b, s)
            d = hi - prev
            x += (math.sin(tau + k * d) - math.sin(tau)) / k
            y += (-math.cos(tau + k * d) + math.cos(tau)) / k
            tau += k * d
            prev = hi
            if prev >= s:
                break
        return np.array([x, y])


def integrate_curve(kfun: CurvatureFunction, step: float = 1e-4) -> BuiltCurve:
    """Integrate the curve by Simpson's rule on each panel between nodes,
    panels aligned to the curvature breakpoints: first the tangent angle,
    then the position, each accumulated outward from s = 0.

    Starts at (0, -1) heading along +x; the negative-s branch is the exact
    unit quarter circle back to (-1, 0).
    """
    if step > 1e-4:
        raise BadParameter("step must be at most 1e-4")
    bps = kfun.breakpoints()
    s_nodes = [np.array([S_MIN])]
    for lo, hi in zip(bps[:-1], bps[1:]):
        n_sub = max(2, int(math.ceil((hi - lo) / step)))
        n_sub += n_sub % 2  # even panel count for Simpson
        s_nodes.append(np.linspace(lo, hi, n_sub + 1)[1:])
    s = np.concatenate(s_nodes)
    j0 = int(np.searchsorted(s, 0.0))
    h = 0.5 * np.diff(s)  # Simpson half-step of each panel
    kmid = kfun.values(0.5 * (s[:-1] + s[1:]))
    # tangent angle: k is constant on each panel, so Simpson is exact
    dk = (h / 3.0) * (kmid + kmid + 4.0 * kmid)
    K = np.empty_like(s)
    K[j0] = 0.0
    K[j0 + 1 :] = np.cumsum(dk[j0:])
    K[:j0] = -np.cumsum(dk[:j0][::-1])[::-1]
    # positions: Simpson on (cos K, sin K), with the exact midpoint angle
    # stepped from the panel end nearer to s = 0
    mid = np.concatenate([K[1 : j0 + 1] - kmid[:j0] * h[:j0], K[j0:-1] + kmid[j0:] * h[j0:]])
    pts = np.empty((len(s), 2))
    for axis, trig in enumerate((np.cos, np.sin)):
        d = (h / 3.0) * (trig(K[:-1]) + trig(K[1:]) + 4.0 * trig(mid))
        start = -1.0 if axis else 0.0
        pts[j0:, axis] = np.cumsum(np.concatenate([[start], d[j0:]]))
        pts[: j0 + 1, axis] = np.cumsum(np.concatenate([[start], -d[:j0][::-1]]))[::-1]
    k1 = float(K[-1])
    return BuiltCurve(
        s=s,
        points=pts,
        K=K,
        endpoint=Vec2(float(pts[-1, 0]), float(pts[-1, 1])),
        endpoint_tangent=Vec2(math.cos(k1), math.sin(k1)),
        kfun=kfun,
    )


def _exact_staircase_arcs(kfun: CurvatureFunction):
    """The s >= 0 part of the curve as exact arcs; returns (arcs, p, K1)."""
    bps = kfun.breakpoints()
    bps = bps[bps >= 0.0]
    arcs = []
    x, y = 0.0, -1.0
    tau = 0.0
    for lo, hi in zip(bps[:-1], bps[1:]):
        k = kfun.value(0.5 * (lo + hi))
        r = 1.0 / k
        d = hi - lo
        cx = x - r * math.sin(tau)
        cy = y + r * math.cos(tau)
        arcs.append(Arc(Vec2(cx, cy), r, tau - math.pi / 2.0, tau + k * d - math.pi / 2.0))
        x = cx + r * math.cos(tau + k * d - math.pi / 2.0)
        y = cy + r * math.sin(tau + k * d - math.pi / 2.0)
        tau += k * d
    return arcs, np.array([x, y]), tau


def _circle_pair(p: np.ndarray, k1: float):
    """Solve the closing pair: a circle tangent to the endpoint tangent line
    at p and a circle tangent to the line x = 1 at (1, 0), mutually tangent.

    The system is a one-parameter family in the common tangent angle phi;
    each phi gives a linear 2x2 solve for the radii, all 512 phi of the grid
    in one batched solve (the batch solves each system as the one-system
    call does). The canonical pick is the midpoint of the window where both
    radii are positive and the contact point stays in the fourth quadrant;
    the window is returned as well.
    """
    nhat = np.array([-math.sin(k1), math.cos(k1)])
    rhs = np.array([1.0 - p[0], -p[1]])

    def solve(phi: np.ndarray):
        s, c = np.sin(phi), np.cos(phi)
        a = np.empty(phi.shape + (2, 2))
        a[:, 0, 0], a[:, 0, 1] = nhat[0] + s, 1.0 - s
        a[:, 1, 0], a[:, 1, 1] = nhat[1] - c, c
        # a singular system has no solution; the identity stands in for it
        singular = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0] == 0.0
        a[singular] = np.eye(2)
        try:
            r, rp = np.linalg.solve(a, np.broadcast_to(rhs[:, None], a.shape[:-1] + (1,)))[..., 0].T
        except np.linalg.LinAlgError as exc:
            raise TangencySolveFailed(f"closing pair for endpoint {p!r}: {exc}") from None
        q = p + r[:, None] * nhat + r[:, None] * np.column_stack([s, -c])
        ok = ~singular & (r > 1e-9) & (rp > 1e-9) & (q[:, 1] < -1e-12) & (q[:, 0] > 1e-12)
        return r, rp, ok

    lo, hi = k1 + 1e-6, math.pi / 2.0 - 1e-6
    grid = np.linspace(lo, hi, 512)
    valid = grid[solve(grid)[2]]
    if not len(valid):
        raise TangencySolveFailed(
            f"no valid tangent circle pair for endpoint {p!r}, tangent angle {k1!r}"
        )
    phi_lo, phi_hi = float(valid.min()), float(valid.max())
    phi = 0.5 * (phi_lo + phi_hi)
    r, rp, ok = solve(np.array([phi]))
    if not ok[0]:
        raise TangencySolveFailed(f"inconsistent pair at phi = {phi!r}")
    return float(r[0]), float(rp[0]), phi, (phi_lo, phi_hi)


def close_sphere(curve: BuiltCurve) -> ArcChainNorm:
    """Close the curve into a norm: exact staircase arcs and the tangent
    circle pair form the fourth-quadrant run, whose fourfold reflection is the
    arc chain (so gauge(x) = gauge(|x1|, -|x2|))."""
    arcs, p, k1 = _exact_staircase_arcs(curve.kfun)
    if np.max(np.abs(p - curve.endpoint.as_array())) > 1e-8:
        raise NotConvex("quadrature endpoint disagrees with the exact arc chain")
    if not (0.0 < p[0] < 1.0 and -1.0 < p[1] < 0.0):
        raise NotConvex(f"endpoint {p!r} outside the open fourth-quadrant box")
    if not (0.0 < k1 < math.pi / 2.0):
        raise NotConvex(f"endpoint tangent angle {k1!r} not in (0, pi/2)")
    a_iks = p[0] - p[1] / math.tan(k1)
    if a_iks <= 1.0:
        raise NotConvex(f"tangent line meets the axis at {a_iks!r} <= 1")
    r, rp, phi, window = _circle_pair(p, k1)
    nhat = np.array([-math.sin(k1), math.cos(k1)])
    c_big = p + r * nhat
    c_small = np.array([1.0 - rp, 0.0])
    closing = [
        Arc(Vec2(float(c_big[0]), float(c_big[1])), r, k1 - math.pi / 2.0, phi - math.pi / 2.0),
        Arc(Vec2(float(c_small[0]), float(c_small[1])), rp, phi - math.pi / 2.0, 0.0),
    ]
    params = {
        "depth": curve.kfun.n_max,
        "closing_radius_big": r,
        "closing_radius_small": rp,
        "closing_angle": phi,
        "closing_angle_window": list(window),
    }
    return make_arc_chain(_reflect_q4_chain(arcs + closing))._replace_params(params)


def build_nobst(depth: int = DEFAULT_DEPTH, step: float = 1e-4) -> ArcChainNorm:
    """Staircase curvature -> integrated curve -> closed sphere."""
    return close_sphere(integrate_curve(staircase_function(depth), step))


def nobst_witness(model: ArcChainNorm, n_list) -> list[tuple[int, float]]:
    """Inverse-norm lower bounds from mid-flat-arc points (curvature 2^-n)
    against a fixed curvature-1 reference point; grows like sqrt(2)^n."""
    from . import geometry

    depth = model.params.get("depth")
    if depth is None:
        raise BadParameter("model was not built from a staircase curve")
    y_theta = model.theta_of_arclength(0.8125)  # middle of the long unit-curvature run
    y = geometry.sphere_point(model, y_theta)
    out = []
    for n in n_list:
        n = int(n)
        if not (1 <= n <= depth):
            raise BadParameter(f"n = {n} outside the built staircase (1..{depth})")
        s_mid = 2.0**-n + 2.0 ** (-n - 3)
        x = geometry.sphere_point(model, model.theta_of_arclength(s_mid))
        out.append((n, inv_norm_lower_bound(model, x, y)))
    return out
