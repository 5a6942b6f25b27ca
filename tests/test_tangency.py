"""Inner/outer discs and ellipses, the tangent-ellipse family, the minimal
enclosing ellipse, and duality transfer."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hst
from scipy.optimize import minimize, nnls

from normplane import classify, gallery, geometry, models, semigroup, tangency
from normplane.curvature import curvature_implicit
from normplane.errors import NotPositiveDefinite
from normplane.geometry import SpherePoint, Vec2
from normplane.numerics import angle_dist, phase_grid
from normplane.tangency import Ellipse


def test_inner_disc_euclid(euclid):
    sp = geometry.sphere_point(euclid, 0.7)
    disc = tangency.inner_disc(euclid, sp)
    assert disc.radius == pytest.approx(1.0, abs=1e-6)
    assert math.hypot(disc.center.x1, disc.center.x2) < 1e-6
    assert tangency.verify_disc(euclid, disc, "inner")


def test_outer_disc_euclid(euclid):
    sp = geometry.sphere_point(euclid, 2.1)
    disc = tangency.outer_disc(euclid, sp)
    assert disc.radius == pytest.approx(1.0, abs=1e-6)
    assert tangency.verify_disc(euclid, disc, "outer")


def test_disc_absences(l1_5, l4):
    e1_small = geometry.sphere_point(l1_5, 0.0)
    assert tangency.inner_disc(l1_5, e1_small) is None
    assert tangency.outer_disc(l1_5, e1_small) is not None
    e1_large = geometry.sphere_point(l4, 0.0)
    assert tangency.outer_disc(l4, e1_large) is None
    assert tangency.inner_disc(l4, e1_large) is not None


def test_psi_table(euclid, linf):
    # unit circle: psi = |z - x|^2 / (2 (1 - <x, z>)) = 1 away from the base point
    thetas = np.array([0.3, 2.0])
    x = euclid.sphere_points_at(thetas)
    z_thetas = (np.arange(4096) + 0.5) * (2.0 * np.pi / 4096)
    z = euclid.sphere_points_at(z_thetas)
    psi = tangency.disc_psi(x[:, None], x[:, None], thetas[:, None], z[None], z_thetas[None])
    assert psi.shape == (2, 4096)
    ang = np.abs((z_thetas[None, :] - thetas[:, None] + np.pi) % (2 * np.pi) - np.pi)
    zone = ang < tangency.PSI_EXCLUDE
    assert np.any(zone) and np.all(np.isnan(psi[zone]))
    np.testing.assert_allclose(psi[~zone], 1.0, rtol=1e-9)
    # square: points on the face through x are on the support line, except
    # the one inside the exclusion zone, which the zone's NaN overrides
    xs = np.array([1.0, 0.3])
    theta = math.atan2(0.3, 1.0)
    z = np.array([[1.0, -0.5], [1.0, 0.9], [1.0, 0.3 + 1e-5], [0.0, 1.0]])
    psi = tangency.disc_psi(xs, np.array([1.0, 0.0]), theta, z, np.arctan2(z[:, 1], z[:, 0]))
    assert psi[:2].tolist() == [math.inf] * 2
    assert np.isnan(psi[2])
    assert psi[3] == pytest.approx((1.0 + 0.49) / 2.0)


def test_inner_disc_ellipse_major_end():
    # semi-axes (1, 2): at the major end the osculating radius a^2/b = 1/2
    # is attained (the osculating disc rolls inside the ellipse)
    ell = models.make_ellipse(1.0, 2.0)
    major = geometry.sphere_point(ell, np.pi / 2)
    disc = tangency.inner_disc(ell, major)
    assert disc.radius == pytest.approx(0.5, abs=1e-6)


def test_inner_disc_osculating_bound(all_gallery):
    for model in all_gallery.values():
        for theta in (0.3, 2.0, 4.4):
            sp = geometry.sphere_point(model, theta)
            disc = tangency.inner_disc(model, sp)
            if disc is None or not np.isfinite(sp.curvature) or sp.curvature <= 0:
                continue
            assert disc.radius <= 1.0 / sp.curvature + 1e-6


def test_outer_disc_nobst(nobst_model):
    theta = nobst_model.theta_of_arclength(0.0)  # the point (0, -1)
    sp = geometry.sphere_point(nobst_model, theta)
    disc = tangency.outer_disc(nobst_model, sp)
    assert disc is not None
    assert disc.radius <= 5.0 / 3.0 + 1e-6


# (psi min, psi max, k_lo, k_hi, kink) -> (r_in, r_out, inner exists, outer exists)
_DISC_RULE_ROWS = [
    ((0.5, 2.0, 0.25, 4.0, False), (0.25, 4.0, True, True)),  # both osculating radii bind
    ((0.5, 2.0, 1.0, math.inf, False), (0.0, 2.0, False, True)),  # k_hi = inf
    ((0.5, 2.0, 0.0, 0.0, True), (0.5, 2.0, True, True)),  # k_hi <= 0: no inner cap
    ((0.5, 2.0, 0.1, 4.0, True), (0.25, 2.0, True, True)),  # kink: no outer floor
    ((0.5, 2.0, math.inf, math.inf, False), (0.0, 2.0, False, True)),  # k_lo = inf
    ((0.5, 2.0, 0.0, 1.0, False), (0.5, math.inf, True, False)),  # k_lo <= 0, smooth
    ((0.5, 2.0, 1e-10, 1.0, False), (0.5, 1e10, True, False)),  # 0 < k_lo < 1e-9
    ((0.5, math.inf, 1.0, 1.0, False), (0.5, math.inf, True, False)),  # an inf psi
]


def test_disc_rule_branches():
    columns = [np.array(col) for col in zip(*(row for row, _ in _DISC_RULE_ROWS))]
    r_in, r_out = tangency.disc_bounds(*columns)
    inner, outer = tangency.disc_exists(r_in, r_out)
    got = list(zip(r_in.tolist(), r_out.tolist(), inner.tolist(), outer.tolist()))
    assert got == [want for _, want in _DISC_RULE_ROWS]
    # the scalar form (the per-point path) gives the same row by row
    for row, want in _DISC_RULE_ROWS:
        r = tangency.disc_bounds(*row)
        assert (float(r[0]), float(r[1]), *map(bool, tangency.disc_exists(*r))) == want


#: nobst's arc-midpoint angles around pi / 2 and their mirrors around
#: 3 pi / 2, where the outer disc's sup of psi lies just past the rim of the
#: exclusion zone, which the fine cache leaves unsampled
_NOBST_RIM_THETAS = np.array(
    [1.5692094129592054, 1.5700028697358488, 1.5715897838539443, 1.5723832406305878]
)


def test_per_point_discs_follow_the_sweep(all_gallery):
    """At sweep rows whose radii sit at least 10 % away from the floor and
    the cap, the refined per-point discs exist exactly where the sweep says;
    and nobst has an outer disc at the angles where only a search past the
    zone's rims finds its radius, ~1.666 against the grid's ~1.52."""
    nobst = all_gallery["nobst"]
    for theta in np.concatenate([_NOBST_RIM_THETAS, _NOBST_RIM_THETAS + np.pi]):
        disc = tangency.outer_disc(nobst, geometry.sphere_point(nobst, float(theta)))
        assert disc is not None and disc.radius <= 5.0 / 3.0 + 1e-6, theta
    lo, hi = tangency.MIN_DISC_RADIUS, tangency.OUTER_DISC_CAP

    def clear(r):
        return ~((r >= 0.9 * lo) & (r <= 1.1 * lo)) & ~((r >= 0.9 * hi) & (r <= 1.1 * hi))

    rng = np.random.default_rng(9)
    for name, model in all_gallery.items():
        sweep = classify.tangency_sweep(model)
        rows = np.where(clear(sweep.r_inner) & clear(sweep.r_outer))[0]
        for j in rng.choice(rows, 6, replace=False):
            sp = geometry.sphere_point(model, float(sweep.thetas[j]))
            assert (tangency.inner_disc(model, sp) is not None) == sweep.inner_ok[j], (name, j)
            assert (tangency.outer_disc(model, sp) is not None) == sweep.outer_ok[j], (name, j)


_SWEEP_ORACLE_MODELS = {
    **{name: lambda name=name: gallery.get(name) for name in gallery.names()},
    **{f"dual:{name}": lambda name=name: models.dual_model(gallery.get(name)) for name in gallery.names()},
    "ellipse(100, 1)": lambda: models.make_ellipse(100.0, 1.0),
}


@pytest.mark.parametrize("name", _SWEEP_ORACLE_MODELS)
def test_sweep_is_the_row_by_row_psi_table(name, monkeypatch):
    """The folded, blocked sweep gives bit for bit the radii and existence
    flags of a table built by disc_psi on every row of the sphere cache and
    on the sweep's feature and extremum rows, its zone masked over the whole
    row with angle_dist. Only the cache's fundamental domain and the extra
    rows reach sweep_radii (one GEMM per block, the zone found from grid
    indices); the other grid rows are read from their representatives."""
    model = _SWEEP_ORACLE_MODELS[name]()
    seen = {}
    sweep_radii = tangency.sweep_radii

    def spy(model, *args):
        seen["args"] = args
        return sweep_radii(model, *args)

    monkeypatch.setattr(tangency, "sweep_radii", spy)
    monkeypatch.setattr(model, "_sweep", None)
    sweep = classify.tangency_sweep(model)
    cache = model.sphere_cache()
    n = len(cache["thetas"])
    m = geometry.grid_fold(model, n)[0]
    thetas, points, supports, k_lo, k_hi, kink = seen["args"]
    assert len(thetas) == m + len(sweep.thetas) - n
    assert np.array_equal(thetas[:m], cache["thetas"][:m])
    thetas, points, supports, kink = (
        np.concatenate([cache[key], arg[m:]])
        for key, arg in (("thetas", thetas), ("points", points), ("supports", supports), ("kink", kink))
    )
    k_lo, k_hi = (np.concatenate([cache["kappas"], k[m:]]) for k in (k_lo, k_hi))
    assert np.array_equal(sweep.thetas, thetas)
    fine = model.fine_points()
    fine_thetas = phase_grid(len(fine))
    lo = np.empty(len(thetas))
    hi = np.empty(len(thetas))
    # disc_psi works row by row, so rows are taken 64 at a time
    for j in range(0, len(thetas), 64):
        rows = slice(j, j + 64)
        psi = tangency.disc_psi(
            points[rows, None], supports[rows, None], thetas[rows, None], fine[None], fine_thetas[None]
        )
        lo[rows], hi[rows] = np.nanmin(psi, axis=1), np.nanmax(psi, axis=1)
    r_in, r_out = tangency.disc_bounds(lo, hi, k_lo, k_hi, kink)
    inner_ok, outer_ok = tangency.disc_exists(r_in, r_out)
    np.testing.assert_array_equal(sweep.r_inner, r_in)
    np.testing.assert_array_equal(sweep.r_outer, r_out)
    np.testing.assert_array_equal(sweep.inner_ok, inner_ok)
    np.testing.assert_array_equal(sweep.outer_ok, outer_ok)


_TWO_PI = 2.0 * np.pi
_FINE_STEP = _TWO_PI / models.FINE_CACHE_N


@hst.composite
def _zone_angles(draw):
    """Angles where the zone's edge or the circle's seam is decided by
    rounding: on a fine sample, PSI_EXCLUDE +- 1 ulp from one, around 0 and
    2 pi, and round(theta % 2 pi, 12) just above 2 pi, as the sweep's extra
    rows can be; or anywhere on (and a little past) the circle."""
    kind = draw(hst.sampled_from(["on", "edge", "seam", "rounded", "any"]))
    sample = (draw(hst.integers(0, models.FINE_CACHE_N - 1)) + 0.5) * _FINE_STEP
    if kind == "on":
        return sample
    if kind == "edge":
        reach = np.nextafter(tangency.PSI_EXCLUDE, draw(hst.sampled_from([0.0, 1.0])))
        return sample + draw(hst.sampled_from([-1.0, 1.0])) * float(reach)
    if kind == "seam":
        return draw(hst.sampled_from([-1e-15, 0.0, _TWO_PI, -_TWO_PI, 2.0 * _TWO_PI]))
    if kind == "rounded":
        return round(draw(hst.floats(_TWO_PI - 5e-13, _TWO_PI)) % _TWO_PI, 12)
    return draw(hst.floats(-0.1, _TWO_PI + 0.1))


@given(theta=_zone_angles(), n=hst.sampled_from([models.FINE_CACHE_N, 1 << 16]))
@example(theta=-1e-15, n=models.FINE_CACHE_N)
@example(theta=0.0, n=models.FINE_CACHE_N)
@example(theta=_TWO_PI, n=models.FINE_CACHE_N)
@example(theta=round(_TWO_PI, 12), n=models.FINE_CACHE_N)
@example(theta=0.5 * _FINE_STEP + tangency.PSI_EXCLUDE, n=models.FINE_CACHE_N)
@settings(max_examples=300, deadline=None)
def test_zone_candidates_hold_the_zone(theta, n):
    """The samples the sweep masks, its zone predicate on the index-found
    candidates, are exactly those angle_dist puts within PSI_EXCLUDE over
    the whole grid; the candidates are the 2 (PSI_EXCLUDE // step + 2)
    nearest samples, one either side past the farthest the zone can reach
    (4 on the fine cache, 10 at 2^16 points)."""
    grid = phase_grid(n)
    step = _TWO_PI / n
    cand = tangency._zone_candidates(np.array([theta]), n)[0]
    assert len(cand) == 2 * (math.floor(tangency.PSI_EXCLUDE / step) + 2)
    assert np.all(angle_dist(grid[cand], theta) <= tangency.PSI_EXCLUDE + 2.0 * step)
    marked = np.zeros(n, dtype=bool)
    marked[cand[tangency._in_zone(grid[cand], theta)]] = True
    np.testing.assert_array_equal(marked, angle_dist(grid, theta) < tangency.PSI_EXCLUDE)


_TANGENT_MODELS = ("grandpa_pig_strict", "spliced", "blend_l4")


def _vertical_contact(h: float) -> SpherePoint:
    """A hand-made smooth point p = (1, h) with vertical tangent (support (1, 0))."""
    return SpherePoint(
        theta=math.atan2(h, 1.0),
        point=Vec2(1.0, h),
        support=Vec2(1.0, 0.0),
        tangent=Vec2(0.0, 1.0),
        curvature=1.0,
        smooth=True,
    )


def test_build_inner_ellipse(euclid):
    # through (1, 1) with vertical tangent; |f| = 1 so t is the curvature
    e = tangency.tangent_ellipse(_vertical_contact(1.0), 2.0)
    # A x^2 + B y^2 + C x y = 1 on the boundary
    a, b, c = e.m11, e.m22, 2.0 * e.m12
    assert (a, b, c) == (3.0, 2.0, -4.0)
    # passes through (1, 1) with vertical tangent and curvature 2
    assert a + b + c == pytest.approx(1.0)
    grad = (2 * a + c, 2 * b + c)
    assert grad == (2.0, 0.0)
    k = curvature_implicit(grad, [[2 * a, c], [c, 2 * b]])
    assert k == pytest.approx(2.0, rel=1e-15)
    # the curvature identity at the contact point: kappa = |C| / (2 h)
    for h, kt in ((0.5, 3.0), (2.0, 0.7), (1.0, 0.1)):
        e = tangency.tangent_ellipse(_vertical_contact(h), kt)
        assert abs(2.0 * e.m12) / (2 * h) == pytest.approx(kt, rel=1e-12)
        assert 4 * e.m11 * e.m22 - (2.0 * e.m12) ** 2 == pytest.approx(4 * kt)
    # h = 0 is an ordinary contact point now: the axis-aligned x^2 + t y^2
    e = tangency.tangent_ellipse(_vertical_contact(0.0), 0.5)
    assert (e.m11, e.m22, e.m12) == (1.0, 0.5, 0.0)
    sp = geometry.sphere_point(euclid, 0.4)
    for t in (0.0, -2.0):
        with pytest.raises(NotPositiveDefinite):
            tangency.tangent_ellipse(_vertical_contact(1.0), t)
        with pytest.raises(NotPositiveDefinite):
            tangency.tangent_ellipse(sp, t)


def test_outer_family(euclid, pig_strict):
    sp = geometry.sphere_point(euclid, 0.4)
    # on the round sphere with b = 1 the family member is the unit disc
    e = tangency.tangent_ellipse(sp, 1.0)
    assert np.max(np.abs(e.matrix() - np.eye(2))) < 1e-9
    # the power-type-2 constant b = 1/sqrt(8) (t = 1/8 on the John disc)
    # always gives an outer ellipse
    e = tangency.tangent_ellipse(sp, 1.0 / 8.0)
    assert np.max(e.gauge_many(euclid.fine_points())) <= 1 + 1e-9
    assert tangency.ball_inside_ellipse(euclid, e)
    assert e.gauge_many(sp.point.as_array()[None, :])[0] == pytest.approx(1.0, abs=1e-12)
    # outer_ellipse returns the extremal member: it contains the ball, and
    # where the ratio g (not the curvature at x) sets its t, it touches the
    # sphere again away from x
    n = 1 << 16
    thetas = (np.arange(n) + 0.381966) * (2.0 * math.pi / n)
    for model in (euclid, pig_strict):
        sp = geometry.sphere_point(model, 1.3)
        e = tangency.outer_ellipse(model, sp)
        assert e is not None
        assert tangency.ball_inside_ellipse(model, e)
        away = angle_dist(2.0 * thetas, 2.0 * sp.theta) > 0.1
        vals = e.gauge_many(model.sphere_points_at(thetas[away]))
        assert 1.0 - 1e-8 <= np.max(vals) <= 1.0 + tangency.CONTAIN_TOL


@given(
    name=hst.sampled_from(_TANGENT_MODELS),
    theta=hst.floats(0.0, 2.0 * math.pi),
    t=hst.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_tangent_ellipse_curvature_and_duality(name, theta, t):
    sp = geometry.sphere_point(gallery.get(name), theta)
    assume(sp.smooth)
    e = tangency.tangent_ellipse(sp, t)
    m = e.matrix()
    f = sp.support.as_array()
    # through x with gradient f there, curvature t / |f|^3
    np.testing.assert_allclose(m @ sp.point.as_array(), f, rtol=1e-12, atol=1e-12)
    k = curvature_implicit(2.0 * m @ sp.point.as_array(), 2.0 * m)
    assert k == pytest.approx(t / np.hypot(*f) ** 3, rel=1e-11)
    # the inverse is the member at the dual point (point f, support x), 1 / t
    dual_point = dataclasses.replace(sp, point=sp.support, support=sp.point)
    inv = tangency.tangent_ellipse(dual_point, 1.0 / t).matrix()
    assert np.max(np.abs(np.linalg.inv(m) - inv)) <= 1e-11 * np.max(np.abs(inv))


def test_inner_ellipse_construction(euclid, pig_strict, spliced):
    for model in (euclid, pig_strict, spliced):
        for theta in (0.0, 0.9, 2.7):
            sp = geometry.sphere_point(model, theta)
            e = tangency.inner_ellipse(model, sp)
            assert e is not None
            assert e.gauge_many(sp.point.as_array()[None, :])[0] == pytest.approx(1.0, abs=1e-9)
            assert tangency.ellipse_inside_ball(model, e)


def test_outer_ellipse(euclid, pig_strict):
    for model in (euclid, pig_strict):
        sp = geometry.sphere_point(model, 1.3)
        e = tangency.outer_ellipse(model, sp)
        assert e is not None
        vals = e.gauge_many(model.fine_points())
        assert np.max(vals) <= 1 + 1e-8
        assert e.gauge_many(sp.point.as_array()[None, :])[0] == pytest.approx(1.0, abs=1e-9)


def _psi_at(psi, model, x, thetas):
    return psi(x.point.as_array(), x.support.as_array(), x.theta, model.sphere_points_at(thetas), thetas)


def _scatter(psi, model, x, theta):
    """Rounding scatter of psi around the angle theta: the spread of 65
    values at angles 1e-12 apart, over which psi itself does not move."""
    vals = _psi_at(psi, model, x, theta + 1e-12 * np.arange(-32, 33))
    return float(np.nanmax(vals) - np.nanmin(vals))


def _dense_extremes(psi, model, x):
    """Test-only (r_in, r_in's slack), (r_out, r_out's slack) at x for the
    family whose member through z has the radius psi(z) at x: psi on 2^16
    phase-shifted angles plus 257 angles on each rim of the exclusion zone,
    three zoom rounds of 257 angles around the 8 most extreme samples, then
    disc_bounds with the one-sided curvatures. A slack is twice the largest
    rounding scatter of psi at the rims and at the extreme sample: the
    cancellation in 1 - <f, z> makes psi noisy near x, up to 5e-4 relative
    on nobst's flattest arcs, where a sphere point carries the rounding of
    its arc's center 512 away."""
    n = 1 << 16
    step = 2.0 * math.pi / n
    rim = tangency.PSI_EXCLUDE * (1.0 + 1e-9) + np.linspace(0.0, 2.0 * step, 257)
    first = np.concatenate([(np.arange(n) + 0.381966) * step, x.theta + rim, x.theta - rim])
    noise = max(_scatter(psi, model, x, x.theta + side * rim[0]) for side in (-1.0, 1.0))
    extremes = []
    for sign in (-1.0, 1.0):
        th, h = first, step
        top, at = -math.inf, None
        for _ in range(4):
            vals = sign * _psi_at(psi, model, x, th)
            vals[np.isnan(vals)] = -math.inf
            best = int(np.argmax(vals))
            if vals[best] > top:
                top, at = float(vals[best]), float(th[best])
            th = (th[np.argsort(-vals)[:8], None] + np.linspace(-h, h, 257)).ravel()
            h /= 128.0
        extremes.append((sign * top, 2.0 * max(noise, _scatter(psi, model, x, at))))
    (inf_psi, slack_in), (sup_psi, slack_out) = extremes
    k_lo, k_hi = (float(k[0]) for k in model.curvature_sided_many([x.theta]))
    r_in, r_out = tangency.disc_bounds(inf_psi, sup_psi, k_lo, k_hi, False)
    return (float(r_in), slack_in), (float(r_out), slack_out)


@given(
    name=hst.sampled_from(("grandpa_pig_strict", "spliced", "nobst", "blend_l4")),
    theta=hst.floats(0.0, 2.0 * math.pi),
    at_corner=hst.booleans(),
    family=hst.sampled_from(("disc", "ellipse")),
)
@example(name="nobst", theta=3.6281, at_corner=True, family="ellipse")
@example(name="spliced", theta=3.4265, at_corner=True, family="ellipse")
@example(name="nobst", theta=2.6553, at_corner=False, family="ellipse")
@example(name="nobst", theta=3.6281, at_corner=True, family="disc")
@example(name="nobst", theta=_NOBST_RIM_THETAS[1], at_corner=False, family="disc")
@settings(max_examples=40, deadline=None)
def test_extremal_ellipses_match_a_dense_oracle(name, theta, at_corner, family):
    """The one extremal-member search, checked on both tangent families in
    radius terms: inner_disc's and inner_ellipse's radius at x is the inf of
    their family's psi combined with 1 / k_hi, and the outer members' the
    sup combined with 1 / k_lo, to 1e-9 relative plus the rounding scatter
    of psi (an ellipse's radius at x is |f|^3 / t). At the corner-table rows
    (arc junctions) and at the nobst angle in the examples the curvature
    limit decides the ellipses; at nobst's arc midpoint the outer disc's
    sup lies past the rim of the exclusion zone."""
    model = gallery.get(name)
    corners = model.corners().thetas
    if at_corner and len(corners):
        theta = float(corners[np.argmin(angle_dist(corners, theta))])
    sp = geometry.sphere_point(model, theta)
    assume(sp.smooth)
    if family == "disc":
        psi = tangency.disc_psi
        members = (tangency.inner_disc(model, sp), tangency.outer_disc(model, sp))
        radii = [None if d is None else d.radius for d in members]
    else:
        psi = tangency.ellipse_psi
        fcube = np.hypot(sp.support.x1, sp.support.x2) ** 3
        fp = np.array([-sp.support.x2, sp.support.x1])
        # <f_perp, f> = 0 and <f_perp, x_perp> = <f, x> = 1, so t = f_perp^T M f_perp
        members = (tangency.inner_ellipse(model, sp), tangency.outer_ellipse(model, sp))
        radii = [None if e is None else fcube / float(fp @ e.matrix() @ fp) for e in members]
    extremes = _dense_extremes(psi, model, sp)
    (r_in, _), (r_out, _) = extremes
    if family == "disc":
        present = tangency.disc_exists(r_in, r_out)
    else:
        present = (True, model.curvature_sided_many([sp.theta])[0][0] >= 1e-9)
    for got, (r, slack), there in zip(radii, extremes, present):
        if not there:
            assert got is None
            continue
        assert got is not None
        assert abs(got - r) <= 1e-9 * r + slack, (got, r, slack)


def test_round_balls_give_their_own_form_and_isometries(euclid, ellipse_2_1):
    """On an ellipse ball every tangent ellipse that fits is the ball itself
    (t = det M: 0.25 on ellipse_2_1), so the inner and outer ellipses are its
    form and every orbit map is an isometry. g is constant there up to its
    rounding, which near the exclusion zone reaches 4e-8 relative; it errs
    to the safe side (t_in above, t_out below)."""
    rng = np.random.default_rng(31)
    for model, form in ((euclid, np.eye(2)), (ellipse_2_1, np.diag([0.25, 1.0]))):
        t = np.linalg.det(form)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 12):
            sp = geometry.sphere_point(model, theta)
            fp = np.array([-sp.support.x2, sp.support.x1])
            inner = tangency.inner_ellipse(model, sp).matrix()
            outer = tangency.outer_ellipse(model, sp).matrix()
            assert t * (1.0 - 1e-14) <= fp @ inner @ fp <= t * (1.0 + 1e-7)
            assert t * (1.0 - 1e-7) <= fp @ outer @ fp <= t * (1.0 + 1e-14)
            for m in (inner, outer):
                assert np.max(np.abs(m - form)) <= 1e-7
        grid = rng.uniform(0.0, 2.0 * math.pi, 8)
        for a in grid:
            for b in grid:
                x = geometry.sphere_point(model, a)
                y = geometry.sphere_point(model, b)
                cert = semigroup.orbit_map(model, x, y)
                assert abs(cert.op_norm - 1.0) <= 1e-12
                assert cert.inv_norm <= 1.0 + 1e-6


def test_john_ellipse(euclid, l1, linf, ellipse_2_1):
    assert np.max(np.abs(tangency.john_ellipse(euclid).matrix() - np.eye(2))) < 1e-6
    assert np.max(np.abs(tangency.john_ellipse(l1).matrix() - np.eye(2))) < 1e-6
    # brute oracle for the cube: no centered ellipse with smaller volume
    # contains the corners, and the disc of radius sqrt(2) does
    ji = tangency.john_ellipse(linf)
    assert np.max(np.abs(ji.matrix() - np.eye(2) / 2)) < 1e-6
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    assert np.max(ji.gauge_many(corners)) <= 1 + 1e-8
    je = tangency.john_ellipse(ellipse_2_1)
    assert np.max(np.abs(je.matrix() - np.diag([0.25, 1.0]))) < 1e-6


def test_john_volume_minimality(linf):
    # any centered ellipse containing the cube has det(M) <= det(John form)
    ji = tangency.john_ellipse(linf)
    det_john = np.linalg.det(ji.matrix())
    rng = np.random.default_rng(12)
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    for _ in range(200):
        m = rng.normal(size=(2, 2))
        m = m @ m.T + 1e-3 * np.eye(2)
        scale = np.max(np.einsum("ij,jk,ik->i", corners, m, corners))
        m = m / scale  # now contains the corners with equality somewhere
        assert np.linalg.det(m) <= det_john * (1 + 1e-6)


def _slsqp_john_form(pts):
    """Oracle for john_form: SLSQP on -log det over (m11, m12, m22), one
    linear constraint per point."""
    quad = np.column_stack([pts[:, 0] ** 2, 2.0 * pts[:, 0] * pts[:, 1], pts[:, 1] ** 2])
    r2 = np.einsum("ij,ij->i", pts, pts)
    x0 = np.array([1.0 / r2.max(), 0.0, 1.0 / r2.max()])

    def objective(v):
        det = v[0] * v[2] - v[1] * v[1]
        if det <= 0:
            return math.inf, np.zeros(3)
        return -np.log(det), -np.array([v[2], -2.0 * v[1], v[0]]) / det

    res = minimize(
        objective,
        x0,
        jac=True,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda v: 1.0 - quad @ v, "jac": lambda v: -quad}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return np.array([[res.x[0], res.x[1]], [res.x[1], res.x[2]]])


@pytest.mark.parametrize("name", gallery.names())
def test_john_form_matches_slsqp(name):
    # each entry within 1e-12 of the form's largest entry: off-diagonals are
    # often 0 to rounding, where an entry's own size is no scale
    pts = gallery.get(name).fine_points()
    m, oracle = tangency.john_form(pts), _slsqp_john_form(pts)
    assert np.max(np.abs(m - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("name", gallery.names())
def test_john_form_kkt(name):
    # John's condition for log det M under p^T M p <= 1: feasible, and M^-1 / 2
    # a convex combination of p p^T over the points the form touches
    pts = gallery.get(name).fine_points()
    m = tangency.john_form(pts)
    vals = np.einsum("ij,jk,ik->i", pts, m, pts)
    assert vals.max() <= 1.0 + 1e-14
    t = pts[vals >= 1.0 - 1e-12]
    half_inv = np.linalg.inv(m) / 2.0
    target = half_inv[[0, 0, 1], [0, 1, 1]]
    weights, resid = nnls(np.stack([t[:, 0] ** 2, t[:, 0] * t[:, 1], t[:, 1] ** 2]), target)
    assert resid <= 1e-12 * np.max(np.abs(target))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@given(
    name=hst.sampled_from(
        ("euclidean", "nobst", "spliced", "quadrant_mix", "l2_l1_hybrid", "hexagon")
    ),
    a=hst.lists(hst.floats(-2.0, 2.0), min_size=4, max_size=4),
)
@example(name="nobst", a=[0.6968039617408448, -0.5170688206949898,
                          -1.7431519993355855, 0.07510493624117975])
@example(name="spliced", a=[-0.9100993896848446, 0.37890697133784323,
                            1.7929911222137873, 0.42854187517107967])
@example(name="quadrant_mix", a=[1.4544569725539906, -1.27326891571964,
                                 1.4101595385464019, -0.9149761641716716])
@example(name="grandpa_pig_strict", a=[-0.4406099614784562, 0.9454095513221601,
                                       -0.20741281860621408, 0.7489873984351512])
@settings(max_examples=40, deadline=None)
def test_john_form_equivariance(name, a):
    # the fit commutes with linear maps, orientation-reversing ones included:
    # the points P A^T give the form A^-T M A^-1. The examples are maps under
    # which the fit goes wrong without Cramer's refinement step (nobst,
    # spliced), when a candidate is tested against its own points, which
    # rounding can leave above 1 + 1e-14 (quadrant_mix), or, looping for
    # ever, without the exit on a determinant that stops falling
    # (grandpa_pig_strict). Every point of the circle's images touches the fit
    a = np.array(a).reshape(2, 2)
    assume(abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) >= 0.1 and np.linalg.cond(a) <= 50.0)
    pts = gallery.get(name).fine_points()
    a_inv = np.linalg.inv(a)
    expected = a_inv.T @ tangency.john_form(pts) @ a_inv
    got = tangency.john_form(pts @ a.T)
    assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_disc_containment_invariants(euclid, pig_strict):
    for model in (euclid, pig_strict):
        sp = geometry.sphere_point(model, 0.8)
        inner = tangency.inner_disc(model, sp)
        outer = tangency.outer_disc(model, sp)
        # containment at tolerance 1e-7, point on the relevant boundaries
        assert tangency.verify_disc(model, inner, "inner", tol=1e-7)
        assert tangency.verify_disc(model, outer, "outer", tol=1e-7)
        xa = sp.point.as_array()
        d_in = np.hypot(*(xa - inner.center.as_array()))
        assert d_in <= inner.radius + 1e-9
        d_out = np.hypot(*(xa - outer.center.as_array()))
        assert d_out == pytest.approx(outer.radius, abs=1e-9)


def test_inner_ellipse_inverse_contains_dual_ball(l1_5):
    # generic smooth point of the small-exponent plane: the inverse of its
    # inner ellipse is an outer ellipse of the conjugate-exponent plane
    e = tangency.inner_ellipse(l1_5, geometry.sphere_point(l1_5, 0.9))
    assert e is not None
    inv = Ellipse.from_matrix(np.linalg.inv(e.matrix()))
    vals = inv.gauge_many(models.dual_model(l1_5).fine_points())
    assert np.max(vals) <= 1 + 1e-6


def test_unit_disc_self_dual():
    e = Ellipse.from_matrix(np.eye(2))
    assert np.max(np.abs(np.linalg.inv(e.matrix()) - np.eye(2))) == 0.0


def test_ellipse_type():
    e = Ellipse(3.0, -2.0, 2.0)
    assert (e.m11, e.m12, e.m22) == (3.0, -2.0, 2.0)
    assert np.all(np.linalg.eigvalsh(e.matrix()) > 0)
    with pytest.raises(NotPositiveDefinite):
        Ellipse(1.0, 1.5, 1.0)


def test_orbit_inclusion_properties(euclid, pig_strict, spliced):
    """If a contraction sends x to y, inner-at-x implies inner-at-y and
    outer-at-y implies outer-at-x (checked on models where orbits exist)."""
    for model in (euclid, pig_strict, spliced):
        for t1, t2 in ((0.3, 1.1), (2.0, 4.9)):
            x = geometry.sphere_point(model, t1)
            y = geometry.sphere_point(model, t2)
            cert = semigroup.orbit_map(model, x, y)
            if cert is None:
                continue
            if tangency.inner_disc(model, x) is not None:
                assert tangency.inner_disc(model, y) is not None
            if tangency.outer_disc(model, y) is not None:
                assert tangency.outer_disc(model, x) is not None


def test_dense_inner_discs_nonempty_outer(all_gallery):
    """Strictly convex C2 models admit inner discs at 100/100 random points;
    every gallery model has at least one point with an outer disc."""
    rng = np.random.default_rng(21)
    for name, model in all_gallery.items():
        thetas = rng.uniform(0, 2 * np.pi, 100)
        if name in ("euclidean", "grandpa_pig", "grandpa_pig_strict", "blend_l4", "ellipse_2_1"):
            for th in thetas:
                sp = geometry.sphere_point(model, float(th))
                assert tangency.inner_disc(model, sp) is not None, (name, th)
        probe = np.concatenate(
            [np.linspace(0.1, 2 * np.pi, 16, endpoint=False), model.feature_thetas()]
        )
        found_outer = False
        for th in probe:
            sp = geometry.sphere_point(model, float(th))
            if tangency.outer_disc(model, sp) is not None:
                found_outer = True
                break
        assert found_outer, name
