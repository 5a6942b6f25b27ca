"""Constructors, validation, and family-specific behavior."""

import gc
import math
import warnings

import numpy as np
import pytest

from normplane import geometry, models, tangency
from normplane.errors import (
    BadParameter,
    NotClosed,
    NotConvex,
    NotPeriodic,
    NotSymmetric,
    TangentBreak,
)
from normplane.geometry import Vec2
from normplane.models import Arc
from normplane.numerics import angle_dist, quad_form


def test_make_lp_flags():
    assert models.make_lp(2).is_c2
    assert models.make_lp(1).polyhedral
    assert models.make_lp("inf").polyhedral
    with pytest.raises(BadParameter):
        models.make_lp(0.5)


def test_lp_gauge_homogeneous_at_float_extremes():
    # the p-th powers of these components leave the normal float range
    for p in (1.5, 4.0, 50.0):
        model = models.make_lp(p)
        for y in (6.937731039076807e-214, 1e-12, 1e150):
            v = np.array([[0.0, y], [y, -y]])
            assert model.gauge_many(v) == pytest.approx([y, y * 2.0 ** (1.0 / p)], rel=1e-13)
            assert model.gauge_many(-2.0 * v) == pytest.approx(2.0 * model.gauge_many(v), rel=1e-12)


def test_lp_curvature_at_axes(l4, l1_5, euclid):
    k4 = l4.curvature_theta_many(np.array([0.0]))[0]
    assert k4 == 0.0
    k15 = l1_5.curvature_theta_many(np.array([0.0]))[0]
    assert k15 == math.inf
    assert euclid.curvature_theta_many(np.array([0.0]))[0] == 1.0


def test_make_polar_rejects():
    with pytest.raises(NotPeriodic):
        models.make_polar(sin_terms={3: 0.01})
    with pytest.raises(NotConvex):
        models.make_polar(sin_terms={4: 0.5})
    # constant profile is the round sphere
    const = models.make_polar()
    assert const.gauge((3, 4)) == pytest.approx(5.0, rel=1e-12)


def test_polar_convexity_expression_oracle():
    # grid oracle for the rejected amplitude: 2 g'^2 + g^2 - g g'' < 0 somewhere
    grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    a = 0.5
    g = 1 + a * np.sin(4 * grid)
    gp = 4 * a * np.cos(4 * grid)
    gpp = -16 * a * np.sin(4 * grid)
    assert np.min(2 * gp**2 + g**2 - g * gpp) < 0


def test_polar_pig_validates(pig):
    # amplitude 1/17 is a valid norm even though its curvature touches zero
    assert pig.gauge((1.0, 0.0)) == pytest.approx(1.0)
    k = pig.curvature_theta_many(np.array([np.pi / 8]))[0]
    assert k == pytest.approx(289.0 / 162.0, rel=1e-12)


def test_quadrant_mix(mix):
    # oracle: direct exponent formulas per quadrant
    assert mix.gauge((1, -1)) == pytest.approx(2 ** (1 / 4), rel=1e-12)
    assert mix.gauge((1, 1)) == pytest.approx(2 ** (2 / 3), rel=1e-12)
    assert models.make_quadrant_mix(2, 2).gauge((3, 4)) == pytest.approx(5.0)
    with pytest.raises(BadParameter):
        models.make_quadrant_mix(1.0, 4.0)
    sp = geometry.sphere_point(mix, 0.0)
    assert sp.smooth  # gradient is continuous across the axes
    assert sp.curvature == math.inf  # the small-exponent side forces the flag


def test_hybrid(hybrid):
    assert hybrid.gauge((1, 1)) == pytest.approx(math.sqrt(2))
    assert hybrid.gauge((-1, 1)) == pytest.approx(2.0)
    assert not geometry.sphere_point(hybrid, 0.0).smooth


def test_polygon_validation():
    with pytest.raises(NotSymmetric):
        models.make_polygon([(1, 0), (0, 1), (-1, 0), (0.1, -1)])
    with pytest.raises(NotConvex):
        models.make_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)][::-1])  # clockwise
    diamond = models.make_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 2))
    assert np.allclose(diamond.gauge_many(pts), np.abs(pts).sum(axis=1))


def test_arc_chain_validation():
    circle = models.make_arc_chain([Arc(Vec2(0, 0), 1.0, 0.0, 2 * np.pi)])
    assert circle.gauge((0.6, 0.8)) == pytest.approx(1.0, rel=1e-12)

    upper = Arc(Vec2(0, 0), 1.0, 0.0, np.pi)
    gap = Arc(Vec2(0.2, 0.0), 0.8, np.pi, 2 * np.pi)
    with pytest.raises(NotClosed):
        models.make_arc_chain([upper, gap])

    # closed but kinked: the lower arc passes through (+-1, 0) on a circle
    # centered at (0, 1/2), so the tangents jump at both junctions
    c, r = Vec2(0.0, 0.5), math.sqrt(1.25)
    lower = Arc(c, r, math.atan2(-0.5, -1.0), math.atan2(-0.5, 1.0))
    with pytest.raises(TangentBreak):
        models.make_arc_chain([upper, lower])


def test_arc_chain_extent_floor():
    # the deepest staircase arc turns 2^-40 rad; only zero extent is rejected
    tiny = 2.0**-40

    def circle(extent):
        cuts = [0.0, extent, np.pi, np.pi + extent, 2 * np.pi]
        return [Arc(Vec2(0, 0), 1.0, a, b) for a, b in zip(cuts[:-1], cuts[1:])]

    chain = models.make_arc_chain(circle(tiny))
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 2))
    assert np.allclose(chain.gauge_many(pts), np.hypot(pts[:, 0], pts[:, 1]), rtol=1e-12)
    with pytest.raises(BadParameter):
        models.make_arc_chain(circle(0.0))


def test_arc_chain_features_include_every_junction(spliced):
    # a chain may start at any of its junctions, also at a radius change
    arcs = spliced.arcs
    junctions = [math.atan2(a.start_point()[1], a.start_point()[0]) for a in arcs]
    for r in range(len(arcs)):
        feats = models.make_arc_chain(arcs[r:] + arcs[:r]).feature_thetas()
        for junction in junctions:
            assert np.min(angle_dist(feats, junction)) <= 1e-12


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: models.make_lp(NAN),
        lambda: models.make_polar(sin_terms={4: NAN}),
        lambda: models.make_polar(cos_terms={2: NAN}),
        lambda: models.make_polar(constant=NAN),
        lambda: models.make_ellipse(NAN, 1.0),
        lambda: models.make_ellipse(2.0, NAN),
        lambda: models.make_ellipse(2.0, 1.0, NAN),
        lambda: models.make_ellipse_pair(np.diag([1.0, NAN]), np.eye(2)),
        lambda: models.make_blend(models.make_lp(4), NAN),
        lambda: models.make_polygon([(1, 0), (NAN, 1), (-1, 0), (NAN, -1)]),
    ],
)
def test_nan_parameters_are_bad_parameters(build):
    with pytest.raises(BadParameter):
        build()


def test_blend_keeps_base_corners(l1, linf, hexagon):
    for base in (l1, linf, hexagon):
        blend = models.make_blend(base, 1.0)
        assert np.array_equal(blend.kink_thetas(), base.kink_thetas())
        pts = blend.fine_points()
        for theta in blend.kink_thetas():
            x = blend.sphere_points_at(np.array([theta]))[0]
            for f in blend.one_sided_supports(theta):
                assert f @ x == pytest.approx(1.0, abs=1e-12)  # pairs to 1 ...
                assert np.max(pts @ f) <= 1.0 + 1e-12  # ... and supports the ball
            assert blend.curvature_sided(theta) == (0.0, math.inf)
    assert not models.make_blend(linf, 1.0).is_c2


def test_spliced_geometry(spliced):
    # frozen construction values for radius 2, junction angle -pi/4
    b = (math.sqrt(2), 1 - math.sqrt(2))
    assert spliced.gauge(b) == pytest.approx(1.0, rel=1e-12)
    assert spliced.gauge((3 - math.sqrt(2), 0)) == pytest.approx(1.0, rel=1e-12)
    assert spliced.gauge((0, 1)) == pytest.approx(1.0, rel=1e-12)
    ks = sorted(set(np.round(spliced.sphere_cache()["kappas"], 9)))
    assert ks == pytest.approx([0.5, 1 / (2 - math.sqrt(2))], rel=1e-9)
    with pytest.raises(BadParameter):
        models.make_spliced_arcs(0.9)
    with pytest.raises(BadParameter):
        models.make_spliced_arcs(2.0, -0.1)  # junction not below the axis


def test_blend(euclid, l4, blend_l4):
    scaled = models.make_blend(euclid, 1.0)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 2))
    assert np.allclose(scaled.gauge_many(pts), math.sqrt(2) * euclid.gauge_many(pts))
    assert models.make_blend(l4, 0.0) is l4
    # the figure-style half/half blend is this model rescaled by sqrt(2)
    v = (0.3, -1.2)
    half = math.sqrt(0.5 * l4.gauge(v) ** 2 + 0.5 * (v[0] ** 2 + v[1] ** 2))
    assert blend_l4.gauge(v) == pytest.approx(math.sqrt(2) * half, rel=1e-12)
    kappas = blend_l4.sphere_cache()["kappas"]
    assert kappas.min() > 0.1  # strictly positive curvature everywhere


def test_blend_curvature_formula_agreement(blend_l4):
    # implicit-formula curvature vs the generic polar-graph fallback
    thetas = np.linspace(0.1, 2 * np.pi, 64, endpoint=False)
    analytic = blend_l4.curvature_theta_many(thetas)
    numeric = models.NormModel.curvature_theta_many(blend_l4, thetas)
    assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_ellipse_models(ellipse_2_1):
    assert ellipse_2_1.gauge((2, 0)) == pytest.approx(1.0)
    assert ellipse_2_1.gauge((0, 1)) == pytest.approx(1.0)
    with pytest.raises(BadParameter):
        models.make_ellipse_pair(np.diag([1.0, -1.0]), np.eye(2))
    pair = models.make_ellipse_pair(np.diag([1.0, 0.25]), np.diag([0.25, 1.0]))
    assert len(pair.kink_thetas()) == 4
    kink = geometry.sphere_point(pair, float(pair.kink_thetas()[0]))
    assert not kink.smooth


def test_quad_form_matches_matmul(ellipse_2_1):
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(1000, 2)) * 10.0 ** rng.integers(-5, 6, size=(1000, 1))
    pair = models.make_ellipse_pair(np.diag([1.0, 0.25]), np.diag([0.25, 1.0]))
    inner = tangency.Ellipse(2.0, 0.3, 0.5)
    for m in (ellipse_2_1.m1, pair.m1, pair.m2, inner.matrix()):
        want = ((pts @ m) * pts).sum(1)
        assert np.all(np.abs(quad_form(pts, m) - want) <= 4.0 * np.spacing(want))
    # both ellipse classes evaluate their forms through it
    assert np.array_equal(pair._forms(pts)[1], quad_form(pts, pair.m2))
    assert np.array_equal(inner.gauge_many(pts), np.sqrt(quad_form(pts, inner.matrix())))
    # the ellipse gauges stay homogeneous, and quiet, where the forms leave
    # the float range
    dirs = pts / np.hypot(pts[:, 0], pts[:, 1])[:, None]
    for model in (ellipse_2_1, pair):
        base = model.gauge_many(dirs)
        for t in (1e-170, 1e170):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = model.gauge_many(t * dirs) / t
            assert np.max(np.abs(scaled - base) / base) <= 1e-12


def test_canonical_flips_like_a_copy():
    pts = np.array(
        [
            [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
            [0.0, -2.0], [-0.0, -2.0], [-0.0, 3.0], [-1.0, 0.0], [-1.0, -0.0],
            [np.nan, 1.0], [1.0, np.nan], [-1.0, np.nan], [np.nan, np.nan],
            [2.5, -1.0], [-2.5, 1.0],
        ]
    )
    flip = (pts[:, 0] < 0) | ((pts[:, 0] == 0) & (pts[:, 1] < 0))
    want = pts.copy()
    want[flip] *= -1.0
    got = models._canonical(pts)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_midpoint_convexity(all_gallery):
    rng = np.random.default_rng(5)
    u = rng.normal(size=(10_000, 2))
    v = rng.normal(size=(10_000, 2))
    for name, model in all_gallery.items():
        lhs = model.gauge_many(0.5 * (u + v))
        rhs = 0.5 * (model.gauge_many(u) + model.gauge_many(v))
        assert np.all(lhs <= rhs + 1e-9), name


def test_arc_chain_junction_continuity(spliced):
    for th in spliced.feature_thetas():
        eps = 1e-10
        lo = spliced.radial_many(np.array([th - eps]))[0]
        hi = spliced.radial_many(np.array([th + eps]))[0]
        assert abs(lo - hi) < 1e-9


def test_dual_models(l1, l4, mix, euclid):
    assert models.dual_model(l1).p == math.inf
    assert models.dual_model(l4).p == pytest.approx(4 / 3)
    dmix = models.dual_model(mix)
    assert (dmix.p, dmix.q) == pytest.approx((3.0, 4 / 3))
    # numeric cross-check of the exact mix dual against the sampled supremum
    rng = np.random.default_rng(9)
    for f in rng.normal(size=(20, 2)):
        assert dmix.gauge(f) == pytest.approx(geometry.dual_gauge(mix, f), abs=1e-7)
    assert models.dual_model(euclid).p == 2.0


def test_dual_model_numeric(pig):
    dual = models.dual_model(pig)
    # bidual gauge returns the original on a sample of directions
    rng = np.random.default_rng(2)
    for v in rng.normal(size=(10, 2)):
        back = geometry.dual_gauge(dual, v)
        assert back == pytest.approx(pig.gauge(v), rel=1e-5)


def test_dual_model_survives_address_reuse():
    # each build is dropped before the next, so a new model can take a dead
    # one's address; the dual must still belong to the live model
    wrong = []
    for k in range(60):
        p = round(1.50 + 0.01 * k, 2)
        dual = models.dual_model(models.make_lp(p))
        if abs(dual.p - p / (p - 1.0)) > 1e-12:
            wrong.append(p)
        del dual
        gc.collect()
    assert wrong == []
