"""The four curvature formulas, profiles, and the shrink-map scaling law."""

import math

import numpy as np
import pytest

from normplane import classify, curvature, geometry, models
from normplane.errors import ScaleLawViolation, SingularPoint
from normplane.numerics import phase_grid, stencil5_d1, stencil5_d2


def test_curvature_graph():
    assert curvature.curvature_graph(0.0, 2.0) == 2.0
    assert curvature.curvature_graph(0.0, 1.0) == 1.0
    assert curvature.curvature_graph(1.0, 1.0) == pytest.approx(2 ** -1.5, rel=1e-15)


def test_curvature_implicit():
    # unit circle
    assert curvature.curvature_implicit((2, 0), [[2, 0], [0, 2]]) == pytest.approx(1.0)
    # axis-aligned ellipse x^2/4 + y^2 at (2, 0): equals a / b^2 = 2
    k = curvature.curvature_implicit((1, 0), [[0.5, 0], [0, 2]])
    assert k == pytest.approx(2.0, rel=1e-15)
    # parametric oracle for the same ellipse: (2 cos t, sin t) at t = 0
    a, b = 2.0, 1.0
    oracle = a * b / (a**2 * 0 + b**2 * 1) ** 1.5
    assert k == pytest.approx(oracle)
    with pytest.raises(SingularPoint):
        curvature.curvature_implicit((0, 0), np.eye(2))


def test_curvature_implicit_tilted_ellipse_construction():
    # the vertical-tangent ellipse through (1, 1) with target curvature 2 is
    # 3 x^2 + 2 y^2 - 4 x y = 1; the implicit formula confirms the curvature
    a, b, c = 3.0, 2.0, -4.0
    p = (1.0, 1.0)
    grad = (2 * a * p[0] + c * p[1], 2 * b * p[1] + c * p[0])
    hess = [[2 * a, c], [c, 2 * b]]
    assert grad == (2.0, 0.0)
    assert curvature.curvature_implicit(grad, hess) == pytest.approx(2.0, rel=1e-15)


def test_curvature_at_extreme_scales():
    # both build under the RuntimeWarning gate: the needle ellipse with
    # semi-axes (1e-151, 1), and the blend of l4 with eps = 1e301, a disc of
    # radius eps^(-1/2) to within 1e-301 relative
    thetas = np.concatenate([phase_grid(256), np.arange(8) * (math.pi / 4)])
    a, b = 1e-151, 1.0
    needle = models.make_ellipse(a, b)
    x, y = needle.sphere_points_at(thetas).T
    # (a cos t, b sin t) has curvature a b / (a^2 sin^2 t + b^2 cos^2 t)^(3/2)
    h = np.hypot(a * y / b, b * x / a)
    want = (a / h) * (b / h) / h
    assert np.allclose(needle.curvature_theta_many(thetas), want, rtol=1e-12, atol=0.0)
    blend = models.make_blend(models.make_lp(4), 1e301)
    disc = math.sqrt(1e301)
    assert np.allclose(blend.curvature_theta_many(thetas), disc, rtol=1e-12, atol=0.0)
    assert classify.refined_kappa_min(blend) == pytest.approx(disc, rel=1e-12)


def test_curvature_parametric():
    assert curvature.curvature_parametric((1, 0), (0, 2)) == pytest.approx(2.0)
    assert curvature.curvature_parametric((1, 1), (0, 1)) == pytest.approx(2 ** -1.5)
    # shrink-map configuration: d1 = (1 - eps)(1, m), d2 = (0, f''(0));
    # with m = 1, eps = 0.5, f'' = 1 the image curvature is 4x the original
    k_old = curvature.curvature_graph(1.0, 1.0)
    k_new = curvature.curvature_parametric((0.5, 0.5), (0.0, 1.0))
    assert k_new == pytest.approx(4.0 * k_old, rel=1e-12)
    with pytest.raises(SingularPoint):
        curvature.curvature_parametric((0, 0), (1, 1))


def test_curvature_polar():
    assert curvature.curvature_polar(1.0, 0.0, 0.0) == 1.0
    assert curvature.curvature_polar(3.0, 0.0, 0.0) == pytest.approx(1 / 3)
    # profile 1 + sin(4 theta)/17 at theta = pi/8 (symbolic differentiation)
    k = curvature.curvature_polar(18 / 17, 0.0, -16 / 17)
    assert k == pytest.approx(289 / 162, rel=1e-15)


def test_profile_euclid(euclid):
    prof = curvature.profile(euclid, 64)
    assert prof.kappa_min == pytest.approx(1.0, rel=1e-12)
    assert prof.kappa_max == pytest.approx(1.0, rel=1e-12)


def test_profile_l4(l4):
    prof = curvature.profile(l4, 4096)
    assert prof.kappa_min < 1e-4  # flattens toward the axis points
    j = int(np.argmin(prof.kappas))
    dist_to_axis = np.abs((prof.thetas[j] + np.pi / 4) % (np.pi / 2) - np.pi / 4)
    assert dist_to_axis < 0.01


def test_profile_spliced(spliced):
    prof = curvature.profile(spliced, 512)
    values = sorted(set(np.round(prof.kappas, 9)))
    assert values == pytest.approx([0.5, 1 / (2 - math.sqrt(2))], rel=1e-9)


def test_formula_agreement_on_c2_models(pig, blend_l4, euclid):
    # analytic family formulas vs the polar-graph curvature of the radial
    # function, its derivatives from a 5-point stencil of step 2e-4
    thetas = (np.arange(256) + 0.5) * (2 * np.pi / 256)
    h = 2e-4
    for model in (pig, blend_l4, euclid):
        analytic = model.curvature_theta_many(thetas)
        r = [model.radial_many(thetas + k * h) for k in (-2, -1, 0, 1, 2)]
        numeric = curvature.curvature_polar_many(r[2], stencil5_d1(r, h), stencil5_d2(r, h))
        assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_local_inclusion_of_more_curved_body(euclid):
    # two spheres tangent at (1, 0) with kappa_flat < kappa_round: near the
    # contact point the more curved body lies inside the flatter one
    flat = models.make_ellipse(1.0, 2.0)  # curvature 1/4 at (1, 0)
    window = np.linspace(-1e-2, 1e-2, 41)
    round_pts = euclid.sphere_points_at(window)
    assert np.all(flat.gauge_many(round_pts) <= 1 + 1e-12)
    # and the flatter body pokes outside the rounder one
    flat_pts = flat.sphere_points_at(window[np.abs(window) > 1e-3])
    assert np.all(euclid.gauge_many(flat_pts) >= 1 - 1e-12)


def test_scale_law_euclid(euclid):
    a = geometry.sphere_point(euclid, np.pi / 2)
    before, after, ratio = curvature.scale_law_check(euclid, a, 0.5)
    assert ratio == pytest.approx(4.0, rel=1e-4)
    _, _, r1 = curvature.scale_law_check(euclid, a, 0.0)
    assert r1 == pytest.approx(1.0, rel=1e-6)


def test_scale_law_pig(pig):
    a = geometry.sphere_point(pig, np.pi / 8)
    _, _, ratio = curvature.scale_law_check(pig, a, 0.25)
    assert ratio == pytest.approx(16 / 9, rel=1e-4)


def test_scale_law_across_models(euclid, pig, blend_l4, ellipse_2_1):
    rng = np.random.default_rng(4)
    for model in (euclid, pig, blend_l4, ellipse_2_1):
        for eps in (0.1, 0.25, 0.5):
            theta = float(rng.uniform(0, 2 * np.pi))
            a = geometry.sphere_point(model, theta)
            if a.curvature < 1e-3:
                continue
            before, after, ratio = curvature.scale_law_check(model, a, eps)
            assert ratio == pytest.approx((1 - eps) ** -2, rel=1e-4)


def test_scale_law_violation_detected(euclid):
    a = geometry.sphere_point(euclid, 0.3)
    with pytest.raises(ScaleLawViolation):
        # lie about the model by monkeypatching the sphere: feed the checker a
        # mismatched base point so the measured ratio cannot match
        bad = geometry.SpherePoint(
            theta=a.theta + 0.3,
            point=a.point,
            support=a.support,
            tangent=geometry.Vec2(0.5, 1.0),
            curvature=a.curvature,
            smooth=True,
        )
        curvature.scale_law_check(euclid, bad, 0.5)


def test_profile_csv(euclid):
    text = curvature.profile(euclid, 8).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "theta,kappa"
    assert len(lines) == 9
    theta, kappa = lines[1].split(",")
    assert float(kappa) == pytest.approx(1.0)
