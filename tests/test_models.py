"""Constructors, validation, and family-specific behavior."""

import gc
import math
import warnings
import zlib

import numpy as np
import pytest

from normplane import curvature, gallery, geometry, models, tangency
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
from normplane.numerics import angle_dist, form_factor, form_norm, stencil5_d1, stencil5_d2


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
        models.make_quadrant_mix(0.5, 4)
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
INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: models.make_lp(NAN),
        lambda: models.make_quadrant_mix(NAN, 4),
        lambda: models.make_quadrant_mix(1.5, NAN),
        lambda: models.make_polar(sin_terms={4: NAN}),
        lambda: models.make_polar(cos_terms={2: NAN}),
        lambda: models.make_polar(constant=NAN),
        lambda: models.make_ellipse(NAN, 1.0),
        lambda: models.make_ellipse(2.0, NAN),
        lambda: models.make_ellipse(2.0, 1.0, NAN),
        lambda: models.make_ellipse_pair(np.diag([1.0, NAN]), np.eye(2)),
        lambda: models.make_blend(models.make_lp(4), NAN),
        lambda: models.make_polygon([(1, 0), (NAN, 1), (-1, 0), (NAN, -1)]),
        lambda: models.make_arc_chain([models.Arc(models.Vec2(NAN, 0.0), 1.0, 0.0, 2 * math.pi)]),
        lambda: models.make_arc_chain([models.Arc(models.Vec2(0.0, 0.0), NAN, 0.0, 2 * math.pi)]),
    ],
)
def test_nan_parameters_are_bad_parameters(build):
    with pytest.raises(BadParameter):
        build()


SCALE_ROWS = [[3e-170, 7e-170], [3e170, 7e170], [NAN, 1.0]]


@pytest.mark.parametrize("name", ["l4", "ellipse_2_1", "two_ellipses", "blend_l4"])
def test_nan_row_keeps_other_rows_homogeneous(name):
    # one NaN row in the batch must not switch off the range check
    model = gallery.get(name)
    got = model.gauge_many(SCALE_ROWS)
    alone = np.array([model.gauge_many([row])[0] for row in SCALE_ROWS])
    assert np.array_equal(got, alone, equal_nan=True)
    assert got[0] == pytest.approx(1e-170 * model.gauge((3.0, 7.0)), rel=1e-12)
    assert got[1] == pytest.approx(1e170 * model.gauge((3.0, 7.0)), rel=1e-12)
    assert np.isnan(got[2])


@pytest.mark.parametrize("name", gallery.names())
def test_non_finite_rows(name):
    # no errstate here: a float warning from the package fails the test; the
    # finite rows of a batch read as they do without the others
    rows = [[0.0, 0.0], [INF, 0.0], [INF, 1.0], [1.0, -INF], [INF, INF], [0.0, INF], [NAN, 1.0]]
    finite = np.random.default_rng(71).normal(size=(64, 2))
    model = gallery.get(name)
    for m in (model, models.dual_model(model)):
        got = m.gauge_many(np.vstack([finite, rows]))
        assert got[64:70].tolist() == [0.0, INF, INF, INF, INF, INF] and np.isnan(got[70]), m.family
        assert np.array_equal(got[:64], m.gauge_many(finite)), m.family


def test_nan_rows_gauge_to_nan(all_gallery):
    for name, model in _gallery_and_duals(all_gallery):
        with np.errstate(invalid="ignore"):
            got = model.gauge_many([[NAN, 1.0], [1.0, NAN]])
        assert np.all(np.isnan(got)), name


def _conic_kappa(m: np.ndarray, x: np.ndarray) -> float:
    """Curvature of the conic z^T m z = x^T m x at x."""
    g = m @ x
    t = np.array([-g[1], g[0]])
    return abs(t @ m @ t) / math.hypot(*g) ** 3


def _one_sided_supports(model, theta):
    """(f_minus, f_plus) of the corner row within KINK_TOL of theta."""
    c = model.corners()
    near, rows = c.lookup(np.array([theta]))
    assert near[0], theta
    return c.f_minus[rows[0]], c.f_plus[rows[0]]


def test_blend_keeps_base_corners(l1, linf, hexagon):
    for base in (l1, linf, hexagon):
        blend = models.make_blend(base, 1.0)
        assert np.array_equal(blend.kink_thetas(), base.kink_thetas())
        pts = blend.fine_points()
        ks = blend.kink_thetas()
        k_lo, k_hi = blend.curvature_sided_many(ks)
        for j, theta in enumerate(ks):
            x = blend.sphere_points_at(np.array([theta]))[0]
            for f in _one_sided_supports(blend, theta):
                assert f @ x == pytest.approx(1.0, abs=1e-12)  # pairs to 1 ...
                assert np.max(pts @ f) <= 1.0 + 1e-12  # ... and supports the ball
            # next to a face with normal n the blend's sphere is the ellipse
            # of the form n n^T + eps I
            faces = _one_sided_supports(base, theta)
            want = min(_conic_kappa(np.outer(n, n) + np.eye(2), x) for n in faces)
            assert k_lo[j] == pytest.approx(want, rel=0, abs=1e-12) and k_hi[j] == math.inf
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


def _stencil_curvatures(model, thetas):
    """Polar-graph curvature of the model's radial function, its derivatives
    from a 5-point stencil of step 2e-4."""
    h = 2e-4
    r = [model.radial_many(thetas + k * h) for k in (-2, -1, 0, 1, 2)]
    return curvature.curvature_polar_many(r[2], stencil5_d1(r, h), stencil5_d2(r, h))


def test_blend_curvature_formula_agreement(blend_l4):
    # implicit-formula curvature vs a radial stencil
    thetas = np.linspace(0.1, 2 * np.pi, 64, endpoint=False)
    analytic = blend_l4.curvature_theta_many(thetas)
    numeric = _stencil_curvatures(blend_l4, thetas)
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


def test_form_norm_matches_quadratic_form(ellipse_2_1, two_ellipses):
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(1000, 2)) * 10.0 ** rng.integers(-5, 6, size=(1000, 1))
    inner = tangency.Ellipse(2.0, 0.3, 0.5)
    rotated = models.make_ellipse(2.0, 1.0, angle=0.7)
    forms = (ellipse_2_1.m1, two_ellipses.m1, two_ellipses.m2, inner.matrix(), rotated.m1)
    for m in forms:
        want = np.sqrt(np.einsum("ij,jk,ik->i", pts, m, pts))
        assert np.all(np.abs(form_norm(pts, form_factor(m)) - want) <= 4.0 * np.spacing(want))
    # both ellipse classes evaluate their forms through it, bit for bit
    for model in (ellipse_2_1, rotated):
        assert _same_bits(model._gauge_raw(pts), form_norm(pts, form_factor(model.m1)))
    pair = (form_norm(pts, form_factor(m)) for m in (two_ellipses.m1, two_ellipses.m2))
    assert _same_bits(two_ellipses._gauge_raw(pts), np.maximum(*pair))
    assert _same_bits(inner.gauge_many(pts), form_norm(pts, form_factor(inner.matrix())))
    # the ellipse gauges stay homogeneous, and quiet, where the forms leave
    # the float range
    dirs = pts / np.hypot(pts[:, 0], pts[:, 1])[:, None]
    for model in (ellipse_2_1, two_ellipses):
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


def _gallery_and_duals(all_gallery):
    for name, model in all_gallery.items():
        yield name, model
        yield name + "*", models.dual_model(model)


def _even_test_rows() -> np.ndarray:
    """4096 seeded rows at scales 1, 1e+-170 and 1e+-300, then the signed
    zeros, (0, -y) rows and NaN rows."""
    base = np.random.default_rng(47).normal(size=(4096, 2))
    special = np.array(
        [
            [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, -2.0], [-0.0, -2.0],
            [np.nan, 1.0], [1.0, np.nan], [-1.0, np.nan], [np.nan, np.nan], [np.nan, -0.0],
        ]
    )
    scales = (1.0, 1e170, 1e-170, 1e300, 1e-300)
    return np.vstack([base * s for s in scales] + [special])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _even_bitwise(model, pts) -> bool:
    """gauge(-v) == gauge(v) bit for bit, NaN rows aside: those are NaN on
    both sides, and a NaN keeps the sign its input gave it."""
    with np.errstate(invalid="ignore"):
        a, b = model.gauge_many(pts), model.gauge_many(-pts)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bits(a[~nan], b[~nan])


def test_every_gauge_is_exactly_even(all_gallery):
    pts = _even_test_rows()
    for name, model in _gallery_and_duals(all_gallery):
        assert _even_bitwise(model, pts), name


def test_even_families_evaluate_rows_as_given(all_gallery):
    # these formulas are exactly even as written, so skipping the sign flip
    # gives the canonical rows' values bit for bit
    even = (
        models.LpNorm, models.QuadrantMixNorm, models.EllipseMaxNorm, models.BlendNorm,
    )
    pts = _even_test_rows()
    seen = set()
    for name, model in _gallery_and_duals(all_gallery):
        if isinstance(model, even):
            seen.add(type(model))
            with np.errstate(invalid="ignore"):
                got = model.gauge_many(pts)
                want = model._gauge_raw(models._canonical(pts))
            assert _same_bits(got, want), name
    assert seen == set(even)


def test_polygon_with_inexact_antipodes_is_exactly_even():
    v = [(1.0, 0.0), (0.5, 1.0), (-0.5, 1.0), (-1.0, 0.0), (-0.5, -1.0), (0.5 + 1e-12, -1.0)]
    poly = models.make_polygon(v)
    assert poly.normals[2].tolist() != (-poly.normals[5]).tolist()
    assert _even_bitwise(poly, _even_test_rows())


def test_sphere_points_are_units_times_radii(all_gallery):
    # one trig pass: the sphere points are the same unit rows the radii are
    # computed from, scaled by them
    th = np.random.default_rng(48).uniform(-4.0 * np.pi, 6.0 * np.pi, size=4096)
    th[:4] = (0.0, -0.0, -np.pi, 2.0 * np.pi)
    units = np.column_stack([np.cos(th), np.sin(th)])
    for name, model in _gallery_and_duals(all_gallery):
        want = units * model.radial_many(th)[:, None]
        assert _same_bits(model.sphere_points_at(th), want), name


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



def test_arc_chain_sphere_points_are_far_roots(all_gallery):
    """Every sphere point lies on its arc's circle, on the side facing away
    from the arc's center, <p - c, p> > 0: the far root of the ray."""
    thetas = np.random.default_rng(5).uniform(0.0, 2 * np.pi, 4096)
    c, s = math.cos(0.37), math.sin(0.37)
    chains = [m for m in all_gallery.values() if m.family == "arc_chain"]
    assert len(chains) == 2
    for chain in chains:
        turned = models.make_arc_chain(
            [
                Arc(Vec2(c * a.center.x1 - s * a.center.x2, s * a.center.x1 + c * a.center.x2),
                    a.radius, a.start_angle + 0.37, a.end_angle + 0.37)
                for a in chain.arcs
            ]
        )
        for model in (chain, turned):
            p = model.sphere_points_at(thetas)
            idx = model.arc_index(thetas)
            d = p - model.centers[idx]
            assert np.all(np.einsum("ij,ij->i", d, p) > 0)
            assert np.max(np.abs(np.hypot(d[:, 0], d[:, 1]) - model.radii[idx])) <= 1e-12


def test_polyhedral_curvature_hooks(l1, linf, hexagon):
    """inf at and within 1e-12 of a corner, 0 elsewhere; one-sided
    (0, inf) within 1e-9 of a corner, (0, 0) elsewhere."""
    for model in (l1, linf, hexagon):
        ks = model.kink_thetas()
        mids = ks + 0.5 * np.diff(np.append(ks, ks[0] + 2 * np.pi))
        at_corner = np.concatenate([ks, ks + 0.9e-12, ks - 0.9e-12])
        assert np.all(model.curvature_theta_many(at_corner) == math.inf)
        on_face = np.concatenate([mids, ks + 2e-12, ks - 2e-12, ks + 0.9e-9])
        assert np.all(model.curvature_theta_many(on_face) == 0.0)
        k_lo, k_hi = model.curvature_sided_many(np.concatenate([at_corner, ks + 0.9e-9, ks - 0.9e-9]))
        assert np.all(k_lo == 0.0) and np.all(k_hi == math.inf)
        k_lo, k_hi = model.curvature_sided_many(np.concatenate([mids, ks + 2e-9, ks - 2e-9]))
        assert np.all(k_lo == 0.0) and np.all(k_hi == 0.0)


def test_corner_rows_are_limits_of_sphere_data(cornered):
    """Each corner row holds the one-sided limits of the sphere data: f_minus
    and f_plus are sphere_data's supports at theta -/+ 1e-8, and the finite
    k_minus and k_plus are the curvatures at theta -/+ d and -/+ 2 d,
    extrapolated linearly to theta, and within 1e-3 of the curvature at
    theta -/+ 1e-4. A row is a kink exactly when its supports
    differ. curvature_sided_many serves the row within KINK_TOL (1e-9) of theta,
    where sphere_data flags the row's kink, and (k, k) beyond it."""
    for name, model in cornered.items():
        c = model.corners()
        th = c.thetas
        assert len(th) and np.all(np.diff(th) > 0) and 0 <= th[0] and th[-1] < 2 * np.pi, name
        jump = np.max(np.abs(c.f_plus - c.f_minus), axis=1)
        assert c.kink.tolist() == (jump > geometry.SMOOTH_JUMP_TOL).tolist(), name
        # every step stays on one side of the row, also between short arcs
        gap = 0.25 * np.min(np.diff(np.append(th, th[0] + 2 * np.pi)))
        d, near = min(1e-3, gap), min(1e-4, gap)
        for sign, f, k in ((-1, c.f_minus, c.k_minus), (1, c.f_plus, c.k_plus)):
            supports = geometry.sphere_data(model, th + sign * 1e-8)["supports"]
            # 3e-4: an l1.5 side's support converges like the square root
            assert np.max(np.abs(supports - f)) <= 3e-4, name
            k1, k2 = (model.curvature_theta_many(th + sign * j * d) for j in (1, 2))
            finite = np.isfinite(k)
            err = np.abs(2.0 * k1 - k2 - k)[finite]
            assert np.all(err <= 1e-4 * np.maximum(1.0, k[finite])), name
            # and the curvature right next to the row is already close to it
            err = np.abs(model.curvature_theta_many(th + sign * near) - k)[finite]
            assert np.all(err <= 1e-3 * np.maximum(1.0, k[finite])), name
        row_lo = np.minimum(c.k_minus, c.k_plus)
        row_hi = np.where(c.kink, math.inf, np.maximum(c.k_minus, c.k_plus))
        for off in (0.9e-9, -0.9e-9, 2e-9, -2e-9):
            data = geometry.sphere_data(model, th + off)
            k_lo, k_hi = model.curvature_sided_many(th + off)
            if abs(off) < geometry.KINK_TOL:
                assert data["kink"].tolist() == c.kink.tolist(), name
                assert data["smooth"].tolist() == (~c.kink).tolist(), name
                assert k_lo.tolist() == row_lo.tolist() and k_hi.tolist() == row_hi.tolist(), name
            else:
                assert not data["kink"].any(), name
                k = model.curvature_theta_many(th + off)
                assert k_lo.tolist() == k.tolist() and k_hi.tolist() == k.tolist(), name


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


EXPONENTS = (1, 1.5, 2, 4, "inf")


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("q", EXPONENTS)
def test_quadrant_mix_dual_is_exact(p, q):
    # the dual of the mix is the mix of the conjugate exponents, 1 <-> inf;
    # checked against the sampled supremum sup <f, y> over the unit sphere
    mix = models.make_quadrant_mix(p, q)
    dual = models.dual_model(mix)
    assert isinstance(dual, models.QuadrantMixNorm)
    fs = np.random.default_rng(41).normal(size=(64, 2))
    want = geometry.dual_gauge_many(mix, fs)
    assert np.all(np.abs(dual.gauge_many(fs) - want) <= 1e-9 * want)
    assert models.dual_model(dual) is mix


def test_hybrid_is_the_quadrant_mix_2_1(hybrid):
    assert isinstance(hybrid, models.QuadrantMixNorm)
    assert (hybrid.family, hybrid.params) == ("quadrant_mix", {"p": 2.0, "q": 1.0})
    dual = models.dual_model(hybrid)
    assert dual.params == {"p": 2.0, "q": "inf"}
    assert models.dual_model(dual).params == {"p": 2.0, "q": 1.0}
    # the axis supports come from the exact axis vector
    lo, hi = _one_sided_supports(hybrid, np.pi / 2)
    assert (lo.tolist(), hi.tolist()) == ([0.0, 1.0], [-1.0, 1.0])
    # params keep the exponents as given, an infinite one as the string
    assert models.make_quadrant_mix(1.5, 4).params == {"p": 1.5, "q": 4}
    assert models.make_quadrant_mix(float("inf"), "inf").params == {"p": "inf", "q": "inf"}


def test_bidual_is_the_model(all_gallery):
    for name, model in all_gallery.items():
        assert models.dual_model(models.dual_model(model)) is model, name


def test_dual_model_numeric(pig):
    dual = models.dual_model(pig)
    # bidual gauge returns the original on a sample of directions
    rng = np.random.default_rng(2)
    for v in rng.normal(size=(10, 2)):
        back = geometry.dual_gauge(dual, v)
        assert back == pytest.approx(pig.gauge(v), rel=1e-12)


SUPPORT_DUALS = ("grandpa_pig", "grandpa_pig_strict", "two_ellipses", "spliced", "nobst", "blend_l4")


@pytest.mark.parametrize("name", SUPPORT_DUALS)
def test_support_dual_is_exactly_even(name):
    # N*(-f) = N*(f) bit for bit, and the gradient, the primal maximiser,
    # is odd bit for bit
    dual = models.dual_model(gallery.get(name))
    assert isinstance(dual, models.SupportDual)
    fs = np.random.default_rng(47).normal(size=(256, 2))
    assert np.array_equal(dual.gauge_many(-fs), dual.gauge_many(fs))
    assert np.array_equal(dual.grad_many(-fs), -dual.grad_many(fs))


@pytest.mark.parametrize("name", SUPPORT_DUALS)
def test_support_dual_curvature_relation(name):
    """kappa(x) kappa*(f) (|x| |f|)^3 = 1 at the dual sphere points f and the
    base's sphere points x that support them, off the dual's junction rows;
    and, away from the dual's corner rows and its infinite curvatures, the
    dual's curvature agrees with a radial stencil."""
    base = gallery.get(name)
    dual = models.dual_model(base)
    thetas = np.random.default_rng(zlib.crc32(name.encode())).uniform(0.0, 2.0 * np.pi, 512)
    rows = dual.corners().thetas
    thetas = thetas[np.all(angle_dist(thetas[:, None], rows[None, :]) > 1e-6, axis=1)]
    f = dual.sphere_points_at(thetas)
    x = dual.grad_many(f)
    assert np.allclose(base.gauge_many(x), 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(np.einsum("ij,ij->i", f, x), 1.0, rtol=0.0, atol=1e-15)
    k_base = base.curvature_theta_many(np.arctan2(x[:, 1], x[:, 0]))
    k_dual = dual.curvature_theta_many(thetas)
    norms = (np.hypot(*x.T) * np.hypot(*f.T)) ** 3
    finite = np.isfinite(k_base) & (k_base > 0.0)
    assert np.all(np.abs(k_base[finite] * k_dual[finite] * norms[finite] - 1.0) <= 1e-10), name
    assert np.all(k_dual[k_base == np.inf] == 0.0) and np.all(k_dual[k_base == 0.0] == np.inf)
    # the stencil needs 4e-4 either side clear of a junction or a face end,
    # and a curvature that varies slowly on that scale
    clear = np.all(angle_dist(thetas[:, None], rows[None, :]) > 1e-3, axis=1) & finite & (k_dual < 10.0)
    numeric = _stencil_curvatures(dual, thetas[clear])
    assert np.all(np.abs(numeric - k_dual[clear]) <= 1e-6 * np.maximum(1.0, k_dual[clear])), name


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
