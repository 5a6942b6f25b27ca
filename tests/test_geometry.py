"""Gauge evaluation, duality, sphere parametrization, operator norms."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.optimize import minimize_scalar

from normplane import gallery, geometry, models, semigroup
from normplane.geometry import LinearMap2, Vec2
from normplane.numerics import BLOCK_POINTS, angle_dist, circle_max, phase_grid

finite_floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
scales = st.sampled_from([-2.0, 0.5, 3.0])


def test_gauge_examples(l1, mix, pig):
    assert l1.gauge((1, 1)) == 2.0
    # off-diagonal quadrant of the mix uses the larger exponent
    assert mix.gauge((1, -1)) == pytest.approx(2 ** 0.25, rel=1e-12)
    assert pig.gauge((1, 0)) == pytest.approx(1.0, rel=1e-12)


@given(x=finite_floats, y=finite_floats, t=scales)
@settings(max_examples=60, deadline=None)
def test_gauge_homogeneous(l1_5, x, y, t):
    v = np.array([[x, y]])
    base = float(l1_5.gauge_many(v)[0])
    scaled = float(l1_5.gauge_many(t * v)[0])
    assert scaled == pytest.approx(abs(t) * base, rel=1e-12, abs=1e-300)


def test_every_gauge_homogeneous_at_every_scale(all_gallery):
    # squares and p-th powers of these components under- or overflow
    rng = np.random.default_rng(11)
    phis = rng.uniform(0.0, 2.0 * np.pi, 200)
    dirs = np.column_stack([np.cos(phis), np.sin(phis)])
    # a form entry of 1e-302 leaves the range even on unit rows, and the
    # rotated needle's quadratic form would cancel inf - inf at 1e300
    extreme = {
        "ellipse_1e151_1": models.make_ellipse(1e151, 1.0),
        "ellipse_1e3_1e-3_rotated": models.make_ellipse(1e3, 1e-3, angle=0.3),
    }
    for name, model in {**all_gallery, **extreme}.items():
        base = model.gauge_many(dirs)
        for t in (1e-300, 1e-170, 1e-100, 1e100, 1e170, 1e300):
            scaled = model.gauge_many(t * dirs) / t
            assert np.max(np.abs(scaled - base) / base) <= 1e-12, (name, t)


@given(x=finite_floats, y=finite_floats)
@settings(max_examples=60, deadline=None)
def test_gauge_symmetric_exactly(pig, x, y):
    v = np.array([[x, y]])
    assert float(pig.gauge_many(v)[0]) == float(pig.gauge_many(-v)[0])


def test_triangle_inequality(all_gallery):
    rng = np.random.default_rng(7)
    u = rng.normal(size=(1000, 2))
    v = rng.normal(size=(1000, 2))
    for model in all_gallery.values():
        lhs = model.gauge_many(u + v)
        rhs = model.gauge_many(u) + model.gauge_many(v)
        assert np.all(lhs <= rhs + 1e-9)


def test_dual_gauge_examples(euclid, l1):
    assert geometry.dual_gauge(l1, (1, 1)) == pytest.approx(1.0, abs=1e-8)
    assert geometry.dual_gauge(euclid, (3, 4)) == pytest.approx(5.0, rel=1e-8)
    diamond = models.make_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
    # oracle: a polytope's dual gauge is the max pairing over its vertices
    assert geometry.dual_gauge(diamond, (0.3, 0.7)) == pytest.approx(0.7, abs=1e-8)


def _golden_dual_gauges(model, fs):
    """sup <f, z> over the sphere by a dense search: the best of 2048 grid
    points, refined by 60 golden steps over a grid step either side."""
    grid = model.sphere_points_at(phase_grid(2048))
    out = np.empty(len(fs))
    for start in range(0, len(fs), 1024):
        chunk = fs[start : start + 1024]

        def val(rows, ts):
            return np.einsum("ij,ij->i", chunk[rows], model.sphere_points_at(ts))

        out[start : start + 1024] = circle_max(val, chunk @ grid.T, 1, 60)[0]
    return out


@pytest.mark.parametrize("name", gallery.names())
def test_dual_gauge_matches_a_dense_search(name):
    """The support function from the support table agrees with a golden
    search to 1e-12 on seeded functionals, their negatives and the axes; a
    functional inside a kink's cone of supports is maximised at the kink."""
    model = gallery.get(name)
    fs = np.random.default_rng(zlib.crc32(name.encode())).normal(size=(2000, 2))
    fs = np.vstack([fs, -fs, np.eye(2), -np.eye(2)])
    got, want = geometry.dual_gauge_many(model, fs), _golden_dual_gauges(model, fs)
    assert np.all(np.abs(got - want) <= 1e-12 * want), name
    kinks = model.corners().kinks()
    inside = 0.5 * (kinks.f_minus + kinks.f_plus)
    h, thetas, points = geometry.support_points(model, inside)
    assert np.array_equal(thetas, kinks.thetas), name
    assert np.array_equal(points, model.sphere_points_at(kinks.thetas)), name


@pytest.mark.parametrize("name", ["l4", "grandpa_pig"])
def test_dual_gauge_polishes_where_the_table_is_not_trusted(name):
    """Functionals whose angle falls in an interval the support table leaves
    untrusted, next to a point of curvature 0 or inf, are placed by the
    Illinois polish: the golden search's value to 1e-12, at a point whose
    support is the functional's direction to 1e-13 rad."""
    model = gallery.get(name)
    table, trusted, phi0 = geometry._support_table(model)
    assert not trusted.all()
    phi = phi0 + 0.5 * (table[0] + table[-1])[~trusted]
    fs = np.column_stack([np.cos(phi), np.sin(phi)])
    got, thetas, points = geometry.support_points(model, fs)
    want = _golden_dual_gauges(model, fs)
    assert np.all(np.abs(got - want) <= 1e-12 * want), name
    g = model.grad_many(points)
    turn = np.arctan2(fs[:, 0] * g[:, 1] - fs[:, 1] * g[:, 0], np.einsum("ij,ij->i", fs, g))
    assert np.all(np.abs(turn) <= 1e-13), name


def test_duality_consistency(euclid, l1_5, pig, blend_l4):
    # dual gauge of the support functional is 1 at smooth points
    for model in (euclid, l1_5, pig, blend_l4):
        for theta in np.linspace(0.05, 2 * np.pi, 100, endpoint=False):
            sp = geometry.sphere_point(model, float(theta))
            assert geometry.dual_gauge(model, sp.support) == pytest.approx(1.0, abs=1e-5)


def test_sphere_point_euclid(euclid):
    sp = geometry.sphere_point(euclid, 0.0)
    assert (sp.point.x1, sp.point.x2) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert (sp.support.x1, sp.support.x2) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert (sp.tangent.x1, sp.tangent.x2) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert sp.curvature == pytest.approx(1.0, rel=1e-12)
    assert sp.smooth


def test_sphere_point_l1_face(l1):
    sp = geometry.sphere_point(l1, math.pi / 4)
    assert (sp.point.x1, sp.point.x2) == pytest.approx((0.5, 0.5), rel=1e-12)
    assert sp.smooth  # face interior
    assert (sp.support.x1, sp.support.x2) == pytest.approx((1.0, 1.0), rel=1e-12)
    assert (sp.tangent.x1, sp.tangent.x2) == pytest.approx((-0.5, 0.5), rel=1e-12)
    vertex = geometry.sphere_point(l1, 0.0)
    assert not vertex.smooth
    assert (vertex.support.x1, vertex.support.x2) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_sphere_point_invariants(all_gallery):
    for model in all_gallery.values():
        for theta in (0.13, 1.7, 3.9, 5.5):
            sp = geometry.sphere_point(model, theta)
            assert model.gauge(sp.point) == pytest.approx(1.0, abs=1e-9)
            assert sp.support.dot(sp.point) == pytest.approx(1.0, abs=1e-9)
            assert sp.support.dot(sp.tangent) == pytest.approx(0.0, abs=1e-9)
            assert model.gauge(sp.tangent) == pytest.approx(1.0, abs=1e-9)
            assert sp.point.cross(sp.tangent) > 0  # counterclockwise


def test_sphere_point_ellipse_curvature(ellipse_2_1):
    sp = geometry.sphere_point(ellipse_2_1, 0.0)
    assert (sp.point.x1, sp.point.x2) == pytest.approx((2.0, 0.0), abs=1e-12)
    # oracle: parametric curvature of (a cos t, b sin t) at t = 0 is a b / b^3
    a, b = 2.0, 1.0
    assert sp.curvature == pytest.approx(a * b / b**3, rel=1e-9)


def _fd_supports(model, pts):
    """Oracle: central differences of the gauge of step 1e-5 with one
    Richardson level, scaled to pairing 1 with pts."""

    def diff(h):
        steps = (np.array([h, 0.0]), np.array([0.0, h]))
        cols = [(model.gauge_many(pts + e) - model.gauge_many(pts - e)) / (2 * h) for e in steps]
        return np.column_stack(cols)

    grads = (4.0 * diff(0.5e-5) - diff(1e-5)) / 3.0
    return grads / np.einsum("ij,ij->i", grads, pts)[:, None]


def test_fd_supports_match_analytic(all_gallery):
    """sphere_data's supports, each family's closed-form gradient (a support
    dual's the base's maximiser), against the oracle at seeded angles more
    than 1e-3 from a kink."""
    checked = {}
    for name, model in all_gallery.items():
        checked[name] = model
        checked[f"dual({name})"] = models.dual_model(model)
    for name in ("l1", "hexagon", "two_ellipses"):
        checked[f"blend({name})"] = models.make_blend(all_gallery[name], 1.0)
    thetas = np.random.default_rng(12).uniform(0.0, 2 * np.pi, 64)
    for name, model in checked.items():
        kinks = model.kink_thetas()
        off = np.all(angle_dist(thetas[:, None], kinks[None, :]) > 1e-3, axis=1)
        data = geometry.sphere_data(model, thetas[off])
        assert np.max(np.abs(_fd_supports(model, data["points"]) - data["supports"])) < 1e-9, name


def _folded_rows(model, n):
    """(m, rep, g, det): grid_fold's domain size, and per row of the n-grid
    its representative, the diagonal of its sign flip g and det(g)."""
    m, rep, signs = geometry.grid_fold(model, n)
    return m, rep, signs, signs[:, 0] * signs[:, 1]


def test_sphere_point_matches_the_cache_bit_for_bit(all_gallery):
    # the cache computes the rows of its fundamental domain only; sphere_point
    # gives those bit for bit, and each other row is the exact image of its
    # representative: g x, g f, det(g) g t, its curvature and flags copied
    for name, model in all_gallery.items():
        cache = model.sphere_cache()
        m, rep, g, det = _folded_rows(model, len(cache["thetas"]))
        assert m == (256 if geometry.declares(model, geometry.AXIS_FLIP) else 512), name
        for i in (0, 137, m - 1):
            sp = geometry.sphere_point(model, cache["thetas"][i])
            assert sp.point.as_array().tolist() == cache["points"][i].tolist()
            assert sp.support.as_array().tolist() == cache["supports"][i].tolist()
            assert sp.tangent.as_array().tolist() == cache["tangents"][i].tolist()
            assert sp.curvature == cache["kappas"][i]
        assert np.array_equal(cache["points"], g * cache["points"][rep]), name
        assert np.array_equal(cache["supports"], g * cache["supports"][rep]), name
        assert np.array_equal(cache["tangents"], (det[:, None] * g) * cache["tangents"][rep]), name
        for key in ("kappas", "kink", "smooth"):
            assert np.array_equal(cache[key], cache[key][rep]), (name, key)


def test_sphere_data_at_kinks(cornered):
    for model in cornered.values():
        ks = model.kink_thetas()
        data = geometry.sphere_data(model, np.concatenate([ks, ks + 0.1]))
        assert data["kink"].tolist() == [True] * len(ks) + [False] * len(ks)
        assert data["smooth"].tolist() == [False] * len(ks) + [True] * len(ks)
        c = model.corners()
        near, rows = c.lookup(ks)
        assert near.all()
        for j, row in enumerate(rows):
            f_lo, f_hi = c.f_minus[row], c.f_plus[row]
            mean = 0.5 * (np.asarray(f_lo) + np.asarray(f_hi))
            support = mean / (mean @ data["points"][j])
            assert data["supports"][j] == pytest.approx(support, abs=1e-15)
            assert data["supports"][j] @ data["tangents"][j] == pytest.approx(0.0, abs=1e-12)


def test_operator_norm_examples(l1, l4):
    t1 = LinearMap2.from_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]) / 2.0)
    on = geometry.operator_norm(l1, t1)
    # oracle: the l1 operator norm is the max column absolute sum
    oracle = np.abs(t1.matrix()).sum(axis=0).max()
    assert float(on) == pytest.approx(float(oracle), abs=1e-9)
    assert float(oracle) == 1.0
    assert float(geometry.operator_norm(l4, np.eye(2))) == pytest.approx(1.0, abs=1e-9)
    swap = LinearMap2.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert float(geometry.operator_norm(l1, swap)) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_euclid_matches_svd(euclid):
    rng = np.random.default_rng(3)
    for _ in range(10):
        mat = rng.normal(size=(2, 2))
        got = float(geometry.operator_norm(euclid, mat))
        want = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("name", ["euclidean", "grandpa_pig_strict", "blend_l4", "ellipse_2_1"])
def test_operator_norm_precision_contract(name):
    """Both operator-norm settings (operator_norm and certificates: 4096
    points, a 14-round zoom; operator_norm_batch, the UMST table: 512 points,
    60 golden steps) stay within CERTIFY_TOL / 1000 of a reference that refines a
    2^14-point grid at its 4 best samples with bounded Brent, on seeded
    UMST-style shrink maps and Gaussian maps over the UMST-eligible models."""
    model = gallery.get(name)
    rng = np.random.default_rng(23)
    k = 12
    theta = rng.uniform(0.0, 2.0 * np.pi, k)
    a = geometry.sphere_data(model, theta)
    b = geometry.sphere_data(model, theta + np.geomspace(1e-3, 0.75, k))
    src = np.stack([a["points"], a["tangents"]], axis=-1)
    eps = rng.choice([0.05, 0.1, 0.2, 0.4], k)[:, None]
    dst = np.stack([b["points"], (1.0 - eps) * b["tangents"]], axis=-1)
    mats = np.concatenate([dst @ np.linalg.inv(src), rng.normal(size=(k, 2, 2))])

    n = 1 << 14
    grid = phase_grid(n)
    pts = model.sphere_points_at(grid)
    want = []
    for mat in mats:
        def neg(t, mat=mat):
            return -model.gauge(mat @ model.sphere_points_at(np.array([t]))[0])

        vals = model.gauge_many(pts @ mat.T)
        best = vals.max()
        for j in np.argsort(-vals)[:4]:
            res = minimize_scalar(
                neg,
                bounds=(grid[j] - 2 * np.pi / n, grid[j] + 2 * np.pi / n),
                method="bounded",
                options={"xatol": 1e-12},
            )
            best = max(best, -res.fun)
        want.append(best)
    want = np.array(want)
    tol = 1e-3 * semigroup.CERTIFY_TOL * want
    single = np.array([float(geometry.operator_norm(model, mat)) for mat in mats])
    assert np.all(np.abs(single - want) <= tol)
    assert np.all(np.abs(geometry.operator_norm_batch(model, mats) - want) <= tol)


def test_operator_norm_grid_is_the_fine_cache(all_gallery, pig_strict):
    # the fine cache holds the sphere points of the 4096-point phase grid:
    # those of its fundamental domain bit for bit, the others as the exact
    # images of their representatives under the declared sign flips
    for name, model in all_gallery.items():
        fine = model.fine_points()
        m, rep, g, _ = _folded_rows(model, 4096)
        grid = model.sphere_points_at(phase_grid(4096))
        assert np.array_equal(fine[:m], grid[:m]), name
        assert np.array_equal(fine, g * fine[rep]), name
        assert np.max(np.abs(fine - grid)) <= 1e-13, name
    # operator_norm and certificates search the first half of the fine cache
    # as a pi-periodic grid and refine with the zoom: bit for bit the search
    # over the whole cache
    mats = np.random.default_rng(37).normal(size=(8, 2, 2))
    fine = pig_strict.fine_points()
    want = geometry._operator_norms(pig_strict, mats, fine[:2048], 80, np.pi, zoom=True)[0]
    assert np.array_equal([float(geometry.operator_norm(pig_strict, m)) for m in mats], want)
    assert np.array_equal(want, geometry._operator_norms(pig_strict, mats, fine, 80, zoom=True)[0])


def test_operator_norms_are_one_map_calls(all_gallery):
    # operator_norms searches every map as its own lane, at operator_norm's
    # settings: values and witness angles are the one-map results bit for
    # bit, also with a centre per map, as certify passes them
    rng = np.random.default_rng(41)
    mats = rng.normal(size=(8, 2, 2))
    centers = rng.uniform(0.0, 2.0 * np.pi, (8, 1))
    for name in ("euclidean", "l1", "grandpa_pig_strict", "blend_l4", "nobst", "two_ellipses"):
        model = all_gallery[name]
        values, angles = geometry.operator_norms(model, mats)
        alone = [geometry.operator_norm(model, mat) for mat in mats]
        assert np.array_equal(values, [float(on) for on in alone])
        assert np.array_equal(angles, [on.witness_angle for on in alone])
        values, angles = geometry.operator_norms(model, mats, centers)
        for k in range(8):
            one, angle = geometry.operator_norms(model, mats[k : k + 1], centers[k : k + 1])
            assert one[0] == values[k] and angle[0] == angles[k], (name, k)


#: the gallery models with a closed-form operator norm
_EXACT_NORM_MODELS = ("euclidean", "l1", "linf", "ellipse_2_1", "hexagon")


def _exact_norm_models():
    """The models of _EXACT_NORM_MODELS and the duals of the last two (l2 is
    its own dual, and l1 and linf are each other's)."""
    for name in _EXACT_NORM_MODELS:
        yield name, gallery.get(name)
    for name in _EXACT_NORM_MODELS[3:]:
        yield name + "*", models.dual_model(gallery.get(name))


def test_unhooked_operator_norms_are_the_full_fine_scan(all_gallery):
    # without a closed form, operator_norms searches half of the fine cache;
    # values and witness angles are bit for bit the search over all of it,
    # also with a centre per map, as certify passes them, and
    # operator_norm_batch is its own search
    rng = np.random.default_rng(61)
    mats = rng.normal(size=(64, 2, 2))
    centers = rng.uniform(0.0, 2.0 * np.pi, (64, 1))
    for name, model in all_gallery.items():
        if name in _EXACT_NORM_MODELS:
            assert model._exact_operator_norms(mats) is not None, name
            continue
        assert model._exact_operator_norms(mats) is None, name
        fine = model.fine_points()
        for c in (None, centers):
            got = geometry.operator_norms(model, mats, c)
            want = geometry._operator_norms(model, mats, fine, 80, centers=c, zoom=True)
            np.testing.assert_array_equal(got[0], want[0], err_msg=name)
            np.testing.assert_array_equal(got[1], want[1], err_msg=name)
        np.testing.assert_array_equal(geometry.operator_norm_batch(model, mats), geometry._batch_search(model, mats))


def test_closed_form_operator_norms_match_the_search():
    # sigma_max(R T R^-1) on euclidean and the ellipses, the vertex maximum
    # on l1, linf and the hexagons: within 4e-15 relative of the certificate
    # search on 2000 seeded maps (measured: 5.9e-16), and the gauge of T at
    # the witness's sphere point is the value to rounding
    rng = np.random.default_rng(67)
    mats = rng.normal(size=(2000, 2, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1, 1))
    for name, model in _exact_norm_models():
        values, angles = geometry.operator_norms(model, mats)
        search = geometry._certificate_search(model, mats)[0]
        assert np.all(np.abs(values - search) <= 4e-15 * search), name
        at_witness = model.gauge_many(geometry._map_images(mats, model.sphere_points_at(angles)))
        assert np.all(np.abs(at_witness - values) <= 4e-15 * values), name
        np.testing.assert_array_equal(geometry.operator_norm_batch(model, mats), values, err_msg=name)


def test_closed_form_operator_norms_of_degenerate_maps():
    # as the search reads them, with no float warning: a NaN entry gives NaN,
    # an infinite one inf, the zero map 0, and entries of 1e300 stay in range
    nan, inf = math.nan, math.inf
    mats = np.array(
        [[[nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [inf, 1.0]], [[1.0, -inf], [0.0, 1.0]], np.zeros((2, 2)), np.full((2, 2), 1e300)]
    )
    big = {"euclidean": 2e300, "l1": 2e300, "ellipse_2_1": 2.5e300, "hexagon": 2.25e300}
    for name, model in _exact_norm_models():
        for values in (geometry.operator_norms(model, mats)[0], geometry.operator_norm_batch(model, mats)):
            search = geometry._certificate_search(model, mats)[0]
            assert math.isnan(values[0]) and math.isnan(search[0]), name
            assert values[1:4].tolist() == search[1:4].tolist() == [inf, inf, 0.0], name
            assert values[4] == pytest.approx(search[4], rel=4e-15), name
            if name in big:
                assert values[4] == pytest.approx(big[name], rel=4e-15), name


def test_operator_norm_zoom_agrees_with_golden(all_gallery):
    # the certificates' zoom and an 80-step golden search from the same grid
    # agree to rounding on every gallery model (within 7.4e-16 relative on
    # these maps); the search is called directly, since the models with a
    # closed form do not search
    mats = np.random.default_rng(47).normal(size=(64, 2, 2))
    for name, model in all_gallery.items():
        zoom = geometry._certificate_search(model, mats)[0]
        golden = geometry._operator_norms(model, mats, model.fine_points(), 80)[0]
        assert np.all(np.abs(zoom - golden) <= 4e-15 * golden), name


def test_operator_norm_batch_is_lane_wise(pig_strict, ellipse_2_1):
    # every map is one lane: batching changes no value in the last bit
    rng = np.random.default_rng(31)
    mats = rng.normal(size=(64, 2, 2))
    for model in (pig_strict, ellipse_2_1):
        batch = geometry.operator_norm_batch(model, mats)
        alone = np.array([geometry.operator_norm_batch(model, mat[None])[0] for mat in mats])
        assert np.array_equal(batch, alone)


def test_operator_norm_batch_is_the_antipodal_full_scan(all_gallery):
    # gauge(T(-z)) = gauge(T z): scanning the first half of the grid gives,
    # bit for bit, the full scan of the points (z, -z), z on that half, on
    # seeded UMST-style shrink maps and Gaussian maps; the search is called
    # directly, since euclidean and ellipse_2_1 read their closed form
    n = geometry.OPNORM_BATCH_GRID
    rng = np.random.default_rng(43)
    theta = rng.uniform(0.0, 2.0 * np.pi, 16)
    for name in ("euclidean", "ellipse_2_1", "grandpa_pig_strict", "blend_l4", "nobst", "two_ellipses"):
        model = all_gallery[name]
        a = geometry.sphere_data(model, theta)
        b = geometry.sphere_data(model, theta + np.geomspace(1e-3, 0.75, 16))
        dst = np.stack([b["points"], 0.9 * b["tangents"]], axis=-1)
        shrink = dst @ np.linalg.inv(np.stack([a["points"], a["tangents"]], axis=-1))
        mats = np.concatenate([shrink, rng.normal(size=(16, 2, 2))])
        half = model.sphere_points_at(phase_grid(n)[: n // 2])
        want = geometry._operator_norms(model, mats, np.concatenate([half, -half]), 60)[0]
        assert np.array_equal(geometry._batch_search(model, mats), want), name


def _one_call_operator_norms(model, mats, pts, iters, period=2.0 * np.pi, zoom=False):
    """_operator_norms with every map's grid images gauged in one call."""
    k, grid = len(mats), len(pts)
    vals = model.gauge_many(geometry._map_images(mats[:, None], pts).reshape(k * grid, 2))

    def val(rows, ts):
        return model.gauge_many(geometry._map_images(mats[rows], model.sphere_points_at(ts)))

    return circle_max(val, vals.reshape(k, grid), 1, iters, period, zoom=zoom)


@pytest.mark.parametrize("k", [1, 127, 128, 129, 300])
def test_blocked_operator_norms_are_the_one_call_grid(all_gallery, k):
    """The grid stage, gauged in blocks of BLOCK_POINTS images (128 maps on
    the UMST table's 256-point half grid), gives bit for bit the values and
    witness angles of one gauge call over all k maps, on UMST-style shrink
    maps and Gaussian maps."""
    half = phase_grid(geometry.OPNORM_BATCH_GRID // 2, np.pi)
    assert BLOCK_POINTS // len(half) == 128
    rng = np.random.default_rng(53 + k)
    theta = rng.uniform(0.0, 2.0 * np.pi, k)
    for name in ("grandpa_pig_strict", "ellipse_2_1", "nobst", "hexagon", "l1_5"):
        model = all_gallery[name]
        a = geometry.sphere_data(model, theta)
        b = geometry.sphere_data(model, theta + rng.uniform(1e-3, 0.75, k))
        dst = np.stack([b["points"], 0.9 * b["tangents"]], axis=-1)
        shrink = dst @ np.linalg.inv(np.stack([a["points"], a["tangents"]], axis=-1))
        mats = np.where(rng.random((k, 1, 1)) < 0.5, shrink, rng.normal(size=(k, 2, 2)))
        pts = model.sphere_points_at(half)
        got = geometry._operator_norms(model, mats, pts, 60, np.pi)
        want = _one_call_operator_norms(model, mats, pts, 60, np.pi)
        np.testing.assert_array_equal(got[0], want[0], err_msg=name)
        np.testing.assert_array_equal(got[1], want[1], err_msg=name)


def test_blocked_operator_norms_certificate_shape(all_gallery):
    """Two maps on the first half of the 4096-point fine cache, pi-periodic
    and zoomed, as the certificate search takes them: one block, bit for bit
    the one-call grid."""
    mats = np.random.default_rng(59).normal(size=(2, 2, 2))
    for name, model in all_gallery.items():
        half = model.fine_points()[:2048]
        got = geometry._operator_norms(model, mats, half, 80, np.pi, zoom=True)
        want = _one_call_operator_norms(model, mats, half, 80, np.pi, zoom=True)
        np.testing.assert_array_equal(got[0], want[0], err_msg=name)
        np.testing.assert_array_equal(got[1], want[1], err_msg=name)


def test_map_images_match_matmul(ellipse_2_1):
    rng = np.random.default_rng(32)
    mats = rng.normal(size=(64, 2, 2)) * 10.0 ** rng.integers(-3, 4, size=(64, 1, 1))
    pts = ellipse_2_1.sphere_points_at(phase_grid(geometry.OPNORM_BATCH_GRID))
    got = geometry._map_images(mats[:, None], pts)
    want = np.swapaxes(mats @ pts.T, 1, 2)
    # the rounding scale of m[a, 0] z0 + m[a, 1] z1 is that of its terms
    scale = np.abs(mats[:, None]) @ np.abs(pts)[None, :, :, None]
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(scale[..., 0]))


def test_operator_norm_submultiplicative(pig, l1_5):
    rng = np.random.default_rng(11)
    for model in (pig, l1_5):
        for _ in range(50):
            s = rng.normal(size=(2, 2))
            t = rng.normal(size=(2, 2))
            lhs = float(geometry.operator_norm(model, s @ t))
            rhs = float(geometry.operator_norm(model, s)) * float(
                geometry.operator_norm(model, t)
            )
            assert lhs <= rhs + 1e-6


def test_linear_map_inverse():
    t = LinearMap2.from_matrix([[2.0, 1.0], [0.5, 1.5]])
    ti = t.inverse()
    prod = t.compose(ti).matrix()
    assert np.max(np.abs(prod - np.eye(2))) < 1e-14
    with pytest.raises(Exception):
        LinearMap2.from_matrix([[1.0, 2.0], [0.5, 1.0]]).inverse()


def test_vec2_ops():
    v = Vec2(3.0, 4.0)
    assert v.dot(v) == 25.0
    assert v.cross(v) == 0.0
    assert v + v.scale(-1) == Vec2(0.0, 0.0)
