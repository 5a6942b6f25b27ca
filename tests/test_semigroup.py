"""Contraction certificates, tangent shrink maps, orbits, flat transport."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from normplane import gallery, geometry, models, semigroup, tangency
from normplane.errors import Degenerate, NotFlat, Singular, WrongModel
from normplane.geometry import LinearMap2

#: the angle between neighbouring points of the sphere cache
_CACHE_STEP = 2 * math.pi / models.SPHERE_CACHE_N


def test_perp(euclid, l1, pig):
    a = geometry.sphere_point(euclid, 0.0)
    t = semigroup.perp(euclid, a)
    assert (t.x1, t.x2) == pytest.approx((0.0, 1.0), abs=1e-12)
    face = geometry.sphere_point(l1, math.pi / 4)
    t = semigroup.perp(l1, face)
    assert (t.x1, t.x2) == pytest.approx((-0.5, 0.5), rel=1e-12)
    assert face.point.cross(t) > 0
    a = geometry.sphere_point(pig, 0.0)
    t = semigroup.perp(pig, a)
    assert a.support.dot(t) == pytest.approx(0.0, abs=1e-9)


def test_make_L_ab_identity_and_rotation(euclid):
    a = geometry.sphere_point(euclid, 0.0)
    assert np.allclose(semigroup.make_L_ab(euclid, a, a, 0.0).matrix(), np.eye(2))
    b = geometry.sphere_point(euclid, math.pi / 2)
    rot = semigroup.make_L_ab(euclid, a, b, 0.0)
    assert np.max(np.abs(rot.matrix() - [[0, -1], [1, 0]])) < 1e-12
    shr = semigroup.make_L_ab(euclid, a, a, 0.3)
    assert np.max(np.abs(shr.matrix() - np.diag([1.0, 0.7]))) < 1e-12
    assert float(geometry.operator_norm(euclid, shr)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(Degenerate):
        semigroup.make_L_ab(euclid, a, b, 1.0)


def test_L_ab_factorization(pig, blend_l4):
    for model in (pig, blend_l4):
        a = geometry.sphere_point(model, 0.7)
        b = geometry.sphere_point(model, 1.1)
        eps = 0.25
        lhs = semigroup.make_L_ab(model, a, b, eps).matrix()
        via_bb = semigroup.make_L_ab(model, b, b, eps).compose(
            semigroup.make_L_ab(model, a, b, 0.0)
        ).matrix()
        via_aa = semigroup.make_L_ab(model, a, b, 0.0).compose(
            semigroup.make_L_ab(model, a, a, eps)
        ).matrix()
        assert np.max(np.abs(lhs - via_bb)) < 1e-12
        assert np.max(np.abs(lhs - via_aa)) < 1e-12


def test_certify_figure_matrices(l1):
    t1 = LinearMap2.from_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]) / 2.0)
    t2 = LinearMap2.from_matrix(np.array([[3.0, 1.0], [0.0, 2.0]]) / 3.0)
    c1 = semigroup.certify(l1, t1)
    c2 = semigroup.certify(l1, t2)
    assert c1.is_contractive and c2.is_contractive
    assert c1.op_norm == pytest.approx(1.0, abs=1e-9)
    assert c2.op_norm == pytest.approx(1.0, abs=1e-9)
    grown = semigroup.certify(l1, LinearMap2.from_matrix(2 * np.eye(2)))
    assert not grown.is_contractive
    assert not grown.boundary
    shrunk = semigroup.certify(l1, LinearMap2.from_matrix(0.5 * np.eye(2)))
    assert shrunk.is_contractive and not shrunk.boundary
    assert grown.op_norm == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(Singular):
        semigroup.certify(l1, LinearMap2.from_matrix([[1.0, 1.0], [1.0, 1.0]]))


def test_semigroup_closure(euclid, pig, l1):
    rng = np.random.default_rng(8)
    for model in (euclid, pig, l1):
        for _ in range(100):
            # random contractions: shrink maps scaled slightly down
            a = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            if not a.smooth:
                continue
            s = semigroup.make_L_ab(model, a, a, float(rng.uniform(0.05, 0.9)))
            b = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            if not b.smooth:
                continue
            t = semigroup.make_L_ab(model, b, b, float(rng.uniform(0.05, 0.9)))
            prod = float(geometry.operator_norm(model, s.compose(t)))
            bound = float(geometry.operator_norm(model, s)) * float(
                geometry.operator_norm(model, t)
            )
            assert prod <= bound + 1e-6


def test_shrink_map_norm_one(euclid, pig, blend_l4):
    """The shrink map fixing a and scaling its tangent has operator norm
    exactly 1, for every base point and shrink factor."""
    for model in (euclid, pig, blend_l4):
        for theta in np.linspace(0.1, 2 * np.pi, 16, endpoint=False):
            a = geometry.sphere_point(model, float(theta))
            for eps in (0.1, 0.5, 0.9):
                t = semigroup.make_L_ab(model, a, a, eps)
                assert float(geometry.operator_norm(model, t)) == pytest.approx(
                    1.0, abs=1e-6
                )


def test_shrink_map_maximizer_is_base_point(pig_strict, euclid):
    """On strictly convex planes the operator norm of the shrink map is
    attained only along the base direction."""
    for model in (euclid, pig_strict):
        for theta in (0.3, 2.1, 4.0):
            a = geometry.sphere_point(model, theta)
            t = semigroup.make_L_ab(model, a, a, 0.5)
            on = geometry.operator_norm(model, t)
            d = abs((on.witness_angle - a.theta + np.pi / 2) % np.pi - np.pi / 2)
            assert d < 1e-3


def test_shrink_map_distance_to_identity(euclid, pig, blend_l4):
    for model in (euclid, pig, blend_l4):
        for theta in np.linspace(0.2, 2 * np.pi, 8, endpoint=False):
            a = geometry.sphere_point(model, float(theta))
            for eps in (0.05, 0.2, 0.6):
                t = semigroup.make_L_ab(model, a, a, eps)
                dist = float(
                    geometry.operator_norm(model, t.matrix() - np.eye(2))
                )
                assert dist <= 2 * eps + 1e-6


def test_image_sphere_single_contact(pig_strict, euclid):
    """Within a curvature-bounded window, the image of the sphere under a
    nearby-points shrink map touches the sphere only at the target point:
    everywhere else the image lies strictly inside the ball."""
    for model in (euclid, pig_strict):
        a = geometry.sphere_point(model, 0.7)
        b = geometry.sphere_point(model, 0.78)
        L = semigroup.make_L_ab(model, a, b, 0.2)
        window = np.linspace(-0.5, 0.5, 2001)
        pre = model.sphere_points_at(a.theta + window)
        vals = model.gauge_many(pre @ L.matrix().T)
        at_contact = np.abs(window) < 1e-12
        assert vals[at_contact] == pytest.approx(1.0, abs=1e-12)
        gap = 1.0 - vals[~at_contact]
        assert np.all(gap > 0)


def test_orbit_map_euclid(euclid):
    x = geometry.sphere_point(euclid, 0.2)
    y = geometry.sphere_point(euclid, 1.5)
    cert = semigroup.orbit_map(euclid, x, y)
    assert cert.is_contractive
    assert cert.inv_norm == pytest.approx(1.0, abs=1e-6)  # rotation
    mapped = cert.T.apply(x.point)
    assert euclid.gauge(mapped - y.point) < 1e-9


def test_orbit_map_blocked(mix):
    e1 = geometry.sphere_point(mix, 0.0)
    for th in (0.6, 2.5, 5.0):
        y = geometry.sphere_point(mix, th)
        assert semigroup.orbit_map(mix, e1, y) is None
        assert semigroup.orbit_map(mix, y, e1) is None


def test_orbit_map_l1_flats(l1):
    x = geometry.sphere_point(l1, math.atan2(0.5, 0.5))
    y = geometry.sphere_point(l1, math.atan2(0.75, 0.25))
    cert = semigroup.orbit_map(l1, x, y)
    assert cert is not None and cert.is_contractive
    assert l1.gauge(cert.T.apply(x.point) - y.point) < 1e-9


def test_orbit_certificates_exact(euclid, pig_strict, spliced):
    rng = np.random.default_rng(17)
    for model in (euclid, pig_strict, spliced):
        for _ in range(20):
            x = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            y = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            cert = semigroup.orbit_map(model, x, y)
            assert cert is not None, model.family
            assert model.gauge(cert.T.apply(x.point) - y.point) <= 1e-9
            assert cert.op_norm <= 1 + 1e-7


def test_orbit_map_is_the_ellipse_isometry(spliced, nobst_model, pig_strict):
    """The ellipse route's map is the tangent shrink map L_xy with
    s = sqrt(tx' M_out tx / ty' M_in ty), and it carries the outer ellipse at
    x onto the inner ellipse at y: T' M_in T = M_out."""
    rng = np.random.default_rng(23)
    for model in (spliced, nobst_model, pig_strict):
        for a, b in rng.uniform(0.0, 2.0 * math.pi, (4, 2)):
            x = geometry.sphere_point(model, a)
            y = geometry.sphere_point(model, b)
            cert = semigroup.orbit_map(model, x, y)
            assert cert is not None and not cert.boundary, (model.family, a, b)
            m_out = tangency.outer_ellipse(model, x).matrix()
            m_in = tangency.inner_ellipse(model, y).matrix()
            tx, ty = x.tangent.as_array(), y.tangent.as_array()
            s = math.sqrt((tx @ m_out @ tx) / (ty @ m_in @ ty))
            want = semigroup.make_L_ab(model, x, y, 1.0 - s).matrix()
            t = cert.T.matrix()
            assert np.max(np.abs(t - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(t.T @ m_in @ t - m_out)) <= 1e-12 * np.max(np.abs(m_out))


def test_boundary_flag(euclid, pig_strict):
    """A contractive map is flagged boundary only when its norm exceeds 1 by
    more than BOUNDARY_TOL, not by rounding."""
    for model in (euclid, pig_strict):
        over = semigroup.certify(model, LinearMap2.from_matrix((1.0 + 1e-9) * np.eye(2)))
        assert over.is_contractive and over.boundary
        assert over.op_norm == pytest.approx(1.0 + 1e-9, abs=1e-14)
        for scale in (1.0, 1.0 + 1e-13):
            cert = semigroup.certify(model, LinearMap2.from_matrix(scale * np.eye(2)))
            assert cert.is_contractive and not cert.boundary


def test_flat_transport(l1, linf, euclid):
    x = geometry.sphere_point(l1, 0.0)  # vertex
    y = geometry.sphere_point(l1, math.atan2(0.5, 0.5))
    cert = semigroup.flat_transport(l1, x, y)
    assert cert.is_contractive
    assert l1.gauge(cert.T.apply(x.point) - y.point) < 1e-12
    # cube face point from a corner
    corner = geometry.sphere_point(linf, math.pi / 4)
    face = geometry.sphere_point(linf, math.atan2(0.3, 1.0))
    cert = semigroup.flat_transport(linf, corner, face)
    assert cert.is_contractive
    with pytest.raises(NotFlat):
        semigroup.flat_transport(euclid, x, geometry.sphere_point(euclid, 1.0))
    # a face point two cache steps from the vertex e1 is a target too
    near_vertex = geometry.sphere_point(l1, 2 * _CACHE_STEP)
    cert = semigroup.flat_transport(l1, y, near_vertex)
    assert cert.is_contractive
    assert l1.gauge(cert.T.apply(y.point) - near_vertex.point) < 1e-12
    # the vertex itself is on no face
    with pytest.raises(NotFlat):
        semigroup.flat_transport(l1, y, x)


def test_l1_orbit(l1, euclid):
    e1 = geometry.sphere_point(l1, 0.0)
    rep = semigroup.l1_orbit(l1, e1)
    assert rep.reachable.kind == "all_sphere"
    x = geometry.sphere_point(l1, math.atan2(0.5, 0.5))
    rep = semigroup.l1_orbit(l1, x)
    assert rep.reachable.kind == "all_but_set"
    corners = {(p.x1, p.x2) for p in rep.reachable.points}
    assert corners == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
    # the first witness realizes the quarter-to-three-quarters mapping
    target, cert = rep.witnesses[0]
    assert (target.point.x1, target.point.x2) == pytest.approx((0.25, 0.75), rel=1e-12)
    assert cert.is_contractive
    generic = geometry.sphere_point(l1, math.atan2(0.7, 0.3))
    assert semigroup.l1_orbit(l1, generic).reachable.kind == "all_but_set"
    with pytest.raises(WrongModel):
        semigroup.l1_orbit(euclid, e1)


def test_inv_norm_lower_bound(euclid, nobst_model):
    x = geometry.sphere_point(euclid, 0.3)
    y = geometry.sphere_point(euclid, 2.0)
    assert semigroup.inv_norm_lower_bound(euclid, x, y) == pytest.approx(1.0, rel=1e-9)
    assert semigroup.inv_norm_lower_bound(euclid, x, x) == pytest.approx(1.0, rel=1e-9)
    th = nobst_model.theta_of_arclength(2**-3 + 2**-6)
    flat_pt = geometry.sphere_point(nobst_model, th)
    round_pt = geometry.sphere_point(nobst_model, nobst_model.theta_of_arclength(0.8125))
    bound = semigroup.inv_norm_lower_bound(nobst_model, flat_pt, round_pt)
    assert bound > 1.0


def test_orbit_union_bounded_inverse(pig_strict):
    """From one base point, a 64-point target grid is reached with inverse
    norms uniformly below 10."""
    x = geometry.sphere_point(pig_strict, 0.25)
    for th in (np.arange(64) + 0.5) * (2 * np.pi / 64):
        y = geometry.sphere_point(pig_strict, float(th))
        cert = semigroup.orbit_map(pig_strict, x, y)
        assert cert is not None and cert.is_contractive
        assert cert.inv_norm <= 10.0


def test_flat_orbit_converse_probe(l1):
    """From a face point the orbit route reaches no vertex: the outer side is
    missing at the source and vertices are not flat targets."""
    face = geometry.sphere_point(l1, math.atan2(0.5, 0.5))
    vertex = geometry.sphere_point(l1, 0.0)
    assert semigroup.orbit_map(l1, face, vertex) is None


def test_is_flat_probe(l1, euclid, l4):
    assert semigroup.is_flat(l1, geometry.sphere_point(l1, 0.8))
    assert not semigroup.is_flat(euclid, geometry.sphere_point(euclid, 0.8))
    assert not semigroup.is_flat(l4, geometry.sphere_point(l4, 0.003))
    # flat up to KINK_TOL from the vertices, both sides of each
    for theta in (2 * _CACHE_STEP, 2e-9, math.pi / 2 - 2e-9, 2 * math.pi - 2e-9):
        assert semigroup.is_flat(l1, geometry.sphere_point(l1, theta)), theta
    for theta in (0.0, 0.5e-9, math.pi / 2, 2 * math.pi - 0.5e-9):
        assert not semigroup.is_flat(l1, geometry.sphere_point(l1, theta)), theta


def _sampled_operator_norm(model, mat):
    """sup of gauge(T u) / gauge(u) over unit directions u: 2**14 angles
    phase-shifted off the certificate grid, then two zoom rounds of 257
    samples around the four best."""
    def ratio(th):
        units = np.column_stack([np.cos(th), np.sin(th)])
        return model.gauge_many(units @ mat.T) / model.gauge_many(units)

    n = 1 << 14
    h = 2.0 * math.pi / n
    th = (np.arange(n) + 0.381966) * h
    vals = ratio(th)
    best = float(vals.max())
    for _ in range(2):
        centers = th[np.argsort(-vals)[:4]]
        th = (centers[:, None] + np.linspace(-h, h, 257)[None, :]).ravel()
        vals = ratio(th)
        best = max(best, float(vals.max()))
        h /= 128.0
    return best


@pytest.mark.parametrize("name", ["spliced", "nobst"])
def test_orbit_certificates_on_arc_chains(name, request):
    # arc-chain spheres have no closed-form operator norm: check each
    # certificate against its defining properties and a dense sampled norm
    model = request.getfixturevalue("nobst_model" if name == "nobst" else name)
    rng = np.random.default_rng(2209)
    for a, b in rng.uniform(0.0, 2.0 * math.pi, (12, 2)):
        x = geometry.sphere_point(model, a)
        y = geometry.sphere_point(model, b)
        cert = semigroup.orbit_map(model, x, y)
        assert cert is not None, (name, a, b)
        mat = cert.T.matrix()
        miss = mat @ x.point.as_array() - y.point.as_array()
        assert math.hypot(*miss) <= 1e-9
        assert 1.0 - 1e-8 <= cert.op_norm <= 1.0 + semigroup.CERTIFY_TOL + 1e-8
        assert abs(cert.op_norm - _sampled_operator_norm(model, mat)) <= 1e-8


def _load_reference():
    """The benchmark's independent references (perfbench/reference.py), read
    from the checkout as they are."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


def test_orbit_pairs_never_fail():
    """The benchmark's orbit_pairs operation on 64 seeded pairs over its
    four models, and on a nobst pair whose map comes within 1.4e-8 of its
    norm away from x, where a search refining only the best grid angle
    reported 0.99999998: orbit_map returns a certificate every time, and
    each passes the benchmark's own check_orbit."""
    reference = _load_reference()
    names = ("ellipse_2_1", "grandpa_pig_strict", "spliced", "nobst")
    models = {name: gallery.get(name) for name in names}
    rng = np.random.default_rng(1)
    pairs = [(name, *rng.uniform(0.0, 2.0 * math.pi, 2)) for _ in range(16) for name in names]
    for name, a, b in pairs + [("nobst", 1.633236222584984, 1.6194608361334006)]:
        model = models[name]
        x = geometry.sphere_point(model, a)
        y = geometry.sphere_point(model, b)
        cert = semigroup.orbit_map(model, x, y)
        assert cert is not None, (name, a, b)
        errors = reference.check_orbit(
            name, a, b, x.point.as_array(), y.point.as_array(), cert.T.matrix(),
            cert.op_norm, cert.inv_norm, gauge=model.gauge_many,
        )
        assert errors == [], (name, a, b, errors)


def _calls(model, monkeypatch, run) -> dict:
    """Calls of model.sphere_points_at and model.gauge_many during run()."""
    calls = {"sphere_points_at": 0, "gauge_many": 0}
    for name in calls:
        method = getattr(model, name)

        def counting(arg, name=name, method=method):
            calls[name] += 1
            return method(arg)

        monkeypatch.setattr(model, name, counting)
    run()
    return calls


@pytest.mark.parametrize(
    "name, sphere_calls, gauge_calls",
    [("nobst", 32, 24), ("grandpa_pig_strict", 32, 56)],
)
def test_orbit_map_call_budget(monkeypatch, name, sphere_calls, gauge_calls):
    """One orbit_map on warm caches: its per-point searches zoom, one call a
    round for all lanes, so it makes 21 sphere_points_at and 15 gauge_many
    calls on nobst (36 gauge_many on grandpa_pig_strict, whose sphere points
    are 1 / gauge); golden searches, one call a step, made 124 and 83
    (207)."""
    model = gallery.get(name)
    x, y = geometry.sphere_point(model, 0.4), geometry.sphere_point(model, 2.5)
    semigroup.orbit_map(model, x, y)
    calls = _calls(model, monkeypatch, lambda: semigroup.orbit_map(model, x, y))
    assert calls["sphere_points_at"] <= sphere_calls and calls["gauge_many"] <= gauge_calls, calls


def test_certificate_gauge_call_budget(ellipse_2_1, gauge_counter):
    """One certificate: one gauge_many call on the grid of both maps, then
    two a zoom round (ellipse_2_1's sphere points are 1 / gauge), until every
    window has rounded onto its centre: 12 of the 14 rounds at these angles,
    25 calls, and 29 when all 14 rounds run."""
    x, y = geometry.sphere_point(ellipse_2_1, 0.3), geometry.sphere_point(ellipse_2_1, 2.1)
    t = semigroup.orbit_map(ellipse_2_1, x, y).T
    assert gauge_counter(ellipse_2_1, lambda: semigroup.certify(ellipse_2_1, t))[0] <= 25
