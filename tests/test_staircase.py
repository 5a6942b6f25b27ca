"""The staircase curve: quadrature, exact arcs, closure, witnesses."""

import math

import numpy as np
import pytest

from normplane import classify, geometry, staircase
from normplane.errors import BadParameter, OutOfDomain


def series_tangent_angle(depth: int) -> float:
    """Independent oracle: K(1) = 1 - sum 2^-n-2 (1 - 2^-n) over the kept
    intervals (each interval replaces slope 1 by 2^-n on length 2^-n-2)."""
    return 1.0 - sum(2.0 ** (-n - 2) * (1.0 - 2.0**-n) for n in range(1, depth + 1))


@pytest.fixture(scope="module")
def curve():
    return staircase.integrate_curve(staircase.staircase_function())


def test_k_staircase_values():
    assert staircase.k_staircase(0.25) == 0.25  # inside the n = 2 interval
    assert staircase.k_staircase(0.2) == 1.0  # in a gap
    assert staircase.k_staircase(-1.0) == 1.0
    assert staircase.k_staircase(0.3125) == 0.25  # right endpoint of n = 2
    with pytest.raises(OutOfDomain):
        staircase.k_staircase(1.5)
    with pytest.raises(OutOfDomain):
        staircase.k_staircase(-2.0)


def test_total_turning_series_oracle(curve):
    depth = curve.kfun.n_max
    assert curve.K[-1] == pytest.approx(series_tangent_angle(depth), abs=1e-12)
    assert abs(curve.K[-1] - 5.0 / 6.0) <= 1e-6
    # untruncated closed form: 1 - 1/4 + 1/12 = 5/6
    assert 1.0 - 0.25 + 1.0 / 12.0 == pytest.approx(5.0 / 6.0)


def test_tangent_angle_bounds(curve):
    pos = curve.s > 0
    samples = np.linspace(1e-4, 1.0, 1000)
    k_at = np.interp(samples, curve.s, curve.K)
    assert np.all(k_at >= 0.6 * samples - 1e-12)
    assert np.all(k_at <= samples + 1e-12)
    assert np.all(curve.K[pos] > 0)


def test_quarter_circle_branch(curve):
    assert curve.points[0] == pytest.approx([-1.0, 0.0], abs=1e-8)
    j = np.searchsorted(curve.s, -np.pi / 4)
    assert curve.points[j] == pytest.approx(
        [math.sin(curve.s[j]), -math.cos(curve.s[j])], abs=1e-10
    )


def test_unit_speed(curve):
    h = 1e-5
    for s in np.linspace(-1.4, 0.99, 50):
        d = (curve.point_at(s + h) - curve.point_at(s - h)) / (2 * h)
        assert np.hypot(d[0], d[1]) == pytest.approx(1.0, abs=1e-8)


def test_monotone_coordinates(curve):
    pos = (curve.s > 1e-9) & (curve.s < 1.0)
    dx = np.diff(curve.points[:, 0])
    dy = np.diff(curve.points[:, 1])
    inner = pos[:-1] & pos[1:]
    assert np.all(dx[inner] > 0)
    assert np.all(dy[inner] > 0)


def test_endpoint_box(curve):
    p = curve.endpoint
    assert 0.0 < p.x1 < 1.0
    assert -1.0 < p.x2 < 0.0


def test_containment(curve):
    d = np.hypot(curve.points[:, 0], curve.points[:, 1] + 1.0)
    assert d.max() <= 5.0 / 3.0 + 1e-6


def test_quadrature_matches_exact_arcs(curve):
    for j in range(0, len(curve.s), 997):
        exact = curve.point_at(float(curve.s[j]))
        assert np.max(np.abs(exact - curve.points[j])) < 1e-10


def test_quadrature_matches_exact_arcs_at_every_node(curve):
    exact = np.array([curve.point_at(float(s)) for s in curve.s])
    assert np.max(np.abs(exact - curve.points)) < 1e-10


def test_curvature_lookup_vectorized():
    # reference: the first closed interval holding s gives its value, else 1
    kfun = staircase.staircase_function()
    s = np.concatenate([kfun.breakpoints(), np.linspace(-1.5, 1.0, 997)])
    expected = [next((v for lo, hi, v in kfun.intervals if lo <= t <= hi), 1.0) for t in s]
    assert kfun.values(s).tolist() == expected
    with pytest.raises(OutOfDomain):
        kfun.values(np.array([0.5, 1.5]))


def test_curve_csv(curve):
    rows = curve.to_csv().strip().splitlines()
    assert rows[0] == "s,x,y,tangent_angle"
    last = [float(v) for v in rows[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[3] == pytest.approx(5 / 6, abs=1e-6)


def test_integrate_rejects_coarse_step():
    with pytest.raises(BadParameter):
        staircase.integrate_curve(staircase.staircase_function(), step=1e-3)


def test_close_sphere(curve, nobst_model):
    model = staircase.close_sphere(curve)
    assert model.gauge((0.0, -1.0)) == pytest.approx(1.0, rel=1e-12)
    assert model.gauge((1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert model.gauge(curve.endpoint) == pytest.approx(1.0, rel=1e-9)
    # the closing circle pair is mutually tangent (exact arc-chain data)
    r = model.params["closing_radius_big"]
    rp = model.params["closing_radius_small"]
    phi = model.params["closing_angle"]
    big, small = model.arcs[len(model.arcs) // 4 - 2 : len(model.arcs) // 4]
    assert big.radius == r and small.radius == rp
    c_big = big.center.as_array()
    c_small = small.center.as_array()
    assert np.hypot(*(c_big - c_small)) == pytest.approx(abs(r - rp), abs=1e-12)
    # ... and they meet at the common tangency point
    assert np.max(np.abs(big.end_point() - small.start_point())) < 1e-12
    lo, hi = model.params["closing_angle_window"]
    assert lo < phi < hi
    # the gallery model is the same construction
    assert nobst_model.params["depth"] == model.params["depth"]


def test_quarter_circle_closes_to_disc():
    # constant curvature 1 with no staircase intervals: the curve is the
    # unit quarter circle and the closure degenerates to the unit circle
    kfun = staircase.CurvatureFunction((), 0)
    curve = staircase.integrate_curve(kfun)
    assert curve.endpoint.as_array() == pytest.approx([math.sin(1.0), -math.cos(1.0)], abs=1e-10)
    model = staircase.close_sphere(curve)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    assert np.allclose(model.gauge_many(pts), np.hypot(pts[:, 0], pts[:, 1]), atol=1e-9)


def _loop_circle_pair(p, k1):
    """staircase._circle_pair solved one phi at a time, the reference for
    the batched solve."""
    nhat = np.array([-math.sin(k1), math.cos(k1)])

    def solve(phi):
        s, c = math.sin(phi), math.cos(phi)
        a = np.array([[nhat[0] + s, 1.0 - s], [nhat[1] - c, c]])
        try:
            r, rp = np.linalg.solve(a, np.array([1.0 - p[0], -p[1]]))
        except np.linalg.LinAlgError:
            return None
        q = p + r * nhat + r * np.array([s, -c])
        return float(r), float(rp), r > 1e-9 and rp > 1e-9 and q[1] < -1e-12 and q[0] > 1e-12

    grid = np.linspace(k1 + 1e-6, math.pi / 2.0 - 1e-6, 512)
    valid = [phi for phi in grid if (sol := solve(phi)) is not None and sol[2]]
    phi_lo, phi_hi = float(min(valid)), float(max(valid))
    phi = 0.5 * (phi_lo + phi_hi)
    r, rp, _ = solve(phi)
    return r, rp, phi, (phi_lo, phi_hi)


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 12, staircase.DEFAULT_DEPTH])
def test_circle_pair_is_the_loop_solve(depth, monkeypatch):
    # the 512 systems of the closing pair in one batched solve give the
    # staircase sphere's parameters and arcs bit for bit
    kfun = staircase.staircase_function(depth) if depth else staircase.CurvatureFunction((), 0)
    curve = staircase.integrate_curve(kfun)
    model = staircase.close_sphere(curve)
    monkeypatch.setattr(staircase, "_circle_pair", _loop_circle_pair)
    want = staircase.close_sphere(curve)
    assert model.params == want.params
    assert model.arcs == want.arcs


def test_staircase_chain_fourfold_symmetry(nobst_model):
    # the chain is the fourfold reflection of its fourth-quadrant run
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(2000, 2))
    folded = np.column_stack([np.abs(pts[:, 0]), -np.abs(pts[:, 1])])
    np.testing.assert_allclose(
        nobst_model.gauge_many(pts), nobst_model.gauge_many(folded), rtol=1e-14, atol=0
    )


def test_nobst_witness(nobst_model):
    w = staircase.nobst_witness(nobst_model, range(1, 9))
    bounds = [b for _, b in w]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
    assert all(1.3 <= r <= 1.6 for r in ratios)
    # duplicate index gives the identical bound
    w2 = staircase.nobst_witness(nobst_model, [3, 3])
    assert w2[0][1] == w2[1][1]
    with pytest.raises(BadParameter):
        staircase.nobst_witness(nobst_model, [0])


def test_mid_arc_curvatures(nobst_model):
    for n in (1, 3, 7):
        th = nobst_model.theta_of_arclength(2.0**-n + 2.0 ** (-n - 3))
        sp = geometry.sphere_point(nobst_model, th)
        assert sp.curvature == pytest.approx(2.0**-n, rel=1e-12)


def test_closed_model_verdicts(nobst_model):
    assert classify.classify_st(nobst_model).kind == "yes"
    assert classify.classify_bst(nobst_model).kind == "no"
