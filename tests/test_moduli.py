"""Convexity moduli, power-type fits, and the decomposition inequality."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from normplane import gallery, geometry, models, moduli
from normplane.errors import BadEps


def delta2(eps: float) -> float:
    """Closed form for the round modulus of uniform convexity."""
    return 1.0 - math.sqrt(1.0 - (eps / 2.0) ** 2)


def test_delta_uc_euclid_closed_form(euclid):
    for eps in np.linspace(0.1, 2.0, 20):
        assert moduli.delta_uc(euclid, float(eps)) == pytest.approx(
            delta2(float(eps)), abs=1e-4
        )


def test_delta_uc_edge_cases(euclid, linf):
    assert moduli.delta_uc(linf, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert moduli.delta_uc(euclid, 2.0) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(BadEps):
        moduli.delta_uc(euclid, 0.0)
    with pytest.raises(BadEps):
        moduli.delta_uc(euclid, 2.5)


def test_delta_strong(euclid, linf):
    x = geometry.sphere_point(euclid, 0.9)
    assert moduli.delta_strong(euclid, x, 0.6) == pytest.approx(0.2, abs=1e-4)
    face = geometry.sphere_point(linf, 0.0)
    assert moduli.delta_strong(linf, face, 0.5) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(BadEps):
        moduli.delta_strong(euclid, x, 1.5)


def test_delta_strong_small_eps_monotone(euclid):
    x = geometry.sphere_point(euclid, 0.2)
    values = [moduli.delta_strong(euclid, x, e) for e in (0.05, 0.1, 0.2, 0.4)]
    assert values[0] < values[1] < values[2] < values[3]
    assert values[0] == pytest.approx(delta2(2 * 0.05), abs=1e-4)


def test_power2_fit(euclid, linf, pig_strict):
    fit = moduli.power2_fit(moduli.delta_curve(euclid))
    assert 0.124 <= fit <= 0.126
    assert moduli.power2_fit(moduli.delta_curve(linf)) is None
    assert moduli.power2_fit(moduli.delta_curve(pig_strict)) > 1e-3


def test_curve_monotone(euclid, pig_strict, l4):
    for model in (euclid, pig_strict, l4):
        values = moduli.delta_curve(model).values
        assert np.all(np.diff(values) >= -1e-6)


def test_delta_vs_strong_relation(euclid, pig_strict):
    """delta(2 eps) <= inf over sampled base points of Delta(x, eps) + 1e-3,
    with near equality on smooth strictly convex models."""
    for model in (euclid, pig_strict):
        for eps in (0.2, 0.5):
            d2e = moduli.delta_uc(model, 2 * eps)
            inf_strong = min(
                moduli.delta_strong(model, geometry.sphere_point(model, float(t)), eps)
                for t in np.linspace(0, 2 * np.pi, 64, endpoint=False)
            )
            assert d2e <= inf_strong + 1e-3
            assert abs(d2e - inf_strong) <= 5e-3


def test_outer_disc_power2_bound(euclid, pig_strict, ellipse_2_1):
    """With outer discs of radius <= r_sup everywhere, the power-2 fit stays
    above a conversion-constant multiple of 1/(8 r_sup), up to a documented
    safety factor for the sampled norm equivalences."""
    from normplane.classify import tangency_sweep

    for model in (euclid, pig_strict, ellipse_2_1):
        sweep = tangency_sweep(model)
        if not np.all(sweep.outer_ok):
            continue
        r_sup = float(np.max(sweep.r_outer))
        pts = model.fine_points()
        rad = np.hypot(pts[:, 0], pts[:, 1])
        m_lo, m_hi = float(rad.min()), float(rad.max())
        bound = m_lo**2 / (8.0 * r_sup * m_hi)
        fit = moduli.power2_fit(moduli.delta_curve(model))
        assert fit is not None
        assert fit >= 0.9 * bound - 1e-3


def test_decomposition_check(euclid, pig_strict):
    x = geometry.sphere_point(euclid, 0.0)
    t, u, holds = moduli.decomposition_check(euclid, x, (0.0, 1.0))
    assert t == pytest.approx(0.0, abs=1e-12)
    assert (u.x1, u.x2) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert holds
    t, u, holds = moduli.decomposition_check(euclid, x, x.point)
    assert t == pytest.approx(1.0, rel=1e-12) and holds
    rng = np.random.default_rng(14)
    for model in (euclid, pig_strict):
        base = geometry.sphere_point(model, 1.234)
        for _ in range(200):
            z = rng.normal(size=2)
            z = z / max(model.gauge(z), 1e-9) * rng.uniform(0, 1)
            _, _, holds = moduli.decomposition_check(model, base, tuple(z))
            assert holds


def test_curve_csv(euclid):
    text = moduli.delta_curve(euclid).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "eps,delta"
    eps, val = lines[-1].split(",")
    assert float(eps) == pytest.approx(2.0)
    assert float(val) == pytest.approx(1.0, abs=1e-3)


def test_dual_curve_power2(euclid, l1_5):
    # the dual plane's modulus drives the smoothness half of the BST check
    dual = models.dual_model(l1_5)
    fit = moduli.power2_fit(moduli.delta_curve(dual))
    assert fit is not None  # conjugate exponent 3 still has a grid-positive fit
    dual_e = models.dual_model(euclid)
    assert moduli.power2_fit(moduli.delta_curve(dual_e)) == pytest.approx(0.125, abs=2e-3)


def test_delta_at_two(l1, linf, hexagon, hybrid, euclid, ellipse_2_1):
    """N(x - y) = 2 puts x and -y on one face, so delta(2) is 1 - (longest
    face, in the gauge) / 2: 0 on l1 and linf, 1/2 on the hexagon, 1 - 1/sqrt2
    on the l2/l1 hybrid (its l1 faces have gauge length sqrt2), 1 on a
    strictly convex sphere."""
    for model, want, tol in (
        (l1, 0.0, 1e-3),
        (linf, 0.0, 1e-3),
        (hexagon, 0.5, 1e-3),
        (hybrid, 1.0 - math.sqrt(2.0) / 2.0, 1e-9),
        (euclid, 1.0, 1e-9),
        (ellipse_2_1, 1.0, 1e-9),
    ):
        assert moduli.delta_uc(model, 2.0) == pytest.approx(want, abs=tol)
        assert moduli.delta_curve(model).values[-1] == pytest.approx(want, abs=tol)


def _curve_model(name: str):
    """A gallery model by name, or its dual for "dual:<name>"."""
    if name.startswith("dual:"):
        return models.dual_model(gallery.get(name[5:]))
    return gallery.get(name)


_GALLERY_AND_DUALS = [tag + name for name in gallery.names() for tag in ("", "dual:")]


@pytest.mark.parametrize("name", _GALLERY_AND_DUALS)
def test_curve_matches_single_eps(name):
    """The curve and delta_uc run one sweep on the same distances, so the
    curve is delta_uc at each of its eps, bit for bit."""
    model = _curve_model(name)
    curve = moduli.delta_curve(model)
    for k in [*range(0, moduli.CURVE_GRID_N, 8), moduli.CURVE_GRID_N - 1]:
        assert curve.values[k] == moduli.delta_uc(model, float(curve.eps_grid[k])), k


@pytest.mark.parametrize(
    "name, faced",
    [
        ("hexagon", True),
        ("nobst", False),
        ("l1_5", False),
        ("spliced", False),
        ("dual:grandpa_pig_strict", False),
    ],
)
def test_sweep_rows_match_one_eps_sweeps(name, faced):
    """The sweep's lanes never mix eps: each row of a sweep over the whole
    curve grid equals the sweep at that eps alone, bit for bit. That includes
    eps = 2 on a faced sphere, where d is flat at the level eps and the row's
    depth falls below 1."""
    model = _curve_model(name)
    eps_grid = moduli.delta_curve(model).eps_grid
    rows = moduli._sweep_depths(model, eps_grid)
    assert (rows[-1].min() < 0.99) == faced
    for j, eps in enumerate(eps_grid):
        assert np.array_equal(moduli._sweep_depths(model, eps_grid[j : j + 1])[0], rows[j]), float(eps)


def _gauge_points(model, monkeypatch, run) -> int:
    """Points model.gauge_many evaluates during run()."""
    points = []
    gauge_many = model.gauge_many

    def counting(pts):
        points.append(len(pts))
        return gauge_many(pts)

    monkeypatch.setattr(model, "gauge_many", counting)
    run()
    return sum(points)


def test_delta_curve_gauge_points(monkeypatch):
    """One curve: the sweep gauges only the pairs its <= 10 bracket steps read
    (2,650,072 points on grandpa_pig_strict, its 64-eps polish and zoom
    included); a 50-step bisection per sweep lane alone would gauge
    64 * 1024 * 50 = 3,276,800."""
    model = models.make_polar(sin_terms={4: 1.0 / 34.0})
    assert _gauge_points(model, monkeypatch, lambda: moduli.delta_curve(model)) <= 2_700_000


def test_delta_uc_gauge_points(ellipse_2_1, monkeypatch):
    """One delta_uc call: <= 10 bracket steps and the polish on the 1024
    sweep lanes (512 base points, both branches), then the 50-step zoom
    (69,090 points on all 1024 base points; 227,810 when every sweep lane
    bisected for 50 steps)."""
    assert _gauge_points(ellipse_2_1, monkeypatch, lambda: moduli.delta_uc(ellipse_2_1, 0.5)) <= 45_000


def _clarkson(p: float):
    return lambda eps: 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def _hanner(p: float):
    """Solve (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2 for d (1 < p < 2)."""

    def delta(eps: float) -> float:
        h = eps / 2.0
        u = brentq(lambda u: (u + h) ** p + abs(u - h) ** p - 2.0, 0.0, 1.0, xtol=1e-15, rtol=1e-15)
        return 1.0 - u

    return delta


@pytest.mark.parametrize(
    "name, reference",
    [
        ("euclidean", delta2),
        ("ellipse_2_1", delta2),  # delta is invariant under linear isomorphisms
        ("l4", _clarkson(4.0)),
        ("l1_5", _hanner(1.5)),
    ],
)
def test_curve_closed_forms(name, reference):
    curve = moduli.delta_curve(gallery.get(name))
    for eps, value in zip(curve.eps_grid, curve.values):
        want = reference(float(eps))
        assert abs(value - want) <= 1e-5 * want + 1e-12, (float(eps), value, want)


_SPLINE_OVERSHOOT = pytest.mark.xfail(
    reason="the sampled DualNorm spline likely overshoots at the dual's corners: "
    "delta dips below 0 (-1.3e-8 on two_ellipses' dual) and falls on 22 grid steps",
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_SPLINE_OVERSHOOT) if name == "dual:two_ellipses" else name
        for name in _GALLERY_AND_DUALS
    ],
)
def test_curve_within_nordlander_and_monotone(name):
    """0 <= delta(eps) <= 1 - sqrt(1 - eps^2/4) (Nordlander) and delta never
    decreases, on every gallery curve and its dual's."""
    curve = moduli.delta_curve(_curve_model(name))
    eps, values = curve.eps_grid, curve.values
    assert np.all(values <= 1.0 - np.sqrt(1.0 - eps**2 / 4.0) + 1e-12)
    assert np.all(values >= -1e-12)
    assert np.all(np.diff(values) >= -1e-12)
