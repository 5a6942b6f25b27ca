"""Convexity moduli, power-type fits, and the decomposition inequality."""

import math
import zlib

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
    # the dual plane's modulus is the smoothness half of --dual-check's BST cross-check
    dual = models.dual_model(l1_5)
    fit = moduli.power2_fit(moduli.delta_curve(dual))
    assert fit is None  # conjugate exponent 3: power type 3, not 2
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


# the curves whose log-log slope over [0.02, 0.2] is not within 0.25 of 2:
# l4 reads 4.00, quadrant_mix 4.00 and its dual 3.00, l1_5's dual (l3) 3.00,
# grandpa_pig 3.99, nobst 2.50; the rest vanish somewhere on that decade
_NOT_POWER2 = {
    "l1", "linf", "l4", "quadrant_mix", "l2_l1_hybrid", "grandpa_pig", "nobst", "hexagon",
    "dual:l1", "dual:linf", "dual:l1_5", "dual:quadrant_mix", "dual:l2_l1_hybrid",
    "dual:two_ellipses", "dual:hexagon",
}


@pytest.mark.parametrize("name", _GALLERY_AND_DUALS)
def test_power2_fit_tests_power_type(name):
    """A coefficient exactly where the modulus is of power type 2 (both sides
    of the BST-yes models among them), None where it is of higher power type
    or vanishes."""
    fit = moduli.power2_fit(moduli.delta_curve(_curve_model(name)))
    if name in _NOT_POWER2:
        assert fit is None
    else:
        assert fit > 0.02


def test_power2_fit_window():
    eps = np.geomspace(0.02, 2.0, moduli.CURVE_GRID_N)
    curve = moduli.ModulusCurve("uniform_convexity", eps, 0.1 * eps**2)
    assert moduli.power2_fit(curve) == pytest.approx(0.1, rel=1e-12)
    curve.values = 0.1 * eps**4
    assert moduli.power2_fit(curve) is None  # c = 4e-6 > 0, but power type 4
    # one eps in [0.02, 0.2] gives no slope; a vanishing delta there, no log
    assert moduli.power2_fit(moduli.ModulusCurve("uniform_convexity", eps[31:], eps[31:] ** 2)) is None
    curve.values = np.where(eps < 0.05, 0.0, eps**2)
    assert moduli.power2_fit(curve) is None


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


def test_delta_curve_gauge_points(gauge_counter):
    """One curve: the sweep gauges only the pairs its <= 10 bracket steps read
    and polishes only the lanes that can hold their eps' minimum (2,650,072
    points on grandpa_pig_strict before that pruning, its 64-eps polish and
    zoom included); a 50-step bisection per sweep lane alone would gauge
    64 * 1024 * 50 = 3,276,800."""
    model = models.make_polar(sin_terms={4: 1.0 / 34.0})
    assert gauge_counter(model, lambda: moduli.delta_curve(model))[1] <= 2_700_000


def test_delta_uc_gauge_points(ellipse_2_1, l4, gauge_counter):
    """One delta_uc call: <= 10 bracket steps, the bracket-end depths and the
    polish of the sweep lanes that can hold the minimum, then the 50-step
    zoom (69,090 points on all 1024 base points; 227,810 when every sweep
    lane bisected for 50 steps). On the ellipse no lane is pruned (43,490
    points); on l4 at eps = 0.5 all but a few dozen of the 1024 are (25,562
    points, against 41,442 polishing them all)."""
    assert gauge_counter(ellipse_2_1, lambda: moduli.delta_uc(ellipse_2_1, 0.5))[1] <= 45_000
    assert gauge_counter(l4, lambda: moduli.delta_uc(l4, 0.5))[1] <= 27_000


def _unpruned_rows(model, eps):
    """The sweep's rows with every bracketed lane polished, as before the
    pruning: the oracle of the pruned sweep."""
    n = models.SPHERE_CACHE_N
    base, sign, k, d_lo, d_hi, e = moduli._sweep_brackets(model, eps)
    depth = np.full(e.size, np.inf)
    found = np.nonzero(k <= n // 2)[0]
    depth[found] = moduli._polish_depths(model, *(a[found] for a in (base, sign, k, d_lo, d_hi, e)))
    depth = depth.reshape(len(eps), n)
    return np.minimum(depth[:, : n // 2], depth[:, n // 2 :])


@pytest.mark.parametrize("name", _GALLERY_AND_DUALS)
def test_sweep_pruning_keeps_argmin_and_values(name):
    """Pruned base points read inf, every other entry is the unpruned
    sweep's bit for bit, and each row's argmin, where the zoom starts, is the
    unpruned one: on the curve grid and on random eps."""
    model = _curve_model(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    curve_grid = np.geomspace(moduli.CURVE_EPS_MIN, 2.0, moduli.CURVE_GRID_N)
    eps = np.concatenate([curve_grid, np.exp(rng.uniform(np.log(0.02), np.log(2.0), 8))])
    rows, want = moduli._sweep_depths(model, eps), _unpruned_rows(model, eps)
    assert np.array_equal(np.argmin(rows, axis=1), np.argmin(want, axis=1))
    finite = np.isfinite(rows)
    assert np.array_equal(rows[finite], want[finite])


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


@pytest.mark.parametrize("name", _GALLERY_AND_DUALS)
def test_curve_within_nordlander_and_monotone(name):
    """0 <= delta(eps) <= 1 - sqrt(1 - eps^2/4) (Nordlander) and delta never
    decreases, on every gallery curve and its dual's."""
    curve = moduli.delta_curve(_curve_model(name))
    eps, values = curve.eps_grid, curve.values
    assert np.all(values <= 1.0 - np.sqrt(1.0 - eps**2 / 4.0) + 1e-12)
    assert np.all(values >= -1e-12)
    assert np.all(np.diff(values) >= -1e-12)
