"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5's minimum-curvature clause is implemented exactly as stated and
expected to fail: the profile 1 + sin(4 theta)/17 has curvature exactly zero
at theta = 3 pi / 8 + k pi / 2 (the amplitude sits on the degeneracy boundary
1 / (n^2 + 1) for n = 4), so its sphere curvature minimum is 0, not > 0.5.
The strict-variant model (amplitude 1/34) realizes the intended behavior and
is covered by the implication-chain criterion.
"""

import math

import numpy as np
import pytest

from normplane import classify, curvature, gallery, geometry, models, moduli, semigroup, staircase, tangency
from normplane.geometry import LinearMap2, Vec2


def _line(n, label, ok=True):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)


def test_criterion_01_figure_matrices_exact(l1):
    t1 = LinearMap2.from_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]) / 2.0)
    t2 = LinearMap2.from_matrix(np.array([[3.0, 1.0], [0.0, 2.0]]) / 3.0)
    y1 = t1.apply(Vec2(0.5, 0.5))
    assert (y1.x1, y1.x2) == (0.25, 0.75)
    y2 = t2.apply(Vec2(0.25, 0.75))
    assert (y2.x1, y2.x2) == (0.5, 0.5)
    for t in (t1, t2):
        oracle = float(np.abs(t.matrix()).sum(axis=0).max())  # max column sum
        assert abs(oracle - 1.0) <= 1e-12
        assert abs(float(geometry.operator_norm(l1, t)) - oracle) <= 1e-9
    _line(1, "the two unit-norm maps act exactly and have l1 norm 1")


def test_criterion_02_round_modulus_closed_form(euclid):
    for eps in np.linspace(0.1, 2.0, 20):
        want = 1.0 - math.sqrt(1.0 - (float(eps) / 2.0) ** 2)
        assert moduli.delta_uc(euclid, float(eps)) == pytest.approx(want, abs=1e-4)
    fit = moduli.power2_fit(moduli.delta_curve(euclid))
    assert 0.124 <= fit <= 0.126
    _line(2, f"round modulus matches the closed form; power-2 fit {fit:.6f}")


def test_criterion_03_curvature_scale_law(euclid, pig):
    # 16 base points on the half-offset grid (the 1/17 polar model has
    # isolated zero-curvature points; the offset grid keeps kappa > 0)
    thetas = (np.arange(16) + 0.5) * (2.0 * np.pi / 16.0)
    for model in (euclid, pig):
        for eps in (0.1, 0.25, 0.5):
            for th in thetas:
                a = geometry.sphere_point(model, float(th))
                _, _, ratio = curvature.scale_law_check(model, a, eps)
                assert ratio == pytest.approx((1.0 - eps) ** -2, rel=1e-3)
    _line(3, "image-curve curvature scales by (1 - eps)^-2 on both models")


def test_criterion_04_lp_classification(l1_5, l4, euclid, mix):
    v = classify.classify_st(l1_5)
    assert v.kind == "no" and v.missing_side == "inner"
    assert _axis_distance(v.witness_theta) <= 1e-6
    v = classify.classify_st(l4)
    assert v.kind == "no" and v.missing_side == "outer"
    assert _axis_distance(v.witness_theta) <= 1e-6
    assert classify.classify_st(euclid).kind == "yes"
    assert classify.classify_st(mix).kind == "no"
    e1 = geometry.sphere_point(mix, 0.0)
    for th in (0.7, 2.3, 4.1):
        y = geometry.sphere_point(mix, th)
        assert semigroup.orbit_map(mix, e1, y) is None
        assert semigroup.orbit_map(mix, y, e1) is None
    _line(4, "lp and mixed-exponent planes classify with axis witnesses")


def _axis_distance(theta):
    return min(abs(theta % (np.pi / 2)), np.pi / 2 - theta % (np.pi / 2))


def test_criterion_05a_polar_model_validates(pig):
    # construction succeeded, so the convexity expression was positive on the
    # 4096-point validation grid; re-check here explicitly
    grid = (np.arange(4096) + 0.5) * (2.0 * np.pi / 4096)
    g = pig.g_many(grid)
    gp = pig.g_many(grid, 1)
    gpp = pig.g_many(grid, 2)
    assert np.min(2 * gp**2 + g**2 - g * gpp) > 0
    _line(5, "profile 1 + sin(4 theta)/17 validates; convexity expression positive on grid")


@pytest.mark.xfail(
    reason="the stated bound is unattainable: amplitude 1/17 = 1/(n^2 + 1) makes"
    " the sphere curvature vanish at 3 pi / 8 + k pi / 2, so the oracle-confirmed"
    " minimum is 0, not > 0.5",
)
def test_criterion_05b_polar_min_curvature(pig):
    kmin = classify.refined_kappa_min(pig)
    oracle = min(
        curvature.curvature_polar(
            float(pig.g_many(np.array([t]))[0]),
            float(pig.g_many(np.array([t]), 1)[0]),
            float(pig.g_many(np.array([t]), 2)[0]),
        )
        for t in np.linspace(0, np.pi, 20001)
    )
    assert abs(kmin - oracle) <= 1e-4  # the sweep agrees with the oracle ...
    ok = kmin > 0.5
    _line(5, f"min curvature > 0.5 (refined minimum {kmin!r}, oracle {oracle!r})", ok)
    assert ok  # ... but the stated bound itself fails


def test_criterion_05c_empirical_delta_table(pig):
    table = classify.umst_delta_table(pig, (0.05, 0.1, 0.2, 0.4))
    for eps, delta, pairs, failures in table:
        assert pairs == 256 * 32
        assert delta > 0.0
    _line(5, "empirical delta(eps) strictly positive for each eps row")


def test_criterion_06_shrink_map_suite(euclid, pig, blend_l4):
    eps_grid = np.linspace(0.1, 0.9, 9)
    a_grid = (np.arange(64) + 0.5) * (2.0 * np.pi / 64)
    rng = np.random.default_rng(42)
    hats = []
    for model in (euclid, pig, blend_l4):
        for th in a_grid:
            a = geometry.sphere_point(model, float(th))
            # the 9 maps and their distances to the identity: 18 lanes of one search
            ts = [semigroup.make_L_ab(model, a, a, float(eps)).matrix() for eps in eps_grid]
            norms, _ = geometry.operator_norms(model, np.concatenate([ts, np.array(ts) - np.eye(2)]))
            assert np.all(np.abs(norms[:9] - 1.0) <= 1e-6)
            assert np.all(norms[9:] <= 2.0 * eps_grid + 1e-6)
        # empirical Lipschitz-style constant over 10^4 sampled pairs
        a_th = rng.uniform(0, 2 * np.pi, 10_000)
        off = rng.uniform(-0.5, 0.5, 10_000)
        eps_s = rng.uniform(0.0, 0.9, 10_000)
        sup_a = geometry.sphere_data(model, a_th)["supports"]
        sup_b = geometry.sphere_data(model, a_th + off)["supports"]
        pa = model.sphere_points_at(a_th)
        pb = model.sphere_points_at(a_th + off)
        ta = np.column_stack([-sup_a[:, 1], sup_a[:, 0]])
        ta /= model.gauge_many(ta)[:, None]
        tb = np.column_stack([-sup_b[:, 1], sup_b[:, 0]])
        tb /= model.gauge_many(tb)[:, None]
        src_inv = np.linalg.inv(np.stack([pa, ta], axis=-1))
        dst = np.stack([pb, (1.0 - eps_s)[:, None] * tb], axis=-1)
        mats = dst @ src_inv - np.eye(2)
        dists = geometry.operator_norm_batch(model, mats)
        denom = model.gauge_many(pa - pb) + eps_s
        c_hat = float(np.max(dists / denom))
        assert np.isfinite(c_hat) and c_hat > 0
        assert np.all(dists <= c_hat * denom + 1e-12)
        hats.append(round(c_hat, 3))
    _line(6, f"shrink-map suite holds; empirical constants {hats}")


def test_criterion_07_staircase_build(nobst_model):
    depth = nobst_model.params["depth"]
    curve = staircase.integrate_curve(staircase.staircase_function(depth))
    series = 1.0 - sum(2.0 ** (-n - 2) * (1.0 - 2.0**-n) for n in range(1, depth + 1))
    assert curve.K[-1] == pytest.approx(series, abs=1e-12)  # series oracle
    assert abs(curve.K[-1] - 5.0 / 6.0) <= 1e-6
    samples = np.linspace(1e-4, 1.0, 1000)
    k_at = np.interp(samples, curve.s, curve.K)
    assert np.all((0.6 * samples <= k_at + 1e-12) & (k_at <= samples + 1e-12))
    d = np.hypot(curve.points[:, 0], curve.points[:, 1] + 1.0)
    assert d.max() <= 5.0 / 3.0 + 1e-6
    assert classify.classify_st(nobst_model).kind == "yes"
    w = staircase.nobst_witness(nobst_model, range(1, 9))
    bounds = [b for _, b in w]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
    assert all(1.3 <= r <= 1.6 for r in ratios)
    theta0 = nobst_model.theta_of_arclength(0.0)
    disc = tangency.outer_disc(nobst_model, geometry.sphere_point(nobst_model, theta0))
    assert disc is not None and disc.radius <= 5.0 / 3.0 + 1e-6
    _line(7, f"staircase build verified; witness ratios ~ {ratios[0]:.4f}")


def test_criterion_08_dual_agreement():
    # the whole gallery and the blends of l1.5, whose axis points of infinite
    # curvature are their duals' points of curvature 0
    checked = {name: gallery.get(name) for name in gallery.names()}
    for eps in (0.01, 1.0, 10.0):
        checked[f"blend(l1_5, {eps})"] = models.make_blend(gallery.get("l1_5"), eps)
    kinds = {}
    for name, model in checked.items():
        # raises when the dual's ST verdict differs, or when the BST verdict
        # differs from the power-type-2 test on both sides' moduli
        verdict = classify.classify(model, dual_check=True)
        kinds[name] = verdict.st.kind, verdict.bst.kind
    assert len(kinds) == 18
    assert {"yes", "no"} <= {bst for _, bst in kinds.values()}
    assert all(kinds[f"blend(l1_5, {eps})"][0] == "no" for eps in (0.01, 1.0, 10.0))
    _line(8, f"ST verdicts and BST moduli agree with the duals on {len(kinds)} models")


SMOOTH_GALLERY = (
    "euclidean",
    "l1_5",
    "l4",
    "quadrant_mix",
    "grandpa_pig",
    "grandpa_pig_strict",
    "blend_l4",
    "ellipse_2_1",
)


def test_criterion_09_decomposition_inequality():
    rng = np.random.default_rng(99)
    for name in SMOOTH_GALLERY:
        model = gallery.get(name)
        bases = [geometry.sphere_point(model, t) for t in (0.37, 1.73, 3.41, 5.02)]
        for base in bases:
            for _ in range(250):
                z = rng.normal(size=2)
                z = z / model.gauge(z) * rng.uniform(0.0, 1.0)
                t, u, holds = moduli.decomposition_check(model, base, tuple(z))
                assert holds
    _line(9, f"decomposition inequality holds at 1000 ball points x {len(SMOOTH_GALLERY)} models")


_ST_RANK = {"no": 0, "boundary": 1, "yes": 2}
_BST_RANK = {"no": 0, "unknown": 1, "yes": 2}
_UMST_RANK = {"no": 0, "unknown": 1, "eligible_yes": 2}


def test_criterion_10_implication_chain(all_gallery):
    rows = {}
    for name, model in all_gallery.items():
        st = classify.classify_st(model)
        bst = classify.classify_bst(model)
        umst = classify.classify_umst(model)
        rows[name] = (st.kind, bst.kind, umst.kind)
        if _UMST_RANK[umst.kind] == 2:
            assert _BST_RANK[bst.kind] != 0, (name, rows[name])
        if _BST_RANK[bst.kind] == 2:
            assert _ST_RANK[st.kind] != 0, (name, rows[name])
    assert len(rows) >= 10
    # the strict-variant polar model exhibits the full positive chain
    assert rows["grandpa_pig_strict"] == ("yes", "yes", "eligible_yes")
    assert rows["euclidean"] == ("yes", "yes", "eligible_yes")
    assert rows["nobst"][0] == "yes" and rows["nobst"][1] == "no"
    _line(10, f"no chain violation across {len(rows)} gallery models")
