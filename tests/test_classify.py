"""Verdicts, flats, pilgrim probes, and the implication chain."""

import math

import numpy as np
import pytest

from normplane import classify, geometry, models, semigroup
from normplane.errors import BadParameter
from normplane.numerics import phase_grid


def test_st_verdicts(euclid, l4, l1_5, spliced, mix):
    assert classify.classify_st(euclid).kind == "yes"
    v = classify.classify_st(l4)
    assert v.kind == "no" and v.missing_side == "outer"
    assert min(abs(v.witness_theta % (np.pi / 2)), np.pi / 2 - v.witness_theta % (np.pi / 2)) < 1e-6
    v = classify.classify_st(l1_5)
    assert v.kind == "no" and v.missing_side == "inner"
    assert classify.classify_st(spliced).kind == "yes"
    assert classify.classify_st(mix).kind == "no"
    # one ellipse ball inside the other: the forms never cross, so the sphere
    # is the inner ball's circle, with no corners
    nested = models.make_ellipse_pair(np.eye(2), 2.0 * np.eye(2))
    assert nested.kink_thetas().size == 0
    assert classify.classify_st(nested).kind == "yes"


@pytest.mark.parametrize(
    "m1, m2, axes",
    [
        (np.eye(2), 0.25 * np.eye(2), (1.0, 1.0)),
        (0.25 * np.eye(2), np.eye(2), (1.0, 1.0)),
        (np.diag([1.0, 0.25]), 0.25 * np.eye(2), (1.0, 2.0)),
    ],
    ids=["nested", "reversed", "touching"],
)
def test_nested_ellipse_pair_is_one_ellipse(m1, m2, axes):
    """Where m1 - m2 is semidefinite one ball holds the other (the touching
    pair meets on two points), and the pair is the larger form's ellipse:
    same verdict, same numbers, and the exact inverse-form dual."""
    pair = models.make_ellipse_pair(m1, m2)
    ball = models.make_ellipse(*axes)
    v, want = classify.classify(pair), classify.classify(ball)
    assert (v.st.kind, v.bst.kind, v.umst.kind) == (want.st.kind, want.bst.kind, want.umst.kind)
    assert abs(v.bst.lam - want.bst.lam) <= 1e-12
    assert abs(v.umst.kappa_min - want.umst.kappa_min) <= 1e-12
    dual = models.dual_model(pair)
    assert isinstance(dual, models.EllipseMaxNorm) and dual.single
    assert np.array_equal(dual.m1, np.linalg.inv(ball.m1))


def test_st_boundary_state():
    # a 1:960 ellipse needs outer radii within 10% of the operational cap:
    # the grid cannot tell that side apart, so the verdict is honest
    eccentric = models.make_ellipse(1.0, 960.0)
    assert classify.classify_st(eccentric).kind == "boundary"


def test_st_dual_agreement(euclid, l4):
    # the dual check runs the sampled dual plane and must agree
    assert classify.classify_st(euclid, dual_check=True).kind == "yes"
    assert classify.classify_st(l4, dual_check=True).kind == "no"


def test_bst_verdicts(euclid, nobst_model, pig_strict, linf):
    v = classify.classify_bst(euclid)
    assert v.kind == "yes" and v.lam == pytest.approx(1.0, abs=1e-6)
    assert classify.classify_bst(nobst_model).kind == "no"
    v = classify.classify_bst(pig_strict)
    assert v.kind == "yes" and v.lam < 10
    assert classify.classify_bst(linf).kind == "no"


def test_umst_verdicts(euclid, pig_strict, pig, l4, spliced):
    v = classify.classify_umst(euclid)
    assert v.kind == "eligible_yes"
    assert all(row[1] > 0 for row in v.delta_table)
    v = classify.classify_umst(pig_strict)
    assert v.kind == "eligible_yes"
    assert v.kappa_min == pytest.approx(0.5307621671, rel=1e-6)
    deltas = [row[1] for row in v.delta_table]
    assert all(d > 0 for d in deltas)
    assert deltas == sorted(deltas)  # larger eps admits larger delta
    # amplitude 1/17 sits on the degeneracy boundary: curvature vanishes at
    # four points, so the positive-curvature hypothesis fails
    v = classify.classify_umst(pig)
    assert v.kind == "no" and v.kappa_min <= 1e-9
    assert classify.classify_umst(l4).kind == "no"
    assert classify.classify_umst(spliced).kind == "unknown"


def test_blend_of_polyhedral_base_is_not_st(l1, linf, hexagon):
    # sqrt(b^2 + eps |x|^2) keeps a corner on every corner ray of b, so the
    # inner-disc side fails there
    for base in (l1, linf, hexagon):
        v = classify.classify_st(models.make_blend(base, 1.0))
        assert v.kind == "no" and v.missing_side == "inner"
    assert classify.classify_umst(models.make_blend(linf, 1.0)).kind != "eligible_yes"


def test_delta_table_quantifier_order(pig_strict):
    table = classify.umst_delta_table(pig_strict, (0.1, 0.4), n_a=64, n_off=16)
    for eps, delta, pairs, failures in table:
        assert pairs == 64 * 16
        assert delta > 0


def _full_grid_delta_table(model, eps_values, n_a, n_off):
    """umst_delta_table on all n_a base points, each map's norm scanned over
    the whole OPNORM_BATCH_GRID grid: the table before halving."""
    pair_a = np.repeat(phase_grid(n_a), n_off)
    pair_b = pair_a + np.tile(np.geomspace(1e-3, 0.75, n_off), n_a)
    a, b = geometry.sphere_data(model, pair_a), geometry.sphere_data(model, pair_b)
    dists = model.gauge_many(a["points"] - b["points"])
    src_inv = np.linalg.inv(np.stack([a["points"], a["tangents"]], axis=-1))
    grid = model.sphere_points_at(phase_grid(geometry.OPNORM_BATCH_GRID))
    rows = []
    for eps in eps_values:
        mats = np.stack([b["points"], (1.0 - eps) * b["tangents"]], axis=-1) @ src_inv
        failing = geometry._operator_norms(model, mats, grid, 60)[0] > 1.0 + semigroup.CERTIFY_TOL
        delta = dists[failing].min() if failing.any() else dists.max()
        rows.append((eps, float(delta), len(mats), int(failing.sum())))
    return rows


def test_delta_table_halves_the_grid(pig_strict):
    # the pair at a + pi, b + pi has its twin's map and distance: the half
    # table reports even counts, the full grid's counts exactly, and its delta
    eps_values = (0.05, 0.1, 0.2, 0.4)
    table = classify.umst_delta_table(pig_strict, eps_values, n_a=64, n_off=16)
    full = _full_grid_delta_table(pig_strict, eps_values, 64, 16)
    assert any(row[3] for row in table)
    for (eps, delta, pairs, failures), (_, want, want_pairs, want_failures) in zip(table, full):
        assert pairs % 2 == 0 and failures % 2 == 0
        assert (pairs, failures) == (want_pairs, want_failures), eps
        assert abs(delta - want) <= 1e-12 * want, eps


def test_delta_table_gauge_points(pig_strict, monkeypatch):
    """The verdict's table gauges 6,248,448 points on half the base points,
    each map scanned on half the grid (20,889,600 on the full grids)."""
    points = []
    gauge_many = pig_strict.gauge_many

    def counting(pts):
        points.append(len(pts))
        return gauge_many(pts)

    monkeypatch.setattr(pig_strict, "gauge_many", counting)
    classify.umst_delta_table(pig_strict, (0.05, 0.1, 0.2, 0.4))
    assert sum(points) <= 6_500_000


@pytest.mark.parametrize("n_a, n_off", [(63, 16), (0, 16), (64, 0)])
def test_delta_table_rejects_bad_grids(pig_strict, n_a, n_off):
    # halving needs an even number of base points
    with pytest.raises(BadParameter):
        classify.umst_delta_table(pig_strict, (0.1,), n_a=n_a, n_off=n_off)


_NOT_ISOTROPIC = pytest.mark.xfail(
    reason="verdicts are decided in the coordinates the model arrives in, so the "
    "absolute disc floor, cap and ratio thresholds reject stretched and scaled circles",
)


@_NOT_ISOTROPIC
@pytest.mark.parametrize("axes", [(100.0, 1.0), (1e-7, 1e-7), (1e7, 1e7)])
def test_linear_images_of_the_circle_classify_as_the_circle(axes):
    # a linear isomorphism is an isometry from N o A onto N: every ellipse
    # is the Euclidean plane, whose verdict is yes / yes / eligible_yes
    v = classify.classify(models.make_ellipse(*axes))
    assert (v.st.kind, v.bst.kind, v.umst.kind) == ("yes", "yes", "eligible_yes")


def test_find_flat(l1, euclid, hybrid, l4):
    faces = classify.find_flat(l1)
    assert len(faces) == 4
    # each face spans just under a quarter turn
    for lo, hi in faces:
        assert hi - lo == pytest.approx(np.pi / 2, abs=0.02)
    assert classify.find_flat(euclid) == ()
    assert classify.find_flat(l4) == ()
    faces = classify.find_flat(hybrid)
    assert len(faces) == 2
    # the flat quadrants are II and IV
    mids = sorted(((lo + hi) / 2) % (2 * np.pi) for lo, hi in faces)
    assert mids[0] == pytest.approx(3 * np.pi / 4, abs=0.02)
    assert mids[1] == pytest.approx(7 * np.pi / 4, abs=0.02)


def test_pilgrim_probe(euclid, mix, l1):
    x = geometry.sphere_point(euclid, 0.3)
    assert classify.pilgrim_probe(euclid, x, grid=64) == "likely_yes"
    e1 = geometry.sphere_point(mix, 0.0)
    assert classify.pilgrim_probe(mix, e1, grid=64) == "likely_no"
    face = geometry.sphere_point(l1, math.atan2(0.5, 0.5))
    assert classify.pilgrim_probe(l1, face, grid=64) == "likely_yes"


def test_pilgrim_density_lost_on_hybrid(hybrid):
    # a face point of the mixed plane only reaches flat targets
    face = geometry.sphere_point(hybrid, 3 * math.pi / 4)
    assert classify.pilgrim_probe(hybrid, face, grid=64) == "likely_no"


def test_full_verdict(euclid):
    v = classify.classify(euclid, pilgrim_grid=32)
    assert v.st.kind == "yes" and v.bst.kind == "yes" and v.umst.kind == "eligible_yes"
    assert v.pilgrim_dense == "likely_yes"
    assert v.flat_points == ()


def test_orbit_follows_st(euclid, spliced, pig_strict):
    rng = np.random.default_rng(23)
    for model in (euclid, spliced, pig_strict):
        assert classify.classify_st(model).kind == "yes"
        for _ in range(100):
            x = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            y = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            assert semigroup.orbit_map(model, x, y) is not None
