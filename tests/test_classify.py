"""Verdicts, flats, pilgrim probes, and the implication chain."""

import math

import numpy as np
import pytest

from normplane import classify, geometry


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
    from normplane import models

    nested = models.make_ellipse_pair(np.eye(2), 2.0 * np.eye(2))
    assert nested.kink_thetas().size == 0
    assert classify.classify_st(nested).kind == "yes"


def test_st_boundary_state():
    # a 1:960 ellipse needs outer radii within 10% of the operational cap:
    # the grid cannot tell that side apart, so the verdict is honest
    from normplane import models

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
    from normplane import models

    for base in (l1, linf, hexagon):
        v = classify.classify_st(models.make_blend(base, 1.0))
        assert v.kind == "no" and v.missing_side == "inner"
    assert classify.classify_umst(models.make_blend(linf, 1.0)).kind != "eligible_yes"


def test_delta_table_quantifier_order(pig_strict):
    table = classify.umst_delta_table(pig_strict, (0.1, 0.4), n_a=64, n_off=16)
    for eps, delta, pairs, failures in table:
        assert pairs == 64 * 16
        assert delta > 0


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
    from normplane import semigroup

    rng = np.random.default_rng(23)
    for model in (euclid, spliced, pig_strict):
        assert classify.classify_st(model).kind == "yes"
        for _ in range(100):
            x = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            y = geometry.sphere_point(model, float(rng.uniform(0, 2 * np.pi)))
            assert semigroup.orbit_map(model, x, y) is not None
