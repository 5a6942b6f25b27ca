"""Faces read from the corner table (NormModel.faces) against a collinearity
oracle on the 1024-point sphere cache: the cache points of every face lie on
one line, and no collinear window of cache points lies off the faces. The
draws are symmetric polygons, quadrant mixes with a side of exponent 1 or
inf, blends of both, and the duals of all three."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from test_symmetry import _EXPONENTS, polygons

from normplane import gallery, models

#: collinearity tolerance of the oracle, absolute
FLAT_TOL = 1e-9

#: consecutive cache points the oracle asks to lie on one line
FLAT_WINDOW = 9

TWO_PI = 2.0 * math.pi


def collinear_triples(points: np.ndarray) -> np.ndarray:
    """For each consecutive triple of points, whether it is collinear: the
    cross product of its two edges within FLAT_TOL (1 + |first edge|^2)."""
    e = np.diff(points, axis=0)
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    return np.abs(cross) <= FLAT_TOL * (1.0 + np.einsum("ij,ij->i", e[:-1], e[:-1]))


def on_chord(points: np.ndarray) -> bool:
    """Whether every point lies within FLAT_TOL of the chord between the
    first and the last point."""
    chord = points[-1] - points[0]
    norm = float(np.hypot(chord[0], chord[1]))
    if norm == 0.0:
        return False
    rel = points - points[0]
    dev = np.abs(rel[:, 0] * chord[1] - rel[:, 1] * chord[0]) / norm
    return bool(np.max(dev) <= FLAT_TOL)


def _collinear_windows(model) -> np.ndarray:
    """The cache angles at the middle of each FLAT_WINDOW consecutive cache
    points (cyclically) that pass both collinearity tests."""
    cache = model.sphere_cache()
    pts, thetas = cache["points"], cache["thetas"]
    n, half = len(pts), FLAT_WINDOW // 2
    offsets = np.arange(-half, half + 1)
    # flat[j]: the triple j - 1, j, j + 1 is collinear
    flat = collinear_triples(pts[np.arange(-1, n + 1) % n])
    middles = [
        j
        for j in range(n)
        if flat[(j + offsets[1:-1]) % n].all() and on_chord(pts[(j + offsets) % n])
    ]
    return thetas[middles]


def _check_faces(model):
    faces = model.faces()
    los = [lo for lo, _ in faces]
    assert los == sorted(los)
    cache = model.sphere_cache()
    for lo, hi in faces:
        assert 0.0 <= lo < TWO_PI and 0.0 < hi - lo < math.pi, (lo, hi)
        # the face's ends and the cache points between them, in angular order
        rel = (cache["thetas"] - lo) % TWO_PI
        inside = np.flatnonzero((rel > 0.0) & (rel < hi - lo))
        pts = np.concatenate(
            [
                model.sphere_points_at(np.array([lo])),
                cache["points"][inside[np.argsort(rel[inside])]],
                model.sphere_points_at(np.array([hi])),
            ]
        )
        assert collinear_triples(pts).all() and on_chord(pts), (lo, hi)
    # every collinear window is centred on a face
    for theta in _collinear_windows(model):
        assert any((theta - lo) % TWO_PI <= hi - lo for lo, hi in faces), theta


def _flat_mixes():
    """Quadrant mixes with at least one side of exponent 1 or inf."""
    flat = hst.sampled_from([1.0, math.inf])
    return hst.one_of(
        hst.builds(models.make_quadrant_mix, flat, _EXPONENTS),
        hst.builds(models.make_quadrant_mix, _EXPONENTS, flat),
    )


_BASES = {"polygon": polygons(), "quadrant_mix": _flat_mixes()}
_PRIMALS = {
    **_BASES,
    **{
        f"blend:{name}": hst.builds(models.make_blend, base, hst.sampled_from([0.1, 1.0, 3.0]))
        for name, base in _BASES.items()
    },
}
_FAMILIES = {
    **_PRIMALS,
    **{f"dual:{name}": draw.map(models.dual_model) for name, draw in _PRIMALS.items()},
}


@pytest.mark.parametrize("family", _FAMILIES)
@given(data=hst.data())
@settings(max_examples=15, deadline=None)
def test_faces_agree_with_the_collinearity_oracle(family, data):
    _check_faces(data.draw(_FAMILIES[family]))


@pytest.mark.parametrize("name", gallery.names())
def test_gallery_faces_agree_with_the_collinearity_oracle(name):
    model = gallery.get(name)
    _check_faces(model)
    _check_faces(models.dual_model(model))


@pytest.mark.parametrize(
    "name",
    [n for n in gallery.names() if n not in ("l1", "linf", "l2_l1_hybrid", "hexagon")],
)
def test_strictly_convex_gallery_models_have_no_faces(name):
    # nobst's deepest arcs turn by less than 1e-9 rad, so the supports
    # either side of them agree to KINK_TOL: only their positive curvature
    # keeps them off the faces
    assert gallery.get(name).faces() == ()
